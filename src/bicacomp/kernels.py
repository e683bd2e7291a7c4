"""Hot inner loops: the entropy coder and the quantizer assignment.

Each kernel is one plain Python/NumPy function that returns its output.

The coder is a single-lane static rANS coder (Duda, *Asymmetric numeral
systems*, arXiv:1311.2540) over frequency tables with a total of
``2**FREQ_BITS``. Its state is a Python int below 2^64 and it emits 32-bit
words. ``ac_encode`` codes the symbols from the last to the first, starting
from state 1, and emits the low word whenever the next step would carry the
state past 2^64; ``ac_decode`` reads the words back in the opposite order
whenever the state falls below 2^32, while words remain. The stream is the
words in the order the decoder reads them (big-endian), then the final
state's bits below its leading 1, most significant first; its exact length
``32 * W + r`` fixes both the word count W and the state bit count r,
because once a word is emitted the final state is at least 2^32 (r >= 32).
There are no wasted start-up bits and no flush beyond the final state. A
symbol with the whole frequency total (a lone symbol) is an identity step,
so a block that holds one value codes to 0 bits. The decoder fails unless
it ends in state 1 with every word consumed.

The coder loops are sequential and run in the interpreter on Python ints.
The assignment screens chunks of samples with one matrix product, whose
left factor (the lifted samples) a fit builds once, and keeps each row
whose nearest cluster wins by more than a rounding bound; the few other
rows (ties, near-ties, values near overflow) are summed again one
coordinate at a time, which is the exact rule. Speed numbers are in the
Baseline section of ``ROADMAP.md``.

Importing this module also sets glibc's malloc thresholds once
(``_keep_freed_heap_mapped``), so that the NumPy buffers an op frees stay
mapped for the next op.
"""

import contextlib
import ctypes
import os
from array import array

import numpy as np

FREQ_BITS = 16
_SLOT_MASK = (1 << FREQ_BITS) - 1
_WORD_BITS = 32
_WORD_MASK = (1 << _WORD_BITS) - 1
_STATE_LOW = 1 << _WORD_BITS  # the decoder reads a word below this state

# Samples x clusters values held at once by ecvq_assign's screen and by its
# exact path (8 bytes each).
ASSIGN_CHUNK_CELLS = 1 << 20
_ROUNDOFF = np.finfo(np.float64).eps / 2  # u = 2^-53
_TINY = np.finfo(np.float64).tiny  # bounds the error of a product that underflows
_SCREEN_MAX = np.finfo(np.float64).max / 16  # below it no screened sum overflows
# From this many live clusters on, NumPy's SIMD argmin along each sample's
# row beats reducing across cluster rows: below it that argmin runs scalar,
# 44-95 us on 1000 samples of 2-16 clusters against 13-33 us, which saves
# 2.2 % of an ecvq-sweep round.
_ROW_ARGMIN_MIN = 32

# Read by the benchmark's environment record: no kernel is compiled.
NUMBA_ACTIVE = False


def _keep_freed_heap_mapped() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB, so that freed NumPy buffers stay in the heap for the next op.
    These are the ceilings glibc's own dynamic thresholds reach on 64-bit.

    With glibc's defaults, arrays above the dynamic mmap threshold are
    mapped and unmapped one by one, and the heap top is trimmed whenever
    more than twice that threshold lies free there. A ``huffman-zipf16`` op
    (a 2^16-symbol Huffman build, codebook wire round trip and order
    search) peaks at ~6.7 MiB, so each op handed 6-7 MiB back to the kernel
    and faulted it in again: 1,600-1,760 minor faults per op, 6,500-7,000
    per four-op round, about a fifth of the round's time
    (``bytes-codec`` took ~3,400 per round, ``universal-zipf``
    ~2,400-2,800, ``ecvq-sweep`` none). With these thresholds the second
    and later rounds take none. The cost is that up to 64 MiB of freed
    heap stays mapped.

    Does nothing off glibc (no ``mallopt``) and when the environment
    already sets glibc's own malloc tunables, whose choice then stands."""
    # glibc read these at start-up, so an embedder's choice is already made
    if any(var in os.environ for var in
           ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")) \
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: Windows cannot open CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap_mapped()


def ac_encode(symbols, cum) -> tuple[bytes, int]:
    """rANS-encode symbols against cumulative counts cum (len m+1, cum[0]=0,
    cum[-1] = 2**FREQ_BITS); returns (stream bytes, exact stream bits).
    The last byte is zero-padded below the stream's final bit."""
    total = 1 << FREQ_BITS
    # per symbol: start, frequency, total - frequency, emit threshold
    table = [(c, f, total - f, f << (2 * _WORD_BITS - FREQ_BITS))
             for c, f in zip(cum.tolist(), np.diff(cum).tolist())]
    x = 1
    words = array("I")  # 32-bit words in the order they are emitted
    emit = words.append
    for s in reversed(memoryview(np.ascontiguousarray(symbols, dtype=np.int64))):
        c, f, rest, top = table[s]
        if x >= top:
            emit(x & _WORD_MASK)
            x >>= _WORD_BITS
        x += c + (x // f) * rest  # (x // f) * total + x % f + c
    r = x.bit_length() - 1
    nbytes = (r + 7) // 8
    tail = ((x ^ (1 << r)) << (8 * nbytes - r)).to_bytes(nbytes, "big")
    data = np.frombuffer(words, dtype=np.uint32)[::-1].astype(">u4").tobytes() + tail
    return data, _WORD_BITS * len(words) + r


def ac_decode(data, n, cum, nbits) -> np.ndarray:
    """Decode n symbols from the first ``nbits`` bits of an ``ac_encode``
    stream; raises ValueError when the stream is shorter than ``nbits`` or
    does not end in state 1 with every word consumed."""
    if len(data) * 8 < nbits:
        raise ValueError("rANS stream is shorter than its bit count")
    n_words = max(0, nbits // _WORD_BITS - 1)
    r = nbits - _WORD_BITS * n_words
    nbytes = (r + 7) // 8
    at = n_words * _WORD_BITS // 8
    x = (1 << r) | (int.from_bytes(data[at:at + nbytes], "big") >> (8 * nbytes - r))
    words = memoryview(np.frombuffer(data, dtype=">u4", count=n_words).astype(np.uint32))
    freq = np.diff(cum)
    sym_of = memoryview(np.repeat(np.arange(freq.size, dtype=np.uint16), freq))  # slot -> symbol
    total = 1 << FREQ_BITS
    info = [(total - f, c) for f, c in zip(freq.tolist(), cum.tolist())]
    out = np.empty(n, dtype=np.int64)
    symbols = memoryview(out)
    pos = 0
    for t in range(n):
        s = sym_of[x & _SLOT_MASK]
        symbols[t] = s
        rest, c = info[s]
        x -= (x >> FREQ_BITS) * rest + c  # f * (x >> 16) + (x & 0xFFFF) - c
        if x < _STATE_LOW and pos < n_words:
            x = (x << _WORD_BITS) | words[pos]
            pos += 1
    if x != 1 or pos != n_words:
        raise ValueError("rANS stream does not end in state 1 with every word read")
    return out


def lift_samples(x) -> np.ndarray:
    """The (n, dim + 2) block ``[x, |x|^2, 1]`` that ``ecvq_assign``'s
    screen multiplies; it depends on the samples alone, so a fit builds it
    once."""
    n, dim = x.shape
    # column-major: the screen's product runs faster on it (~20 us against
    # ~27 us at 1000 x 8 times 8 x 64), and the |x|^2 column is contiguous
    lifted = np.empty((n, dim + 2), order="F")
    lifted[:, :dim] = x
    np.einsum("ij,ij->i", x, x, out=lifted[:, dim])
    lifted[:, dim + 1] = 1.0
    return lifted


def ecvq_assign(x, centroids, bias, lifted) -> np.ndarray:
    """Nearest-centroid assignment under squared distance plus a per-cluster
    bias. Retired clusters carry an inf bias and are never selected; a row
    whose clusters are all retired gets 0. The result is ``_assign_exact``'s
    bit for bit: the cluster with the smallest bias plus squared distance,
    summed one coordinate at a time, ties to the lowest index.

    A screen settles almost every row with one matrix product. Over the
    live clusters, in chunks of ASSIGN_CHUNK_CELLS values, it forms
    ``|x|^2 + (|c|^2 + bias) - 2 x c^T`` as the product of ``lifted``, the
    samples' ``lift_samples`` block ``[x, |x|^2, 1]`` (built once per fit),
    with ``[-2 c^T; 1; |c|^2 + bias]`` (built once per call) and takes each
    row's minimum. With u = 2^-53 and S = |x_i|^2 + max |c_j|^2 + max
    |bias_j| over the live clusters, a screened value is within
    (3*dim + 5) u S of the real biased distance in whatever order BLAS sums
    the product, and an exact sum is within (2*dim + 6) u S (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1), plus at
    most the smallest normal number for each product that underflows. A row
    is settled when its runner-up screens above its minimum by more than
    twice ``(5*dim + 16) * (u * S + tiny)``: its exact sums then have the
    same strict minimum, and the 10 u S of slack above the two sums' errors
    covers the few roundings that form the gap itself. Ties, near-ties and
    rows whose S is not finite or comes near overflow (their gap is NaN)
    are summed again by ``_assign_exact``."""
    n, dim = x.shape
    if lifted.shape != (n, dim + 2):
        raise ValueError("lifted must be the samples' (n, dim + 2) lift_samples block")
    live = (bias != np.inf).nonzero()[0]
    if n == 0 or live.size == 0:
        return np.zeros(n, dtype=np.int64)
    c, b = centroids.take(live, axis=0), bias[live]
    cc = np.einsum("ij,ij->i", c, c)
    right = np.empty((dim + 2, live.size))  # [-2 c^T; 1; |c|^2 + bias]
    np.multiply(c.T, -2.0, out=right[:dim])
    right[dim] = 1.0
    np.add(cc, b, out=right[dim + 1])
    top = cc.max() + np.abs(b).max()  # S less |x_i|^2
    coef = 2 * (5 * dim + 16)
    xx = lifted[:, dim]
    # False on NaN. Far from overflow the gap takes 2.7 us against 14 us on
    # 1000 samples, which saves 2.8 % of an ecvq-sweep round
    if top + xx.max() < _SCREEN_MAX:
        gap = np.multiply(xx, coef * _ROUNDOFF)
        gap += coef * (_ROUNDOFF * top + _TINY)
        quiet = contextlib.nullcontext()
    else:
        scale = xx + top
        gap = np.where(scale < _SCREEN_MAX, coef * (_ROUNDOFF * scale + _TINY), np.nan)
        quiet = np.errstate(over="ignore", invalid="ignore")  # such rows are not settled
    screen = _screen if live.size >= _ROW_ARGMIN_MIN else _screen_few
    rows = max(1, ASSIGN_CHUNK_CELLS // live.size)
    best, settled = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
    with quiet:
        for at in range(0, n, rows):
            screen(lifted[at:at + rows], right, gap[at:at + rows],
                   best[at:at + rows], settled[at:at + rows])
    # an unsettled row's screened index may lie anywhere: the exact path replaces it
    assign = live.take(best, mode="clip")
    if not settled.all():
        hard = np.flatnonzero(~settled)
        assign[hard] = _assign_exact(x[hard], centroids, bias)
    return assign


def _screen(lifted, right, gap, best, settled) -> None:
    """One chunk of ``ecvq_assign``'s screen: each row's screened argmin over
    the live clusters into ``best``, and into ``settled`` whether its
    runner-up screens above its minimum by more than its gap. The block is
    read and written through flat indices, row start plus column, which
    costs less than 2-D fancy indexing."""
    s = lifted @ right
    rows, k = s.shape
    flat = s.reshape(-1)
    starts = np.arange(0, rows * k, k)
    np.argmin(s, axis=1, out=best)
    at = best + starts
    low = flat.take(at)
    flat[at] = np.inf
    at = np.argmin(s, axis=1)
    at += starts
    np.greater(flat.take(at), low + gap, out=settled)


def _screen_few(lifted, right, gap, best, settled) -> None:
    """``_screen`` over fewer than _ROW_ARGMIN_MIN live clusters, formed
    cluster by sample so that every reduction runs across cluster rows: a
    row is settled when exactly one cluster screens within its gap of its
    minimum, which is then its runner-up's test, and that cluster's number
    is the product of the cluster numbers with the row's 0/1 column."""
    s = right.T @ lifted.T
    near = (s <= np.minimum.reduce(s, axis=0) + gap).astype(np.float64)
    best[...] = np.arange(s.shape[0], dtype=np.float64) @ near
    np.equal(near.sum(axis=0), 1, out=settled)


def _assign_exact(x, centroids, bias) -> np.ndarray:
    """``ecvq_assign`` summed one coordinate at a time over chunks of
    samples: the result matches a scalar loop over clusters with a strict
    ``<``."""
    n, dim = x.shape
    k = centroids.shape[0]
    assign = np.empty(n, dtype=np.int64)
    rows = max(1, ASSIGN_CHUNK_CELLS // k)
    for start in range(0, n, rows):
        xs = x[start:start + rows]
        v = np.repeat(bias[None, :], xs.shape[0], axis=0)
        for t in range(dim):
            v += (xs[:, t, None] - centroids[None, :, t]) ** 2
        assign[start:start + rows] = np.argmin(v, axis=1)
    return assign
