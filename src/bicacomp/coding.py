"""Lossless coders with exact bit accounting.

Provides optimal prefix (Huffman) codes, built as ``CanonicalCodebook``s:
the one canonical code type, numbered from its codeword lengths by its one
constructor and written in a compact codebook wire format; a static rANS
coder driven by the kernels module; and a block codec that transforms
symbols, slices their bits into blocks and entropy-codes each block stream
separately.

Both codecs write one container, laid out as ``SECTIONS`` lists, and
``parse_container`` checks its every field through one bounds-checked
reader before ``read_container`` decodes a stream (``ContainerError``
otherwise). Frequencies are quantized to 16-bit totals; zero-count symbols
are excluded from code construction under the contract that they never
occur in the stream being coded.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distributions import (
    SymbolPermutation,
    inverse_permutation,
    next_bit_dimension,
    stable_argsort,
)

CONTAINER_MAGIC = b"BAC3"
CONTAINER_VERSION = 3
FREQ_TOTAL_BITS = kernels.FREQ_BITS
ALPHABET_CAP = 1 << 16  # symbols the decoder's uint16 slot table can hold


class ContainerError(ValueError):
    """A container is malformed, of another format or version, or corrupt."""


@dataclass(frozen=True)
class BitCost:
    """Two-part size accounting: payload bits plus description overhead."""

    data_bits: float
    overhead_bits: float


def _symbols(samples, alphabet_size: int) -> np.ndarray:
    """``samples`` as a 1-D int64 array of symbols in 0..alphabet_size-1,
    the one check every encoder and the descent take their input through.
    Raises ValueError on a dtype that is not integer or bool, on any other
    shape, on an alphabet past 2^63 symbols (int64 cannot hold them) and on
    a value outside the alphabet, compared as Python ints so nothing wraps."""
    x = np.asarray(samples)
    if x.dtype.kind not in "biu":
        raise ValueError(f"symbols must be integers, got dtype {x.dtype}")
    if x.ndim != 1:
        raise ValueError(f"symbols must be 1-D, got shape {x.shape}")
    if alphabet_size > 1 << 63:
        raise ValueError(f"an alphabet of {alphabet_size} symbols does not fit int64")
    if x.size and (int(x.min()) < 0 or int(x.max()) >= alphabet_size):
        raise ValueError("symbol outside alphabet")
    return np.ascontiguousarray(x, dtype=np.int64)


# ---------------------------------------------------------------------------
# Prefix codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrefixCode:
    """Codeword lengths and values per symbol; length 0 marks a symbol that
    is absent from the code (zero probability). Construction checks that
    every codeword fits its length (at most 63 bits) and that no codeword
    is a prefix of another, which also implies the Kraft inequality.
    ``CanonicalCodebook``, prefix-free by construction, skips that check."""

    lengths: np.ndarray
    codes: np.ndarray

    def __post_init__(self):
        ln = np.ascontiguousarray(self.lengths, dtype=np.int64)
        cd = np.ascontiguousarray(self.codes, dtype=np.int64)
        if ln.shape != cd.shape:
            raise ValueError("lengths and codes must align")
        l, c = ln[ln > 0], cd[ln > 0]
        if np.any(ln < 0) or np.any(l > 63) or np.any(c < 0) or np.any(c >> l):
            raise ValueError("every codeword must fit its length, at most 63 bits")
        # codeword c of length l owns [c, c + 1) * 2^(63 - l) of a 63-bit
        # range; a prefix code's ranges are disjoint
        left = c << (63 - l)
        order = np.argsort(left)
        if np.any(np.diff(left[order]) < (1 << (63 - l[order[:-1]]))):
            raise ValueError("a codeword is a prefix of another")
        ln.flags.writeable = False
        cd.flags.writeable = False
        object.__setattr__(self, "lengths", ln)
        object.__setattr__(self, "codes", cd)

    @property
    def codewords(self) -> tuple[str, ...]:
        return tuple(
            format(int(c), f"0{int(l)}b") if l > 0 else ""
            for l, c in zip(self.lengths, self.codes)
        )

    def average_length(self, probs: np.ndarray) -> float:
        return float(np.dot(np.asarray(probs, dtype=np.float64), self.lengths))

    def kraft_sum(self) -> float:
        return float(np.sum(0.5 ** self.lengths[self.lengths > 0]))


def huffman_build(probs) -> CanonicalCodebook:
    """Optimal prefix code for a probability vector. Merges are tie-broken
    as a heap of ``(weight, node)`` pairs would break them, nodes 0..k-1
    being the active symbols in index order and k.. the merges in creation
    order: leaves win weight ties, then the lower index or the older merge.
    A one-symbol alphabet gets a single 1-bit codeword (a self-delimiting
    stream cannot carry 0-length words). Raises ValueError on a negative or
    non-finite entry.

    Two sorted queues replace the heap (van Leeuwen, 1976): the leaves,
    sorted once, and the merges, which are made in non-decreasing weight
    (rounding is monotone and no weight is negative). Each round takes every
    live item no heavier than w0, the sum of the two lightest: all merges
    this round makes weigh at least w0 and have larger ids, so the heap
    would pop all of those items first. The items are paired in pop order;
    an odd last one waits for the next round. Pop order is one stable
    argsort of the round's live leaves followed by its live merges: two
    sorted runs, which NumPy's timsort merges in one linear pass, with a
    weight tie going to the leaf, which comes first. The leaves, the
    positive weights alone, are sorted once by ``stable_argsort``. Leaves
    are numbered in that order, so the leaves and the merges a round pops
    are each a run of consecutive nodes, and their parents are written as
    two slices.

    The code is the ``CanonicalCodebook`` of the lengths over ``probs``'s
    alphabet, numbered once in (length, index) order, so ``canonicalize``
    and ``serialize_codebook`` number and sort nothing again."""
    p = np.asarray(probs, dtype=np.float64)
    if not (p.min(initial=0.0) >= 0 and p.max(initial=0.0) < np.inf):  # False on NaN
        raise ValueError("probabilities must be finite and non-negative")
    k = int(np.count_nonzero(p))
    if k == 0:
        raise ValueError("empty alphabet or no symbol with positive probability")
    if k < p.size:  # zero weights get no codeword: sort only the k others
        coded = np.flatnonzero(p)
        leaf_id = coded[stable_argsort(p[coded])]
    else:  # no gather: 1.1 against 1.4 ms at 2^16, 6.2 % of a huffman-zipf16 round
        leaf_id = stable_argsort(p)
    leaf_w = p[leaf_id]
    merge_w = np.empty(k - 1)
    # node i < k is the i-th leaf in sorted order, node k + j the j-th merge
    parent = np.zeros(2 * k - 1, dtype=np.int64)  # a lone symbol is its own parent
    round_ends = [0]  # merges made by the end of each round
    li = mi = made = 0  # next leaf (in sorted order), next merge, merges made
    while made < k - 1:
        w1, w2 = sorted(leaf_w[li:li + 2].tolist() + merge_w[mi:min(mi + 2, made)].tolist())[:2]
        w0 = w1 + w2
        # merges come out sorted: every live one weighs at most w0, the next one
        n_leaves = int(np.searchsorted(leaf_w[li:], w0, side="right"))
        w = np.concatenate((leaf_w[li:li + n_leaves], merge_w[mi:made]))
        order = np.argsort(w, kind="stable")  # two sorted runs: one timsort merge
        w = w[order]
        pairs = w.size // 2
        merge_w[made:made + pairs] = w[0:2 * pairs:2] + w[1:2 * pairs:2]
        # the item popped i-th this round gets merge k + made + i // 2; the
        # leaves and the merges popped are each the next ones in node order
        is_leaf = order[:2 * pairs] < n_leaves
        for first, popped in ((li, np.flatnonzero(is_leaf)), (k + mi, np.flatnonzero(~is_leaf))):
            popped >>= 1
            popped += k + made
            parent[first:first + popped.size] = popped
        paired_leaves = int(np.count_nonzero(is_leaf))
        li += paired_leaves
        mi += 2 * pairs - paired_leaves
        made += pairs
        round_ends.append(made)
    # a merge's parent is made in a later round, and the last round makes
    # only the root: fill depths round by round from the root down
    depth = np.zeros(2 * k - 1, dtype=np.int64)
    for lo, hi in zip(round_ends[-3::-1], round_ends[-2::-1]):
        depth[k + lo:k + hi] = depth[parent[k + lo:k + hi]] + 1
    lengths = np.zeros(p.size, dtype=np.int64)
    lengths[leaf_id] = depth[parent[:k]] + 1
    return CanonicalCodebook(lengths, p.size)


def _length_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of ``lengths`` in (length, index) order, and the count of
    each length 0..max. Lengths must lie in 0..63 (ValueError otherwise);
    they are then sorted as uint8, which NumPy's stable sort radix-sorts:
    0.2 ms on 2^16 lengths against 2-3 ms as int64. The counts are read off
    the sorted lengths, where each length starts (a uint8 gather, 0.06 ms
    against 0.1 ms for a ``bincount`` of the int64 lengths)."""
    top = int(lengths.max(initial=0))
    if lengths.min(initial=0) < 0 or top > 63:
        raise ValueError("codeword lengths must lie in 0..63 bits")
    short = lengths.astype(np.uint8)
    order = np.argsort(short, kind="stable")
    return order, np.diff(np.searchsorted(short[order], np.arange(top + 2)))


def _code_offsets(counts: np.ndarray) -> np.ndarray:
    """Canonical numbering of ``counts[l]`` codewords of each length l,
    listed by length: the code at position i of the list, in class l, is
    ``offset[l] + i``, the first code of length l plus the rank within its
    class. Raises ValueError when the counts fail the exact Kraft count."""
    first = [0] * counts.size
    for l in range(2, counts.size):
        first[l] = (first[l - 1] + int(counts[l - 1])) << 1
    if counts.size > 1 and first[-1] + int(counts[-1]) > 1 << (counts.size - 1):
        raise ValueError("Kraft inequality violated")
    return np.array(first, dtype=np.int64) - (np.cumsum(counts) - counts)


@dataclass(frozen=True, eq=False, init=False)
class CanonicalCodebook(PrefixCode):
    """The canonical prefix code of codeword ``lengths`` over
    ``alphabet_size`` symbols (Schwartz & Kallick, 1964), its lengths
    zero-padded to the alphabet. ``symbols`` lists the coded symbols in
    (length, symbol) order, one radix sort of the lengths
    (``_length_order``), and they take consecutive codewords in that order,
    each length class starting past every shorter codeword's range. So no
    codeword is a prefix of another, and ``PrefixCode``'s general check (a
    sort of every codeword) is skipped. The codebook's wire is a unary
    count per length 1..max_len, ``counts[1:]``, then ``symbols`` in
    ceil(log2 m) bits each: ``serialized_bits`` in all. Raises ValueError on
    a length outside 0..63, a coded symbol not below ``alphabet_size`` and
    lengths that fail the exact Kraft count."""

    symbols: np.ndarray
    counts: np.ndarray  # codewords of each length 0..max_len; none of length 0
    serialized_bits: int

    def __init__(self, lengths, alphabet_size: int):
        ln = np.ascontiguousarray(lengths, dtype=np.int64)
        w = next_bit_dimension(alphabet_size)
        if np.any(ln[alphabet_size:]):
            raise ValueError(f"a coded symbol is {int(np.flatnonzero(ln)[-1])}, "
                             f"outside alphabet_size {alphabet_size}")
        if ln.size != alphabet_size:  # zero-pad, or cut an uncoded tail
            ln = np.append(ln[:alphabet_size],
                           np.zeros(max(alphabet_size - ln.size, 0), dtype=np.int64))
        order, counts = _length_order(ln)
        symbols = order[counts[0]:]
        counts[0] = 0  # an uncoded symbol takes no codeword
        codes = np.zeros(alphabet_size, dtype=np.int64)
        codes[symbols] = np.repeat(_code_offsets(counts), counts) + np.arange(symbols.size)
        for name, value in (("lengths", ln), ("codes", codes), ("symbols", symbols),
                            ("counts", counts)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "serialized_bits", symbols.size * (w + 1) + counts.size - 1)

    def code(self) -> CanonicalCodebook:
        """The codebook itself, a ``PrefixCode`` already."""
        return self


def canonicalize(code: PrefixCode, alphabet_size: int | None = None) -> CanonicalCodebook:
    """The canonical codebook of ``code``'s lengths over ``alphabet_size``
    symbols (``code``'s table size by default). A codebook already over that
    alphabet, as ``huffman_build``'s is over its own, is returned as it is.
    Raises ValueError as ``CanonicalCodebook`` does."""
    m = code.lengths.size if alphabet_size is None else alphabet_size
    if isinstance(code, CanonicalCodebook) and code.lengths.size == m:
        return code
    return CanonicalCodebook(code.lengths, m)


def _word_width(w: int) -> int:
    """Bits of the narrowest unsigned integer, 8 to 64 bits, that holds a
    w-bit codebook symbol (w <= 64)."""
    return max(8, 1 << (w - 1).bit_length())


def serialize_codebook(book: CanonicalCodebook, alphabet_size: int) -> np.ndarray:
    """The wire of ``book``, ``serialized_bits`` bits: for each length
    starting at 1, the count of symbols in unary (count ones, then a zero);
    the list ends once every coded symbol is counted; then ``book.symbols``,
    each in ceil(log2 m) bits. Raises ValueError unless ``book`` is over
    ``alphabet_size`` symbols."""
    if book.lengths.size != alphabet_size:
        raise ValueError(f"a codebook over {book.lengths.size} symbols, "
                         f"not alphabet_size {alphabet_size}")
    w = next_bit_dimension(alphabet_size)
    counts = book.counts[1:]
    head = np.ones(book.symbols.size + counts.size, dtype=np.uint8)
    head[np.cumsum(counts + 1) - 1] = 0
    # a symbol's w bits, msb first, lead the big-endian bytes of symbol <<
    # (width - w); unpacking them all at once runs ~4x faster than
    # unpacking w bits a row
    width = _word_width(w)
    top = (book.symbols.view(np.uint64) << (width - w)).astype(f">u{width // 8}")
    body = np.unpackbits(top.view(np.uint8)).reshape(-1, width)[:, :w]
    return np.concatenate([head, body.ravel()])


def deserialize_codebook(bits: np.ndarray, alphabet_size: int, n_coded: int) -> CanonicalCodebook:
    """Parse ``serialize_codebook``'s wire into the ``CanonicalCodebook`` of
    the lengths it lists. Raises ``ValueError`` if the counts miss ``n_coded``
    within 63 lengths, a symbol is cut off or out of range, the counts fail
    the exact Kraft count, or the wire's symbols are not the codebook's
    ``symbols``: one is repeated, or a length class does not ascend."""
    w = next_bit_dimension(alphabet_size)
    bits = np.asarray(bits)
    zeros = np.flatnonzero(bits[:n_coded + 63] == 0)
    seen = np.append(0, zeros - np.arange(zeros.size))  # symbols counted per length read
    n_len = int(np.searchsorted(seen, n_coded))
    if n_len == seen.size or seen[n_len] != n_coded:
        raise ValueError("unary length counts do not sum to n_coded")
    body = bits[n_coded + n_len:n_coded + n_len + n_coded * w]
    if body.size != n_coded * w:
        raise ValueError("codebook wire ends inside the symbol list")
    # symbol i is the w bits from bit i*w of the body: zero-padded on the
    # left to width bits, they pack into one big-endian unsigned integer
    width = _word_width(w)
    rows = np.zeros((n_coded, width), dtype=np.uint8)
    rows[:, width - w:] = body.reshape(n_coded, w)
    syms = np.packbits(rows).view(f">u{width // 8}").astype(np.int64)
    if np.any(syms >= alphabet_size):
        raise ValueError("codebook symbol outside the alphabet")
    lengths = np.zeros(alphabet_size, dtype=np.int64)
    lengths[syms] = np.repeat(np.arange(n_len + 1), np.diff(seen[:n_len + 1], prepend=0))
    book = CanonicalCodebook(lengths, alphabet_size)
    if not np.array_equal(book.symbols, syms):
        raise ValueError("codebook symbols repeated or out of (length, symbol) order")
    return book


def prefix_encode(symbols: np.ndarray, code: PrefixCode) -> np.ndarray:
    """Concatenate codewords msb-first into a 0/1 array."""
    syms = _symbols(symbols, code.lengths.size)
    lens = code.lengths[syms]
    if np.any(lens == 0):
        raise ValueError("symbol without a codeword in the stream")
    # bit t of the stream is bit (end of its codeword - 1 - t) of that codeword
    shift = np.repeat(np.cumsum(lens), lens) - 1 - np.arange(int(lens.sum()))
    return ((np.repeat(code.codes[syms], lens) >> shift) & 1).astype(np.uint8)


def prefix_decode(bits: np.ndarray, code: PrefixCode, n: int) -> np.ndarray:
    table = {(int(l), int(c)): i
             for i, (l, c) in enumerate(zip(code.lengths, code.codes)) if l > 0}
    out = np.empty(n, dtype=np.int64)
    val = 0
    ln = 0
    k = 0
    for b in bits:
        val = (val << 1) | int(b)
        ln += 1
        sym = table.get((ln, val))
        if sym is not None:
            out[k] = sym
            k += 1
            if k == n:
                break
            val = 0
            ln = 0
    if k != n:
        raise ValueError("bit stream ended before decoding all symbols")
    return out


# ---------------------------------------------------------------------------
# Entropy coding of a symbol stream (rANS, see ``kernels``)
# ---------------------------------------------------------------------------

def quantize_counts(probs: np.ndarray) -> np.ndarray:
    """Integer counts summing to 2^FREQ_TOTAL_BITS; every positive-probability
    symbol gets at least 1, remainders go largest-first (ties by index)."""
    total = 1 << FREQ_TOTAL_BITS
    p = np.asarray(probs, dtype=np.float64)
    pos = p > 0
    k = int(pos.sum())
    if k == 0:
        raise ValueError("no positive probabilities")
    if k > total:
        raise ValueError("alphabet larger than the frequency total")
    counts = np.zeros(p.size, dtype=np.int64)
    if k == 1:
        counts[pos] = total
        return counts
    raw = p * total
    base = np.maximum(np.floor(raw), 1.0)
    base[~pos] = 0.0
    counts[:] = base.astype(np.int64)
    diff = total - int(counts.sum())
    if diff > 0:
        frac = np.where(pos, raw - np.floor(raw), -1.0)
        order = stable_argsort(-frac)
        counts[order[:diff]] += 1
    elif diff < 0:
        order = stable_argsort(-counts)
        i = 0
        while diff < 0:
            sym = order[i % order.size]
            if counts[sym] > 1:
                counts[sym] -= 1
                diff += 1
            i += 1
    return counts


def _cum_from_counts(counts: np.ndarray) -> np.ndarray:
    cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    if cum[-1] != 1 << FREQ_TOTAL_BITS:
        raise ValueError(f"frequency total must be 2^{FREQ_TOTAL_BITS}")
    return cum


def arithmetic_encode(symbols, probs) -> np.ndarray:
    """Encode a symbol sequence against a static distribution; returns the
    stream as a 0/1 array. Rejects alphabets past ALPHABET_CAP and symbols
    the distribution assigns zero probability."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size > ALPHABET_CAP:
        raise ValueError(f"alphabet size {p.size} exceeds cap {ALPHABET_CAP}")
    data, nbits = _encode_with_counts(_symbols(symbols, p.size), quantize_counts(p))
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)


def _encode_with_counts(syms: np.ndarray, counts: np.ndarray) -> tuple[bytes, int]:
    """(stream bytes, exact stream bits) of syms coded against counts."""
    if syms.size and np.any(counts[syms] == 0):
        raise ValueError("zero probability assigned to an occurring symbol")
    return kernels.ac_encode(syms, _cum_from_counts(counts))


def arithmetic_decode(bits, probs, n: int) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.size > ALPHABET_CAP:
        raise ValueError(f"alphabet size {p.size} exceeds cap {ALPHABET_CAP}")
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    return kernels.ac_decode(np.packbits(bits).tobytes(), n,
                             _cum_from_counts(quantize_counts(p)), bits.size)


# ---------------------------------------------------------------------------
# Block partitioning and the block codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPartition:
    """Consecutive blocks of a symbol's bits from bit 0: block v holds the
    sizes[v] bits above blocks 0..v-1. Raises ValueError on a width outside
    1..16 (the decoder's slot table holds ALPHABET_CAP values) and on 0 or
    more than 63 bits, which int64 symbols and the header's byte fields cannot hold."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise ValueError("no blocks: 0-bit symbols, not 1..63")
        if not all(0 < s and 1 << s <= ALPHABET_CAP for s in sizes):
            raise ValueError(f"block sizes {sizes} outside 1..{ALPHABET_CAP.bit_length() - 1} bits")
        if sum(sizes) > 63:
            raise ValueError(f"{sum(sizes)}-bit symbols exceed the 63 bits of an int64")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def contiguous(cls, d: int, b: int) -> "BlockPartition":
        """Blocks of b bits; when b does not divide d the last block is
        smaller."""
        if not 1 <= b <= d:
            raise ValueError("need 1 <= b <= d")
        sizes = [b] * (d // b)
        if d % b:
            sizes.append(d % b)
        return cls(tuple(sizes))

    @property
    def d(self) -> int:
        return sum(self.sizes)

    def groups(self) -> list[np.ndarray]:
        """The bit positions of each block, in block order."""
        ends = np.cumsum(self.sizes, dtype=np.int64)
        return [np.arange(end - s, end) for s, end in zip(self.sizes, ends)]


def _bit_runs(positions) -> list[list[int]]:
    """``[first block bit, first position, width]`` of each run of
    consecutive positions, so a contiguous block moves in one shift."""
    runs: list[list[int]] = []
    for u, pos in enumerate(int(p) for p in positions):
        if runs and pos == runs[-1][1] + runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([u, pos, 1])
    return runs


# _BYTE_BITS[v, i] is bit i of the byte value v.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def extract_block(symbols: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Gather the given bit positions of each symbol into a small integer.
    Each run of consecutive positions moves in one shift. Positions that
    form more runs than there are bytes they are read from (a bit shuffle,
    about 11 runs from 2 bytes at d = 12) are read through one 256-entry
    table per byte instead, which places that byte's bits in the result:
    42 us against 73 us on the 3534 distinct symbols of ``universal-zipf``,
    which saves 2.0 % of its round."""
    runs = _bit_runs(positions)
    source_bytes = sorted({int(p) >> 3 for p in positions})
    out = np.zeros(symbols.shape, dtype=np.int64)
    if len(runs) <= len(source_bytes):
        for u, pos, width in runs:
            out |= ((symbols >> pos) & ((1 << width) - 1)) << u
        return out
    pos = np.asarray(positions, dtype=np.int64)
    for byte in source_bytes:
        places = np.flatnonzero(pos >> 3 == byte)
        table = _BYTE_BITS[:, pos[places] & 7] @ (1 << places)
        out |= table[(symbols >> 8 * byte) & 255]
    return out


def insert_block(target: np.ndarray, block_symbols: np.ndarray, positions: np.ndarray) -> None:
    for u, pos, width in _bit_runs(positions):
        target |= ((block_symbols >> u) & ((1 << width) - 1)) << pos


# Grouping counts through arrays of 2^d entries while 2^d is at most this
# many times the sample count, and sorts beyond it: the two took the same
# time near 2^d = 4n at n = 1e3 and near 2^d = 2.6n at n = 1e5.
_COUNTING_RATIO = 4


def _group(symbols: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(symbols, return_inverse=True, return_counts=True)`` of a
    1-D integer array whose entries lie in 0..2^d-1 (the caller checks):
    the distinct symbols ascending, the index of each symbol among them,
    and their counts. Up to ``_COUNTING_RATIO`` * n symbols of alphabet
    it counts with ``bincount`` and ranks the present symbols by a
    cumulative sum, which takes O(n + 2^d) and no sort; above, it sorts,
    so a wide alphabet allocates nothing of size 2^d."""
    if 1 << d > _COUNTING_RATIO * symbols.size:
        return np.unique(symbols, return_inverse=True, return_counts=True)
    counts = np.bincount(symbols, minlength=1 << d)
    values = np.flatnonzero(counts)
    rank = np.cumsum(counts > 0) - 1
    return values, rank[symbols], counts[values]


# A container's sections in order: an absent symbol map or an empty history
# is an empty section, and the trailer is a CRC32 of every byte before it.
SECTIONS = ("header", "block_sizes", "assignment", "symbol_map", "steps", "block_records",
            "streams", "trailer")
_HEADER = np.dtype([("magic", "S4"), ("version", "u1"), ("d", "u1"), ("n_blocks", "u1"),
                    ("flags", "u1"), ("n", "<u8"), ("n_steps", "<u4")])
_TRAILER = np.dtype([("crc32", "<u4")])
_SYMBOL_MAP = 1  # flag bit 0: the symbol map section is present
_RECORD = np.dtype([("n_active", "<u4"), ("stream_bits", "<u8")])
_ENTRY = np.dtype([("symbol", "<u4"), ("count", "<u2")])


class _Reader:
    """The bytes of a container body not yet read, ``rest``, handed out
    front to back, and the bytes handed out so far by section name."""

    def __init__(self, body):
        self.rest = np.frombuffer(body, dtype=np.uint8)
        self.sections = {name: bytearray() for name in SECTIONS}

    def take(self, section, count, dtype="<u1") -> np.ndarray:
        """The next ``count`` items of ``dtype``, a field of ``section``, as a
        read-only view; raises ContainerError when they do not fit."""
        size = count * np.dtype(dtype).itemsize
        if size > self.rest.size:
            raise ContainerError("a field runs past the end of the container")
        field, self.rest = self.rest[:size], self.rest[size:]
        self.sections[section] += field.data
        return field.view(dtype)


def _pack_map(values: np.ndarray, bits: int) -> bytes:
    """A map on b-bit values as little-endian entries of ceil(b/8) bytes."""
    wide = np.ascontiguousarray(values, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return wide[:, :(bits + 7) // 8].tobytes()


def _read_map(reader: _Reader, section: str, bits: int) -> np.ndarray:
    """The 2^bits entries written by ``_pack_map``, taken from ``reader``."""
    width = (bits + 7) // 8
    packed = reader.take(section, width << bits).reshape(1 << bits, width)
    wide = np.zeros((1 << bits, 4), dtype=np.uint8)
    wide[:, :width] = packed
    return wide.view("<u4").ravel().astype(np.int64)


def _write_block_record(block_symbols: np.ndarray, b: int) -> tuple[bytes, bytes, int]:
    """Entropy-code a block of b-bit values against its own quantized
    frequency table; returns (table record, stream, exact stream bits). A
    lone active symbol's count (the whole 16-bit total) saturates its u16
    field, which ``_read_block_record`` restores, and its stream is empty."""
    counts = np.bincount(block_symbols, minlength=1 << b)
    if block_symbols.size:
        counts = quantize_counts(counts / counts.sum())
        data, nbits = _encode_with_counts(block_symbols, counts)
    else:
        data, nbits = b"", 0
    active = np.nonzero(counts)[0]
    entries = np.zeros(active.size, dtype=_ENTRY)
    entries["symbol"] = active
    entries["count"] = np.minimum(counts[active], 0xFFFF)
    record = np.array((entries.size, nbits), _RECORD).tobytes() + entries.tobytes()
    return record, data, nbits


def _read_block_record(reader: _Reader, b: int) -> tuple[np.ndarray, int]:
    """Take the table record of a b-bit block from ``reader``; returns
    (quantized counts, stream bits). Raises ContainerError on more than
    2^b entries, on symbols that are not below 2^b and strictly
    increasing, and on counts that do not sum to the 16-bit total, except
    the saturated count of a lone symbol and the empty table of n = 0."""
    n_active, stream_bits = reader.take("block_records", 1, _RECORD).item()
    if n_active > 1 << b:
        raise ContainerError(f"{n_active} table entries for a {b}-bit block")
    entries = reader.take("block_records", n_active, _ENTRY)
    symbols = entries["symbol"].astype(np.int64)
    if np.any(symbols >= 1 << b) or np.any(np.diff(symbols) <= 0):
        raise ContainerError(f"table symbols of a {b}-bit block out of range or out of order")
    total = int(entries["count"].sum())
    if total != 1 << FREQ_TOTAL_BITS and not (n_active == 0 or (n_active == 1 and total == 0xFFFF)):
        raise ContainerError(f"table counts sum to {total}, not {1 << FREQ_TOTAL_BITS}")
    counts = np.zeros(1 << b, dtype=np.int64)
    counts[symbols] = 1 << FREQ_TOTAL_BITS if n_active == 1 else entries["count"]
    return counts, stream_bits


def map_blocks(symbols: np.ndarray, maps, partition: BlockPartition) -> np.ndarray:
    """Replace the value v of block i in every symbol by maps[i][v]. A
    block's bits are consecutive, so each block moves with one shift, mask,
    gather and shift-or."""
    out = np.zeros_like(symbols)
    low = 0
    for gmap, size in zip(maps, partition.sizes):
        out |= gmap[(symbols >> low) & ((1 << size) - 1)] << low
        low += size
    return out


def write_container(coded: np.ndarray, partition: BlockPartition, symbol_map=None,
                    steps=()) -> tuple[bytes, tuple[int, ...]]:
    """The container of the d-bit symbols ``coded``, which a decoder turns
    back into the source by undoing every (bit shuffle, block maps) step of
    ``steps`` in reverse and then ``symbol_map``, a map on all d bits
    (none when omitted). Returns (container, stream bits per block)."""
    flags = 0 if symbol_map is None else _SYMBOL_MAP
    blocks = [_write_block_record(extract_block(coded, positions), positions.size)
              for positions in partition.groups()]
    sections = {
        "header": np.array((CONTAINER_MAGIC, CONTAINER_VERSION, partition.d, len(partition.sizes),
                            flags, coded.size, len(steps)), _HEADER).tobytes(),
        "block_sizes": np.asarray(partition.sizes, dtype="<u1").tobytes(),
        "assignment": np.arange(partition.d, dtype="<u1").tobytes(),  # always 0..d-1
        "symbol_map": b"" if symbol_map is None else _pack_map(symbol_map, partition.d),
        "steps": b"".join(np.asarray(shuffle, dtype="<u1").tobytes()
                          + b"".join(_pack_map(gmap, s) for gmap, s in zip(maps, partition.sizes))
                          for shuffle, maps in steps),
        "block_records": b"".join(record for record, _, _ in blocks),
        "streams": b"".join(data for _, data, _ in blocks),
    }
    body = b"".join(sections[name] for name in SECTIONS[:-1])  # all but the trailer
    return body + np.array((zlib.crc32(body),), _TRAILER).tobytes(), tuple(
        nbits for _, _, nbits in blocks)


@dataclass(frozen=True, eq=False)
class ParsedContainer:
    """A container's ``SECTIONS`` as (name, bytes) pairs and their fields,
    all checked: the d-bit map's inverse (None without one), (inverse
    shuffle, inverse block maps) per step, (counts, bits, stream) per block."""

    sections: tuple[tuple[str, bytes], ...]
    n: int
    partition: BlockPartition
    unmap: np.ndarray | None
    steps: list
    records: list


def parse_container(blob: bytes) -> ParsedContainer:
    """Split a container into its sections and check every field, decoding
    no stream. Raises ContainerError on a wrong magic, version or checksum,
    and on a field cut short or out of range, the streams' length included."""
    blob = bytes(blob)
    if len(blob) < _HEADER.itemsize + _TRAILER.itemsize or blob[:4] != CONTAINER_MAGIC:
        raise ContainerError(f"not a {CONTAINER_MAGIC.decode()} container")
    body = memoryview(blob)[:-_TRAILER.itemsize]
    if zlib.crc32(body) != np.frombuffer(blob, _TRAILER, offset=len(body))["crc32"][0]:
        raise ContainerError("container checksum mismatch")
    reader = _Reader(body)
    _, version, d, n_blocks, flags, n, n_steps = reader.take("header", 1, _HEADER).item()
    if version != CONTAINER_VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if flags & ~_SYMBOL_MAP:
        raise ContainerError(f"unknown container flags {flags:#04x}")
    if not 0 < d <= 63:  # the symbols are decoded into int64
        raise ContainerError(f"container of {d}-bit symbols, not 1..63")
    try:  # a field out of range or not a permutation raises ValueError
        partition = BlockPartition(tuple(reader.take("block_sizes", n_blocks).tolist()))
        if partition.d != d:
            raise ValueError(f"block sizes {partition.sizes} do not cover all bit positions of {d}")
        if np.any(reader.take("assignment", d) != np.arange(d)):
            raise ValueError(f"bit assignment is not 0..{d - 1} in order")
        step_bytes = d + sum(((s + 7) // 8) << s for s in partition.sizes)
        if n_steps * step_bytes > reader.rest.size:
            raise ValueError(f"{n_steps} steps run past the end of the container")
        unmap = inverse_permutation(_read_map(reader, "symbol_map", d)) if flags & _SYMBOL_MAP else None
        steps = [(inverse_permutation(reader.take("steps", d)),
                  [inverse_permutation(_read_map(reader, "steps", s)) for s in partition.sizes])
                 for _ in range(n_steps)]
    except ValueError as exc:
        raise ContainerError(str(exc)) from exc
    tables = [_read_block_record(reader, s) for s in partition.sizes]
    records = [(counts, nbits, reader.take("streams", (nbits + 7) // 8)) for counts, nbits in tables]
    if reader.rest.size:
        raise ContainerError("bytes left after the last block stream")
    reader.sections["trailer"] += blob[len(body):]
    return ParsedContainer(tuple((name, bytes(part)) for name, part in reader.sections.items()),
                           n, partition, unmap, steps, records)


def read_container(blob: bytes) -> np.ndarray:
    """Invert ``write_container``: parse, decode the block streams, undo the
    steps in reverse, then the symbol map; raises ContainerError on a fault."""
    container = parse_container(blob)
    out = np.zeros(container.n, dtype=np.int64)
    for (counts, nbits, data), positions in zip(container.records, container.partition.groups()):
        if container.n:
            try:
                block = kernels.ac_decode(data, container.n, _cum_from_counts(counts), nbits)
            except ValueError as exc:
                raise ContainerError(f"corrupt block stream: {exc}") from exc
            insert_block(out, block, positions)
    # the steps and the map are undone on the distinct symbols alone
    z, inverse, _ = _group(out, container.partition.d)
    for unshuffle, inverses in reversed(container.steps):
        z = extract_block(map_blocks(z, inverses, container.partition), unshuffle)
    return (z if container.unmap is None else container.unmap[z])[inverse]


@dataclass(frozen=True)
class MarginalEncoding:
    """Result of the transform-then-code-blocks codec: the container bytes
    plus the exact bit accounting (data = concatenated stream bits,
    overhead = header, transform, tables and alignment padding)."""

    container: bytes
    cost: BitCost


def marginal_encode(samples, g: SymbolPermutation, partition: BlockPartition) -> MarginalEncoding:
    """Apply g, slice each sample's bits into the partition's blocks, and
    entropy-code every block stream against its empirical distribution."""
    if partition.d != g.d:
        raise ValueError("partition does not cover the transform dimension")
    x = _symbols(samples, 1 << g.d)
    blob, block_bits = write_container(g.apply(x), partition, symbol_map=g.map)
    data_bits = float(sum(block_bits))
    return MarginalEncoding(blob, BitCost(data_bits, len(blob) * 8 - data_bits))


def marginal_decode(container: bytes) -> np.ndarray:
    """Invert marginal_encode: decode streams, reassemble bits, undo g."""
    return read_container(container)
