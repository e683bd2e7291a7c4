"""Lossless coders with exact bit accounting.

Provides optimal prefix (Huffman) codes, canonical re-numbering with a
compact codebook wire format, a static arithmetic coder driven by the
kernels module, and a block codec that transforms symbols, slices their
bits into blocks and arithmetic-codes each block stream separately.

Container format (see README for the byte layout): a header carrying the
transform and per-block quantized frequency tables, followed by the
byte-aligned block streams. The per-block record and stream section are
shared with the universal container. Frequencies are quantized to 16-bit totals;
zero-count symbols are excluded from code construction under the contract
that they never occur in the stream being coded.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distributions import SymbolPermutation

CONTAINER_MAGIC = b"BAC1"
FREQ_TOTAL_BITS = 16
ALPHABET_CAP = 1 << 16


@dataclass(frozen=True)
class BitCost:
    """Two-part size accounting: payload bits plus description overhead."""

    data_bits: float
    overhead_bits: float

    @property
    def total(self) -> float:
        return self.data_bits + self.overhead_bits


# ---------------------------------------------------------------------------
# Prefix codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixCode:
    """Codeword lengths and values per symbol; length 0 marks a symbol that
    is absent from the code (zero probability)."""

    lengths: np.ndarray
    codes: np.ndarray

    def __post_init__(self):
        ln = np.ascontiguousarray(self.lengths, dtype=np.int64)
        cd = np.ascontiguousarray(self.codes, dtype=np.int64)
        if ln.shape != cd.shape:
            raise ValueError("lengths and codes must align")
        coded = ln > 0
        if coded.any() and np.sum(0.5 ** ln[coded]) > 1 + 1e-12:
            raise ValueError("Kraft inequality violated")
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
        coded = self.lengths > 0
        return float(np.sum(0.5 ** self.lengths[coded]))


def huffman_build(probs) -> PrefixCode:
    """Optimal prefix code for a probability vector; merges are tie-broken
    by creation order so results are deterministic. A one-symbol alphabet
    gets a single 1-bit codeword (a self-delimiting stream cannot carry
    0-length words)."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty alphabet")
    active = np.nonzero(p > 0)[0]
    m = p.size
    lengths = np.zeros(m, dtype=np.int64)
    if active.size == 0:
        raise ValueError("no symbol has positive probability")
    if active.size == 1:
        lengths[active[0]] = 1
        codes = np.zeros(m, dtype=np.int64)
        return PrefixCode(lengths, codes)

    heap = [(float(p[i]), int(i), [int(i)]) for i in active]
    heapq.heapify(heap)
    tick = m
    while len(heap) > 1:
        w1, _, grp1 = heapq.heappop(heap)
        w2, _, grp2 = heapq.heappop(heap)
        for s in grp1:
            lengths[s] += 1
        for s in grp2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, tick, grp1 + grp2))
        tick += 1
    return PrefixCode(lengths, _canonical_codes(lengths))


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Consecutive binary numbering, symbols visited by (length, index)."""
    codes = np.zeros(lengths.size, dtype=np.int64)
    order = [i for i in np.argsort(lengths, kind="stable") if lengths[i] > 0]
    code = 0
    prev = 0
    for sym in order:
        code <<= int(lengths[sym]) - prev
        codes[sym] = code
        prev = int(lengths[sym])
        code += 1
    return codes


@dataclass(frozen=True)
class CanonicalCodebook:
    """Canonical renumbering of a prefix code: same lengths, codewords are
    consecutive within each length class, so the codebook serializes as a
    count-per-length list plus the symbols in (length, symbol) order."""

    symbols_by_length: tuple[tuple[int, tuple[int, ...]], ...]
    lengths: np.ndarray
    codes: np.ndarray
    serialized_bits: int

    def code(self) -> PrefixCode:
        return PrefixCode(self.lengths, self.codes)


def canonicalize(code: PrefixCode, alphabet_size: int | None = None) -> CanonicalCodebook:
    lengths = code.lengths
    m = lengths.size if alphabet_size is None else alphabet_size
    codes = _canonical_codes(lengths)
    by_len: dict[int, list[int]] = {}
    for sym in np.argsort(lengths, kind="stable"):
        l = int(lengths[sym])
        if l > 0:
            by_len.setdefault(l, []).append(int(sym))
    grouped = tuple((l, tuple(by_len[l])) for l in sorted(by_len))
    n_coded = int(np.count_nonzero(lengths))
    max_len = max(by_len) if by_len else 0
    sym_bits = max(1, math.ceil(math.log2(max(m, 2))))
    # unary count per length 1..max_len, then each symbol in sym_bits bits
    overhead = sum(len(by_len.get(l, ())) + 1 for l in range(1, max_len + 1))
    overhead += n_coded * sym_bits
    return CanonicalCodebook(grouped, lengths, codes, overhead)


def naive_table_bits(code: PrefixCode, alphabet_size: int) -> int:
    """Size of a flat (symbol, length, codeword) table, for comparison."""
    sym_bits = max(1, math.ceil(math.log2(max(alphabet_size, 2))))
    coded = code.lengths[code.lengths > 0]
    return int(np.sum(sym_bits + 6 + coded))


def serialize_codebook(book: CanonicalCodebook, alphabet_size: int) -> np.ndarray:
    """Bit-exact wire form matching ``serialized_bits``: for each length
    starting at 1, the count of symbols in unary (count ones, then a zero);
    the list ends once every coded symbol is counted; then the symbols in
    (length, symbol) order, each in ceil(log2 m) bits."""
    sym_bits = max(1, math.ceil(math.log2(max(alphabet_size, 2))))
    counts = {l: len(syms) for l, syms in book.symbols_by_length}
    max_len = max(counts) if counts else 0
    bits: list[int] = []
    for l in range(1, max_len + 1):
        bits.extend([1] * counts.get(l, 0))
        bits.append(0)
    for _, syms in book.symbols_by_length:
        for s in syms:
            bits.extend((s >> (sym_bits - 1 - t)) & 1 for t in range(sym_bits))
    out = np.array(bits, dtype=np.uint8)
    assert out.size == book.serialized_bits
    return out


def deserialize_codebook(bits: np.ndarray, alphabet_size: int, n_coded: int) -> CanonicalCodebook:
    sym_bits = max(1, math.ceil(math.log2(max(alphabet_size, 2))))
    pos = 0
    counts: list[int] = []
    seen = 0
    while seen < n_coded:
        c = 0
        while bits[pos] == 1:
            c += 1
            pos += 1
        pos += 1
        counts.append(c)
        seen += c
    lengths = np.zeros(alphabet_size, dtype=np.int64)
    for l, c in enumerate(counts, start=1):
        for _ in range(c):
            v = 0
            for _ in range(sym_bits):
                v = (v << 1) | int(bits[pos])
                pos += 1
            lengths[v] = l
    return canonicalize(PrefixCode(lengths, _canonical_codes(lengths)), alphabet_size)


def prefix_encode(symbols: np.ndarray, code: PrefixCode) -> np.ndarray:
    """Concatenate codewords msb-first into a 0/1 array."""
    syms = np.asarray(symbols, dtype=np.int64)
    lens = code.lengths[syms]
    if np.any(lens == 0):
        raise ValueError("symbol without a codeword in the stream")
    total = int(lens.sum())
    out = np.empty(total, dtype=np.uint8)
    pos = 0
    for s in syms:
        l = int(code.lengths[s])
        c = int(code.codes[s])
        for t in range(l - 1, -1, -1):
            out[pos] = (c >> t) & 1
            pos += 1
    return out


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
# Arithmetic coding
# ---------------------------------------------------------------------------

def quantize_counts(probs: np.ndarray, total: int = 1 << FREQ_TOTAL_BITS) -> np.ndarray:
    """Integer counts summing to ``total``: every positive-probability symbol
    gets at least 1, remainders are settled largest-first (ties by index)."""
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
        order = np.argsort(-frac, kind="stable")
        counts[order[:diff]] += 1
    elif diff < 0:
        order = np.argsort(-counts, kind="stable")
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
    if cum[-1] > kernels.MAX_TOTAL:
        raise ValueError("frequency total exceeds coder range")
    return cum


def arithmetic_encode(symbols, probs, alphabet_cap: int = ALPHABET_CAP) -> np.ndarray:
    """Encode a symbol sequence against a static distribution; returns a 0/1
    array. Rejects alphabets past the cap and symbols the distribution
    assigns zero probability."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size > alphabet_cap:
        raise ValueError(f"alphabet size {p.size} exceeds cap {alphabet_cap}")
    syms = np.ascontiguousarray(symbols, dtype=np.int64)
    if syms.size and (syms.min() < 0 or syms.max() >= p.size):
        raise ValueError("symbol outside alphabet")
    counts = quantize_counts(p)
    return _encode_with_counts(syms, counts)


def _encode_with_counts(syms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    if syms.size and np.any(counts[syms] == 0):
        raise ValueError("zero probability assigned to an occurring symbol")
    active = counts > 0
    if int(active.sum()) == 1:
        return np.zeros(syms.size, dtype=np.uint8)  # one symbol: 1 bit each
    cum = _cum_from_counts(counts)
    cmin = int(counts[active].min())
    worst = math.ceil(math.log2(cum[-1] / cmin)) + 3
    out = np.empty(syms.size * worst + 128, dtype=np.uint8)
    nb = kernels.ac_encode(syms, cum, out)
    return out[:nb].copy()


def arithmetic_decode(bits, probs, n: int, alphabet_cap: int = ALPHABET_CAP) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.size > alphabet_cap:
        raise ValueError(f"alphabet size {p.size} exceeds cap {alphabet_cap}")
    counts = quantize_counts(p)
    return _decode_with_counts(np.ascontiguousarray(bits, dtype=np.uint8), counts, n)


def _decode_with_counts(bits: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    active = np.nonzero(counts > 0)[0]
    if active.size == 1:
        return np.full(n, active[0], dtype=np.int64)
    cum = _cum_from_counts(counts)
    out = np.empty(n, dtype=np.int64)
    kernels.ac_decode(bits, n, cum, out)
    return out


def ideal_code_lengths(probs) -> np.ndarray:
    """-log2 p per symbol without building a code (non-integer lengths);
    infinite for zero-probability symbols."""
    p = np.asarray(probs, dtype=np.float64)
    out = np.full(p.shape, np.inf)
    nz = p > 0
    out[nz] = -np.log2(p[nz])
    return out


# ---------------------------------------------------------------------------
# Block partitioning and the block codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPartition:
    """Assignment of d bit positions into consecutive groups. ``assignment``
    is a permutation of 0..d-1; group v covers sizes[v] consecutive entries."""

    assignment: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignment, dtype=np.int64)
        d = a.size
        if sum(self.sizes) != d or any(s < 1 for s in self.sizes):
            raise ValueError("group sizes must cover all bit positions")
        if not np.array_equal(np.sort(a), np.arange(d)):
            raise ValueError("assignment must be a permutation of bit positions")
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    @classmethod
    def contiguous(cls, d: int, b: int) -> "BlockPartition":
        """Consecutive groups of b bits; when b does not divide d the last
        group is smaller."""
        if not 1 <= b <= d:
            raise ValueError("need 1 <= b <= d")
        sizes = [b] * (d // b)
        if d % b:
            sizes.append(d % b)
        return cls(np.arange(d), tuple(sizes))

    @property
    def d(self) -> int:
        return int(self.assignment.size)

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    def groups(self) -> list[np.ndarray]:
        out = []
        at = 0
        for s in self.sizes:
            out.append(self.assignment[at: at + s])
            at += s
        return out


def extract_block(symbols: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Gather the given bit positions of each symbol into a small integer."""
    out = np.zeros(symbols.shape, dtype=np.int64)
    for u, pos in enumerate(positions):
        out |= ((symbols >> int(pos)) & 1) << u
    return out


def insert_block(target: np.ndarray, block_symbols: np.ndarray, positions: np.ndarray) -> None:
    for u, pos in enumerate(positions):
        target |= ((block_symbols >> u) & 1) << int(pos)


# Per-block table record, shared by the BAC1 and BAU1 containers:
# n_active u32, stream_bits u64, then (symbol u32, count u16) per active
# symbol; the byte-aligned streams of all blocks follow the last record.
_RECORD = struct.Struct("<IQ")
_ENTRY = np.dtype([("symbol", "<u4"), ("count", "<u2")])


def write_block_record(out: bytearray, block_symbols: np.ndarray, b: int) -> np.ndarray:
    """Arithmetic-code a block of b-bit values against its own quantized
    frequency table, append the table record to ``out`` and return the
    stream bits. A lone active symbol's count (the whole 16-bit total)
    saturates its u16 field; ``read_block_record`` restores it."""
    counts = np.bincount(block_symbols, minlength=1 << b)
    if block_symbols.size:
        counts = quantize_counts(counts / counts.sum())
        bits = _encode_with_counts(block_symbols, counts)
    else:
        bits = np.zeros(0, dtype=np.uint8)
    active = np.nonzero(counts)[0]
    entries = np.zeros(active.size, dtype=_ENTRY)
    entries["symbol"] = active
    entries["count"] = np.minimum(counts[active], 0xFFFF)
    out += _RECORD.pack(entries.size, bits.size)
    out += entries.tobytes()
    return bits


def read_block_record(buf: bytes, at: int, b: int) -> tuple[np.ndarray, int, int]:
    """Parse the table record of a b-bit block at offset ``at``; returns
    (quantized counts, stream bits, offset past the record)."""
    n_active, stream_bits = _RECORD.unpack_from(buf, at)
    at += _RECORD.size
    entries = np.frombuffer(buf, dtype=_ENTRY, count=n_active, offset=at)
    at += entries.nbytes
    counts = np.zeros(1 << b, dtype=np.int64)
    counts[entries["symbol"]] = entries["count"]
    if n_active == 1:
        counts[counts > 0] = 1 << FREQ_TOTAL_BITS
    return counts, stream_bits, at


def decode_block_streams(buf: bytes, at: int, records, partition: BlockPartition,
                         n: int) -> np.ndarray:
    """Decode the byte-aligned streams starting at offset ``at``, one per
    (counts, stream_bits) record in block order, and reassemble n symbols
    from the partition's blocks."""
    out = np.zeros(n, dtype=np.int64)
    for (counts, nbits), positions in zip(records, partition.groups()):
        nbytes = (nbits + 7) // 8
        bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=at))
        at += nbytes
        if n:
            insert_block(out, _decode_with_counts(bits[:nbits], counts, n), positions)
    return out


@dataclass(frozen=True)
class MarginalEncoding:
    """Result of the transform-then-code-blocks codec: the container bytes
    plus the exact bit accounting (data = concatenated stream bits,
    overhead = header, transform, tables and alignment padding)."""

    container: bytes
    cost: BitCost
    block_bits: tuple[int, ...]


def marginal_encode(samples, g: SymbolPermutation, partition: BlockPartition) -> MarginalEncoding:
    """Apply g, slice each sample's bits into the partition's blocks, and
    arithmetic-code every block stream against its empirical distribution."""
    if partition.d != g.d:
        raise ValueError("partition does not cover the transform dimension")
    x = np.ascontiguousarray(samples, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= (1 << g.d)):
        raise ValueError("symbol outside alphabet")
    y = g.apply(x)
    gdesc = np.asarray(g.map, dtype="<u4").tobytes()
    payload = bytearray()
    payload += struct.pack("<4sBBBBQI", CONTAINER_MAGIC, 1, g.d, partition.n_blocks, 0,
                           x.size, len(gdesc))
    payload += gdesc
    payload += np.asarray(partition.assignment, dtype="<u1").tobytes()
    streams = []
    for positions in partition.groups():
        payload += struct.pack("<B", positions.size)
        streams.append(write_block_record(payload, extract_block(y, positions), positions.size))
    for bits in streams:
        payload += np.packbits(bits).tobytes()
    blob = bytes(payload)
    block_bits = tuple(int(bits.size) for bits in streams)
    data_bits = float(sum(block_bits))
    return MarginalEncoding(blob, BitCost(data_bits, len(blob) * 8 - data_bits), block_bits)


def marginal_decode(container: bytes) -> np.ndarray:
    """Invert marginal_encode: decode streams, reassemble bits, undo g."""
    magic, ver, d, n_blocks, _, n, glen = struct.unpack_from("<4sBBBBQI", container, 0)
    if magic != CONTAINER_MAGIC or ver != 1:
        raise ValueError("not a block-codec container")
    at = struct.calcsize("<4sBBBBQI")
    m = 1 << d
    if glen != 4 * m:
        raise ValueError("transform descriptor length does not match the alphabet")
    gmap = np.frombuffer(container, dtype="<u4", count=m, offset=at).astype(np.int64)
    at += glen
    assignment = np.frombuffer(container, dtype="<u1", count=d, offset=at).astype(np.int64)
    at += d
    sizes, records = [], []
    for _ in range(n_blocks):
        b = container[at]
        counts, nbits, at = read_block_record(container, at + 1, b)
        sizes.append(b)
        records.append((counts, nbits))
    y = decode_block_streams(container, at, records, BlockPartition(assignment, tuple(sizes)), n)
    return SymbolPermutation(d, gmap).unapply(y)
