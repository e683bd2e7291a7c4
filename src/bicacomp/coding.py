"""Lossless coders with exact bit accounting.

Provides optimal prefix (Huffman) codes, canonical re-numbering with a
compact codebook wire format, a static rANS coder driven by the kernels
module, and a block codec that transforms symbols, slices their bits into
blocks and entropy-codes each block stream separately.

Container format (see README for the byte layout): a header carrying the
transform and per-block quantized frequency tables, followed by the
byte-aligned block streams and a CRC32 trailer. The per-block record, the
stream section and the trailer are shared with the universal container;
readers raise ``ContainerError`` on a wrong magic or version, a checksum
mismatch or a stream that does not decode cleanly. Frequencies are
quantized to 16-bit totals; zero-count symbols are excluded from code
construction under the contract that they never occur in the stream being
coded.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distributions import SymbolPermutation

CONTAINER_MAGIC = b"BAC2"
CONTAINER_VERSION = 2
FREQ_TOTAL_BITS = kernels.FREQ_BITS
ALPHABET_CAP = 1 << 16


class ContainerError(ValueError):
    """A container is malformed, of another format or version, or corrupt."""


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
# Entropy coding of a symbol stream (rANS, see ``kernels``)
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
    if cum[-1] != 1 << FREQ_TOTAL_BITS:
        raise ValueError(f"frequency total must be 2^{FREQ_TOTAL_BITS}")
    return cum


def arithmetic_encode(symbols, probs, alphabet_cap: int = ALPHABET_CAP) -> np.ndarray:
    """Encode a symbol sequence against a static distribution; returns the
    stream as a 0/1 array. Rejects alphabets past the cap and symbols the
    distribution assigns zero probability."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size > alphabet_cap:
        raise ValueError(f"alphabet size {p.size} exceeds cap {alphabet_cap}")
    syms = np.ascontiguousarray(symbols, dtype=np.int64)
    if syms.size and (syms.min() < 0 or syms.max() >= p.size):
        raise ValueError("symbol outside alphabet")
    data, nbits = _encode_with_counts(syms, quantize_counts(p))
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)


def _encode_with_counts(syms: np.ndarray, counts: np.ndarray) -> tuple[bytes, int]:
    """(stream bytes, exact stream bits) of syms coded against counts."""
    if syms.size and np.any(counts[syms] == 0):
        raise ValueError("zero probability assigned to an occurring symbol")
    return kernels.ac_encode(syms, _cum_from_counts(counts))


def arithmetic_decode(bits, probs, n: int, alphabet_cap: int = ALPHABET_CAP) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.size > alphabet_cap:
        raise ValueError(f"alphabet size {p.size} exceeds cap {alphabet_cap}")
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    return kernels.ac_decode(np.packbits(bits).tobytes(), n,
                             _cum_from_counts(quantize_counts(p)), bits.size)


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


# Both containers open with this header (its last field is the transform
# length in BAC2 and the step count in BAU2) and end with a CRC32 of every
# byte before the trailer.
_HEADER = struct.Struct("<4sBBBBQI")
_TRAILER = struct.Struct("<I")
# Per-block table record, shared by the BAC2 and BAU2 containers:
# n_active u32, stream_bits u64, then (symbol u32, count u16) per active
# symbol; the byte-aligned streams of all blocks follow the last record.
_RECORD = struct.Struct("<IQ")
_ENTRY = np.dtype([("symbol", "<u4"), ("count", "<u2")])


def container_header(magic: bytes, d: int, n_blocks: int, n: int, last: int) -> bytearray:
    """A new container's bytes: its header, at the current version."""
    return bytearray(_HEADER.pack(magic, CONTAINER_VERSION, d, n_blocks, 0, n, last))


def seal_container(payload: bytearray) -> bytes:
    """Append the CRC32 trailer of every byte written so far."""
    payload += _TRAILER.pack(zlib.crc32(payload))
    return bytes(payload)


def open_container(blob: bytes, magic: bytes) -> tuple[int, int, int, int, memoryview, int]:
    """Check the magic, the version and the CRC32 trailer; returns (d,
    n_blocks, n, last header field, a view of the bytes before the trailer,
    offset past the header). Raises ContainerError on any mismatch."""
    blob = bytes(blob)
    if len(blob) < _HEADER.size + _TRAILER.size or blob[:4] != magic:
        raise ContainerError(f"not a {magic.decode()} container")
    body = memoryview(blob)[:-_TRAILER.size]
    if zlib.crc32(body) != _TRAILER.unpack_from(blob, len(body))[0]:
        raise ContainerError("container checksum mismatch")
    _, version, d, n_blocks, _, n, last = _HEADER.unpack_from(body)
    if version != CONTAINER_VERSION:
        raise ContainerError(f"unsupported {magic.decode()} version {version}")
    return d, n_blocks, n, last, body, _HEADER.size


def pack_map(values: np.ndarray, bits: int) -> bytes:
    """A map on b-bit values as little-endian entries of ceil(b/8) bytes."""
    wide = np.ascontiguousarray(values, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return wide[:, :(bits + 7) // 8].tobytes()


def read_map(buf: bytes, at: int, bits: int) -> tuple[np.ndarray, int]:
    """The 2^bits entries written by ``pack_map`` at offset ``at``; returns
    (entries, offset past them)."""
    width = (bits + 7) // 8
    count = 1 << bits
    wide = np.zeros((count, 4), dtype=np.uint8)
    wide[:, :width] = np.frombuffer(buf, dtype=np.uint8, count=count * width,
                                    offset=at).reshape(count, width)
    return wide.view("<u4").ravel().astype(np.int64), at + count * width


def write_block_record(out: bytearray, block_symbols: np.ndarray, b: int) -> tuple[bytes, int]:
    """Entropy-code a block of b-bit values against its own quantized
    frequency table, append the table record to ``out`` and return the
    stream as (bytes, exact bits). A lone active symbol's count (the whole
    16-bit total) saturates its u16 field; ``read_block_record`` restores
    it, and its stream is empty."""
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
    out += _RECORD.pack(entries.size, nbits)
    out += entries.tobytes()
    return data, nbits


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
    """Decode the byte-aligned streams from offset ``at`` to the end of
    ``buf``, one per (counts, stream_bits) record in block order, and
    reassemble n symbols from the partition's blocks. Raises ContainerError
    when a stream runs past the end or does not decode cleanly, or when
    bytes are left over."""
    out = np.zeros(n, dtype=np.int64)
    for (counts, nbits), positions in zip(records, partition.groups()):
        end = at + (nbits + 7) // 8
        if end > len(buf):
            raise ContainerError("block stream runs past the end of the container")
        if n:
            try:
                block = kernels.ac_decode(buf[at:end], n, _cum_from_counts(counts), nbits)
            except ValueError as exc:
                raise ContainerError(f"corrupt block stream: {exc}") from exc
            insert_block(out, block, positions)
        at = end
    if at != len(buf):
        raise ContainerError("bytes left after the last block stream")
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
    entropy-code every block stream against its empirical distribution."""
    if partition.d != g.d:
        raise ValueError("partition does not cover the transform dimension")
    x = np.ascontiguousarray(samples, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= (1 << g.d)):
        raise ValueError("symbol outside alphabet")
    y = g.apply(x)
    gdesc = pack_map(g.map, g.d)
    payload = container_header(CONTAINER_MAGIC, g.d, partition.n_blocks, x.size, len(gdesc))
    payload += gdesc
    payload += np.asarray(partition.assignment, dtype="<u1").tobytes()
    streams = []
    for positions in partition.groups():
        payload += struct.pack("<B", positions.size)
        streams.append(write_block_record(payload, extract_block(y, positions), positions.size))
    for data, _ in streams:
        payload += data
    blob = seal_container(payload)
    block_bits = tuple(nbits for _, nbits in streams)
    data_bits = float(sum(block_bits))
    return MarginalEncoding(blob, BitCost(data_bits, len(blob) * 8 - data_bits), block_bits)


def marginal_decode(container: bytes) -> np.ndarray:
    """Invert marginal_encode: decode streams, reassemble bits, undo g."""
    d, n_blocks, n, glen, body, at = open_container(container, CONTAINER_MAGIC)
    if glen != ((d + 7) // 8) << d:
        raise ContainerError("transform descriptor length does not match the alphabet")
    gmap, at = read_map(body, at, d)
    assignment = np.frombuffer(body, dtype="<u1", count=d, offset=at).astype(np.int64)
    at += d
    sizes, records = [], []
    for _ in range(n_blocks):
        b = body[at]
        counts, nbits, at = read_block_record(body, at + 1, b)
        sizes.append(b)
        records.append((counts, nbits))
    y = decode_block_streams(body, at, records, BlockPartition(assignment, tuple(sizes)), n)
    return SymbolPermutation(d, gmap).unapply(y)
