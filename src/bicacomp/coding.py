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
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distributions import SymbolPermutation, inverse_permutation, next_bit_dimension

CONTAINER_MAGIC = b"BAC2"
CONTAINER_VERSION = 2
FREQ_TOTAL_BITS = kernels.FREQ_BITS
ALPHABET_CAP = 1 << 16  # symbols the decoder's uint16 slot table can hold


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
    is absent from the code (zero probability). Construction checks that
    every codeword fits its length (at most 63 bits) and that no codeword
    is a prefix of another, which also implies the Kraft inequality."""

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


def huffman_build(probs) -> PrefixCode:
    """Optimal prefix code for a probability vector; merges are tie-broken
    by creation order so results are deterministic. A one-symbol alphabet
    gets a single 1-bit codeword (a self-delimiting stream cannot carry
    0-length words)."""
    p = np.asarray(probs, dtype=np.float64)
    active = np.nonzero(p > 0)[0]
    k = active.size
    if k == 0:
        raise ValueError("empty alphabet or no symbol with positive probability")
    # nodes 0..k-1 are the active symbols in index order, k.. the merges in
    # creation order: leaves win weight ties, then lower index or older merge
    heap = list(zip(p[active].tolist(), range(k)))
    heapq.heapify(heap)
    parent = [0] * (2 * k - 1)
    for node in range(k, 2 * k - 1):
        w1, a = heapq.heappop(heap)
        w2, b = heap[0]
        parent[a] = parent[b] = node
        heapq.heapreplace(heap, (w1 + w2, node))
    depth = [0] * (2 * k - 1)
    for node in range(2 * k - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.zeros(p.size, dtype=np.int64)
    lengths[active] = np.maximum(depth[:k], 1)  # only a lone symbol has depth 0
    return PrefixCode(lengths, _canonical_codes(lengths))


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Consecutive binary numbering, symbols visited by (length, index):
    the first code of each length plus the rank within its length class."""
    counts = np.bincount(lengths, minlength=1)
    if counts.size > 64:
        raise ValueError("codewords longer than 63 bits are not supported")
    first = [0] * counts.size
    for l in range(2, counts.size):
        first[l] = (first[l - 1] + int(counts[l - 1])) << 1
    if counts.size > 1 and first[-1] + int(counts[-1]) > 1 << (counts.size - 1):
        raise ValueError("Kraft inequality violated")
    # code = first[l] + rank, rank = position in (length, index) order - class start
    offset = np.array(first, dtype=np.int64) - (np.cumsum(counts) - counts)
    order = np.argsort(lengths, kind="stable")
    codes = np.empty_like(lengths)
    codes[order] = offset[lengths[order]] + np.arange(lengths.size)
    return np.where(lengths > 0, codes, 0)


@dataclass(frozen=True)
class CanonicalCodebook:
    """Canonical renumbering of a prefix code: same lengths, codewords are
    consecutive within each length class, so the codebook serializes as a
    count-per-length list plus the symbols in (length, symbol) order."""

    lengths: np.ndarray
    codes: np.ndarray
    serialized_bits: int

    def code(self) -> PrefixCode:
        return PrefixCode(self.lengths, self.codes)


def canonicalize(code: PrefixCode, alphabet_size: int | None = None) -> CanonicalCodebook:
    lengths = code.lengths
    m = lengths.size if alphabet_size is None else alphabet_size
    n_coded = int(np.count_nonzero(lengths))
    # a unary count per length 1..max_len (ones plus a zero), then the symbols
    bits = n_coded * (next_bit_dimension(m) + 1) + int(lengths.max(initial=0))
    return CanonicalCodebook(lengths, _canonical_codes(lengths), bits)


def serialize_codebook(book: CanonicalCodebook, alphabet_size: int) -> np.ndarray:
    """Bit-exact wire form matching ``serialized_bits``: for each length
    starting at 1, the count of symbols in unary (count ones, then a zero);
    the list ends once every coded symbol is counted; then the symbols in
    (length, symbol) order, each in ceil(log2 m) bits."""
    w = next_bit_dimension(alphabet_size)
    lengths = book.lengths
    counts = np.bincount(lengths)[1:]
    n_coded = int(counts.sum())
    head = np.ones(n_coded + counts.size, dtype=np.uint8)
    head[np.cumsum(counts + 1) - 1] = 0
    syms = np.argsort(lengths, kind="stable")[lengths.size - n_coded:]
    lsb_first = np.unpackbits(syms.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                              count=w, bitorder="little")
    out = np.concatenate([head, lsb_first[:, ::-1].ravel()])
    if out.size != book.serialized_bits:
        raise ValueError("codebook was canonicalized for another alphabet size")
    return out


def deserialize_codebook(bits: np.ndarray, alphabet_size: int, n_coded: int) -> CanonicalCodebook:
    """Parse ``serialize_codebook``'s wire. Raises ``ValueError`` if the counts miss
    ``n_coded`` within 63 lengths or a symbol is cut off, out of range or repeated."""
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
    lsb_first = body.reshape(n_coded, w)[:, ::-1]
    syms = np.packbits(lsb_first, axis=1, bitorder="little") @ (256 ** np.arange((w + 7) // 8))
    if np.any(syms >= alphabet_size):
        raise ValueError("codebook symbol outside the alphabet")
    lengths = np.zeros(alphabet_size, dtype=np.int64)
    lengths[syms] = np.searchsorted(seen, np.arange(n_coded), side="right")
    if np.count_nonzero(lengths) != n_coded:
        raise ValueError("codebook symbol repeated")
    # the wire read: n_len unary counts (the longest length is n_len) and the symbols
    return CanonicalCodebook(lengths, _canonical_codes(lengths), n_coded * (w + 1) + n_len)


def prefix_encode(symbols: np.ndarray, code: PrefixCode) -> np.ndarray:
    """Concatenate codewords msb-first into a 0/1 array."""
    syms = np.asarray(symbols, dtype=np.int64)
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


def arithmetic_encode(symbols, probs) -> np.ndarray:
    """Encode a symbol sequence against a static distribution; returns the
    stream as a 0/1 array. Rejects alphabets past ALPHABET_CAP and symbols
    the distribution assigns zero probability."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size > ALPHABET_CAP:
        raise ValueError(f"alphabet size {p.size} exceeds cap {ALPHABET_CAP}")
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
    """Assignment of d bit positions into consecutive groups. ``assignment``
    is a permutation of 0..d-1; group v covers sizes[v] consecutive entries."""

    assignment: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignment, dtype=np.int64)
        if sum(self.sizes) != a.size or any(s < 1 for s in self.sizes):
            raise ValueError("group sizes must cover all bit positions")
        inverse_permutation(a)
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
