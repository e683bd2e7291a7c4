"""The container format: pinned bytes, round-trip properties and the
typed errors of its one reader.

The block codec (``coding.marginal_encode``, which stores one map on all d
bits) and the universal codec (``universal.compress``, which stores the
descent's steps) write the same format through ``coding.write_container``,
and ``coding.read_container`` parses both. The tests keep the ids they had
when each codec wrote a format of its own: ``bac1_*`` and ``BAC2`` name the
block codec's containers, ``bau1_*`` and ``BAU2`` the universal codec's.
The digests below pin every byte on seeded inputs covering the edge shapes:
n=0 and n=1, a block holding one lone symbol, b not dividing d, d=10, and
the piecewise and order descents, one of them at the benchmark's d=12, b=6;
each container's length is pinned next to its digest.
"""

import hashlib
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp import ContainerError, kernels
from bicacomp.coding import (SECTIONS, BlockPartition, extract_block, marginal_decode,
                             marginal_encode, parse_container, write_container)
from bicacomp.distributions import JointDistribution, SymbolPermutation
from bicacomp.search import order_permutation
from bicacomp.sources import SourceSpec, sample
from bicacomp.universal import compress, decompress, descend


def _ordered(x, d):
    counts = np.bincount(x, minlength=1 << d)
    return order_permutation(JointDistribution(d, counts / counts.sum())).g


def _random_g(d, seed):
    return SymbolPermutation(d, np.random.default_rng(seed).permutation(1 << d))


def _marginal_empty():
    x = np.zeros(0, dtype=np.int64)
    return x, SymbolPermutation.identity(8), BlockPartition.contiguous(8, 4)


def _marginal_one():
    return np.array([200]), _random_g(8, 1), BlockPartition.contiguous(8, 4)


def _marginal_lone():
    # the low block holds the value 5 in every symbol
    x = (np.random.default_rng(2).integers(0, 16, 500) << 4) | 5
    return x, SymbolPermutation.identity(8), BlockPartition.contiguous(8, 4)


def _marginal_b3_d8():
    x = sample(SourceSpec.zipf(256, 1.1, seed=3), 2000)
    return x, _ordered(x, 8), BlockPartition.contiguous(8, 3)


def _marginal_d10():
    x = sample(SourceSpec.zipf(1024, 1.2, seed=4), 3000)
    return x, _ordered(x, 10), BlockPartition.contiguous(10, 5)


# case: (inputs, container length, SHA-256); the lengths are those of the
# version-2 containers, since the version-3 layout only moves fields and the
# version-4 byte-renormalized coder writes streams of the same lengths
MARGINAL_CASES = {
    "n0": (_marginal_empty, 314,
           "e6e497978e92aeb4d30064e4fc1d05fe79778e648a5ade0dee88b4a7a07f228b"),
    "n1": (_marginal_one, 326,
           "96a0966a12ff4d69382671900d1aa050d10851f056bd8a2ab379c6fbf9b91256"),
    "lone": (_marginal_lone, 666,
             "9ba56913d71bea4875c4854a17aee55a02f140a0c74d8f8a2e94be9677ba85d9"),
    "b3_d8": (_marginal_b3_d8, 1933,
              "01a1292a8a240890a583e37d20d33e0f573260beef3e24385aa38932adb62fd6"),
    "d10": (_marginal_d10, 4670,
            "7a922907ab73afb6df3714ea082b717e9976c00d63b56b469837f4e5cc09230c"),
}


def _universal_piecewise():
    x = sample(SourceSpec.zipf(256, 1.1, seed=5), 3000)
    return x, descend(x, 8, 4, method="auto", max_iters=4, seed=1)


def _universal_order():
    x = sample(SourceSpec.zipf(1024, 1.2, seed=6), 4000)
    return x, descend(x, 10, 5, method="order", max_iters=4, seed=2)


def _universal_piecewise_d12():
    # the benchmark's block shape: two 6-bit blocks, 1716 placements each
    x = sample(SourceSpec.zipf(4096, 1.2, seed=8), 5000)
    return x, descend(x, 12, 6, method="auto", max_iters=5, seed=3)


def _universal_lone():
    # bits 4..7 are always zero; the last recorded shuffle keeps them in one block
    x = sample(SourceSpec.zipf(16, 1.0, seed=7), 1000)
    return x, descend(x, 8, 4, method="order", max_iters=3, seed=0)


UNIVERSAL_CASES = {
    "piecewise": (_universal_piecewise, 2671,
                  "f28ec93a810976adae3117e06d54da224a1f205f003ab8355c993035692a38a8"),
    "piecewise_d12": (_universal_piecewise_d12, 5892,
                      "6b3d9428371bc73f84a83e4612ed5ff34e48aeafee2f8e138747d30b84c8b7b5"),
    "order": (_universal_order, 4004,
              "f1101260fe2d482c06d240486523ebe5676b10be716567859e383dd9ff19596b"),
    "lone": (_universal_lone, 751,
             "185946b96aa495c81cf86cac9c591ae6a1dce5c817e7916bc8cf04e2b8e2e892"),
}


def _lone_blocks(symbols, partition):
    return sum(np.unique(extract_block(symbols, pos)).size == 1 for pos in partition.groups())


def _block_records(blob):
    """(active symbols, stream bits) of every block record of a container."""
    return [(np.count_nonzero(counts), bits) for counts, bits, _ in parse_container(blob).records]


def _check_sections(blob):
    """The parsed sections come out in the declared order and their bytes
    concatenate to the container."""
    sections = parse_container(blob).sections
    assert tuple(name for name, _ in sections) == SECTIONS
    assert b"".join(part for _, part in sections) == blob


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES))
def test_bac1_golden_bytes(case):
    make, length, digest = MARGINAL_CASES[case]
    x, g, partition = make()
    enc = marginal_encode(x, g, partition)
    blob = enc.container
    assert np.array_equal(marginal_decode(blob), x)
    _check_sections(blob)
    if case == "lone":
        assert _lone_blocks(g.apply(x), partition) == 1
        assert (1, 0) in _block_records(blob)  # the lone block's stream is empty
    assert len(blob) == length
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(UNIVERSAL_CASES))
def test_bau1_golden_bytes(case):
    make, length, digest = UNIVERSAL_CASES[case]
    x, result = make()
    blob = compress(x, result)
    assert np.array_equal(decompress(blob), x)
    _check_sections(blob)
    if case == "lone":
        assert (1, 0) in _block_records(blob)  # a lone symbol's stream is empty
    assert len(blob) == length
    assert hashlib.sha256(blob).hexdigest() == digest


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

@st.composite
def block_sources(draw, min_n):
    """(symbols, d, b): d-bit symbols, b possibly not dividing d, n drawn
    from {min_n, 1, small}, values either skewed or one lone symbol."""
    d = draw(st.integers(1, 10))
    b = draw(st.integers(1, d))
    n = draw(st.sampled_from(sorted({min_n, 1})) | st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x = np.full(n, rng.integers(0, 1 << d), dtype=np.int64)
    else:
        w = rng.random(1 << d) ** draw(st.sampled_from([1, 4, 16]))
        x = rng.choice(1 << d, size=n, p=w / w.sum()).astype(np.int64)
    return x, d, b


@settings(max_examples=60, deadline=None)
@given(src=block_sources(min_n=0), seed=st.integers(0, 2 ** 16))
def test_bac1_round_trip_property(src, seed):
    x, d, b = src
    enc = marginal_encode(x, _random_g(d, seed), BlockPartition.contiguous(d, b))
    assert np.array_equal(marginal_decode(enc.container), x)
    assert enc.cost.data_bits + enc.cost.overhead_bits == len(enc.container) * 8
    _check_sections(enc.container)


@settings(max_examples=40, deadline=None)
@given(src=block_sources(min_n=1), method=st.sampled_from(["order", "auto"]),
       seed=st.integers(0, 2 ** 16))
def test_bau1_round_trip_property(src, method, seed):
    x, d, b = src
    if method == "auto":
        b = min(b, 4)  # the placement count grows as C(b + 7, b)
    result = descend(x, d, b, method=method, max_iters=2, seed=seed,
                     init_shuffles=2, patience=2)
    blob = compress(x, result)
    assert np.array_equal(decompress(blob), x)
    _check_sections(blob)


def test_a_full_16_bit_block_round_trips():
    # the widest block: all 2^16 values once each, in a seeded order, so its
    # table holds 2^16 entries and the decoder's slot table is uint16
    x = np.random.default_rng(16).permutation(1 << 16)
    blob = marginal_encode(x, SymbolPermutation.identity(16),
                           BlockPartition.contiguous(16, 16)).container
    assert [active for active, _ in _block_records(blob)] == [1 << 16]
    assert len(blob) == 655_413
    assert np.array_equal(marginal_decode(blob), x)


# ---------------------------------------------------------------------------
# typed errors: version, checksum, field and stream checks
# ---------------------------------------------------------------------------

_HEAD = struct.calcsize("<4sBBBBQI")  # magic, version, d, n_blocks, flags, n, n_steps


def _reseal(body):
    """A container body with a valid CRC32 trailer appended."""
    body = bytes(body)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def formats():
    """(decoder, container, symbols, stream bytes) of a seeded case per codec."""
    x, g, partition = _marginal_d10()
    enc = marginal_encode(x, g, partition)
    xu, result = _universal_order()
    return {"BAC2": (marginal_decode, enc.container, x,
                     len(dict(parse_container(enc.container).sections)["streams"])),
            "BAU2": (decompress, compress(xu, result), xu, None)}


def test_container_error_is_a_value_error():
    assert issubclass(ContainerError, ValueError)


@pytest.mark.parametrize("fmt", ["BAC2", "BAU2"])
def test_old_versions_and_foreign_containers_raise(fmt, formats):
    decode, blob = formats[fmt][:2]
    for bad in (_reseal(b"BAC2\x02" + blob[5:-4]),  # the two version-2 formats
                _reseal(b"BAU2\x02" + blob[5:-4]),
                _reseal(blob[:4] + b"\x02" + blob[5:-4]),  # version byte 2
                _reseal(b"BAC3\x03" + blob[5:-4]),  # version 3: the 64-bit-state coder
                _reseal(blob[:4] + b"\x03" + blob[5:-4]),  # version byte 3
                b"", blob[:20]):
        with pytest.raises(ContainerError, match="not a|version"):
            decode(bad)


def test_each_decoder_reads_the_other_codecs_container(formats):
    for decode, other in ((marginal_decode, "BAU2"), (decompress, "BAC2")):
        _, blob, x = formats[other][:3]
        assert np.array_equal(decode(blob), x)


@pytest.mark.parametrize("fmt", ["BAC2", "BAU2"])
def test_checksum_mismatch_raises(fmt, formats):
    decode, blob = formats[fmt][:2]
    rng = np.random.default_rng(len(blob))
    for at in sorted(set(rng.integers(4, len(blob), 40).tolist()) | {4, len(blob) - 1}):
        bad = bytearray(blob)
        bad[at] ^= 1 << int(rng.integers(8))
        with pytest.raises(ContainerError, match="checksum"):
            decode(bytes(bad))
    for cut in (1, 4, 5, len(blob) // 2):
        with pytest.raises(ContainerError):
            decode(blob[:-cut])


def test_corrupt_stream_with_a_valid_checksum_raises(formats):
    decode, blob, x, stream_bytes = formats["BAC2"]
    body = blob[:-4]
    start = len(body) - stream_bytes
    for at in range(start, len(body) - 1, 97):
        bad = bytearray(body)
        bad[at] ^= 0x10
        with pytest.raises(ContainerError, match="state 1"):
            decode(_reseal(bad))
    with pytest.raises(ContainerError, match="past the end"):
        decode(_reseal(body[:-1]))
    with pytest.raises(ContainerError, match="left after"):
        decode(_reseal(body + b"\x00"))
    assert np.array_equal(decode(_reseal(body)), x)


@pytest.mark.parametrize("fmt", ["BAC2", "BAU2"])
def test_a_container_cut_anywhere_raises(fmt, formats, monkeypatch):
    decode, blob, x = formats[fmt][:3]
    body = blob[:-4]
    ac_decode, decodes = kernels.ac_decode, []

    def counted(*args):
        decodes.append(args)
        return ac_decode(*args)

    monkeypatch.setattr(kernels, "ac_decode", counted)
    for cut in range(len(body)):
        with pytest.raises(ContainerError):
            decode(_reseal(body[:cut]))
    assert decodes == []  # the parse rejects every cut before any stream decodes
    assert np.array_equal(decode(blob), x)
    assert decodes  # the counter does see the whole container's streams


def test_a_map_longer_than_the_container_raises_before_allocating():
    # d = 28 in blocks of 16 and 12 bits with the map flag announces a
    # 2^30-byte map on all d bits; 64 bytes follow the sizes and assignment
    header = struct.pack("<4sBBBBQI", b"BAC4", 4, 28, 2, 1, 10, 0)
    body = header + bytes([16, 12]) + bytes(range(28)) + bytes(64)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="past the end"):
            marginal_decode(_reseal(body))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_block_wider_than_16_bits_raises_at_encode_time():
    with pytest.raises(ValueError, match="16 bits"):
        marginal_encode([70000, 5, 131071], SymbolPermutation.identity(17),
                        BlockPartition.contiguous(17, 17))


def test_out_of_range_fields_raise_container_error(formats):
    decode, blob = formats["BAC2"][:2]
    assert blob[5:8] == bytes([10, 2, 1])  # d, n_blocks, flags: two 5-bit blocks, a d-bit map
    sizes, assignment, gmap = _HEAD, _HEAD + 2, _HEAD + 12  # the map has 2-byte entries
    edits = [(7, b"\x02", "flags"), (7, b"\x03", "flags"), (7, b"\x80", "flags"),
             (sizes, b"\x00\x0a", "outside 1..16"), (sizes, b"\x11\x05", "outside 1..16"),
             (sizes, b"\xff\x05", "outside 1..16"),
             (sizes, b"\x05\x04", "cover all bit positions"),  # 9 of the 10 bits
             # a permutation of the bits, but blocks are consecutive bits
             (assignment, b"\x01\x00", "assignment is not 0..9 in order"),
             (assignment + 1, blob[assignment:assignment + 1], "assignment is not 0..9 in order"),
             (gmap + 2, blob[gmap:gmap + 2], "not a permutation")]
    for at, edit, match in edits:
        bad = bytearray(blob[:-4])
        bad[at:at + len(edit)] = edit
        with pytest.raises(ContainerError, match=match):
            decode(_reseal(bad))


def test_a_step_count_past_the_bytes_left_raises_at_once(formats):
    decode, blob = formats["BAU2"][:2]
    many = bytearray(blob[:-4])
    many[_HEAD - 4:_HEAD] = struct.pack("<I", 2 ** 32 - 1)
    # d = 0 would make every step 0 bytes long
    empty = struct.pack("<4sBBBBQI", b"BAC4", 4, 0, 0, 0, 0, 2 ** 32 - 1)
    for bad, match in ((many, "steps run past the end"), (empty, "0-bit")):
        start = time.perf_counter()
        with pytest.raises(ContainerError, match=match):
            decode(_reseal(bad))
        assert time.perf_counter() - start < 0.5


def test_malformed_block_tables_raise_container_error():
    # d = 4 in two 2-bit blocks, every block value present: the first record
    # follows the header, 2 sizes, 4 assignment bytes and a 16-entry map
    full = marginal_encode(np.tile(np.arange(16), 3), SymbolPermutation.identity(4),
                           BlockPartition.contiguous(4, 2)).container
    lone = marginal_encode((np.arange(48) % 4 << 2) | 1, SymbolPermutation.identity(4),
                           BlockPartition.contiguous(4, 2)).container
    record = _HEAD + 2 + 4 + 16
    assert struct.unpack_from("<I", full, record)[0] == 4
    assert struct.unpack_from("<IQIH", lone, record) == (1, 0, 1, 0xFFFF)

    def entry(i, field):  # (symbol u32, count u16) entries follow n_active u32, stream_bits u64
        return record + 12 + 6 * i + (4 if field == "count" else 0)

    edits = [(full, entry(0, "symbol"), struct.pack("<I", 9), "out of range"),  # was an IndexError
             (full, entry(0, "symbol"), struct.pack("<I", 4), "out of range"),
             (full, entry(1, "symbol"), struct.pack("<I", 0), "out of order"),  # repeated
             (full, entry(0, "symbol"), struct.pack("<I", 2), "out of order"),  # 2 before 1
             (full, record, struct.pack("<I", 5), "5 table entries for a 2-bit block"),
             (full, entry(0, "count"), struct.pack("<H", (1 << 14) + 1), "sum to 65537"),
             (full, entry(3, "count"), struct.pack("<H", 0), "sum to 49152"),
             (lone, entry(0, "count"), struct.pack("<H", 0xFFFE), "sum to 65534")]
    for blob, at, edit, match in edits:
        bad = bytearray(blob[:-4])
        bad[at:at + len(edit)] = edit
        with pytest.raises(ContainerError, match=match):
            marginal_decode(_reseal(bad))
    for blob in (full, lone):
        marginal_decode(_reseal(blob[:-4]))


def test_a_header_field_past_a_byte_raises_at_encode_time():
    # past 63 bits the symbols no longer fit int64, long before d or the
    # block count would overflow the header's byte fields
    for d in (300, 70, 64):
        with pytest.raises(ValueError, match="63 bits"):
            write_container(np.arange(3), BlockPartition.contiguous(d, 10))
    write_container(np.arange(3), BlockPartition.contiguous(63, 9))


def test_symbols_wider_than_int64_raise_container_error():
    # ten 7-bit blocks of one lone symbol each, five samples; the top
    # block's symbol 5 sets bits 63 and 65, which used to decode into the
    # sign bit and vanish, giving five copies of -2^63
    d, b, n = 70, 7, 5
    body = struct.pack("<4sBBBBQI", b"BAC4", 4, d, d // b, 0, n, 0)
    body += bytes([b] * (d // b)) + bytes(range(d))
    for symbol in [0] * (d // b - 1) + [5]:
        body += struct.pack("<IQIH", 1, 0, symbol, 0xFFFF)
    with pytest.raises(ContainerError, match="70-bit symbols"):
        marginal_decode(_reseal(body))
