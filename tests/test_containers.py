"""Both container formats: pinned bytes, round-trip properties and the
typed errors of their readers.

The block-codec container (``coding.marginal_encode``, magic ``BAC2``;
tested as ``bac1_*``) and the universal container (``universal.compress``,
magic ``BAU2``; tested as ``bau1_*``) share the header, the per-block table
record, the rANS stream section and the CRC32 trailer. The digests below
pin every byte of both formats on seeded inputs covering the edge shapes:
n=0 and n=1, a block holding one lone symbol, b not dividing d, d=10, and
the piecewise and order descents, one of them at the benchmark's d=12, b=6.
"""

import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp import ContainerError
from bicacomp.coding import BlockPartition, extract_block, marginal_decode, marginal_encode
from bicacomp.distributions import JointDistribution, SymbolPermutation
from bicacomp.search import order_permutation
from bicacomp.sources import SourceSpec, sample
from bicacomp.universal import compress, decompress, descend


def _ordered(x, d):
    counts = np.bincount(x, minlength=1 << d)
    return order_permutation(JointDistribution(d, counts / counts.sum())).g


def _random_g(d, seed):
    return SymbolPermutation(d, np.random.default_rng(seed).permutation(1 << d))


def _bac1_empty():
    x = np.zeros(0, dtype=np.int64)
    return x, SymbolPermutation.identity(8), BlockPartition.contiguous(8, 4)


def _bac1_one():
    return np.array([200]), _random_g(8, 1), BlockPartition.contiguous(8, 4)


def _bac1_lone():
    # the low block holds the value 5 in every symbol
    x = (np.random.default_rng(2).integers(0, 16, 500) << 4) | 5
    return x, SymbolPermutation.identity(8), BlockPartition.contiguous(8, 4)


def _bac1_b3_d8():
    x = sample(SourceSpec.zipf(256, 1.1, seed=3), 2000)
    return x, _ordered(x, 8), BlockPartition.contiguous(8, 3)


def _bac1_d10():
    x = sample(SourceSpec.zipf(1024, 1.2, seed=4), 3000)
    return x, _ordered(x, 10), BlockPartition.contiguous(10, 5)


BAC1_CASES = {
    "n0": (_bac1_empty, "bc4245982ba4ed056626b6ed27718b257207579b80021445ed4c43154657c04d"),
    "n1": (_bac1_one, "121e2c9535ce54fa6fa4c0be5eb338802d063d420d892bdf52fc92a455ef2dc3"),
    "lone": (_bac1_lone, "7a8b1f2325fe27119d111ae93b751cc10e7ca6871421a1d5cb33df50976565f2"),
    "b3_d8": (_bac1_b3_d8, "ee2659ea4cc268ad1fbc63c2ec5bc3b00ed72bc2758c07398b223bb54a8c1bba"),
    "d10": (_bac1_d10, "254d41c2a46280aae1462a57701c414a2d4e0be1cd25a2cca50dced5e8eb6213"),
}


def _bau1_piecewise():
    x = sample(SourceSpec.zipf(256, 1.1, seed=5), 3000)
    return x, descend(x, 8, 4, method="piecewise", max_iters=4, seed=1)


def _bau1_order():
    x = sample(SourceSpec.zipf(1024, 1.2, seed=6), 4000)
    return x, descend(x, 10, 5, method="order", max_iters=4, seed=2)


def _bau1_piecewise_d12():
    # the benchmark's block shape: two 6-bit blocks, 1716 placements each
    x = sample(SourceSpec.zipf(4096, 1.2, seed=8), 5000)
    return x, descend(x, 12, 6, method="piecewise", max_iters=5, seed=3)


def _bau1_lone():
    # bits 4..7 are always zero; the last recorded shuffle keeps them in one block
    x = sample(SourceSpec.zipf(16, 1.0, seed=7), 1000)
    return x, descend(x, 8, 4, method="order", max_iters=3, seed=0)


BAU1_CASES = {
    "piecewise": (_bau1_piecewise, "9ce549b282ee8c5836ba38ba0b3c4c9a150165f16fe01e28a7c25cc0753a3500"),
    "piecewise_d12": (_bau1_piecewise_d12,
                      "e2cce8ed1e6f010519d31a40e7228487de6d5bc75b048d1f9e4e7126c2b3c0dd"),
    "order": (_bau1_order, "4df3a415205580f7a07df2ce3e55faf9ebea66a6ee3fe7977d9de5ff3c8ca2f2"),
    "lone": (_bau1_lone, "73a9bc4a6b9f91f4482fb85ac2f8c429b0ef3f8b79195cdc6e9b2782940531bf"),
}


def _lone_blocks(symbols, partition):
    return sum(np.unique(extract_block(symbols, pos)).size == 1 for pos in partition.groups())


@pytest.mark.parametrize("case", sorted(BAC1_CASES))
def test_bac1_golden_bytes(case):
    make, digest = BAC1_CASES[case]
    x, g, partition = make()
    enc = marginal_encode(x, g, partition)
    blob = enc.container
    assert np.array_equal(marginal_decode(blob), x)
    if case == "lone":
        assert _lone_blocks(g.apply(x), partition) == 1
        assert 0 in enc.block_bits  # the lone block's stream is empty
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(BAU1_CASES))
def test_bau1_golden_bytes(case):
    make, digest = BAU1_CASES[case]
    x, result = make()
    blob = compress(x, result)
    assert np.array_equal(decompress(blob), x)
    if case == "lone":
        assert _lone_blocks(result.final_symbols, result.partition) >= 1
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
    partition = BlockPartition(np.random.default_rng(seed).permutation(d),
                               BlockPartition.contiguous(d, b).sizes)
    enc = marginal_encode(x, _random_g(d, seed), partition)
    assert np.array_equal(marginal_decode(enc.container), x)
    assert enc.cost.total == len(enc.container) * 8


@settings(max_examples=40, deadline=None)
@given(src=block_sources(min_n=1), method=st.sampled_from(["order", "piecewise"]),
       seed=st.integers(0, 2 ** 16))
def test_bau1_round_trip_property(src, method, seed):
    x, d, b = src
    if method == "piecewise":
        b = min(b, 4)  # the placement count grows as C(b + 7, b)
    result = descend(x, d, b, method=method, max_iters=2, seed=seed,
                     init_shuffles=2, patience=2)
    assert np.array_equal(decompress(compress(x, result)), x)


# ---------------------------------------------------------------------------
# typed errors: version, checksum, field and stream checks
# ---------------------------------------------------------------------------

def _reseal(body):
    """A container body with a valid CRC32 trailer appended."""
    body = bytes(body)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def formats():
    """(decoder, container, symbols, stream bytes) of a seeded case per format."""
    x, g, partition = _bac1_d10()
    enc = marginal_encode(x, g, partition)
    xu, result = _bau1_order()
    return {"BAC2": (marginal_decode, enc.container, x,
                     sum((b + 7) // 8 for b in enc.block_bits)),
            "BAU2": (decompress, compress(xu, result), xu, None)}


def test_container_error_is_a_value_error():
    assert issubclass(ContainerError, ValueError)


@pytest.mark.parametrize("fmt", ["BAC2", "BAU2"])
def test_old_versions_and_foreign_containers_raise(fmt, formats):
    decode, blob = formats[fmt][:2]
    other = formats["BAU2" if fmt == "BAC2" else "BAC2"][1]
    old_magic = blob[:3] + b"1"  # BAC1 / BAU1
    for bad in (_reseal(old_magic + blob[4:-4]),
                _reseal(blob[:4] + b"\x01" + blob[5:-4]),  # version byte 1
                other, b"", blob[:20]):
        with pytest.raises(ContainerError, match="not a|version"):
            decode(bad)


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
def test_a_container_cut_anywhere_raises(fmt, formats):
    decode, blob = formats[fmt][:2]
    body = blob[:-4]
    for cut in range(len(body)):
        with pytest.raises(ContainerError):
            decode(_reseal(body[:cut]))


def test_a_map_longer_than_the_container_raises_before_allocating():
    # d = 28 announces a 2^30-byte transform map; 64 bytes follow the header
    header = struct.pack("<4sBBBBQI", b"BAC2", 2, 28, 1, 0, 10, 4 << 28)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="past the end"):
            marginal_decode(_reseal(header + bytes(64)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
