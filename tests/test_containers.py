"""Both container formats: pinned bytes and round-trip properties.

``BAC1`` (``coding.marginal_encode``) and ``BAU1`` (``universal.compress``)
share the per-block table record and stream section. The digests below
pin every byte of both formats on seeded inputs covering the edge shapes:
n=0 and n=1, a block holding one lone symbol, b not dividing d, d=10, and
the piecewise and order descents, one of them at the benchmark's d=12, b=6.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "n0": (_bac1_empty, "ec9c2351191c414d0e7800c0f4d36efe83ae88a9bf7e934763604d3967c47cd1"),
    "n1": (_bac1_one, "36fe64b3e9cb8b5bff2f7601341f04c98319d8f79b90a05c8e99ae7947be9928"),
    "lone": (_bac1_lone, "7f8028b28126155ed4024228bee24394137aaffa260f4b926feaa46c409bdc60"),
    "b3_d8": (_bac1_b3_d8, "fa2ced3e5e12fe8955c82a165ef1a2b835556ece7059b6a6f8032ad79e5cb3fa"),
    "d10": (_bac1_d10, "d5fc172cbeccbdd1ef8844f03b7f774e62f612da31f0db3899379c9b20743ca2"),
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
    "piecewise": (_bau1_piecewise, "48d067c7d7809c2c2e766a21700eb39bbe120de7629de23fc2c2a2c0c17d40be"),
    "piecewise_d12": (_bau1_piecewise_d12,
                      "c8f89696c020efc26367f152b8f1d39115a015126e1a9564116c8fcb7a7bf178"),
    "order": (_bau1_order, "ff05a09a553bc3698413a24facefa20551eb84fdc04a027dd50ce92d0f19e986"),
    "lone": (_bau1_lone, "e63c743178d2b15db9603806ff5f42a13c113cd2bfe2ff14cade9328744902d6"),
}


def _lone_blocks(symbols, partition):
    return sum(np.unique(extract_block(symbols, pos)).size == 1 for pos in partition.groups())


@pytest.mark.parametrize("case", sorted(BAC1_CASES))
def test_bac1_golden_bytes(case):
    make, digest = BAC1_CASES[case]
    x, g, partition = make()
    blob = marginal_encode(x, g, partition).container
    assert np.array_equal(marginal_decode(blob), x)
    if case == "lone":
        assert _lone_blocks(g.apply(x), partition) == 1
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
