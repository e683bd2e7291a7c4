import numpy as np

from bicacomp import kernels
from bicacomp.coding import quantize_counts


def _cum(p):
    counts = quantize_counts(np.asarray(p))
    cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    return cum


def _assign_reference(x, centroids, bias):
    """The scalar assignment loop: first cluster with the strictly smallest
    biased squared distance, summed coordinate by coordinate; inf-bias
    clusters are skipped."""
    assign = np.zeros(x.shape[0], dtype=np.int64)
    for i in range(x.shape[0]):
        best = np.inf
        for c in range(centroids.shape[0]):
            v = bias[c]
            if v == np.inf:
                continue
            for t in range(x.shape[1]):
                dlt = x[i, t] - centroids[c, t]
                v += dlt * dlt
            if v < best:
                best = v
                assign[i] = c
    return assign


def test_encode_returns_zero_one_bits():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(16))
    syms = rng.choice(16, size=500, p=p).astype(np.int64)
    bits = kernels.ac_encode(syms, _cum(p))
    assert bits.dtype == np.uint8
    assert set(np.unique(bits)) <= {0, 1}
    # within two bits of the ideal code length of the quantized table
    q = np.diff(_cum(p)) / _cum(p)[-1]
    assert bits.size <= -np.log2(q[syms]).sum() + 2


def test_decode_round_trip_reads_missing_bits_as_zero():
    rng = np.random.default_rng(2)
    p = rng.dirichlet(np.ones(8))
    syms = rng.choice(8, size=400, p=p).astype(np.int64)
    cum = _cum(p)
    bits = kernels.ac_encode(syms, cum)
    out = kernels.ac_decode(bits, 400, cum)
    assert out.dtype == np.int64
    assert np.array_equal(out, syms)
    trimmed = bits[:np.flatnonzero(bits)[-1] + 1]
    assert np.array_equal(kernels.ac_decode(trimmed, 400, cum), syms)
    assert kernels.ac_decode(bits, 0, cum).size == 0


def test_assign_matches_reference_on_random_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 4))
    cents = rng.standard_normal((10, 4))
    bias = rng.random(10)
    assert np.array_equal(kernels.ecvq_assign(x, cents, bias),
                          _assign_reference(x, cents, bias))


def test_assign_matches_reference_on_ties():
    # coarse grids make equal biased distances common; the first wins
    rng = np.random.default_rng(4)
    x = rng.integers(-2, 3, (300, 3)).astype(np.float64)
    cents = rng.integers(-2, 3, (12, 3)).astype(np.float64)
    bias = np.round(rng.random(12) * 2) / 2
    cents[7], bias[7] = cents[2], bias[2]
    got = kernels.ecvq_assign(x, cents, bias)
    assert np.array_equal(got, _assign_reference(x, cents, bias))
    assert not np.any(got == 7)


def test_assign_never_picks_retired_clusters():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((150, 2))
    cents = rng.standard_normal((6, 2))
    bias = rng.random(6)
    bias[[0, 3]] = np.inf
    got = kernels.ecvq_assign(x, cents, bias)
    assert np.array_equal(got, _assign_reference(x, cents, bias))
    assert not np.any(np.isin(got, [0, 3]))
    all_retired = np.full(6, np.inf)
    assert np.array_equal(kernels.ecvq_assign(x, cents, all_retired), np.zeros(150))


def test_assign_small_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((101, 3))
    cents = rng.standard_normal((9, 3))
    bias = rng.random(9)
    bias[4] = np.inf
    whole = kernels.ecvq_assign(x, cents, bias)
    monkeypatch.setattr(kernels, "ASSIGN_CHUNK_CELLS", 20)  # two rows per chunk
    assert np.array_equal(kernels.ecvq_assign(x, cents, bias), whole)
    monkeypatch.setattr(kernels, "ASSIGN_CHUNK_CELLS", 1)  # one row per chunk
    assert np.array_equal(kernels.ecvq_assign(x, cents, bias), whole)
