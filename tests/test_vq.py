import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst  # `st` names fit states here

from bicacomp import kernels, vq
from bicacomp.sources import SourceSpec, sample
from bicacomp.vq import (
    SPHERE_STD,
    Lattice,
    bica_ecvq_fit,
    ecvq_fit,
    gaussian_rd,
    lattice_quantize,
    lattice_rate_report,
    _bica_length_step,
    _index_bit_lengths,
    _index_map,
)
from bicacomp.distributions import (
    JointDistribution,
    SymbolPermutation,
    binary_entropy,
    bit_zero_marginals,
    marginals,
)
from bicacomp.search import block_bica


# ---------------------------------------------------------------------------
# ECVQ
# ---------------------------------------------------------------------------

def test_ecvq_lambda_zero_is_lloyd_fixed_point():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 2))
    st = ecvq_fit(x, 8, 0.0, seed=1)
    # distortion-only assignment: every sample sits with its nearest live centroid
    live = np.isfinite(st.lengths)
    d2 = ((x[:, None, :] - st.centroids[None, :, :]) ** 2).sum(axis=2)
    d2[:, ~live] = np.inf
    assert np.array_equal(np.argmin(d2, axis=1), st.assign)
    for c in np.unique(st.assign):
        assert np.allclose(st.centroids[c], x[st.assign == c].mean(axis=0), atol=1e-12)


def test_ecvq_large_lambda_collapses_clusters():
    # unequal masses so the length asymmetry can pull everything together
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal((280, 2)) - 4,
                        rng.standard_normal((120, 2)) + 4])
    st = ecvq_fit(x, 16, 1000.0, seed=2)
    assert np.unique(st.assign).size == 1
    assert st.mean_rate == pytest.approx(0.0, abs=1e-12)


def brute_force_ecvq(x, m, lam):
    """Exhaustive minimum of the ECVQ Lagrangian over all assignments of the
    samples into at most m clusters."""
    n = x.shape[0]
    best = np.inf
    for assign in itertools.product(range(m), repeat=n):
        a = np.array(assign)
        lag = 0.0
        for c in range(m):
            sel = x[a == c]
            if sel.size == 0:
                continue
            p = sel.shape[0] / n
            lag += np.sum((sel - sel.mean(axis=0)) ** 2) / n + lam * p * (-math.log2(p))
        best = min(best, lag)
    return best


def test_ecvq_matches_brute_force_four_point_source():
    x = np.array([[0.0], [1.0], [4.0], [5.0]])
    lam = 0.5
    target = brute_force_ecvq(x, 2, lam)
    lags = [ecvq_fit(x, 2, lam, seed=s).lagrangian for s in range(8)]
    # a descent cannot beat the exhaustive optimum, and some basin reaches it
    assert all(l >= target - 1e-9 for l in lags)
    assert min(lags) == pytest.approx(target, abs=1e-9)


def test_ecvq_monotone_history():
    rng = np.random.default_rng(11)
    for seed in range(10):
        x = rng.standard_normal((300, 3))
        st = ecvq_fit(x, 32, 0.3, seed=seed)
        assert np.all(np.diff(st.history) <= 1e-9)


def test_ecvq_validation():
    with pytest.raises(ValueError):
        ecvq_fit(np.zeros((0, 2)), 4, 0.1)
    with pytest.raises(ValueError):
        ecvq_fit(np.zeros((10, 2)), 4, -1.0)
    with pytest.raises(ValueError):
        ecvq_fit(np.zeros((3, 2)), 4, 0.1)  # more clusters than samples


@pytest.mark.parametrize("fit", [ecvq_fit, bica_ecvq_fit])
@pytest.mark.parametrize("m_init, lam", [(0, 0.1), (4, -1.0), (4, math.nan), (4, math.inf)])
def test_fits_reject_bad_cluster_budget_and_lambda(fit, m_init, lam):
    x = np.random.default_rng(5).standard_normal((20, 2))
    with pytest.raises(ValueError):
        fit(x, m_init, lam)


@pytest.mark.parametrize("fit", [ecvq_fit, bica_ecvq_fit])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fits_reject_non_finite_samples(fit, bad):
    x = np.random.default_rng(6).standard_normal((20, 2))
    x[7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        fit(x, 4, 0.1)


@pytest.mark.parametrize("fit", [ecvq_fit, bica_ecvq_fit])
def test_fits_reject_zero_width_samples(fit):
    with pytest.raises(ValueError, match="dim >= 1"):
        fit(np.zeros((5, 0)), 2, 0.1)


@pytest.mark.parametrize("fit", [ecvq_fit, bica_ecvq_fit])
def test_fits_reject_fewer_than_one_sweep(fit):
    x = np.random.default_rng(7).standard_normal((20, 2))
    with pytest.raises(ValueError, match="sweep"):
        fit(x, 4, 0.1, max_sweeps=0)


@pytest.mark.parametrize("dim", range(2, 9))
def test_centroids_equal_the_masked_means(dim):
    # bincount sums each cluster's samples in order, as .mean(axis=0) does
    # on an (n_c, dim >= 2) block, so the two agree bit for bit
    x = sample(SourceSpec.gaussian_mixture(dim, seed=dim), 600)
    for st in (ecvq_fit(x, 32, 0.01, seed=dim), bica_ecvq_fit(x, 32, 1.0, seed=dim)[0]):
        occupied = np.flatnonzero(np.bincount(st.assign, minlength=32))
        for c in occupied:
            assert np.array_equal(st.centroids[c], x[st.assign == c].mean(axis=0))


def test_fit_reports_its_last_sweep():
    x = np.random.default_rng(8).standard_normal((300, 3))
    st = ecvq_fit(x, 16, 0.5, seed=2)
    diffs = x - st.centroids[st.assign]
    assert st.lagrangian == st.history[-1]
    assert st.mean_distortion == float(np.mean(np.sum(diffs * diffs, axis=1)))
    assert st.mean_rate == float(np.mean(st.lengths[st.assign]))


def _last_state(fit, x, m_init, lam, seed):
    res = fit(x, m_init, lam, seed=seed)
    return res[0] if fit is bica_ecvq_fit else res


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), dim=hst.integers(1, 12), n=hst.integers(1, 300),
       lam=hst.sampled_from([0.0, 0.01, 1.0, 10.0]), grid=hst.booleans(),
       seed=hst.integers(0, 2**32 - 1))
def test_fits_report_their_last_sweep_property(data, dim, n, lam, grid, seed):
    # the scores equal the wrapped NumPy formulas bit for bit at every dim,
    # on Gaussian samples and on coarse grids (repeated samples, retired
    # clusters)
    m_init = data.draw(hst.integers(1, min(n, 40)))
    rng = np.random.default_rng(seed)
    if grid:
        x = rng.integers(-2, 3, (n, dim)).astype(np.float64)
    else:
        x = rng.standard_normal((n, dim))
    for fit in (ecvq_fit, bica_ecvq_fit):
        state = _last_state(fit, x, m_init, lam, seed % 7)
        diffs = x - state.centroids[state.assign]
        assert state.mean_distortion == float(np.mean(np.sum(diffs * diffs, axis=1)))
        assert state.mean_rate == float(np.mean(state.lengths[state.assign]))
        assert state.lagrangian == state.history[-1]


@settings(max_examples=200, deadline=None)
@given(dim=hst.integers(1, 16), n=hst.integers(1, 60), k=hst.integers(1, 12),
       lo=hst.integers(-150, 150), span=hst.integers(0, 300),
       lam=hst.sampled_from([0.0, 0.01, 1.0]), seed=hst.integers(0, 2**32 - 1))
def test_sweep_eval_equals_the_numpy_formulas_property(dim, n, k, lo, span, lam, seed):
    # every coordinate and centroid carries its own magnitude between
    # 10^lo and 10^min(lo + span, 150), so the row sums' roundings depend on
    # their order: column adds below 8 coordinates, the row reduction from 8 on
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 150)

    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(lo, hi, shape)

    x, centroids = draw((n, dim)), draw((k, dim))
    lengths = rng.random(k) * 10
    assign = rng.integers(0, k, n)
    dist, rate, lag = vq._sweep_eval(x, centroids, lengths, assign, lam)
    diffs = x - centroids[assign]
    assert dist == np.mean(np.sum(diffs * diffs, axis=1))
    assert rate == np.mean(lengths[assign])
    assert lag == dist + lam * rate


@pytest.mark.parametrize("fit", [ecvq_fit, bica_ecvq_fit])
@pytest.mark.parametrize("lam", [0.01, 10.0])
def test_fits_assign_once_per_sweep(monkeypatch, fit, lam):
    # the benchmark's trace counts a fit's sweeps as its ecvq_assign calls,
    # and their work as the first argument's rows times the second's; this
    # is the ecvq-sweep shape
    rng = np.random.default_rng(31)
    signs = rng.integers(0, 2, size=1000) * 2 - 1
    x = signs[:, None] * np.ones(6) + rng.standard_normal((1000, 6))
    calls = []
    assign = kernels.ecvq_assign

    def counted(*args):
        calls.append(args)
        return assign(*args)

    monkeypatch.setattr(kernels, "ecvq_assign", counted)
    state = _last_state(fit, x, 64, lam, 1)
    assert len(calls) == state.history.size
    assert all(a[0].shape[0] == 1000 and a[1].shape[0] == 64 for a in calls)


# ---------------------------------------------------------------------------
# BICA variant
# ---------------------------------------------------------------------------

def test_index_bit_lengths_product_occupancy_equals_joint():
    # occupancy that factorizes over index bits: marginal lengths sum to the
    # joint ideal length for every cluster
    q0, q1 = 0.3, 0.6
    probs = np.array([q0 * q1, (1 - q0) * q1, q0 * (1 - q1), (1 - q0) * (1 - q1)])
    lens = _index_bit_lengths(probs, _index_map(SymbolPermutation.identity(2).map))
    assert np.allclose(lens, -np.log2(probs), atol=1e-12)


def _length_step_through_search_objects(counts, g):
    """The length step as the search objects compute it: the order search
    on the padded occupancy, kept when its objective beats the current
    map's by 1e-15, then one masked sum per bit for each zero mass."""
    d = g.d
    probs = np.zeros(1 << d)
    probs[:counts.size] = counts / counts.sum()
    dist = JointDistribution(d, probs)
    cand = block_bica(dist, "order")
    if cand.objective < marginals(dist, g).entropy_sum() - 1e-15:
        g = cand.g
    y = g.map
    out = np.zeros(probs.size)
    for j in range(d):
        zero_mass = float(probs[(y >> j) & 1 == 0].sum())
        q = np.where((y >> j) & 1 == 0, zero_mass, 1.0 - zero_mass)
        out -= np.where(probs > 0, np.log2(np.maximum(q, 1e-300)), 0.0)
    lengths = np.where(probs > 0, out, np.inf)
    return g.map, np.where(counts > 0, lengths[:counts.size], np.inf)


@pytest.mark.parametrize("d", range(1, 11))
def test_bica_length_step_matches_the_search_objects(d):
    rng = np.random.default_rng(100 + d)
    kept = 0
    for trial in range(12):
        # cluster counts that are mostly not a power of two, with empty clusters
        m_init = int(rng.integers((1 << (d - 1)) + 1, (1 << d) + 1))
        counts = rng.integers(0, 50, size=m_init) * (rng.random(m_init) < 0.7)
        counts[rng.integers(m_init)] += 1
        # the current map: identity, a random permutation, or the map the
        # last trial returned
        if trial == 0:
            y = np.arange(1 << d)
        elif trial % 3 == 1:
            y = rng.permutation(1 << d)
        want_map, want = _length_step_through_search_objects(counts, SymbolPermutation(d, y))
        got_tables, got = _bica_length_step(counts, _index_map(y))
        got_map = got_tables.map
        assert np.array_equal(got_map, want_map)
        assert got.tobytes() == want.tobytes()
        kept += not np.array_equal(got_map, y)
        y = got_map
    # at d = 1 every map has the same one-bit entropy, so none is kept
    assert kept > 0 or d == 1


def _length_step_rebuilt_each_sweep(counts, y):
    """The length step as it stood before its tables were kept per map:
    every call sorts, scores both maps and rebuilds the bit tables of the
    map it returns."""
    probs = np.zeros(y.size)
    probs[:counts.size] = counts / counts.sum()
    p = probs / float(probs.sum())
    cand = np.empty_like(y)
    cand[np.argsort(p, kind="stable")] = np.arange(y.size)
    rows = np.empty((2, y.size))
    rows[0, cand] = p
    rows[1, y] = p
    d = y.size.bit_length() - 1
    pis = bit_zero_marginals(rows / rows.sum(axis=1, keepdims=True), d)
    cand_sum, cur_sum = binary_entropy(np.minimum(np.maximum(pis, 0.0), 1.0)).sum(axis=1)
    if cand_sum < cur_sum - 1e-15:
        y = cand
    zero = (y >> np.arange(d)[:, None]) & 1 == 0
    zero_mass = probs[np.nonzero(zero)[1].reshape(d, -1)].sum(axis=1)[:, None]
    q = np.where(zero, zero_mass, 1.0 - zero_mass)
    lengths = np.where(probs > 0, 0.0 - np.log2(np.maximum(q, 1e-300)).sum(axis=0), np.inf)
    return y, np.where(counts > 0, lengths[:counts.size], np.inf)


@hst.composite
def count_sequences(draw):
    """Cluster counts over 2^(d-1) < m <= 2^d clusters, sweep after sweep:
    each sweep redraws the counts (the order map moves), shuffles them (it
    moves more), or repeats them (the candidate equals the map just kept)."""
    d = draw(hst.integers(1, 7))
    m = draw(hst.integers((1 << d) // 2 + 1, 1 << d))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(0, 40, m)
    seq = []
    for step in draw(hst.lists(hst.sampled_from(["redraw", "shuffle", "repeat"]),
                               min_size=1, max_size=12)):
        if step == "redraw":
            counts = rng.integers(0, 40, m) * (rng.random(m) < 0.8)
        elif step == "shuffle":
            counts = rng.permutation(counts)
        counts = counts.copy()
        counts[rng.integers(m)] += 1
        seq.append(counts)
    return d, seq


@settings(max_examples=200, deadline=None)
@given(count_sequences())
def test_bica_length_step_keeps_each_maps_tables_property(case):
    d, seq = case
    kept, y = _index_map(np.arange(1 << d)), np.arange(1 << d)
    for counts in seq:
        kept, got = _bica_length_step(counts, kept)
        y, want = _length_step_rebuilt_each_sweep(counts, y)
        assert np.array_equal(kept.map, y)
        assert got.tobytes() == want.tobytes()


def test_bica_fit_builds_no_distribution_and_one_permutation(monkeypatch):
    # the length step works on arrays: one SymbolPermutation, the one the
    # fit returns, and no JointDistribution, however many sweeps run
    built = {"JointDistribution": 0, "SymbolPermutation": 0}
    for cls in (JointDistribution, SymbolPermutation):
        def counted(self, _init=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    x = sample(SourceSpec.gaussian_mixture(6, seed=1), 1000)
    for lam in (0.01, 10.0):
        built.update(JointDistribution=0, SymbolPermutation=0)
        st, _ = bica_ecvq_fit(x, 64, lam, seed=1)
        assert st.history.size > 1
        assert built == {"JointDistribution": 0, "SymbolPermutation": 1}


def test_bica_ecvq_monotone_history():
    rng = np.random.default_rng(13)
    for seed in range(10):
        x = rng.standard_normal((300, 3))
        st, _ = bica_ecvq_fit(x, 32, 0.3, seed=seed)
        assert np.all(np.diff(st.history) <= 1e-9)


def test_bica_ecvq_rate_close_to_plain_ecvq():
    x = sample(SourceSpec.gaussian_mixture(6, seed=99), 1000)
    for lam in (0.05, 0.4):
        st = ecvq_fit(x, 64, lam, seed=1)
        st2, g = bica_ecvq_fit(x, 64, lam, seed=1)
        assert st2.mean_rate == pytest.approx(st.mean_rate, rel=0.05)
        assert np.array_equal(np.sort(g.map), np.arange(g.map.size))


def test_bica_ecvq_rejects_oversized_budget():
    with pytest.raises(ValueError):
        bica_ecvq_fit(np.zeros((10, 2)), (1 << 16) + 1, 0.1)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice("d4", 3, 1.0)
    with pytest.raises(ValueError):
        Lattice("e8", 4, 1.0)
    with pytest.raises(ValueError):
        Lattice("hex", 2, 1.0)
    with pytest.raises(ValueError):
        Lattice("cubic", 2, 0.0)


def test_lattice_idempotence():
    rng = np.random.default_rng(17)
    for lat in (Lattice("cubic", 3, 0.7), Lattice("d4", 4, 1.3), Lattice("e8", 8, 0.9)):
        pts = lat.nearest(rng.standard_normal((50, lat.dim)) * 3)
        assert np.allclose(lat.nearest(pts), pts, atol=1e-12)


def test_d4_points_have_even_sum():
    rng = np.random.default_rng(19)
    lat = Lattice("d4", 4, 1.0)
    q = lat.nearest(rng.standard_normal((200, 4)) * 2)
    assert np.all(np.rint(q.sum(axis=1)).astype(int) % 2 == 0)


def _dn_brute(x):
    """Enumerate integer points near x with even sum, return the closest:
    every point whose coordinates lie within floor(x) - 1 .. floor(x) + 2,
    as one (4^dim, dim) array."""
    dim = x.size
    grid = np.indices((4,) * dim).reshape(dim, -1).T
    cands = np.floor(x).astype(np.int64) - 1 + grid
    cands = cands[cands.sum(axis=1) % 2 == 0]
    d = np.sum((x - cands) ** 2, axis=1)
    best = int(np.argmin(d))
    return cands[best].astype(float), float(d[best])


def test_d4_nearest_matches_enumeration():
    rng = np.random.default_rng(23)
    lat = Lattice("d4", 4, 1.0)
    for _ in range(30):
        x = rng.uniform(-3, 3, 4)
        got = lat.nearest(x)
        _, bd = _dn_brute(x)
        assert np.sum((x - got) ** 2) == pytest.approx(bd, abs=1e-12)


def test_e8_nearest_matches_coset_enumeration():
    rng = np.random.default_rng(29)
    lat = Lattice("e8", 8, 1.0)
    for _ in range(10):
        x = rng.uniform(-2, 2, 8)
        got = lat.nearest(x)
        _, d_int = _dn_brute(x)
        _, d_half = _dn_brute(x - 0.5)
        best = min(d_int, d_half)
        assert np.sum((x - got) ** 2) == pytest.approx(best, abs=1e-12)


def test_cubic_uniform_high_resolution_mse():
    rng = np.random.default_rng(31)
    x = rng.uniform(-2, 2, (10 ** 5, 3))
    scale = 0.25
    q = lattice_quantize(x, Lattice("cubic", 3, scale))
    assert q.distortion / 3 == pytest.approx(scale ** 2 / 12, rel=0.02)


def test_lattice_error_bounded_by_covering_radius():
    rng = np.random.default_rng(37)
    # covering radii: sqrt(dim)/2 for the cubic grid, 1 for d4 and e8 (unit scale)
    for lat, radius in ((Lattice("cubic", 3, 0.6), math.sqrt(3) / 2),
                        (Lattice("d4", 4, 0.8), 1.0), (Lattice("e8", 8, 0.5), 1.0)):
        x = rng.standard_normal((2000, lat.dim))
        inside = np.linalg.norm(x, axis=1) <= 3.0  # stay clear of truncation
        q = lat.nearest(x[inside])
        err = np.linalg.norm(x[inside] - q, axis=1)
        assert np.all(err <= radius * lat.scale + 1e-9)


def test_lattice_quantize_sphere_truncation():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((20000, 3))
    x[0] = 40.0  # far outlier
    lat = Lattice("cubic", 3, 0.5)
    q = lattice_quantize(x, lat)
    sigma = math.sqrt(float(np.mean(np.var(x, axis=0))))
    radii = np.linalg.norm(q.codebook, axis=1)
    assert np.all(radii <= SPHERE_STD * sigma + 1e-9)


@settings(max_examples=80, deadline=None)
@given(lattice=hst.sampled_from([("cubic", 1), ("cubic", 3), ("cubic", 8), ("d4", 4), ("e8", 8)]),
       scale=hst.sampled_from([2.0, 0.7, 0.3, 0.1, 0.03, 1e-3, 1e-6]),
       n=hst.integers(1, 300), spread=hst.sampled_from([0.5, 1.0, 3.0]),
       seed=hst.integers(0, 2 ** 32 - 1))
@example(lattice=("e8", 8), scale=1e-3, n=300, spread=1.0, seed=5)  # past 2^63 keys
@example(lattice=("cubic", 3), scale=0.5, n=300, spread=0.1, seed=6)  # many -0.0 and 0.0
def test_lattice_grouping_matches_np_unique(lattice, scale, n, spread, seed):
    kind, dim = lattice
    lat = Lattice(kind, dim, scale)
    x = np.random.default_rng(seed).standard_normal((n, dim)) * spread
    q = lat.nearest(x)
    codebook, inverse = np.unique(q, axis=0, return_inverse=True)
    assert np.array_equal(vq._lattice_row_ranks(q, scale), inverse.reshape(-1))
    # past the sphere, samples move: the quantizer's own points, read back
    # through its codebook, give its distortion and regroup to it
    quant = lattice_quantize(x, lat)
    points = quant.codebook[quant.indices]
    assert quant.distortion == float(np.mean(np.sum((x - points) ** 2, axis=1)))
    codebook, inverse = np.unique(points, axis=0, return_inverse=True)
    assert np.array_equal(quant.codebook, codebook)
    assert np.array_equal(quant.indices, inverse.reshape(-1))
    assert quant.indices.dtype == np.int64


def test_gaussian_rd_values():
    assert gaussian_rd(4, 4.0) == 0.0
    assert gaussian_rd(3, 0.75) == pytest.approx(3.0, abs=1e-12)
    assert gaussian_rd(8, 0.08) == pytest.approx(4 * math.log2(100), abs=1e-9)
    with pytest.raises(ValueError):
        gaussian_rd(3, 0.0)


def test_rate_report_degenerate_coarse_lattice():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((5000, 3))
    lat = Lattice("cubic", 3, 50.0)  # one cell swallows everything
    rj = lattice_rate_report(x, lat, "joint")
    rm = lattice_rate_report(x, lat, "bica-marginal")
    assert rj.bits_per_sample == pytest.approx(0.0, abs=1e-9)
    assert rm.bits_per_sample == pytest.approx(0.0, abs=1e-9)


def test_rate_report_marginal_at_least_joint():
    rng = np.random.default_rng(47)
    x = rng.standard_normal((20000, 3))
    for scale in (0.3, 0.8, 1.5):
        lat = Lattice("cubic", 3, scale)
        rj = lattice_rate_report(x, lat, "joint")
        rm = lattice_rate_report(x, lat, "bica-marginal")
        assert rm.bits_per_sample >= rj.bits_per_sample - 1e-9
        assert rj.distortion == rm.distortion
    with pytest.raises(ValueError):
        lattice_rate_report(x, Lattice("cubic", 3, 1.0), "bogus")


def test_rate_report_respects_rd_bound():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((30000, 3))
    for scale in (0.4, 0.8, 1.5):
        rj = lattice_rate_report(x, Lattice("cubic", 3, scale), "joint")
        err_se = 3 * np.std(np.sum((x - Lattice("cubic", 3, scale).nearest(x)) ** 2,
                                   axis=1)) / math.sqrt(x.shape[0])
        assert rj.bits_per_sample >= gaussian_rd(3, rj.distortion + err_se) - 1e-9
