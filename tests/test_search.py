import hashlib
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp import search
from bicacomp.distributions import (
    JointDistribution,
    SymbolPermutation,
    binary_entropy,
    bit_zero_marginals,
    inverse_permutation,
    joint_entropy,
    marginals,
    zero_bit_matrix,
)
from bicacomp.search import (
    block_bica,
    brute_force_optimum,
    build_envelope,
    order_permutation,
    piecewise_relaxation,
)


def hb(q):
    return binary_entropy(q)


def objective_of(p, g):
    return float(np.sum(binary_entropy(bit_zero_marginals(g.transform(p).probs, p.d))))


# ---------------------------------------------------------------------------
# order permutation
# ---------------------------------------------------------------------------

def test_order_maps_ascending_probs_to_ascending_codewords():
    probs = np.array([0.05, 0.3, 0.1, 0.15, 0.02, 0.08, 0.12, 0.18])
    p = JointDistribution(3, probs)
    res = order_permutation(p)
    ranks = np.argsort(np.argsort(probs, kind="stable"))
    assert np.array_equal(res.g.map, ranks)
    py = res.g.transform(p).probs
    assert np.all(np.diff(py) >= 0)  # ascending along codewords


def test_order_with_many_equal_probabilities_matches_a_stable_argsort():
    # 2^14 symbols over four probability levels and zeros: every tie is
    # broken by symbol index, as by a stable sort
    rng = np.random.default_rng(3)
    counts = rng.choice([0.0, 1.0, 2.0, 3.0, 5.0], size=1 << 14)
    probs = counts / counts.sum()
    res = order_permutation(JointDistribution(14, probs))
    reference = np.empty(1 << 14, dtype=np.int64)
    reference[np.argsort(probs, kind="stable")] = np.arange(1 << 14)
    assert np.array_equal(res.g.map, reference)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 10), kind=st.sampled_from(["dirichlet", "ties", "zeros"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_order_objective_is_the_marginal_entropy_sum_bit_for_bit(d, kind, seed):
    # the search scores the probabilities gathered in its order; marginals
    # scatters them through the map: the same array, normalized and summed
    # by the same calls
    rng = np.random.default_rng(seed)
    m = 1 << d
    if kind == "dirichlet":
        w = rng.dirichlet(np.full(m, 0.5))
    elif kind == "ties":
        w = rng.integers(1, 4, m).astype(np.float64)
    else:  # mostly zeros, and ties among the rest
        w = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0], m)
        w[rng.integers(m)] = 1.0
    p = JointDistribution(d, w / w.sum())
    res = order_permutation(p)
    assert res.objective == marginals(p, res.g).entropy_sum()


def test_order_objective_on_relabelled_zipf16_is_the_marginal_entropy_sum():
    m = 1 << 16
    w = np.arange(1, m + 1, dtype=np.float64) ** -1.2
    p = JointDistribution(16, (w / w.sum())[np.random.default_rng(16).permutation(m)])
    res = order_permutation(p)
    assert res.objective == marginals(p, res.g).entropy_sum()


def test_order_uniform():
    p = JointDistribution(3, np.full(8, 0.125))
    res = order_permutation(p)
    assert res.objective == pytest.approx(3.0, abs=1e-12)
    assert res.objective - joint_entropy(p) == pytest.approx(0.0, abs=1e-12)


def test_order_msb_marginal_is_minimal_half_sum():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        res = order_permutation(p)
        pis = bit_zero_marginals(res.g.transform(p).probs, 3)
        assert pis[2] == pytest.approx(np.sort(p.probs)[:4].sum(), abs=1e-12)


def test_order_beats_nothing_but_brute_is_lower():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        assert order_permutation(p).objective >= brute_force_optimum(p).objective - 1e-9


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_envelope_k1_tangent_point():
    env = build_envelope(1)
    assert env.value(0.25) == pytest.approx(float(hb(0.25)), abs=1e-12)


def test_envelope_upper_bound_and_gap():
    grid = np.linspace(0.0, 0.5, 10001)
    for k in (1, 2, 4, 8, 16):
        env = build_envelope(k)
        vals = env.value(grid)
        assert np.all(vals >= hb(grid) - 1e-12)
        assert env.value(0.5) >= 1.0 - 1e-12
    # worst gap of the k=4 tangent envelope sits at q=0 where the entropy
    # slope is unbounded (0.0931); away from that corner the next-worst gap
    # is 0.0379 at the first segment's right edge
    gap4 = np.max(build_envelope(4).value(grid) - hb(grid))
    assert gap4 == pytest.approx(0.0931, abs=2e-3)
    inner = grid[grid >= 1 / 32]
    assert np.max(build_envelope(4).value(inner) - hb(inner)) <= 0.04
    gaps = [np.max(build_envelope(k).value(grid) - hb(grid)) for k in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_envelope_mirror_symmetry():
    env = build_envelope(4)
    q = np.linspace(0.0, 1.0, 1001)
    assert np.allclose(env.value(q), env.value(1 - q), atol=1e-12)


def test_envelope_rejects_bad_k():
    with pytest.raises(ValueError):
        build_envelope(0)


# ---------------------------------------------------------------------------
# linear allocation
# ---------------------------------------------------------------------------

def brute_allocation_value(probs, coeffs):
    """min over permutations of sum_s probs[s] * coeffs[perm[s]]."""
    perms = np.array(list(itertools.permutations(range(len(probs)))))
    return float(np.min((probs * np.asarray(coeffs)[perms]).sum(axis=1)))


def placement_orders(d, k):
    """(regions, per-placement allocation orders) of the (d, k) cache: each
    order is the inverse of its row of the rank table."""
    regions, ranks, order_of = search._placements(d, k)
    return regions, np.argsort(ranks[order_of], axis=1)


def test_allocation_equal_coeffs_identity_pairing():
    # codewords with equal coefficients keep codeword order in every cached
    # allocation order, so ties pair the same way in screen and re-evaluation
    for d, k in ((2, 1), (3, 4), (4, 3)):
        a0 = zero_bit_matrix(d)
        slopes = build_envelope(k).slopes
        regions, orders = placement_orders(d, k)
        for regs, order in zip(regions, orders):
            coeffs = a0 @ slopes[regs]
            sorted_coeffs = coeffs[order]
            assert np.all(np.diff(sorted_coeffs) >= 0)
            tied = np.diff(sorted_coeffs) == 0
            assert np.all(np.diff(order.astype(np.int64))[tied] > 0)


def test_allocation_hand_case():
    # d=2, k=1: one placement, coefficients slope * (zero bits of the
    # codeword) = [2s, s, s, 0]; the order is [3, 1, 2, 0]
    p = JointDistribution(2, [0.4, 0.3, 0.2, 0.1])
    regions, orders = placement_orders(2, 1)
    assert np.array_equal(orders, [[3, 1, 2, 0]])
    g = piecewise_relaxation(p, 1).g
    assert g.map[0] == 3          # 0.4 -> smallest coefficient 0
    assert g.map[3] == 0          # 0.1 -> largest coefficient 2s
    coeffs = zero_bit_matrix(2) @ build_envelope(1).slopes[regions[0]]
    value = float(np.sum(p.probs * coeffs[g.map]))
    assert value == pytest.approx(brute_allocation_value(p.probs, coeffs), abs=1e-12)


def test_allocation_matches_exhaustive_pairing():
    # each cached order pairs probabilities sorted descending with the
    # placement's coefficients a0 @ slopes[regions] sorted ascending
    d, k = 3, 4
    a0 = zero_bit_matrix(d)
    slopes = build_envelope(k).slopes
    regions, orders = placement_orders(d, k)
    assert len(orders) == 20  # C(d + k - 1, d)
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = JointDistribution(d, rng.dirichlet(np.ones(1 << d)))
        p_desc = np.sort(p.probs)[::-1]
        for regs, order in zip(regions, orders):
            coeffs = a0 @ slopes[regs]
            value = float(np.sum(p_desc * coeffs[order]))
            assert value == pytest.approx(brute_allocation_value(p.probs, coeffs), abs=1e-12)


# ---------------------------------------------------------------------------
# piecewise relaxation
# ---------------------------------------------------------------------------

def test_piecewise_uniform_zero_correlation():
    p = JointDistribution(3, np.full(8, 0.125))
    for k in (1, 4, 8):
        res = piecewise_relaxation(p, k)
        assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_piecewise_close_to_brute():
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(30):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        br = brute_force_optimum(p).objective
        pw = piecewise_relaxation(p, 8).objective
        assert pw >= br - 1e-9
        if pw - br <= 1e-3:
            hits += 1
    assert hits >= 27


def test_method_ordering_brute_le_piecewise_le_order():
    rng = np.random.default_rng(43)
    for _ in range(15):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        br = brute_force_optimum(p).objective
        pw = piecewise_relaxation(p, 8).objective
        od = order_permutation(p).objective
        assert br <= pw + 1e-9
        assert pw <= od + 1e-9


def test_piecewise_objective_nonincreasing_in_k_statistically():
    rng = np.random.default_rng(47)
    draws = [JointDistribution(3, rng.dirichlet(np.ones(8))) for _ in range(50)]
    mean2 = np.mean([piecewise_relaxation(p, 2).objective for p in draws])
    mean8 = np.mean([piecewise_relaxation(p, 8).objective for p in draws])
    assert mean8 <= mean2 + 1e-12


def reference_piecewise(p, k):
    """The plain scan over all placements: (map, objective, fallback)."""
    env = build_envelope(k)
    d, m = p.d, p.m
    a0 = zero_bit_matrix(d)
    p_desc_idx = np.argsort(-p.probs, kind="stable")
    p_desc = p.probs[p_desc_idx]
    best_obj = np.inf
    best_map = None
    for regs in itertools.combinations_with_replacement(range(k), d):
        dest = np.argsort(a0 @ env.slopes[list(regs)], kind="stable")
        pis = p_desc @ a0[dest]
        dest_f, pis_f = search._fold_marginals(dest, pis, d)
        lo = np.array([r / (2 * k) for r in regs])
        hi = np.array([(r + 1) / (2 * k) for r in regs])
        if np.any(pis_f < lo - search.REGION_TOL) or np.any(pis_f > hi + search.REGION_TOL):
            continue
        obj = float(np.sum(binary_entropy(pis_f)))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_map = np.empty(m, dtype=np.int64)
            best_map[p_desc_idx] = dest_f
    if best_map is None:
        res = order_permutation(p)
        return res.g.map, res.objective, True
    return best_map, best_obj, False


def reference_inputs(d, seed):
    """Dirichlet, integer-count (ties, zero probabilities, marginals on
    segment edges) and Zipf distributions over 2^d symbols."""
    rng = np.random.default_rng(seed)
    m = 1 << d
    out = [rng.dirichlet(np.ones(m)), rng.dirichlet(np.full(m, 0.2))]
    counts = [np.bincount(rng.integers(0, m, n), minlength=m) for n in (7, 40, 3 * m)]
    counts += [rng.integers(0, 4, m) + (np.arange(m) == 0), 2 ** rng.integers(0, 5, m)]
    out += [c / c.sum() for c in counts]
    out.append(np.full(m, 1 / m))
    for s in (0.8, 1.5):
        z = 1 / np.arange(1, m + 1) ** s
        out.append(rng.permutation(z / z.sum()))
    return [JointDistribution(d, p) for p in out]


def assert_matches_reference(p, k):
    gmap, obj, fallback = reference_piecewise(p, k)
    res = piecewise_relaxation(p, k)
    assert np.array_equal(res.g.map, gmap)
    assert res.objective == obj
    assert res.fallback == fallback


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_piecewise_matches_reference_scan(d, k):
    for p in reference_inputs(d, 100 * d + k):
        assert_matches_reference(p, k)


def test_piecewise_one_row_chunks_match_reference(monkeypatch):
    monkeypatch.setattr(search, "SCREEN_CHUNK_CELLS", 1)
    for d, k in ((3, 8), (4, 4)):
        for p in reference_inputs(d, 7 * d + k):
            assert_matches_reference(p, k)


def test_placement_cache_holds_small_read_only_integer_tables():
    tables = search._placements(6, 8)
    regions, ranks, order_of = tables
    assert len(regions) == len(order_of) == 1716
    assert len(ranks) == 1083  # distinct allocation orders
    assert all(np.issubdtype(t.dtype, np.integer) for t in tables)
    assert not any(t.flags.writeable for t in tables)
    assert sum(t.nbytes for t in tables) <= 256 * 1024
    # every placement's order is the stable argsort of its coefficients
    a0 = zero_bit_matrix(6)
    slopes = build_envelope(8).slopes
    for regs, row in zip(regions, order_of):
        order = np.argsort(a0 @ slopes[regs], kind="stable")
        assert np.array_equal(ranks[row][order], np.arange(64))


def test_rank_table_widens_past_16_bits():
    # (17, 1) is within PIECEWISE_MAX_ENTRIES; a uint16 table wrapped its
    # order into a non-permutation
    _, ranks, _ = search._placements(17, 1)
    assert ranks.dtype == np.uint32
    p = JointDistribution(17, np.random.default_rng(59).dirichlet(np.ones(1 << 17)))
    res = piecewise_relaxation(p, 1)
    assert np.array_equal(np.sort(res.g.map), np.arange(1 << 17))
    assert res.objective == pytest.approx(marginals(p, res.g).entropy_sum(), abs=1e-9)


def test_piecewise_d10_runtime_seconds():
    import time

    rng = np.random.default_rng(53)
    p = JointDistribution(10, rng.dirichlet(np.ones(1 << 10)))
    t0 = time.time()
    res = piecewise_relaxation(p, 8)
    elapsed = time.time() - t0
    assert elapsed < 60
    assert res.objective >= joint_entropy(p) - 1e-9


# SHA-256 of each (d, k) rank table's three arrays (dtype, shape and bytes
# of each, in turn), recorded when each placement's order was built on its
# own: building them in chunks must not move a byte
PINNED_TABLES = {
    (10, 8): "60d298f3cc252b9a00ea785af5f2dda71b0b49f69ee8e9d5be35cbb2743d1602",
    (1, 8): "c4372609256191c983a97f2ff0f75d0d25913721246bd740f1583cd57b8baa51",
    (2, 8): "fc58b3970755491bfcd4ed3491c4b9cf82da8a056eeed5383874770b16a166fc",
    (3, 8): "ed271c117e581097be78c297ec21cb5ec8e81671c3a1d0ad325f84f6f5c8e346",
    (4, 8): "ad8420aef0ba588512590a2b6a3ca53c1ead6daf792a9f041f57e34faf4fa730",
    (5, 8): "5da5451dda0e9f084471cea41c44ff50d5efc2f71aa8d0459c7025f380103626",
    (6, 8): "7fb49f61b6d200f499ea4450fc77513f3c620d9f9df1f8504aebf4d9443e110d",
    (7, 8): "cb157ec49cb73f7eca893bba4199cb5133b6f3a34c931fa884efeb18297d7aff",
    (8, 8): "776b800a527a77e7a96566b62163e708563113a9f85336d745a2f4537b2e82a8",
    (9, 8): "ded9461ef7cc6335fc5a5726bd4d0ec642494200fc26784c03b4cf7c2b106e1a",
    (17, 1): "1adff14912f4c4257b340492b46aa396bda41d21cba20ec057e2d7948fc8e5f7",
}


def _table_digest(tables):
    h = hashlib.sha256()
    for t in tables:
        h.update(f"{t.dtype.str}{t.shape}".encode())
        h.update(t.tobytes())
    return h.hexdigest()


def test_rank_tables_are_pinned():
    for (d, k), digest in PINNED_TABLES.items():
        # the d = 10 search above has cached its table; every other one is
        # built past the 8-entry cache, so that the test evicts nothing
        build = search._placements if (d, k) == (10, 8) else search._placements.__wrapped__
        assert _table_digest(build(d, k)) == digest, (d, k)


@pytest.mark.parametrize("cells", [1, 100, 1 << 20])
def test_rank_tables_do_not_depend_on_the_chunk_size(monkeypatch, cells):
    # one placement a chunk, chunks that end mid-table, and one chunk
    monkeypatch.setattr(search, "PLACEMENT_CHUNK_CELLS", cells)
    assert _table_digest(search._placements.__wrapped__(6, 8)) == PINNED_TABLES[(6, 8)]


def test_no_feasible_placement_falls_back_to_order(monkeypatch, caplog):
    nothing = (np.array([], dtype=np.intp), np.array([]), np.array([], dtype=bool))
    monkeypatch.setattr(search, "_screen", lambda p_desc, d, k: nothing)
    p = JointDistribution(4, np.random.default_rng(61).dirichlet(np.ones(16)))
    with caplog.at_level(logging.WARNING, logger="bicacomp.search"):
        res = piecewise_relaxation(p, 8)
    ordered = order_permutation(p)
    assert res.fallback
    assert np.array_equal(res.map, ordered.map)
    assert res.objective == ordered.objective
    assert [(r.name, r.levelno) for r in caplog.records] == [("bicacomp.search", logging.WARNING)]
    assert "falling back to order permutation" in caplog.text


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_trivial_cases():
    assert brute_force_optimum(JointDistribution(3, np.full(8, 0.125))).objective == pytest.approx(3.0)
    probs = np.zeros(8)
    probs[5] = 1.0
    assert brute_force_optimum(JointDistribution(3, probs)).objective == pytest.approx(0.0)


def test_brute_force_refuses_large_d():
    with pytest.raises(ValueError):
        brute_force_optimum(JointDistribution(4, np.full(16, 1 / 16)))


def test_brute_force_dyadic_padded():
    p = JointDistribution.from_probs([0.5, 0.25, 0.125, 0.125], d=3)
    res = brute_force_optimum(p)
    assert res.objective <= order_permutation(p).objective + 1e-12
    assert res.objective >= joint_entropy(p) - 1e-9


def test_brute_force_accepts_marginals_rounding_above_one():
    # arranged @ a0 sums one marginal of this input to 1 + 1 ulp
    p = JointDistribution(3, np.array([2, 0, 2, 1, 0, 0, 1, 0]) / 6)
    res = brute_force_optimum(p)
    assert res.objective == pytest.approx(marginals(p, res.g).entropy_sum(), abs=1e-12)
    assert res.objective <= order_permutation(p).objective + 1e-12
    # sparse empirical sources: at most 30 draws over 8 symbols
    rng = np.random.default_rng(17)
    for _ in range(200):
        counts = np.bincount(rng.integers(0, 8, rng.integers(1, 31)), minlength=8)
        p = JointDistribution(3, counts / counts.sum())
        res = brute_force_optimum(p)
        assert res.objective <= order_permutation(p).objective + 1e-12


# ---------------------------------------------------------------------------
# invariants on returned transforms
# ---------------------------------------------------------------------------

def shuffle_output_bits(g, perm):
    d = g.d
    new_map = np.zeros_like(g.map)
    for j in range(d):
        new_map |= (((g.map >> j) & 1) << perm[j])
    return SymbolPermutation(d, new_map)


def test_objective_invariant_under_output_bit_flips_and_shuffles():
    rng = np.random.default_rng(59)
    p = JointDistribution(3, rng.dirichlet(np.ones(8)))
    for res in (order_permutation(p), piecewise_relaxation(p, 4), brute_force_optimum(p)):
        base = objective_of(p, res.g)
        assert base == pytest.approx(res.objective, abs=1e-12)
        for mask in (1, 3, 7):
            flipped = SymbolPermutation(3, res.g.map ^ mask)
            assert objective_of(p, flipped) == pytest.approx(base, abs=1e-12)
        for perm in ([1, 2, 0], [2, 1, 0]):
            assert objective_of(p, shuffle_output_bits(res.g, perm)) == pytest.approx(base, abs=1e-12)


def test_results_are_bijections_and_bounded_below_by_entropy():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        for res in (order_permutation(p), piecewise_relaxation(p, 8)):
            assert np.array_equal(np.sort(res.g.map), np.arange(8))
            assert res.objective >= joint_entropy(p) - 1e-9


def _drawn(d, kind, seed):
    rng = np.random.default_rng(seed)
    m = 1 << d
    if kind == "dirichlet":
        p = rng.dirichlet(np.full(m, 0.5))
    elif kind == "ties":  # small integer counts: long runs of equal keys
        p = rng.integers(1, 4, m).astype(np.float64)
    else:  # zero-heavy: about one symbol in ten present
        p = rng.integers(1, 4, m) * (rng.random(m) < 0.1)
        p[rng.integers(m)] += 1
    return JointDistribution(d, p / p.sum())


KINDS = st.sampled_from(["dirichlet", "ties", "zeros"])
SEEDS = st.integers(0, 2 ** 32 - 1)


# the searches return bare maps, which only SearchResult.g proves
# bijections: every map must be one all the same

@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), kind=KINDS, seed=SEEDS)
def test_order_map_is_a_read_only_bijection(d, kind, seed):
    p = _drawn(d, kind, seed)
    res = order_permutation(p)
    inverse_permutation(res.g.map)
    assert not res.g.map.flags.writeable
    assert res.objective == marginals(p, res.g).entropy_sum()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), kind=KINDS, seed=SEEDS)
def test_piecewise_map_is_a_read_only_bijection(d, kind, seed):
    p = _drawn(d, kind, seed)
    res = piecewise_relaxation(p, search.DEFAULT_PIECES)
    inverse_permutation(res.g.map)
    assert not res.g.map.flags.writeable
    # the objective sums the marginals by a matmul, as the reference scan
    # does; marginals() by bit_zero_marginals, which differs by a few ulps
    assert res.objective == pytest.approx(marginals(p, res.g).entropy_sum(), abs=1e-12)


# each search with the widths it is drawn at; "auto" is piecewise up to
# PIECEWISE_MAX_BITS and order above
SEARCHES = {
    "order": (order_permutation, st.integers(1, 12)),
    "piecewise": (lambda p: piecewise_relaxation(p, search.DEFAULT_PIECES), st.integers(1, 6)),
    "auto": (lambda p: block_bica(p, "auto"), st.integers(1, 6) | st.integers(11, 12)),
    "block order": (lambda p: block_bica(p, "order"), st.integers(1, 12)),
    "brute": (brute_force_optimum, st.integers(1, 3)),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(SEARCHES)), kind=KINDS, seed=SEEDS, data=st.data())
def test_every_search_returns_a_read_only_int64_bijection(name, kind, seed, data):
    run, widths = SEARCHES[name]
    d = data.draw(widths)
    res = run(_drawn(d, kind, seed))
    assert res.map.dtype == np.int64 and not res.map.flags.writeable
    inverse_permutation(res.map)
    g = res.g
    assert isinstance(g, SymbolPermutation) and g.d == d
    assert np.array_equal(g.map, res.map)
    with pytest.raises(ValueError):
        res.map[0] = 0


# ---------------------------------------------------------------------------
# block search
# ---------------------------------------------------------------------------

def test_block_bica_single_bit():
    p = JointDistribution(1, [0.8, 0.2])
    res = block_bica(p, "order")
    assert res.objective == pytest.approx(float(hb(0.2)), abs=1e-12)


def test_block_bica_matches_brute_on_small_blocks():
    rng = np.random.default_rng(67)
    for _ in range(10):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        res = piecewise_relaxation(p, 16)
        assert res.objective <= brute_force_optimum(p).objective + 1e-3


def test_block_bica_zipf_block_bounded_by_bits():
    from bicacomp.sources import zipf_distribution

    p = zipf_distribution(256, 1.0)
    res = block_bica(p, "order")
    assert res.objective <= 8.0


def test_block_bica_auto_is_piecewise_up_to_ten_bits_and_order_above():
    rng = np.random.default_rng(79)
    for b in (3, 10, 11):
        p = JointDistribution(b, rng.dirichlet(np.ones(1 << b)))
        res = block_bica(p, "auto")
        want = piecewise_relaxation(p, 8) if b <= 10 else order_permutation(p)
        assert not res.fallback
        assert np.array_equal(res.g.map, want.g.map)
        assert res.objective == want.objective


def test_block_bica_falls_back_above_the_order_table_cap(monkeypatch):
    # the cap is the table of the widest block search: (10, 8)
    assert search.PIECEWISE_MAX_ENTRIES == search._table_entries(10, 8)

    def refuse(d, k):
        raise AssertionError(f"order table built at d={d}, k={k}")

    monkeypatch.setattr(search, "_placements", refuse)
    p = JointDistribution(10, np.random.default_rng(73).dirichlet(np.ones(1 << 10)))
    # (10, 16) would need C(25, 10) x 2^10 entries, about 6.7 GB
    with pytest.raises(ValueError, match="order-table entries"):
        piecewise_relaxation(p, 16)


def test_block_bica_accepts_only_its_two_methods():
    p = JointDistribution(2, [0.1, 0.2, 0.3, 0.4])
    for method in ("piecewise", "piecewise(8)", "piecewisex", "brute"):
        with pytest.raises(ValueError, match="unknown search method"):
            block_bica(p, method)
