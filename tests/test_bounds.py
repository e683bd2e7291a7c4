import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bicacomp import bounds
from bicacomp.bounds import (
    EULER_GAMMA,
    RedundancyRegime,
    expected_joint_entropy,
    expected_marginal_bound,
    harmonic_numbers,
    identity_gap_limit,
    minimax_redundancy,
    ordered_gap_bound,
    pattern_dictionary_cost,
    standard_redundancy,
    worst_case_gap,
    worst_case_slope,
    worst_case_source,
)
from bicacomp.distributions import binary_entropy, total_correlation, zero_bit_matrix
from bicacomp.search import order_permutation


# ---------------------------------------------------------------------------
# harmonic numbers / digamma
# ---------------------------------------------------------------------------

def test_harmonic_small_values():
    k = harmonic_numbers(4)
    assert k[0] == 0.0
    assert k[1] == 1.0
    assert k[2] == pytest.approx(1.5, abs=1e-15)
    assert k[4] == pytest.approx(25 / 12, abs=1e-14)


def test_harmonic_numbers_are_read_only_views_of_the_cache():
    # a write through a returned view would move every later digamma
    with pytest.raises(ValueError):
        harmonic_numbers(4)[2] = 99.0
    with pytest.raises(ValueError):  # a grown cache is read-only too
        harmonic_numbers(bounds._harmonic.size + 10)[2] = 99.0
    assert bounds.digamma_integer(3) == pytest.approx(1.5 - EULER_GAMMA, abs=1e-15)
    assert expected_joint_entropy(2) == pytest.approx(0.5 / math.log(2.0), abs=1e-15)
    # before any growth the cache is the module's initial K_0 array
    fresh = subprocess.run(
        [sys.executable, "-c", "from bicacomp.bounds import harmonic_numbers\n"
                               "harmonic_numbers(0)[0] = 1.0"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 1 and "read-only" in fresh.stderr


def test_harmonic_bracketing_property():
    for m in (1, 2, 10, 1000, 1 << 20):
        km = float(harmonic_numbers(m)[m])
        gap = km - math.log(m) - EULER_GAMMA
        assert 1 / (2 * (m + 1)) < gap < 1 / (2 * m) or m == 1 and gap > 0


def test_harmonic_telescoping_identity_large_m():
    # sum_{i<=m} K_i = (m+1) K_{m+1} - (m+1)
    m = 10 ** 6
    k = harmonic_numbers(m + 1)
    lhs = float(np.sum(k[1: m + 1]))
    rhs = (m + 1) * float(k[m + 1]) - (m + 1)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# minimax redundancy regimes
# ---------------------------------------------------------------------------

def test_linear_regime_reproduces_reference_value():
    r = minimax_redundancy(RedundancyRegime.linear(1 << 20, 10 ** 6))
    assert abs(r - 1.22e6) / 1.22e6 < 0.01


def test_large_alphabet_regime_reduction_at_n_eq_m():
    n = m = 4096
    r = minimax_redundancy(RedundancyRegime.large(m, n))
    expected = 1.5 * n * math.log2(math.e) - 1.5 * math.log2(math.e)
    assert r == pytest.approx(expected, rel=1e-12)
    # same (m, n) through the linear regime lands in the same decade
    r_lin = minimax_redundancy(RedundancyRegime.linear(m, n, alpha=1.0))
    assert 0.5 < r / r_lin < 2.0


def test_small_alphabet_regime_direct_value():
    m, n = 2, 10 ** 6
    r = minimax_redundancy(RedundancyRegime.small(m, n))
    expected = 0.5 * math.log2(n / 2) + math.log2(math.e) \
        + (2 * math.log2(math.e) / 3) * math.sqrt(2 / n)
    assert r == pytest.approx(expected, rel=1e-12)
    # leading (m-1)/2 log n scaling
    assert r == pytest.approx(0.5 * math.log2(n), rel=0.2)


def test_regime_validation():
    with pytest.raises(ValueError):
        RedundancyRegime("linear", 8, 8, alpha=0.0)
    with pytest.raises(ValueError):
        RedundancyRegime("small_alphabet", 0, 8)
    with pytest.raises(ValueError):
        RedundancyRegime("weird", 8, 8)


def test_standard_redundancy_regime_selection():
    assert standard_redundancy(4, 10 ** 4) == minimax_redundancy(RedundancyRegime.small(4, 10 ** 4))
    assert standard_redundancy(10 ** 6, 100) == minimax_redundancy(RedundancyRegime.large(10 ** 6, 100))
    assert standard_redundancy(1 << 20, 10 ** 6) == minimax_redundancy(
        RedundancyRegime.linear(1 << 20, 10 ** 6))


# ---------------------------------------------------------------------------
# pattern + dictionary cost
# ---------------------------------------------------------------------------

def test_pattern_cost_reference_run():
    total = pattern_dictionary_cost(10 ** 6, 80071, 1 << 20, 8.38 * 10 ** 6)
    assert total == pytest.approx(9.982e6, rel=2e-4)


def test_pattern_cost_empty_dictionary():
    total = pattern_dictionary_cost(1000, 0, 1 << 12, 500.0)
    assert total == pytest.approx(500.0 + 1.5 * math.log2(math.e) * 10.0, abs=1e-9)


def test_pattern_cost_hand_arithmetic():
    total = pattern_dictionary_cost(1000, 100, 1 << 12, 0.0)
    assert total == pytest.approx(100 * 12 + 1.5 * math.log2(math.e) * 10, abs=1e-9)
    with pytest.raises(ValueError):
        pattern_dictionary_cost(10, 11, 4, 0.0)


# ---------------------------------------------------------------------------
# simplex expectations
# ---------------------------------------------------------------------------

def test_expected_joint_entropy_small_m():
    assert expected_joint_entropy(2) == pytest.approx(0.5 / math.log(2), abs=1e-12)
    # (1/2 + 1/3 + 1/4)/ln 2, via the digamma recurrence
    assert expected_joint_entropy(4) == pytest.approx((0.5 + 1 / 3 + 0.25) / math.log(2), abs=1e-12)
    assert expected_joint_entropy(4) == pytest.approx(1.56295, abs=1e-4)
    with pytest.raises(ValueError):
        expected_joint_entropy(1)


def test_expected_joint_entropy_monte_carlo_agreement():
    for m in (4, 16):
        mean, se = bounds.mc_expected_entropy(m, 20000, seed=321)
        assert abs(mean - expected_joint_entropy(m)) <= 3 * se


def test_expected_entropy_gap_tends_to_limit_monotonically():
    gaps = [math.log2(m) - expected_joint_entropy(m) for m in (2, 4, 16, 256, 1 << 16)]
    assert all(a < b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < identity_gap_limit()
    assert identity_gap_limit() - gaps[-1] < 1e-4


# ---------------------------------------------------------------------------
# per-bit bounds under the ordering transform
# ---------------------------------------------------------------------------

def test_marginal_bound_coarsest_bit_closed_form():
    # independent algebraic route: exact j=1 value is h_b((K_{m/2}-K_m+1)/2)
    for d in (6, 10, 14):
        m = 1 << d
        k = harmonic_numbers(m)
        expect = float(binary_entropy(0.5 * (k[m // 2] - k[m] + 1)))
        exact, _ = expected_marginal_bound(m, 1)
        assert exact == pytest.approx(expect, abs=1e-12)


def test_marginal_bound_limit_value():
    # limit of the coarsest bit: h_b(ln(1/2)/2 + 1/2) = 0.61835
    _, limit = expected_marginal_bound(1 << 10, 1)
    assert limit == pytest.approx(0.61835, abs=1e-4)
    exact, _ = expected_marginal_bound(1 << 20, 1)
    assert exact == pytest.approx(limit, abs=1e-3)


def test_marginal_bounds_capped_by_one():
    m = 1 << 10
    for j in range(1, 11):
        exact, limit = expected_marginal_bound(m, j)
        assert 0.0 < exact <= 1.0
        assert 0.0 < limit <= 1.0


def test_marginal_bound_tracks_monte_carlo_msb():
    # the coarsest-bit bound should sit just above the Monte Carlo mean of
    # the sorted arrangement's most significant bit entropy
    d, m, draws = 10, 1 << 10, 4000
    rng = np.random.default_rng(99)
    vals = np.empty(draws)
    for t in range(draws):
        p = np.sort(rng.standard_exponential(m))
        p /= p.sum()
        vals[t] = binary_entropy(p[: m // 2].sum())
    mc, se = float(vals.mean()), float(vals.std() / math.sqrt(draws))
    exact, _ = expected_marginal_bound(m, 1)
    assert mc <= exact + 3 * se
    assert exact - mc <= 3 * se + 2e-3  # Jensen bias is tiny at this m


def test_marginal_bound_validation():
    with pytest.raises(ValueError):
        expected_marginal_bound(1000, 1)
    with pytest.raises(ValueError):
        expected_marginal_bound(1 << 4, 5)


def test_ordered_gap_bound_values():
    b10 = ordered_gap_bound(1 << 10)
    assert 0.0 < b10 <= 0.03
    b20 = ordered_gap_bound(1 << 20)
    assert abs(b20 - 0.0162) < 1e-3
    assert b20 < b10
    for m in (0, 1, 3, 1000):
        with pytest.raises(ValueError):
            ordered_gap_bound(m)


@pytest.mark.parametrize("d", range(1, 10))
def test_ordered_gap_bound_below_ten_bits_sums_every_bit(d):
    # below ten bits no bit is capped at 1: the bound is the exact per-bit
    # sum over all d bits, which theory-bounds prints for d < 10
    m = 1 << d
    total = sum(expected_marginal_bound(m, j)[0] for j in range(1, d + 1))
    assert ordered_gap_bound(m) == total - expected_joint_entropy(m)


def test_monte_carlo_ordered_gap_below_bound():
    mean, se = bounds.mc_ordered_gap(10, 500, seed=12)
    assert mean <= ordered_gap_bound(1 << 10) + 3 * se


def test_identity_gap_limit_value():
    assert identity_gap_limit() == pytest.approx(0.6099, abs=1e-4)
    assert identity_gap_limit() == pytest.approx((1 - EULER_GAMMA) / math.log(2), abs=1e-15)


def test_monte_carlo_identity_gap_range():
    mean, _ = bounds.mc_identity_gap(10, 1000, seed=77)
    assert 0.5 <= mean <= identity_gap_limit()


# ---------------------------------------------------------------------------
# worst-case construction
# ---------------------------------------------------------------------------

def test_worst_case_source_d3():
    p = worst_case_source(3)
    assert np.allclose(p.probs[:-1], 1 / 21)
    assert p.probs[-1] == pytest.approx(2 / 3, abs=1e-15)
    res = order_permutation(p)
    from bicacomp.distributions import bit_zero_marginals

    pis = bit_zero_marginals(res.g.transform(p).probs, 3)
    assert np.allclose(pis, 8 / 42, atol=1e-12)


def test_worst_case_closed_form_matches_direct_evaluation():
    for d in (8, 12, 16):
        p = worst_case_source(d)
        g = order_permutation(p).g
        assert total_correlation(p, g) == pytest.approx(worst_case_gap(d), abs=1e-9)


def test_worst_case_slope():
    assert worst_case_slope() == pytest.approx(0.3167, abs=1e-4)
    slope = (worst_case_gap(20) - worst_case_gap(16)) / 4
    assert abs(slope - worst_case_slope()) / worst_case_slope() < 0.02


def test_worst_case_affine_growth():
    slope = worst_case_slope()
    intercept = -float(binary_entropy(1 / 3))
    for d in range(12, 21):
        affine = slope * d + intercept
        assert abs(worst_case_gap(d) - affine) / affine < 0.02


def test_worst_case_ordering_is_optimal_small_d():
    from bicacomp.search import brute_force_optimum

    p = worst_case_source(3)
    assert order_permutation(p).objective == pytest.approx(
        brute_force_optimum(p).objective, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo machinery
# ---------------------------------------------------------------------------

def test_mc_worker_count_does_not_change_results(monkeypatch):
    # on any number of usable cores, the threaded estimate equals a serial
    # sum over the same seeded shards
    d, draws, seed = 8, 1300, 5
    shards = [bounds.MC_SHARD_DRAWS, bounds.MC_SHARD_DRAWS, 300]
    a0 = zero_bit_matrix(d)
    s1 = s2 = 0.0
    for count, child in zip(shards, np.random.SeedSequence(seed).spawn(len(shards))):
        p = np.sort(bounds.sample_simplex(1 << d, count, np.random.default_rng(child)), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -np.nansum(p * np.log2(p), axis=1)
        gaps = np.sum(binary_entropy(p @ a0), axis=1) - h
        s1 += float(gaps.sum())
        s2 += float((gaps * gaps).sum())
    mean = s1 / draws
    for cores in (1, 2, 5):
        monkeypatch.setattr(bounds.os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert bounds.mc_ordered_gap(d, draws, seed) == (
            mean, math.sqrt((s2 / draws - mean ** 2) / draws))


def test_mc_gap_needs_a_draw():
    with pytest.raises(ValueError, match="at least one draw"):
        bounds.mc_ordered_gap(8, 0, seed=5)


def test_simplex_sampler_is_on_simplex():
    rng = np.random.default_rng(8)
    draws = bounds.sample_simplex(16, 100, rng)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(draws >= 0)


def test_simplex_sampler_coordinate_means():
    m, n = 32, 20000
    draws = bounds.sample_simplex(m, n, np.random.default_rng(np.random.SeedSequence(5)))
    assert draws.shape == (n, m)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    se = draws.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - 1 / m) <= 3 * se)
