"""Closed-form redundancy and average-case expressions for sorted-transform coding.

Everything here is a deterministic formula: worst-case minimax redundancy
leading terms for the three alphabet-growth regimes, pattern-plus-dictionary
costs, exact expectations over the uniform probability simplex (harmonic
numbers / digamma at integer arguments), per-bit marginal-entropy bounds
under the ordering transform, and the hard-instance construction whose gap
grows linearly in the bit dimension. Monte Carlo counterparts used to
validate the formulas live here too.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, binary_entropy, zero_bit_matrix

EULER_GAMMA = 0.5772156649015328606
LOG2E = math.log2(math.e)

_harmonic = np.zeros(1)  # _harmonic[i] = K_i, grown on demand
_harmonic_comp = 0.0     # Kahan compensation carried across growths


def harmonic_numbers(m: int) -> np.ndarray:
    """K_0..K_m with K_0 = 0, accumulated with compensated summation."""
    global _harmonic, _harmonic_comp
    if m >= _harmonic.size:
        old = _harmonic.size
        grown = np.empty(m + 1, dtype=np.float64)
        grown[:old] = _harmonic
        s = grown[old - 1]
        c = _harmonic_comp
        for i in range(old, m + 1):
            y = 1.0 / i - c
            t = s + y
            c = (t - s) - y
            s = t
            grown[i] = s
        _harmonic, _harmonic_comp = grown, c
    return _harmonic[: m + 1]


def harmonic_number(m: int) -> float:
    return float(harmonic_numbers(m)[m])


def digamma_integer(n: int) -> float:
    """psi(n) for integer n >= 1 via psi(1) = -gamma and the unit recurrence."""
    if n < 1:
        raise ValueError("integer digamma defined for n >= 1")
    return -EULER_GAMMA + harmonic_number(n - 1)


@dataclass(frozen=True)
class RedundancyRegime:
    """Alphabet-growth regime for the worst-case minimax redundancy leading
    terms: 'small_alphabet' (m = o(n)), 'large_alphabet' (n = o(m)), or
    'linear' (m = alpha*n + l)."""

    regime: str
    m: int
    n: int
    alpha: float = 0.0
    l: float = 0.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.regime not in ("small_alphabet", "large_alphabet", "linear"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "linear" and self.alpha <= 0:
            raise ValueError("linear regime needs alpha > 0")

    @classmethod
    def small(cls, m: int, n: int) -> "RedundancyRegime":
        return cls("small_alphabet", m, n)

    @classmethod
    def large(cls, m: int, n: int) -> "RedundancyRegime":
        return cls("large_alphabet", m, n)

    @classmethod
    def linear(cls, m: int, n: int, alpha: float | None = None, l: float = 0.0) -> "RedundancyRegime":
        return cls("linear", m, n, m / n if alpha is None else alpha, l)


def minimax_redundancy(regime: RedundancyRegime) -> float:
    """Leading-term worst-case minimax redundancy in bits for the regime."""
    m, n = regime.m, regime.n
    if regime.regime == "small_alphabet":
        return ((m - 1) / 2) * math.log2(n / m) + (m / 2) * LOG2E \
            + (m * LOG2E / 3) * math.sqrt(m / n)
    if regime.regime == "large_alphabet":
        return n * math.log2(m / n) + 1.5 * (n * n / m) * LOG2E - 1.5 * (n / m) * LOG2E
    a = regime.alpha
    c_a = 0.5 + 0.5 * math.sqrt(1 + 4 / a)
    a_a = c_a + 2 / a
    b_a = a * c_a ** (a + 2) * math.exp(-1 / c_a)
    return n * math.log2(b_a) + regime.l * math.log2(c_a) - math.log2(math.sqrt(a_a))


def standard_redundancy(m: int, n: int) -> float:
    """Auto-select the regime by the m/n ratio (factor-8 thresholds) and
    evaluate the matching formula."""
    if m * 8 <= n:
        return minimax_redundancy(RedundancyRegime.small(m, n))
    if n * 8 <= m:
        return minimax_redundancy(RedundancyRegime.large(m, n))
    return minimax_redundancy(RedundancyRegime.linear(m, n))


def pattern_dictionary_cost(n: int, n0: int, m: int, data_bits: float) -> float:
    """Pattern coding plus an explicit dictionary of the n0 observed symbols."""
    if n0 > n:
        raise ValueError("cannot observe more unique symbols than samples")
    return data_bits + n0 * math.log2(m) + 1.5 * LOG2E * n ** (1.0 / 3.0)


def expected_joint_entropy(m: int) -> float:
    """Mean entropy in bits of a distribution drawn uniformly from the
    m-simplex: (psi(m+1) - psi(2)) / ln 2."""
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    return (digamma_integer(m + 1) - digamma_integer(2)) / math.log(2.0)


def expected_order_statistic(m: int, i: int) -> float:
    """Mean of the i-th smallest coordinate of a uniform simplex point:
    (K_m - K_{m-i}) / m."""
    if not 1 <= i <= m:
        raise ValueError("order-statistic index out of range")
    k = harmonic_numbers(m)
    return (k[m] - k[m - i]) / m


def expected_marginal_bound(m: int, j: int) -> tuple[float, float]:
    """Jensen upper bound on the mean entropy of bit j under the ordering
    transform, as (exact finite-m value, large-m limit), both in bits.

    j = 1 is the coarsest grouping (the most significant bit of the sorted
    arrangement: codewords split into two runs of m/2); j = d is the
    finest (alternating runs of length 1). The exact value is
    h_b(K_m/2 - S/m) where S sums K_{m-i} over the included runs.
    """
    d = m.bit_length() - 1
    if m != 1 << d:
        raise ValueError("alphabet size must be a power of two")
    if not 1 <= j <= d:
        raise ValueError("bit index out of range")
    k = harmonic_numbers(m)
    ck = np.concatenate(([0.0], np.cumsum(k[1:])))  # ck[t] = sum_{u<=t} K_u
    run = m >> j
    s = 0.0
    for t in range(0, 1 << j, 2):
        a, b = t * run + 1, (t + 1) * run  # included i-range, 1-based
        s += ck[m - a] - ck[m - b - 1]
    exact_q = 0.5 * k[m] - s / m
    exact = float(binary_entropy(min(max(exact_q, 0.0), 1.0)))

    i = np.arange(1, 1 << j, dtype=np.float64)
    frac = i / (1 << j)
    limit_q = 0.5 + float(np.sum(np.where(i % 2 == 1, 1.0, -1.0) * frac * np.log(frac)))
    limit = float(binary_entropy(min(max(limit_q, 0.0), 1.0)))
    return exact, limit


def ordered_gap_bound(m: int) -> float:
    """Upper bound on the mean total correlation under the ordering transform
    over the uniform simplex: exact per-bit bounds for the ten coarsest bits,
    1 bit for each remaining bit, minus the mean joint entropy. Requires
    d >= 10; tends to just under 0.0162 as m grows."""
    d = m.bit_length() - 1
    if m != 1 << d or d < 10:
        raise ValueError("need m = 2^d with d >= 10")
    head = sum(expected_marginal_bound(m, j)[0] for j in range(1, 11))
    return head + (d - 10) - expected_joint_entropy(m)


def ordered_gap_bound_all_bits(m: int) -> float:
    """Tighter variant of ordered_gap_bound using the exact per-bit bound for
    every bit instead of capping bits past the tenth at 1."""
    d = m.bit_length() - 1
    if m != 1 << d or d < 1:
        raise ValueError("need m = 2^d")
    total = sum(expected_marginal_bound(m, j)[0] for j in range(1, d + 1))
    return total - expected_joint_entropy(m)


def identity_gap_limit() -> float:
    """Limiting mean gap between summed bit entropies and joint entropy with
    no transform applied: psi(2)/ln 2 = (1 - gamma)/ln 2 ~ 0.6099 bits."""
    return (1.0 - EULER_GAMMA) / math.log(2.0)


def worst_case_source(d: int) -> JointDistribution:
    """The hard instance: m-1 symbols at 1/(3(m-1)) plus one at 2/3. Already
    ascending, so the ordering transform is optimal for it and every bit has
    zero-marginal m/(6(m-1))."""
    if d < 1:
        raise ValueError("d must be >= 1")
    m = 1 << d
    probs = np.full(m, 1.0 / (3 * (m - 1)))
    probs[-1] = 2.0 / 3.0
    return JointDistribution(d, probs)


def worst_case_gap(d: int) -> float:
    """Closed-form total correlation of the hard instance under ordering:
    log2(m) h_b(m/(6(m-1))) - log2(m-1)/3 + log2(1/3)/3 + 2 log2(2/3)/3."""
    m = 1 << d
    return (d * binary_entropy(m / (6 * (m - 1)))
            - math.log2(m - 1) / 3
            + math.log2(1 / 3) / 3
            + (2 / 3) * math.log2(2 / 3))


def worst_case_slope() -> float:
    """Large-m growth per bit of dimension: h_b(1/6) - 1/3 ~ 0.3167."""
    return float(binary_entropy(1 / 6)) - 1 / 3


# ---------------------------------------------------------------------------
# Monte Carlo validation over the uniform simplex
# ---------------------------------------------------------------------------

def sample_simplex(m: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simplex draws as rows: unit-rate exponentials normalized by
    their sum (the Gamma(1,1) construction)."""
    z = rng.standard_exponential((draws, m))
    return z / z.sum(axis=1, keepdims=True)


def _row_entropy(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t = rows * np.log2(rows)
    return -np.nansum(t, axis=1)


def _mc_shards(d: int, draws: int, seed: int, ordered: bool, workers: int,
               shard_size: int = 500) -> tuple[float, float]:
    m = 1 << d
    a0 = zero_bit_matrix(d)
    counts = [shard_size] * (draws // shard_size)
    if draws % shard_size:
        counts.append(draws % shard_size)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))

    def run(idx: int) -> tuple[float, float]:
        rng = np.random.default_rng(seeds[idx])
        p = sample_simplex(m, counts[idx], rng)
        if ordered:
            p = np.sort(p, axis=1)
        gaps = np.sum(binary_entropy(p @ a0), axis=1) - _row_entropy(p)
        return float(gaps.sum()), float((gaps * gaps).sum())

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(counts))))
    else:
        parts = [run(i) for i in range(len(counts))]
    s1 = float(np.sum([a for a, _ in parts]))
    s2 = float(np.sum([b for _, b in parts]))
    mean = s1 / draws
    var = max(s2 / draws - mean * mean, 0.0)
    return mean, math.sqrt(var / draws)


def mc_ordered_gap(d: int, draws: int, seed: int, workers: int = 1) -> tuple[float, float]:
    """Mean and standard error of the total correlation under the ordering
    transform, over uniform-simplex sources of dimension d."""
    return _mc_shards(d, draws, seed, ordered=True, workers=workers)


def mc_identity_gap(d: int, draws: int, seed: int, workers: int = 1) -> tuple[float, float]:
    """Same, with no transform applied (raw bit marginals)."""
    return _mc_shards(d, draws, seed, ordered=False, workers=workers)


def mc_expected_entropy(m: int, draws: int, seed: int, batch: int = 2000) -> tuple[float, float]:
    """Mean and standard error of the joint entropy of uniform-simplex draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s1 = s2 = 0.0
    left = draws
    while left > 0:
        take = min(batch, left)
        h = _row_entropy(sample_simplex(m, take, rng))
        s1 += float(h.sum())
        s2 += float((h * h).sum())
        left -= take
    mean = s1 / draws
    var = max(s2 / draws - mean * mean, 0.0)
    return mean, math.sqrt(var / draws)
