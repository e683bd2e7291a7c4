import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicacomp import distributions
from bicacomp.distributions import (
    JointDistribution,
    MarginalProfile,
    SymbolPermutation,
    binary_entropy,
    bit_zero_marginals,
    inverse_permutation,
    joint_entropy,
    marginals,
    stable_argsort,
    total_correlation,
    zero_bit_matrix,
)


def random_permutation(d, rng):
    return SymbolPermutation(d, rng.permutation(1 << d))


def test_joint_entropy_uniform():
    p = JointDistribution(2, np.full(4, 0.25))
    assert joint_entropy(p) == pytest.approx(2.0, abs=1e-12)


def test_joint_entropy_point_mass():
    p = JointDistribution(2, [1.0, 0.0, 0.0, 0.0])
    assert joint_entropy(p) == 0.0


def test_joint_entropy_dyadic_hand_sum():
    # -(1/2*-1 + 1/4*-2 + 2*(1/8*-3)) = 1.75
    p = JointDistribution(2, [0.5, 0.25, 0.125, 0.125])
    assert joint_entropy(p) == pytest.approx(1.75, abs=1e-12)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # direct evaluation of h_b(1/6)
    assert binary_entropy(1 / 6) == pytest.approx(0.650022, abs=1e-4)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_binary_entropy_rejects_nan():
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.25, np.nan, 0.5]))


def test_binary_entropy_is_the_formula_element_by_element():
    # each inner element is -(q log2 q + (1-q) log2(1-q)) on that element
    # alone, to the bit, whatever the array around it; 0 and 1 give 0
    rng = np.random.default_rng(3)
    q = rng.random(257)
    q[::5] = 0.0
    q[::7] = 1.0
    q[::11] *= 1e-300
    got = binary_entropy(q)
    for qi, hi in zip(q, got):
        expect = 0.0 if qi in (0.0, 1.0) else float(-(qi * np.log2(qi) + (1 - qi) * np.log2(1 - qi)))
        assert hi == expect
        assert binary_entropy(float(qi)) == expect


def brute_marginals(p, g):
    """Independent oracle: direct double loop over symbols and bits."""
    d = p.d
    pis = np.zeros(d)
    for s in range(p.m):
        y = int(g.map[s])
        for j in range(d):
            if (y >> j) & 1 == 0:
                pis[j] += p.probs[s]
    return pis


def test_marginals_uniform_identity():
    p = JointDistribution(3, np.full(8, 0.125))
    prof = marginals(p, SymbolPermutation.identity(3))
    assert np.allclose(prof.pis, 0.5)


def test_marginals_point_mass():
    probs = np.zeros(8)
    probs[0] = 1.0
    prof = marginals(JointDistribution(3, probs), SymbolPermutation.identity(3))
    assert np.allclose(prof.pis, 1.0)


def test_marginals_against_brute_force():
    p = JointDistribution(2, [0.5, 0.3, 0.1, 0.1])
    g = SymbolPermutation(2, [3, 2, 1, 0])  # reverse symbol order
    prof = marginals(p, g)
    assert np.allclose(prof.pis, brute_marginals(p, g), atol=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        g = random_permutation(3, rng)
        assert np.allclose(marginals(p, g).pis, brute_marginals(p, g), atol=1e-14)


def test_marginals_dimension_mismatch():
    p = JointDistribution(2, np.full(4, 0.25))
    with pytest.raises(ValueError):
        marginals(p, SymbolPermutation.identity(3))


def test_total_correlation_product_distribution():
    # independent bits: P(b0=0)=0.3, P(b1=0)=0.6
    q0, q1 = 0.3, 0.6
    probs = np.array([q0 * q1, (1 - q0) * q1, q0 * (1 - q1), (1 - q0) * (1 - q1)])
    p = JointDistribution(2, probs)
    assert total_correlation(p, SymbolPermutation.identity(2)) == pytest.approx(0.0, abs=1e-12)


def test_total_correlation_uniform_any_permutation():
    rng = np.random.default_rng(3)
    p = JointDistribution(3, np.full(8, 0.125))
    for _ in range(10):
        assert total_correlation(p, random_permutation(3, rng)) == pytest.approx(0.0, abs=1e-12)


def test_total_correlation_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = JointDistribution(3, rng.dirichlet(np.ones(8)))
        g = random_permutation(3, rng)
        assert total_correlation(p, g) >= -1e-9


def test_total_correlation_worst_case_matches_closed_form():
    from bicacomp.bounds import worst_case_gap, worst_case_source
    from bicacomp.search import order_permutation

    p = worst_case_source(16)
    g = order_permutation(p).g
    assert total_correlation(p, g) == pytest.approx(worst_case_gap(16), abs=1e-9)


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(5)
    p = JointDistribution(3, rng.dirichlet(np.ones(8)))
    h = joint_entropy(p)
    for _ in range(10):
        g = random_permutation(3, rng)
        assert joint_entropy(g.transform(p)) == pytest.approx(h, abs=1e-12)


def test_padding_preserves_entropy():
    base = np.array([0.5, 0.3, 0.2])
    p3 = JointDistribution.from_probs(base)           # padded to 4
    p8 = JointDistribution.from_probs(base, d=3)      # padded to 8
    assert p3.m == 4 and p8.m == 8
    assert joint_entropy(p3) == pytest.approx(joint_entropy(p8), abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(2, [0.5, 0.5, 0.5, 0.5])  # sums to 2
    with pytest.raises(ValueError):
        JointDistribution(2, [0.5, 0.6, -0.1, 0.0])
    with pytest.raises(ValueError):
        JointDistribution(2, [1.0, 0.0])  # wrong size
    with pytest.raises(ValueError):
        JointDistribution.from_probs(np.full(5, 0.2), d=2)  # 5 symbols in 2 bits


def test_distribution_rejects_nan():
    # p < 0 and the sum-to-1 test are both False on NaN: the entry used to
    # pass both and leave an all-NaN probability vector
    for probs in ([0.5, 0.5, np.nan, 0.0], [np.nan] * 4):
        with pytest.raises(ValueError, match="NaN"):
            JointDistribution(2, probs)


def test_permutation_validation_and_inverse():
    with pytest.raises(ValueError):
        SymbolPermutation(2, [0, 1, 1, 3])
    with pytest.raises(ValueError):
        SymbolPermutation(2, [0, 1, 2, -1])  # -1 must not wrap to index 3
    with pytest.raises(ValueError):
        SymbolPermutation(2, [0, 1, 2, 4])
    rng = np.random.default_rng(2)
    g = random_permutation(3, rng)
    gi = inverse_permutation(g.map)
    assert np.array_equal(gi[g.map], np.arange(8))
    assert np.array_equal(g.map[gi], np.arange(8))
    x = rng.integers(0, 8, 100)
    assert np.array_equal(gi[g.apply(x)], x)


def test_marginal_profile_validation():
    for bad in ([0.5, 1.5], [0.5, np.nan]):  # NaN used to construct
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            MarginalProfile(np.array(bad))
    prof = MarginalProfile(np.array([0.5, 0.5]))
    assert prof.entropy_sum() == pytest.approx(2.0)



@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 10), rows=st.one_of(st.none(), st.integers(1, 5)),
       alpha=st.floats(0.01, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_bit_marginals_match_row_calls_and_matmul(d, rows, alpha, seed):
    p = np.random.default_rng(seed).dirichlet(np.full(1 << d, alpha), size=rows)
    got = bit_zero_marginals(p, d)
    assert got.shape == p.shape[:-1] + (d,)
    for row, pis in zip(np.atleast_2d(p), np.atleast_2d(got)):
        assert np.array_equal(pis, bit_zero_marginals(row, d))
    # a marginal sums 2^(d-1) non-negative terms of total 1: any summation
    # order is off by at most (2^(d-1) - 1) * 2^-53, so two differ by < 2^(d-53)
    assert np.max(np.abs(got - p @ zero_bit_matrix(d))) <= 2.0 ** (d - 53)


@pytest.mark.parametrize("d", range(1, 13))
def test_zero_bit_matrix_is_one_read_only_table_per_width(d):
    a0 = zero_bit_matrix(d)
    assert zero_bit_matrix(d) is a0
    assert a0.dtype == np.float64 and not a0.flags.writeable
    y = np.arange(1 << d)
    assert np.array_equal(a0, (y[:, None] >> np.arange(d)) & 1 == 0)


# small integers, signed zeros and infinities: long runs of equal keys
_TIE_KEYS = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, 5e-324])


def _planted_ulp_pair():
    """2^16 keys in [2, 4) and one pair one ulp apart in reverse index
    order: 1.0 + 2^-52 at index 5 and 1.0 at index 60000. The two share
    every bit above the packed index, so the packed sort puts 5 first."""
    keys = np.random.default_rng(16).uniform(2.0, 4.0, 1 << 16)
    keys[5], keys[60000] = np.nextafter(1.0, 2.0), 1.0
    return keys.tolist()


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(_TIE_KEYS, max_size=300) | st.lists(st.floats(allow_nan=False), max_size=50))
@example(keys=[])
@example(keys=[-0.0])
@example(keys=[-0.0, 0.0] * 2048)  # a signed zero ties with 0.0, as in the stable sort
@example(keys=[np.nextafter(1.0, 2.0), 1.0])  # one ulp apart, the larger first
@example(keys=_planted_ulp_pair())
@example(keys=[-np.nextafter(1.0, 2.0), -1.0, -np.nextafter(1.0, 0.0)])  # ulps below zero
def test_stable_argsort_equals_numpy_stable_sort(keys):
    k = np.array(keys, dtype=np.float64)
    # as called, then with every key count on the packed path
    for plain_max in (distributions.STABLE_SORT_MAX_PLAIN, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "STABLE_SORT_MAX_PLAIN", plain_max)
            got = stable_argsort(k)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(k, kind="stable"))



def test_stable_argsort_orders_each_row_along_the_last_axis():
    # rows up to STABLE_SORT_MAX_PLAIN keys in one call, longer rows through
    # the packed sort one at a time, one of them past it to the exact path
    rng = np.random.default_rng(67)
    ulp_row = np.array(_planted_ulp_pair()[:3000])
    ulp_row[7], ulp_row[2500] = np.nextafter(1.0, 2.0), 1.0
    for keys in (rng.integers(0, 9, size=(40, 64)) * 0.5,
                 rng.integers(0, 9, size=(2, 3, 1500)) * 0.5,
                 np.stack([rng.uniform(size=3000), ulp_row]),
                 np.empty((0, 3000)), np.empty((4, 0))):
        got = stable_argsort(keys)
        assert got.dtype == np.intp and got.shape == keys.shape
        assert np.array_equal(got, np.argsort(keys, axis=-1, kind="stable"))

def _no_exact_path(monkeypatch):
    """Every key count takes the packed sort, which may not fall back."""
    def fail(keys):
        raise AssertionError("stable_argsort left its packed sort")

    monkeypatch.setattr(distributions, "STABLE_SORT_MAX_PLAIN", 0)
    monkeypatch.setattr(distributions, "_stable_argsort_by_runs", fail)


def test_keys_one_ulp_apart_take_the_exact_path(monkeypatch):
    _no_exact_path(monkeypatch)
    for keys in ([np.nextafter(1.0, 2.0), 1.0], _planted_ulp_pair()):
        with pytest.raises(AssertionError, match="packed sort"):
            stable_argsort(np.array(keys))


# far apart in their high bits: the packed sort alone orders them
_SPREAD_KEYS = st.sampled_from([-np.inf, -3.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.25, 7.0,
                                np.inf])


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(_SPREAD_KEYS, max_size=200))
def test_signed_zeros_negatives_and_infinities_sort_on_the_packed_path(keys):
    with pytest.MonkeyPatch.context() as mp:
        _no_exact_path(mp)
        k = np.array(keys, dtype=np.float64)
        assert np.array_equal(stable_argsort(k), np.argsort(k, kind="stable"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_zipf16_keys_sort_on_the_packed_path(monkeypatch, seed):
    # the four skews of the huffman-zipf16 benchmark, relabelled as it
    # relabels them: distinct ranks differ far above the 16 packed bits
    _no_exact_path(monkeypatch)
    m = 1 << 16
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    for s in (0.4, 1.2, 2.0, 2.8):
        w = np.arange(1, m + 1, dtype=np.float64) ** -s
        p = (w / w.sum())[rng.permutation(m)]
        assert np.array_equal(stable_argsort(p), np.argsort(p, kind="stable"))
