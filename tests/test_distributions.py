import numpy as np
import pytest

from bicacomp.distributions import (
    JointDistribution,
    MarginalProfile,
    SymbolPermutation,
    binary_entropy,
    format_distribution_text,
    joint_entropy,
    marginals,
    parse_distribution_text,
    total_correlation,
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


def test_permutation_validation_and_inverse():
    with pytest.raises(ValueError):
        SymbolPermutation(2, [0, 1, 1, 3])
    with pytest.raises(ValueError):
        SymbolPermutation(2, [0, 1, 2, -1])  # -1 must not wrap to index 3
    with pytest.raises(ValueError):
        SymbolPermutation(2, [0, 1, 2, 4])
    rng = np.random.default_rng(2)
    g = random_permutation(3, rng)
    gi = g.inverse()
    assert np.array_equal(g.compose(gi).map, np.arange(8))
    assert np.array_equal(gi.compose(g).map, np.arange(8))
    x = rng.integers(0, 8, 100)
    assert np.array_equal(g.unapply(g.apply(x)), x)


def test_marginal_profile_validation():
    with pytest.raises(ValueError):
        MarginalProfile(np.array([0.5, 1.5]))
    prof = MarginalProfile(np.array([0.5, 0.5]))
    assert prof.entropy_sum() == pytest.approx(2.0)


def test_text_format_round_trip():
    p = JointDistribution(2, [0.5, 0.25, 0.125, 0.125])
    text = format_distribution_text(p)
    back = parse_distribution_text(text)
    assert back.d == 2
    assert np.allclose(back.probs, p.probs)
    with pytest.raises(ValueError):
        parse_distribution_text("")
    with pytest.raises(ValueError):
        parse_distribution_text("2\n0 0.5 extra")
