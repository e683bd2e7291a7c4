import numpy as np
import pytest
from scipy import stats

from bicacomp.distributions import entropy_bits
from bicacomp.sources import (
    AliasSampler,
    SourceSpec,
    gaussian_mixture_sample,
    read_frequency_list,
    sample,
    zipf_distribution,
)


def test_zipf_flat_limit():
    p = zipf_distribution(4, 1e-9)
    assert np.allclose(p.probs, 0.25, atol=1e-6)


def test_zipf_m2_hand_value():
    p = zipf_distribution(2, 1.0)
    assert p.probs[0] == pytest.approx(2 / 3, abs=1e-12)
    assert p.probs[1] == pytest.approx(1 / 3, abs=1e-12)


def test_zipf_padding():
    p = zipf_distribution(5, 1.0)
    assert p.m == 8
    assert np.all(p.probs[5:] == 0)


def test_zipf_large_alphabet_entropy():
    p = zipf_distribution(1 << 20, 1.2)
    assert p.entropy() == pytest.approx(8.65, abs=0.02)


def test_zipf_rejects_bad_params():
    with pytest.raises(ValueError):
        zipf_distribution(0, 1.0)
    with pytest.raises(ValueError):
        zipf_distribution(8, 0.0)


def test_sample_empty():
    spec = SourceSpec.zipf(16, 1.0, seed=1)
    assert sample(spec, 0).size == 0


def test_sample_deterministic_under_seed():
    spec = SourceSpec.zipf(256, 1.1, seed=42)
    a = sample(spec, 1000)
    b = sample(spec, 1000)
    assert np.array_equal(a, b)
    c = sample(SourceSpec.zipf(256, 1.1, seed=43), 1000)
    assert not np.array_equal(a, c)


def test_alias_sampler_chi_square_goodness_of_fit():
    m, n = 1 << 10, 10 ** 6
    dist = zipf_distribution(m, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence(7))
    draws = AliasSampler.build(dist.probs).draw(rng, n)
    counts = np.bincount(draws, minlength=m)
    expected = dist.probs * n
    keep = expected >= 5  # standard chi-square validity cut
    chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
                 + (counts[~keep].sum() - expected[~keep].sum()) ** 2
                 / max(expected[~keep].sum(), 1e-9))
    dof = int(keep.sum())  # merged tail adds one cell, minus one constraint
    p_value = stats.chi2.sf(chi2, dof)
    assert p_value > 0.001


def test_zipf_reference_draw_statistics():
    spec = SourceSpec.zipf(1 << 20, 1.2, seed=2026)
    draws = sample(spec, 10 ** 6)
    n0 = np.unique(draws).size
    assert abs(n0 - 80071) / 80071 < 0.30
    h_emp = entropy_bits(np.bincount(draws, minlength=1 << 20) / draws.size)
    assert h_emp == pytest.approx(8.38, abs=0.05)


def test_gaussian_mixture_shape_and_modes():
    rng = np.random.default_rng(11)
    x = gaussian_mixture_sample(6, 4000, rng)
    assert x.shape == (4000, 6)
    # two modes at +-1 per coordinate: overall mean near zero, variance near 2
    assert np.all(np.abs(x.mean(axis=0)) < 0.2)
    assert np.all(np.abs(x.var(axis=0) - 2.0) < 0.3)


def test_frequency_list_toy(tmp_path):
    path = tmp_path / "freq.txt"
    path.write_text("a 2\nb 1\nc 1\n")
    dist, tokens = read_frequency_list(str(path), 2)
    assert tokens == ["a", "b", "c"]
    assert np.allclose(dist.probs, [0.5, 0.25, 0.25, 0.0])


def test_frequency_list_tie_break(tmp_path):
    path = tmp_path / "freq.txt"
    path.write_text("zeta 5\nalpha 5\nmid 7\n")
    _, tokens = read_frequency_list(str(path), 2)
    assert tokens == ["mid", "alpha", "zeta"]


def test_frequency_list_truncates_to_alphabet(tmp_path):
    path = tmp_path / "freq.txt"
    path.write_text("\n".join(f"w{i:03d} {100 - i}" for i in range(10)))
    dist, tokens = read_frequency_list(str(path), 3)
    assert len(tokens) == 8
    assert tokens[0] == "w000"


def test_frequency_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        read_frequency_list(str(empty), 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("word\n")
    with pytest.raises(ValueError):
        read_frequency_list(str(bad), 2)
    nan = tmp_path / "nan.txt"
    nan.write_text("word count\n")
    with pytest.raises(ValueError):
        read_frequency_list(str(nan), 2)


def test_frequency_list_round_trips_generated_ranks(tmp_path):
    m = 64
    dist = zipf_distribution(m, 1.3)
    counts = np.round(dist.probs[:m] * 10 ** 6).astype(int)
    tokens = [f"tok{i:04d}" for i in range(m)]
    path = tmp_path / "gen.txt"
    path.write_text("".join(f"{tok} {cnt}\n" for tok, cnt in zip(tokens, counts)))
    back, kept = read_frequency_list(str(path), 6)
    assert kept == tokens  # ranks preserved
    assert np.allclose(back.probs[:m], counts / counts.sum(), atol=1e-12)
