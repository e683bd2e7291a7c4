import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp.sources import SourceSpec, read_frequency_list, sample
from bicacomp.universal import (
    _partition_redundancy,
    baseline_costs,
    compress,
    decompress,
    descend,
    replay,
    total_cost_curve,
)


@pytest.fixture(scope="module")
def zipf_run():
    draws = sample(SourceSpec.zipf(1 << 10, 1.2, seed=9), 20000)
    result = descend(draws, 10, 5, max_iters=12, seed=4)
    return draws, result


def test_descent_bound_monotone_and_dominates_block_sum(zipf_run):
    _, result = zipf_run
    bounds = result.bounds
    assert np.all(np.diff(bounds) <= 1e-9)
    assert np.all(result.block_sums <= bounds + 1e-9)


def test_descent_improves_over_shuffle_only(zipf_run):
    # a bit shuffle alone cannot change the marginal-entropy sum, so the
    # initial bound doubles as the best any pure-shuffle search can reach
    _, result = zipf_run
    assert len(result.steps) >= 2
    assert result.bounds[-1] < result.bounds[0] - 1e-3


def test_descent_replay_from_descriptors(zipf_run):
    draws, result = zipf_run
    bounds, bsums = replay(draws, result)
    assert np.array_equal(bounds, result.bounds)
    assert np.array_equal(bsums, result.block_sums)


def test_descent_lossless_container(zipf_run):
    draws, result = zipf_run
    blob = compress(draws, result)
    assert np.array_equal(decompress(blob), draws)


def test_compress_rejects_samples_the_result_was_not_run_on():
    x1 = sample(SourceSpec.zipf(256, 1.1, seed=1), 2000)
    x2 = sample(SourceSpec.zipf(256, 1.1, seed=2), 2000)
    result = descend(x1, 8, 4, max_iters=4, seed=1)
    edited, aliased = x1.copy(), x1.copy()
    edited[17] ^= 1
    aliased[17] += 256  # same low 8 bits: the steps map it like x1[17]
    for other in (x2, x1[::-1], edited, aliased, x1[:-1]):
        with pytest.raises(ValueError, match="do not match"):
            compress(other, result)
    assert np.array_equal(decompress(compress(x1, result)), x1)


def test_descent_independent_bits_no_gain():
    rng = np.random.default_rng(15)
    syms = np.zeros(30000, dtype=np.int64)
    for j, q in enumerate([0.5, 0.2, 0.7, 0.9, 0.4, 0.6]):
        syms |= (rng.random(30000) < q).astype(np.int64) << j
    result = descend(syms, 6, 3, max_iters=8, seed=2)
    assert result.bounds[0] - result.block_sums[0] < 0.01
    assert result.bounds[0] - result.bounds[-1] < 0.02


def test_descent_tolerates_a_constant_bit_summing_past_one():
    # bits 5..7 are zero in every symbol; in one of these proposals such a
    # bit's zero-probability, summed from float probabilities, overshoots 1
    draws = sample(SourceSpec.zipf(32, 1.0, seed=7), 1000)
    result = descend(draws, 8, 3, method="order", max_iters=3, seed=2)
    assert np.all(np.diff(result.bounds) <= 1e-9)
    assert np.array_equal(decompress(compress(draws, result)), draws)


def test_descent_rejects_empty_and_bad_blocks():
    with pytest.raises(ValueError):
        descend(np.empty(0, dtype=np.int64), 8, 4)
    with pytest.raises(ValueError):
        descend(np.zeros(10, dtype=np.int64), 8, 9)


@pytest.mark.parametrize("bad", [256, 300, -1])
def test_descent_rejects_symbols_outside_the_alphabet(bad):
    # such a symbol used to lose its high bits (300 decoded as 44, -1 as 255)
    x = np.array([0, 1, 2, bad, 5, 7, 1, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="outside alphabet"):
        descend(x, 8, 4)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 8), b=st.integers(1, 4), n=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1), method=st.sampled_from(["order", "piecewise"]))
def test_descent_is_invariant_under_row_permutation(d, b, n, seed, method):
    rng = np.random.default_rng(seed)
    w = rng.random(1 << d) ** 4
    x = rng.choice(1 << d, size=n, p=w / w.sum()).astype(np.int64)
    perm = rng.permutation(n)
    kw = dict(method=method, max_iters=3, seed=seed % 1000, init_shuffles=3, patience=2)
    ref = descend(x, d, min(b, d), **kw)
    got = descend(x[perm], d, min(b, d), **kw)
    assert len(got.steps) == len(ref.steps)
    for a, c in zip(ref.steps, got.steps):
        assert np.array_equal(a.shuffle, c.shuffle)
        assert all(np.array_equal(u, v) for u, v in zip(a.transforms, c.transforms))
    assert np.array_equal(got.bounds, ref.bounds)
    assert np.array_equal(got.block_sums, ref.block_sums)
    assert np.array_equal(got.final_symbols, ref.final_symbols[perm])


def _step_entries(blob):
    """(offset, count, itemsize) of every shuffle and block map in a BAU2
    container: a b-bit block map takes ceil(b/8) bytes per entry."""
    head = struct.calcsize("<4sBBBBQI")
    _, _, d, n_blocks, _, _, n_steps = struct.unpack_from("<4sBBBBQI", blob, 0)
    sizes = blob[head:head + n_blocks]
    at = head + n_blocks + d
    out = []
    for _ in range(n_steps):
        out.append((at, d, 1))
        at += d
        for s in sizes:
            width = (s + 7) // 8
            out.append((at, 1 << s, width))
            at += width << s
    return out


def _reseal(blob):
    """The container with its CRC32 trailer recomputed after an edit."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_decompress_rejects_non_bijective_steps():
    # the container pinned as "piecewise" in test_containers
    draws = sample(SourceSpec.zipf(256, 1.1, seed=5), 3000)
    blob = compress(draws, descend(draws, 8, 4, method="piecewise", max_iters=4, seed=1))
    tried = 0
    for at, count, size in _step_entries(blob):
        for i in range(1, count):
            bad = bytearray(blob)
            # entry i repeats entry i - 1, so one value is missing
            bad[at + i * size: at + (i + 1) * size] = blob[at + (i - 1) * size: at + i * size]
            with pytest.raises(ValueError, match="not a permutation"):
                decompress(_reseal(bad))
            tried += 1
    assert tried > 100


# ---------------------------------------------------------------------------
# cost formulas
# ---------------------------------------------------------------------------

def test_block_cost_single_block_reduction():
    d = 10
    n = 10 ** 5
    got = _partition_redundancy(n, (d,))
    assert got == pytest.approx(((1 << d) - 1) / 2 * math.log2(n / (1 << d)), abs=1e-9)


def test_block_cost_formula_reference_rows():
    # four blocks of five bits at a million samples: the model-redundancy
    # term alone
    red4 = 4 * ((1 << 5) - 1) / 2 * math.log2(10 ** 6 / (1 << 5))
    assert _partition_redundancy(10 ** 6, (5,) * 4) == pytest.approx(red4, abs=1e-6)
    # printed-total consistency of the reference runs: data + reported
    # redundancy = reported total
    assert 10 ** 6 * 9.09 + 5.41e4 == pytest.approx(9.144e6, rel=1e-3)
    assert 10 ** 6 * 8.69 + 1.15e5 == pytest.approx(8.805e6, rel=1e-3)


def test_total_cost_curve_identity(zipf_run):
    draws, result = zipf_run
    n = draws.size
    report = total_cost_curve(result, n)
    sizes = result.partition.sizes
    red = sum(((1 << s) - 1) / 2 * math.log2(n / (1 << s)) for s in sizes)
    tdesc = sum(s * (1 << s) for s in sizes)
    sdesc = result.d * math.log2(result.d)
    for i, total in zip(report.iterations, report.totals):
        expect = n * result.block_sums[list(report.iterations).index(i)] \
            + red + i * (tdesc + sdesc)
        assert total == pytest.approx(expect, abs=1e-6)
    assert report.totals[0] == pytest.approx(n * result.block_sums[0] + red, abs=1e-6)
    assert report.best_total == report.totals.min()


def test_redundancy_decreases_with_more_blocks():
    n, d = 1 << 24, 20
    reds = [_partition_redundancy(n, (d // b_count,) * b_count) for b_count in (1, 2, 4)]
    assert reds[0] > reds[1] > reds[2]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_baseline_costs_hand_toy():
    samples = np.array([0, 0, 0, 0, 1, 1, 2, 2, 3, 3])
    base = baseline_costs(samples, 4)
    p = np.array([0.4, 0.2, 0.2, 0.2])
    h = float(-(p * np.log2(p)).sum())
    assert base.empirical_entropy == pytest.approx(h, abs=1e-12)
    assert base.unique_symbols == 4
    from bicacomp.bounds import standard_redundancy

    assert base.standard == pytest.approx(10 * h + standard_redundancy(4, 10), abs=1e-9)
    from bicacomp.bounds import pattern_dictionary_cost

    assert base.pattern == pytest.approx(pattern_dictionary_cost(10, 4, 4, 10 * h), abs=1e-9)
    # canonical: optimal code for (.4,.2,.2,.2) has lengths (1,2,3,3)
    avg = 0.4 * 1 + 0.2 * 2 + 0.2 * 3 + 0.2 * 3
    assert base.canonical >= 10 * avg  # plus positive codebook bits


def test_baselines_order_on_zipf(zipf_run):
    draws, _ = zipf_run
    base = baseline_costs(draws, 1 << 10)
    data = draws.size * base.empirical_entropy
    assert base.standard > data
    assert base.pattern > data
    assert base.canonical > data


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_frequency_list_round_trip(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("the 100\nof 50\nand 25\nto 12\n")
    dist, tokens = read_frequency_list(str(path), 2)
    spec = SourceSpec.frequency_list(str(path), 2, seed=8)
    assert tokens == ["the", "of", "and", "to"]
    assert np.allclose(dist.probs, np.array([100, 50, 25, 12]) / 187)
    draws = sample(spec, 5000)
    assert draws.min() >= 0 and draws.max() <= 3
    counts = np.bincount(draws, minlength=4)
    assert counts[0] > counts[1] > counts[2]
