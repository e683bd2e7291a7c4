import hashlib
import inspect
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp import ContainerError, coding, universal
from bicacomp.bounds import standard_redundancy
from bicacomp.distributions import SymbolPermutation, entropy_bits
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


def test_compress_codes_any_samples_in_the_alphabet():
    # a result is its steps, which are bijections on d-bit symbols, so it
    # codes samples it was not run on as well, only at another rate
    x1 = sample(SourceSpec.zipf(256, 1.1, seed=1), 2000)
    x2 = sample(SourceSpec.zipf(256, 1.1, seed=2), 2000)
    result = descend(x1, 8, 4, max_iters=4, seed=1)
    edited = x1.copy()
    edited[17] ^= 1
    for other in (x1, x2, x1[::-1], edited, x1[:-1]):
        assert np.array_equal(decompress(compress(other, result)), other)
    aliased = x1.copy()
    aliased[17] += 256  # same low 8 bits: the steps would map it like x1[17]
    negative = np.where(np.arange(x1.size) == 17, -1, x1)
    for bad, match in ((aliased, "outside alphabet"), (negative, "outside alphabet"),
                       (x1.reshape(40, 50), r"1-D, got shape \(40, 50\)")):
        with pytest.raises(ValueError, match=match):
            compress(bad, result)
        with pytest.raises(ValueError, match=match):
            replay(bad, result)


def _zipf4096_samples(seed, n):
    """The universal benchmark's sample: n draws of Zipf(4096, 1.2) as its
    workload seeds them."""
    w = np.arange(1, 4097, dtype=np.float64) ** -1.2
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return rng.choice(4096, size=n, p=w / w.sum()).astype(np.int64)


def _history_digest(result):
    """SHA-256 of every step's shuffle and block maps (as int64) and the
    float.hex of its bound and block sum."""
    h = hashlib.sha256()
    for step in result.steps:
        h.update(np.asarray(step.shuffle, dtype=np.int64).tobytes())
        for gmap in step.transforms:
            h.update(np.asarray(gmap, dtype=np.int64).tobytes())
        h.update(f"{float(step.bound).hex()} {float(step.block_sum).hex()};".encode())
    return h.hexdigest()


def test_descent_histories_are_pinned_bit_for_bit():
    # digests of the plain per-block evaluation: a faster block count,
    # piecewise screen or binary_entropy must keep every decision, bound
    # and block sum to the bit
    x = _zipf4096_samples(1, 100_000)
    res = descend(x, 12, 6, method="auto", max_iters=20, seed=1)
    assert len(res.steps) == 21
    assert _history_digest(res) == \
        "91f058cbec7b704e63814dec6c3fad61789f56e7ce205877e763715761732fdb"
    w = np.arange(1, 1025, dtype=np.float64) ** -1.1
    y = np.random.default_rng(5).choice(1024, size=20_000, p=w / w.sum()).astype(np.int64)
    for method, digest in (
            ("auto", "07eabb45585175ff52cb54fc64dbe51e7541d75a80dd90a3710f311e51179c50"),
            ("order", "ee3ed7c322f88a5ed4c82e6b2c24a041c7a1d688a3edaf99fcb26005cbcf8470")):
        res = descend(y, 10, 4, method=method, max_iters=12, seed=7)  # blocks of 4, 4, 2
        assert len(res.steps) == 13
        assert _history_digest(res) == digest


def test_descent_shuffles_once_per_candidate_and_proposal(monkeypatch):
    # the benchmark's trace counts proposals as the shuffles inside descend
    # past the identity and the init_shuffles candidates, and expects one
    # block search per block per proposal
    calls = {"shuffle": 0, "bica": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(universal, "apply_shuffle", counted("shuffle", universal.apply_shuffle))
    monkeypatch.setattr(universal, "block_bica", counted("bica", universal.block_bica))
    res = descend(_zipf4096_samples(1, 3000), 12, 6, method="auto", max_iters=3, seed=1)
    init = inspect.signature(descend).parameters["init_shuffles"].default
    n_blocks = len(res.partition.sizes)
    assert calls["bica"] % n_blocks == 0
    proposals = calls["bica"] // n_blocks
    assert proposals >= len(res.steps) - 1 >= 1
    assert calls["shuffle"] == 1 + init + proposals


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


def test_descent_rejects_a_block_past_16_bits_before_allocating():
    # refused before the initial shuffles count any block into 2^17 entries
    x = np.arange(100, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"outside 1\.\.16"):
            descend(x, 17, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("bad", [256, 300, -1])
def test_descent_rejects_symbols_outside_the_alphabet(bad):
    # such a symbol used to lose its high bits (300 decoded as 44, -1 as 255)
    x = np.array([0, 1, 2, bad, 5, 7, 1, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="outside alphabet"):
        descend(x, 8, 4)
    result = descend(np.where(x == bad, 3, x), 8, 4, max_iters=1)
    with pytest.raises(ValueError, match="outside alphabet"):
        replay(x, result)


def test_descent_rejects_samples_that_are_not_1d():
    x = np.random.default_rng(8).integers(0, 1 << 8, (20, 10))
    with pytest.raises(ValueError, match=r"1-D, got shape \(20, 10\)"):
        descend(x, 8, 4)


def _entries():
    """Every entry point that takes symbols of a 16-symbol alphabet."""
    uniform = np.full(16, 1 / 16)
    result = descend(np.arange(16), 4, 2, max_iters=0, init_shuffles=0)
    g, partition = SymbolPermutation.identity(4), coding.BlockPartition.contiguous(4, 2)
    return {
        "prefix_encode": lambda x: coding.prefix_encode(x, coding.huffman_build(uniform)),
        "arithmetic_encode": lambda x: coding.arithmetic_encode(x, uniform),
        "marginal_encode": lambda x: coding.marginal_encode(x, g, partition),
        "descend": lambda x: descend(x, 4, 2),
        "replay": lambda x: replay(x, result),
        "compress": lambda x: compress(x, result),
        "baseline_costs": lambda x: baseline_costs(x, 16),
    }


@pytest.mark.parametrize("bad", [
    [0.9, 1.5],  # used to be cast to [0, 1] and come back as other data
    np.array([[1, 2], [3, 4]]),
    np.array([1, -1]),
    np.array([1, 16]),
    np.array([1, 2 ** 64 - 1], dtype=np.uint64),  # must not wrap to -1 or pass as 2^64 - 1
], ids=["floats", "2-D", "negative", "past-the-alphabet", "uint64-past-int64"])
@pytest.mark.parametrize("entry", sorted(_entries()))
def test_every_entry_rejects_what_is_not_a_symbol(entry, bad):
    with pytest.raises(ValueError):
        _entries()[entry](bad)


def test_symbols_take_any_integer_dtype_and_at_most_63_bits():
    assert coding._symbols(np.array([True, False]), 2).tolist() == [1, 0]
    top = np.array([2 ** 63 - 1], dtype=np.uint64)
    assert coding._symbols(top, 1 << 63).tolist() == [2 ** 63 - 1]
    with pytest.raises(ValueError, match="does not fit int64"):
        coding._symbols(np.array([], dtype=np.uint64), 1 << 64)
    with pytest.raises(ValueError, match="does not fit int64"):  # an OverflowError before
        descend(np.arange(10), 64, 8)


def test_a_wide_alphabet_round_trips_through_the_sort_path():
    # 2^40 symbols over 200 samples: descend, compress and decompress group
    # by sorting, and allocate nothing of size 2^40
    assert 1 << 40 > coding._COUNTING_RATIO * 200
    x = np.random.default_rng(5).integers(0, 1 << 40, 200)
    x[:50] = x[50:100]  # repeated symbols
    result = descend(x, 40, 5, max_iters=3, seed=3, init_shuffles=4, patience=2)
    assert np.array_equal(replay(x, result)[0], result.bounds)
    assert np.array_equal(decompress(compress(x, result)), x)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 8), b=st.integers(1, 4), n=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1), method=st.sampled_from(["order", "auto"]))
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


def _step_entries(blob):
    """(offset, count, itemsize) of every shuffle and block map in the steps
    section of a container: each step is a d-byte shuffle, then one map per
    block, whose b-bit entries take ceil(b/8) bytes each."""
    parsed = coding.parse_container(blob)
    steps = coding.SECTIONS.index("steps")
    at = sum(len(part) for _, part in parsed.sections[:steps])
    end = at + len(parsed.sections[steps][1])
    d = parsed.partition.d
    out = []
    for _ in parsed.steps:
        out.append((at, d, 1))
        at += d
        for s in parsed.partition.sizes:
            width = (s + 7) // 8
            out.append((at, 1 << s, width))
            at += width << s
    assert at == end
    return out


def _reseal(blob):
    """The container with its CRC32 trailer recomputed after an edit."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_decompress_rejects_non_bijective_steps():
    # the container pinned as "piecewise" in test_containers
    draws = sample(SourceSpec.zipf(256, 1.1, seed=5), 3000)
    blob = compress(draws, descend(draws, 8, 4, method="auto", max_iters=4, seed=1))
    tried = 0
    for at, count, size in _step_entries(blob):
        for i in range(1, count):
            bad = bytearray(blob)
            # entry i repeats entry i - 1, so one value is missing
            bad[at + i * size: at + (i + 1) * size] = blob[at + (i - 1) * size: at + i * size]
            with pytest.raises(ContainerError, match="not a permutation"):
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


def test_block_cost_of_a_block_wider_than_the_sample():
    # the paper's term alone would charge a 16-bit block over 100 samples
    # (2^16 - 1)/2 log2(100 / 2^16), about -3e5 bits; where 8 * 2^b > n
    # the large-alphabet and linear regimes apply
    assert _partition_redundancy(100, (16, 4)) == \
        standard_redundancy(1 << 16, 100) + standard_redundancy(16, 100)
    assert _partition_redundancy(128, (4,)) == 15 / 2 * math.log2(128 / 16)
    draws = sample(SourceSpec.zipf(64, 1.2, seed=0), 100)
    result = descend(draws, 20, 16, max_iters=1)
    report = total_cost_curve(result, draws.size)
    assert np.all(report.totals >= draws.size * result.block_sums)
    assert report.best_total >= draws.size * result.block_sums[report.best_iteration]


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
    data = draws.size * entropy_bits(np.bincount(draws) / draws.size)
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
