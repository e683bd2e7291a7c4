import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp import kernels
from bicacomp.coding import arithmetic_encode, quantize_counts


def _cum(p):
    counts = quantize_counts(np.asarray(p))
    cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    return cum


def _ideal_bits(syms, cum):
    """Code length of syms under the quantized table, in bits."""
    q = np.diff(cum) / cum[-1]
    return float(-np.log2(q[syms]).sum())


def _bitwise_reference_bits(symbols, cum):
    """Stream length of the bitwise interval coder the rANS coder replaced
    (32-bit low/high recurrence, carries as pending bits, two flush bits
    plus the pending ones): the rate the rANS coder is held to."""
    cum = cum.tolist()
    total = cum[-1]
    top = 1 << 32
    half, quarter = top >> 1, top >> 2
    low, high, pending, nbits = 0, top - 1, 0, 0
    for s in symbols.tolist():
        span = high - low + 1
        high = low + (span * cum[s + 1]) // total - 1
        low = low + (span * cum[s]) // total
        while True:
            if high < half:
                nbits += 1 + pending
                pending = 0
            elif low >= half:
                nbits += 1 + pending
                pending = 0
                low -= half
                high -= half
            elif low >= quarter and high < 3 * quarter:
                pending += 1
                low -= quarter
                high -= quarter
            else:
                break
            low = low * 2
            high = high * 2 + 1
    return nbits + 2 + pending


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
    cum = _cum(p)
    data, nbits = kernels.ac_encode(syms, cum)
    assert len(data) == (nbits + 7) // 8
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    assert not stream[nbits:].any()  # zero padding below the last bit
    bits = arithmetic_encode(syms, p)
    assert bits.dtype == np.uint8
    assert set(np.unique(bits)) <= {0, 1}
    assert np.array_equal(bits, stream[:nbits])
    # within one stream's start-up and flush of the ideal code length
    assert nbits <= _ideal_bits(syms, cum) + 32


def _zipf(m, s=1.1):
    w = np.arange(1, m + 1, dtype=np.float64) ** -s
    return w / w.sum()


RATE_TABLES = {
    "random": lambda rng: rng.dirichlet(np.ones(40)),
    "zipf": lambda rng: _zipf(256)[rng.permutation(256)],
    "binary": lambda rng: np.array([0.93, 0.07]),
    "power_of_two": lambda rng: np.array([0.5, 0.25, 0.125, 0.0625, 0.0625]),
}


@pytest.mark.parametrize("table", sorted(RATE_TABLES))
def test_stream_bits_within_32_of_the_bitwise_coder(table):
    rng = np.random.default_rng(7)
    p = RATE_TABLES[table](rng)
    cum = _cum(p)
    q = np.diff(cum) / cum[-1]
    for n in (1, 10, 1000, 20000):
        syms = rng.choice(p.size, size=n, p=q).astype(np.int64)
        data, nbits = kernels.ac_encode(syms, cum)
        assert nbits <= _bitwise_reference_bits(syms, cum) + 32
        assert np.array_equal(kernels.ac_decode(data, n, cum, nbits), syms)


def test_lone_symbol_costs_zero_bits():
    cum = np.array([0, 0, 1 << 16, 1 << 16])  # only symbol 1 is possible
    syms = np.ones(1000, dtype=np.int64)
    assert kernels.ac_encode(syms, cum) == (b"", 0)
    assert np.array_equal(kernels.ac_decode(b"", 1000, cum, 0), syms)


def test_full_alphabet_with_every_count_one():
    cum = np.arange((1 << 16) + 1)
    syms = np.random.default_rng(3).integers(0, 1 << 16, 500)
    data, nbits = kernels.ac_encode(syms, cum)
    assert 16 * 500 - 16 <= nbits <= 16 * 500 + 32
    assert np.array_equal(kernels.ac_decode(data, 500, cum, nbits), syms)


@st.composite
def coded_streams(draw):
    """(symbols, cum): n in {0, 1, 2, small}, alphabets of 1..2^16 symbols
    (including the full 2^16 support where every count is 1), symbols drawn
    from the quantized table, sometimes one lone symbol. The "ones" tables
    hold m - 1 counts of 1 and one of 2^16 - m + 1 (2^16 - 1 at m = 2),
    with symbols drawn uniformly, so that count-1 steps, which emit two
    bytes once the state has emitted any, are common."""
    m = draw(st.sampled_from([1, 2, 256, 257, 1 << 16]) | st.integers(1, 1 << 16))
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["lone", "flat", "skewed", "sparse", "ones"]))
    if shape == "ones":
        counts = rng.permutation(np.r_[np.ones(m - 1, dtype=np.int64), (1 << 16) - m + 1])
        return rng.integers(0, m, n), np.r_[0, np.cumsum(counts)]
    if shape == "lone":
        w = np.zeros(m)
        w[rng.integers(m)] = 1.0
    elif shape == "flat":
        w = np.ones(m)
    else:
        w = rng.random(m) ** (16 if shape == "skewed" else 1)
        if shape == "sparse":
            w[rng.random(m) < 0.5] = 0.0
            w[rng.integers(m)] = 1.0
    cum = _cum(w / w.sum())
    q = np.diff(cum) / cum[-1]
    return rng.choice(m, size=n, p=q).astype(np.int64), cum


@settings(max_examples=150, deadline=None)
@given(src=coded_streams())
def test_round_trip_property(src):
    syms, cum = src
    data, nbits = kernels.ac_encode(syms, cum)
    assert len(data) == (nbits + 7) // 8
    out = kernels.ac_decode(data, syms.size, cum, nbits)
    assert out.dtype == np.int64
    assert np.array_equal(out, syms)
    assert nbits <= _ideal_bits(syms, cum) + 32
    if np.count_nonzero(np.diff(cum)) == 1:
        assert nbits == 0


def test_decode_rejects_truncated_or_flipped_streams():
    rng = np.random.default_rng(2)
    cum = _cum(rng.dirichlet(np.ones(8)))
    syms = rng.choice(8, size=400, p=np.diff(cum) / cum[-1]).astype(np.int64)
    data, nbits = kernels.ac_encode(syms, cum)
    assert np.array_equal(kernels.ac_decode(data, syms.size, cum, nbits), syms)
    assert kernels.ac_decode(b"", 0, np.array([0, 1 << 16]), 0).size == 0
    n_bytes = (nbits - 22) // 8  # the renormalization bytes before the final state
    assert n_bytes > 40
    # a bit count past the bytes held
    with pytest.raises(ValueError, match="shorter"):
        kernels.ac_decode(data[:-1], syms.size, cum, nbits)
    # streams cut short by whole bytes, by single bits, and by the whole byte run
    for cut in (1, 2, 3, 7, 8, 31, 32, 33, 64, 8 * n_bytes):
        with pytest.raises(ValueError, match="state 1"):
            kernels.ac_decode(data, syms.size, cum, nbits - cut)
    # every byte, and the final state, with one bit flipped
    for at in range(len(data) - 1):
        bad = bytearray(data)
        bad[at] ^= 1 << (at % 8)
        with pytest.raises(ValueError, match="state 1"):
            kernels.ac_decode(bytes(bad), syms.size, cum, nbits)


# The byte renormalization's edges. Under counts [2^16 - 1, 1] symbol 0 codes
# in ~2e-5 bits and symbol 1 in 16; from state 1, one step of symbol 1 leaves
# 131071, so the next one emits its byte below 2^22.
NEAR_TOTAL = np.array([0, (1 << 16) - 1, 1 << 16])

# case: (symbols, cum, exact stream bits)
RENORM_CASES = {
    # symbol 1 leaves 2^17 - 1, which 100 steps of symbol 0 lift just past 2^17
    "no_byte": ([0] * 100 + [1], NEAR_TOTAL, 17),
    # 131071 >> 8 = 511, coded to 2^25 - 1: one byte and 24 state bits
    "first_byte_below_2^22": ([1, 1], NEAR_TOTAL, 32),
    # every step after the first byte emits two
    "f1_two_bytes": ([1] * 6, NEAR_TOTAL, 8 + 16 * 4 + 24),
    # under counts [1, 2^16 - 1], coded from the last symbol: 16382 steps of
    # symbol 1 leave 16383, symbol 0 lifts it to 2^30 - 2^16, and three more
    # steps of symbol 1 reach 2^30 - 2^14, which the fourth's byte leaves
    "f_total_minus_1": ([1] * 4 + [0] + [1] * 16382, np.array([0, 1, 1 << 16]), 8 + 22),
}


@pytest.mark.parametrize("case", sorted(RENORM_CASES))
def test_renormalization_edges_round_trip(case):
    syms, cum, want = RENORM_CASES[case]
    syms = np.array(syms, dtype=np.int64)
    data, nbits = kernels.ac_encode(syms, cum)
    assert nbits == want
    assert len(data) == (nbits + 7) // 8
    assert np.array_equal(kernels.ac_decode(data, syms.size, cum, nbits), syms)


def test_every_stream_length_from_0_to_40_bits_round_trips():
    # 0..29 bits hold no byte, 30..37 one and 38..45 two: B = 0 / B = 1 lies
    # between 29 and 30. Short streams over tables with log-uniform starts
    # reach every length; each one found must decode
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(20000):
        m = int(rng.integers(2, 5))
        cuts = np.unique((2.0 ** rng.uniform(0, 16, m - 1)).astype(np.int64))
        cum = np.concatenate(([0], cuts, [1 << 16]))
        syms = rng.integers(0, cum.size - 1, int(rng.integers(1, 6)))
        data, nbits = kernels.ac_encode(syms, cum)
        if nbits <= 40 and nbits not in seen:
            assert np.array_equal(kernels.ac_decode(data, syms.size, cum, nbits), syms)
            seen.add(nbits)
            if len(seen) == 41:
                return
    pytest.fail(f"no stream of {sorted(set(range(41)) - seen)} bits was drawn")


def test_assign_matches_reference_on_random_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 4))
    cents = rng.standard_normal((10, 4))
    bias = rng.random(10)
    got = kernels.ecvq_assign(x, cents, bias, kernels.lift_samples(x))
    assert np.array_equal(got, _assign_reference(x, cents, bias))


def test_assign_matches_reference_on_ties():
    # coarse grids make equal biased distances common; the first wins
    rng = np.random.default_rng(4)
    x = rng.integers(-2, 3, (300, 3)).astype(np.float64)
    cents = rng.integers(-2, 3, (12, 3)).astype(np.float64)
    bias = np.round(rng.random(12) * 2) / 2
    cents[7], bias[7] = cents[2], bias[2]
    got = kernels.ecvq_assign(x, cents, bias, kernels.lift_samples(x))
    assert np.array_equal(got, _assign_reference(x, cents, bias))
    assert not np.any(got == 7)


def test_assign_never_picks_retired_clusters():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((150, 2))
    cents = rng.standard_normal((6, 2))
    bias = rng.random(6)
    bias[[0, 3]] = np.inf
    lifted = kernels.lift_samples(x)
    got = kernels.ecvq_assign(x, cents, bias, lifted)
    assert np.array_equal(got, _assign_reference(x, cents, bias))
    assert not np.any(np.isin(got, [0, 3]))
    all_retired = np.full(6, np.inf)
    assert np.array_equal(kernels.ecvq_assign(x, cents, all_retired, lifted), np.zeros(150))


def test_assign_small_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((101, 3))
    cents = rng.standard_normal((9, 3))
    bias = rng.random(9)
    bias[4] = np.inf
    lifted = kernels.lift_samples(x)
    whole = kernels.ecvq_assign(x, cents, bias, lifted)
    monkeypatch.setattr(kernels, "ASSIGN_CHUNK_CELLS", 20)  # two rows per chunk
    assert np.array_equal(kernels.ecvq_assign(x, cents, bias, lifted), whole)
    monkeypatch.setattr(kernels, "ASSIGN_CHUNK_CELLS", 1)  # one row per chunk
    assert np.array_equal(kernels.ecvq_assign(x, cents, bias, lifted), whole)


def test_lift_samples_is_the_screen_block():
    x = np.random.default_rng(7).standard_normal((40, 5))
    lifted = kernels.lift_samples(x)
    assert lifted.shape == (40, 7)
    assert np.array_equal(lifted[:, :5], x)
    assert np.array_equal(lifted[:, 5], np.einsum("ij,ij->i", x, x))
    assert np.array_equal(lifted[:, 6], np.ones(40))


def _screen_reference(s, gap):
    """Each row's first minimum, and whether the second value of the sorted
    row exceeds the first by more than the row's gap."""
    ordered = np.sort(s, axis=1)
    return np.argmin(s, axis=1), ordered[:, 1] > ordered[:, 0] + gap


@pytest.mark.parametrize("k", [32, 64])
def test_screen_matches_the_sorted_row_runner_up(k):
    rng = np.random.default_rng(k)
    s = rng.standard_normal((40, k)) * 10
    gap = rng.random(40) * 0.5
    s[1, 3] = s[1].min() - 1.0  # a clear winner
    s[2, [5, 9]] = s[2].min() - 1.0  # the two smallest tie
    s[3, 7] = s[3].min() - 1e-3  # a winner inside its gap
    gap[3] = 1e-2
    s[4, 0] = s[4].min() - 1.0  # a winner at the first column ...
    s[5, k - 1] = s[5].min() - 1.0  # ... and at the last
    gap[6] = np.nan  # a gap that cannot be bounded settles nothing
    s[7, 11] = np.inf  # an infinite entry
    s[8, :] = np.inf  # every entry infinite but one
    s[8, 2] = 1.0
    s[9, :] = np.inf  # the two smallest tie at infinity
    want_best, want_settled = _screen_reference(s, gap)
    assert want_settled[[1, 4, 5, 7, 8]].all() and not want_settled[[2, 3, 6, 9]].any()
    # lifted = [1] and right = the row give the row itself as the screened
    # values, infinities included
    def screen(lifted, right, gap):
        best, settled = np.empty(gap.size, dtype=np.intp), np.empty(gap.size, dtype=bool)
        kernels._screen(lifted, right, gap, best, settled)
        return best, settled

    for i in range(s.shape[0]):
        best, settled = screen(np.ones((1, 1)), s[i:i + 1], gap[i:i + 1])
        assert settled[0] == want_settled[i]
        if settled[0]:
            assert best[0] == want_best[i]
    # the finite rows at once: an identity block times the rows
    finite = np.flatnonzero(np.isfinite(s).all(axis=1))
    best, settled = screen(np.eye(finite.size), s[finite], gap[finite])
    assert np.array_equal(settled, want_settled[finite])
    assert np.array_equal(best[settled], want_best[finite][settled])


def test_assign_rejects_a_block_of_other_samples():
    x = np.random.default_rng(8).standard_normal((30, 3))
    cents, bias = x[:4].copy(), np.zeros(4)
    for other in (x[:29], x[:, :2]):
        with pytest.raises(ValueError, match="lift_samples"):
            kernels.ecvq_assign(x, cents, bias, kernels.lift_samples(other))


@st.composite
def assign_cases(draw):
    """Small assignment problems: Gaussian or coarse integer grids (ties),
    shifted by a shared offset and scaled toward underflow or overflow,
    with no cluster or any clusters retired, in one chunk or several, and
    with live clusters on both sides of the two screens' threshold."""
    n = draw(st.integers(1, 25))
    few = kernels._ROW_ARGMIN_MIN
    k = draw(st.integers(1, 9) | st.integers(few - 2, few + 8))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # integer grid: equal biased distances are common
        x = rng.integers(-2, 3, (n, dim)).astype(np.float64)
        cents = rng.integers(-2, 3, (k, dim)).astype(np.float64)
        bias = rng.integers(-1, 3, k) / 2
        twin = draw(st.integers(0, k - 1))
        cents[-1], bias[-1] = cents[twin], bias[twin]
    else:
        x = rng.standard_normal((n, dim))
        cents = rng.standard_normal((k, dim))
        bias = rng.random(k)
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150, 1e160]))
    offset = draw(st.sampled_from([0.0, 3.0, 1e4, 1e8]))
    x = x * scale + offset
    cents = cents * scale + offset
    bias = bias * min(scale * scale, 1e300)
    if draw(st.booleans()):  # none retired, as in a fit's first sweeps
        retired = [False] * k
    else:
        retired = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    bias[np.array(retired)] = np.inf
    if n == 1 or draw(st.booleans()):  # one chunk holds every row
        cells = kernels.ASSIGN_CHUNK_CELLS
    else:  # chunks of 1 to n - 1 rows over the live clusters
        cells = max(1, k - sum(retired)) * draw(st.integers(1, n - 1))
    return x, cents, bias, cells


@settings(max_examples=300, deadline=None)
@given(assign_cases())
def test_assign_matches_reference_property(case):
    x, cents, bias, cells = case
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(kernels, "ASSIGN_CHUNK_CELLS", cells)
        got = kernels.ecvq_assign(x, cents, bias, kernels.lift_samples(x))
        want = _assign_reference(x, cents, bias)
    assert np.array_equal(got, want)


def test_assign_sends_a_near_tie_to_the_exact_path(monkeypatch):
    # the first cluster is 2 ulps farther from the first sample than the
    # second, well inside the screen's rounding bound; the second sample is
    # far from a tie
    x = np.array([[0.0, 0.0], [3.0, 0.0]])
    cents = np.array([[0.0, 1.0 + 2.0**-52], [1.0, 0.0]])
    bias = np.zeros(2)
    sent = []
    exact = kernels._assign_exact

    def spy(rows, *args):
        sent.append(rows.copy())
        return exact(rows, *args)

    monkeypatch.setattr(kernels, "_assign_exact", spy)
    assert np.array_equal(kernels.ecvq_assign(x, cents, bias, kernels.lift_samples(x)), [1, 1])
    assert len(sent) == 1 and np.array_equal(sent[0], x[:1])
    assert np.array_equal(_assign_reference(x, cents, bias), [1, 1])
