import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicacomp.coding import (
    BitCost,
    BlockPartition,
    PrefixCode,
    arithmetic_decode,
    arithmetic_encode,
    canonicalize,
    deserialize_codebook,
    extract_block,
    huffman_build,
    insert_block,
    marginal_decode,
    marginal_encode,
    prefix_decode,
    prefix_encode,
    quantize_counts,
    serialize_codebook,
)
from bicacomp.distributions import (
    JointDistribution,
    SymbolPermutation,
    binary_entropy,
    bit_zero_marginals,
    entropy_bits,
)
from bicacomp.search import order_permutation


def optimal_prefix_average(probs):
    """Oracle: exhaustive search over Kraft-feasible nondecreasing length
    vectors, assigned to probabilities sorted descending."""
    ps = sorted((p for p in probs if p > 0), reverse=True)
    m = len(ps)
    best = [math.inf]

    def rec(i, prev, kraft_used, acc):
        if acc >= best[0]:
            return
        if i == m:
            if kraft_used <= 1 + 1e-12:
                best[0] = acc
            return
        for l in range(prev, m):
            used = kraft_used + 2.0 ** -l
            # remaining words cannot fit even at max length: prune
            if used + (m - i - 1) * 2.0 ** -(m - 1) > 1 + 1e-12:
                continue
            rec(i + 1, l, used, acc + ps[i] * l)

    rec(0, 1, 0.0, 0.0)
    return best[0]


# ---------------------------------------------------------------------------
# Huffman
# ---------------------------------------------------------------------------

def test_huffman_dyadic_case():
    code = huffman_build([0.5, 0.25, 0.125, 0.125])
    assert sorted(code.lengths.tolist()) == [1, 2, 3, 3]
    assert code.average_length([0.5, 0.25, 0.125, 0.125]) == pytest.approx(1.75, abs=1e-12)


def test_huffman_two_symbols():
    code = huffman_build([0.9, 0.1])
    assert code.lengths.tolist() == [1, 1]
    assert code.average_length([0.9, 0.1]) == pytest.approx(1.0)


def test_huffman_average_in_entropy_band():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        code = huffman_build(p)
        h = entropy_bits(p)
        avg = code.average_length(p)
        assert h - 1e-9 <= avg < h + 1


def test_huffman_matches_exhaustive_optimum():
    rng = np.random.default_rng(17)
    for m in (3, 5, 8):
        for _ in range(5):
            p = rng.dirichlet(np.ones(m))
            assert huffman_build(p).average_length(p) == pytest.approx(
                optimal_prefix_average(p), abs=1e-9)


def test_huffman_kraft_equality_on_full_support():
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = rng.dirichlet(np.ones(16))
        assert huffman_build(p).kraft_sum() == pytest.approx(1.0, abs=1e-12)


def test_huffman_zero_prob_symbols_excluded():
    code = huffman_build([0.5, 0.0, 0.5, 0.0])
    assert code.lengths[1] == 0 and code.lengths[3] == 0
    assert code.lengths[0] == 1 and code.lengths[2] == 1


def test_huffman_rejects_empty():
    with pytest.raises(ValueError):
        huffman_build([])
    with pytest.raises(ValueError):
        huffman_build([0.0, 0.0])


@pytest.mark.parametrize("probs", [[0.5, -0.2, 0.7], [0.5, np.nan, 0.5],
                                   [0.5, np.inf, 0.5], [0.5, -np.inf, 0.5]],
                         ids=["negative", "nan", "inf", "minus_inf"])
def test_huffman_rejects_negative_and_non_finite_weights(probs):
    with pytest.raises(ValueError, match="finite and non-negative"):
        huffman_build(probs)


def test_prefix_code_validation():
    for lengths, codes in [
        ([1, 1, 1], [0, 0, 0]),   # Kraft > 1
        ([1, 1], [0, 0]),         # one codeword twice
        ([1, 1], [0, 5]),         # 5 does not fit in 1 bit
        ([1, 2], [0, 1]),         # 0 is a prefix of 01
        ([2, 1], [-1, 1]),
        ([64, 1], [0, 1]),
    ]:
        with pytest.raises(ValueError):
            PrefixCode(np.array(lengths), np.array(codes))


def test_prefix_code_accepts_prefix_free_codes():
    PrefixCode(np.array([2, 1, 3, 3]), np.array([3, 0, 5, 4]))
    PrefixCode(np.array([0, 2, 0, 2]), np.array([7, 1, 7, 2]))  # absent symbols' codes are ignored
    PrefixCode(np.array([63, 63, 1]), np.array([0, 1, 1]))
    PrefixCode(np.array([1, 0, 0, 0]), np.zeros(4, dtype=np.int64))  # a lone symbol


# ---------------------------------------------------------------------------
# canonical codebooks
# ---------------------------------------------------------------------------

def test_canonical_reference_four_symbol_table():
    # lengths for A,B,C,D are (2,1,3,3); canonical words must be
    # B->0, A->10, C->110, D->111
    code = PrefixCode(np.array([2, 1, 3, 3]), np.array([3, 0, 5, 4]))
    book = canonicalize(code)
    words = book.code().codewords
    assert words[1] == "0"      # B
    assert words[0] == "10"     # A
    assert words[2] == "110"    # C
    assert words[3] == "111"    # D


def test_canonical_single_symbol_gets_one_bit():
    code = huffman_build([1.0])
    book = canonicalize(code)
    assert book.code().codewords[0] == "0"


def test_lone_symbol_among_many_zeros_gets_one_bit():
    p = np.zeros(1 << 16)
    p[40000] = 0.25
    code = huffman_build(p)
    assert np.flatnonzero(code.lengths).tolist() == [40000]
    assert code.lengths[40000] == 1 and code.codes[40000] == 0


def test_canonical_round_trip_large_alphabet():
    rng = np.random.default_rng(23)
    p = rng.dirichlet(np.ones(256) * 0.3)
    book = canonicalize(huffman_build(p))
    code = book.code()
    syms = rng.choice(256, size=10 ** 4, p=p)
    bits = prefix_encode(syms, code)
    assert np.array_equal(prefix_decode(bits, code, syms.size), syms)


def test_canonical_prefix_free():
    rng = np.random.default_rng(29)
    p = rng.dirichlet(np.ones(32))
    words = canonicalize(huffman_build(p)).code().codewords
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if i != j and wi and wj:
                assert not wj.startswith(wi) or len(wj) == len(wi)


def test_codebook_serialization_round_trip():
    rng = np.random.default_rng(31)
    for m in (8, 64, 256):
        p = rng.dirichlet(np.ones(m))
        book = canonicalize(huffman_build(p), m)
        bits = serialize_codebook(book, m)
        assert bits.size == book.serialized_bits
        back = deserialize_codebook(bits, m, int(np.count_nonzero(book.lengths)))
        assert np.array_equal(back.lengths, book.lengths)
        assert np.array_equal(back.codes, book.codes)


def test_canonical_serialization_beats_naive_table():
    rng = np.random.default_rng(37)
    for m in (16, 64, 1024):
        p = rng.dirichlet(np.ones(m))
        code = huffman_build(p)
        book = canonicalize(code, m)
        # a flat table: each coded symbol's index, a 6-bit length, its codeword
        sym_bits = math.ceil(math.log2(m))
        naive = int(np.sum(sym_bits + 6 + code.lengths[code.lengths > 0]))
        assert book.serialized_bits < naive


def _reference_lengths(p):
    """Heap-of-symbol-lists Huffman: each merge lengthens every member."""
    lengths = [0] * len(p)
    heap = [(float(w), i, [i]) for i, w in enumerate(p) if w > 0]
    if len(heap) == 1:
        lengths[heap[0][1]] = 1
    heapq.heapify(heap)
    tick = len(p)
    while len(heap) > 1:
        w1, _, grp1 = heapq.heappop(heap)
        w2, _, grp2 = heapq.heappop(heap)
        for s in grp1 + grp2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, tick, grp1 + grp2))
        tick += 1
    return lengths


def _reference_codes(lengths):
    """Canonical numbering one symbol at a time, in (length, index) order."""
    codes = [0] * len(lengths)
    code = prev = 0
    for sym in sorted((i for i, l in enumerate(lengths) if l > 0), key=lambda i: lengths[i]):
        code <<= lengths[sym] - prev
        codes[sym] = code
        prev = lengths[sym]
        code += 1
    return codes


def _reference_wire(lengths, m):
    """Unary count per length, then each symbol in ceil(log2 m) bits."""
    w = max(1, math.ceil(math.log2(max(m, 2))))
    bits = []
    for l in range(1, max(lengths) + 1):
        bits += [1] * lengths.count(l) + [0]
    for sym in sorted((i for i, l in enumerate(lengths) if l > 0), key=lambda i: lengths[i]):
        bits += [(sym >> (w - 1 - t)) & 1 for t in range(w)]
    return bits


@settings(max_examples=160, deadline=None)
@given(m=st.integers(1, 4096),
       kind=st.sampled_from(["dirichlet", "counts", "zipf", "steep", "dyadic", "subnormal"]),
       zero_share=st.sampled_from([0.0, 0.3, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_prefix_layer_matches_reference(m, kind, zero_share, seed):
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        p = rng.dirichlet(np.full(m, 0.3))
    elif kind == "counts":  # small integer counts: many ties
        p = rng.integers(1, 4, m).astype(np.float64)
    elif kind == "zipf":
        p = np.arange(1, m + 1, dtype=np.float64) ** -rng.uniform(0.2, 1.2)
    elif kind == "steep":  # rounds of one pair, deep trees
        p = 2.0 ** -rng.uniform(0, 55, m)
    elif kind == "dyadic":  # merges tie with leaves
        p = 2.0 ** -rng.integers(0, 24, m).astype(np.float64)
    else:  # exact sums below the normal range
        p = rng.integers(1, 8, m) * 5e-324
    p[rng.random(m) < zero_share] = 0.0
    p[rng.integers(m)] = 1.0
    p /= p.sum()
    lengths = _reference_lengths(p)
    if max(lengths) > 63:
        with pytest.raises(ValueError, match="63"):
            huffman_build(p)
        return
    code = huffman_build(p)
    assert code.lengths.tolist() == lengths
    assert code.codes.tolist() == _reference_codes(lengths)
    book = canonicalize(code, m)
    assert book.codes.tolist() == code.codes.tolist()
    wire = serialize_codebook(book, m)
    assert wire.tolist() == _reference_wire(lengths, m)
    assert book.serialized_bits == wire.size
    back = deserialize_codebook(wire, m, int(np.count_nonzero(code.lengths)))
    assert np.array_equal(back.lengths, book.lengths)
    assert np.array_equal(back.codes, book.codes)
    assert back.serialized_bits == book.serialized_bits
    syms = rng.choice(m, size=200, p=p)
    words = code.codewords
    expect = [int(b) for s in syms for b in words[s]]
    assert prefix_encode(syms, code).tolist() == expect


def test_zipf16_prefix_layer_digest():
    # lengths, codes, serialized size and wire bits of the four skews the
    # huffman-zipf16 benchmark runs, at m = 2^16 under a seeded relabelling
    m = 1 << 16
    rng = np.random.default_rng(2016)
    digest = hashlib.sha256()
    for s in (0.4, 1.2, 2.0, 2.8):
        w = np.arange(1, m + 1, dtype=np.float64) ** -s
        p = (w / w.sum())[rng.permutation(m)]
        book = canonicalize(huffman_build(p), m)
        wire = serialize_codebook(book, m)
        for part in (book.lengths, book.codes, [book.serialized_bits], wire):
            digest.update(np.asarray(part, dtype="<i8").tobytes())
    assert digest.hexdigest() == "d0649146149b1506fcded2faa57bcea7db2d6881995e27338c15fd4fa70cf965"


def _flat8_wire():
    # eight symbols of length 3: unary 0, 0, 11111111 0, then 3 bits each
    book = canonicalize(PrefixCode(np.full(8, 3), np.arange(8)), 8)
    return serialize_codebook(book, 8)


def test_codebook_parse_rejects_wrong_coded_count():
    with pytest.raises(ValueError, match="n_coded"):
        deserialize_codebook(_flat8_wire(), 8, 5)


def test_codebook_parse_rejects_repeated_symbol():
    wire = _flat8_wire()
    wire[-3:] = wire[-6:-3]  # the last symbol repeats the one before it
    with pytest.raises(ValueError, match="repeated"):
        deserialize_codebook(wire, 8, 8)


def test_codebook_parse_rejects_symbol_outside_alphabet():
    wire = _flat8_wire()  # symbol 7 is 111 on the wire; read it as m = 6
    with pytest.raises(ValueError, match="alphabet"):
        deserialize_codebook(wire, 6, 8)


def test_codebook_parse_rejects_truncated_wire():
    wire = _flat8_wire()
    with pytest.raises(ValueError, match="ends"):
        deserialize_codebook(wire[:-1], 8, 8)
    with pytest.raises(ValueError, match="n_coded"):
        deserialize_codebook(wire[:5], 8, 8)


def test_codebook_parse_rejects_lengths_past_kraft():
    # Kraft sum 1 + 2^-63: rounds to 1.0 in floats, but its last codeword
    # would need 64 bits
    lengths = list(range(1, 63)) + [63, 63, 63] + [0] * 63
    with pytest.raises(ValueError, match="Kraft"):
        deserialize_codebook(np.array(_reference_wire(lengths, 128)), 128, 65)


def test_serialize_rejects_other_alphabet_size():
    book = canonicalize(PrefixCode(np.full(8, 3), np.arange(8)), 8)
    with pytest.raises(ValueError, match="alphabet"):
        serialize_codebook(book, 1024)


def test_codewords_longer_than_63_bits_are_rejected():
    p = 0.5 ** np.arange(1, 71)  # geometric: Huffman lengths 1, 2, ..., 69, 69
    with pytest.raises(ValueError, match="63"):
        huffman_build(p / p.sum())


# ---------------------------------------------------------------------------
# arithmetic coding
# ---------------------------------------------------------------------------

def test_arithmetic_fair_coin_incompressible():
    rng = np.random.default_rng(41)
    syms = rng.integers(0, 2, 1000)
    bits = arithmetic_encode(syms, [0.5, 0.5])
    assert 1000 <= bits.size <= 1000 + 32
    assert np.array_equal(arithmetic_decode(bits, [0.5, 0.5], 1000), syms)


def test_arithmetic_bernoulli_rate():
    # exactly 100 ones in 1000 so the empirical entropy is h_b(0.1)
    syms = np.zeros(1000, dtype=np.int64)
    syms[:100] = 1
    np.random.default_rng(43).shuffle(syms)
    bits = arithmetic_encode(syms, [0.9, 0.1])
    target = 1000 * float(binary_entropy(0.1))
    assert target - 1 <= bits.size <= target + 32
    assert np.array_equal(arithmetic_decode(bits, [0.9, 0.1], 1000), syms)


def test_arithmetic_round_trips_random_alphabets():
    rng = np.random.default_rng(47)
    for m in (2, 3, 17, 256, 1024):
        p = rng.dirichlet(np.ones(m))
        syms = rng.choice(m, size=2000, p=p)
        bits = arithmetic_encode(syms, p)
        assert np.array_equal(arithmetic_decode(bits, p, syms.size), syms)
        # within one stream's start-up and flush of the ideal codelength
        # for the coding distribution actually used (the quantized p)
        q = quantize_counts(p) / float(1 << 16)
        ideal = float(-np.log2(q[syms]).sum())
        assert ideal - 2 <= bits.size <= ideal + 32


def test_arithmetic_rejects_bad_input():
    with pytest.raises(ValueError):
        arithmetic_encode([0, 5], [0.5, 0.5])
    with pytest.raises(ValueError):
        arithmetic_encode([0, 1], [1.0, 0.0])  # zero-probability symbol occurs
    with pytest.raises(ValueError):
        arithmetic_encode([0], np.full(1 << 17, 2.0 ** -17))  # above cap


def test_arithmetic_single_symbol_alphabet():
    bits = arithmetic_encode(np.zeros(64, dtype=np.int64), [1.0])
    assert bits.size == 0  # a lone symbol is certain: it costs nothing
    assert np.array_equal(arithmetic_decode(bits, [1.0], 64), np.zeros(64))


def test_arithmetic_empty_stream():
    bits = arithmetic_encode(np.empty(0, dtype=np.int64), [0.5, 0.5])
    assert np.array_equal(arithmetic_decode(bits, [0.5, 0.5], 0), np.empty(0))


def test_per_bit_coding_tracks_marginal_entropies():
    from bicacomp.sources import SourceSpec, sample, zipf_distribution

    d = 16
    dist = zipf_distribution(1 << d, 1.2)
    g = order_permutation(dist).g
    draws = sample(SourceSpec.zipf(1 << d, 1.2, seed=3), 20000)
    y = g.apply(draws)
    total = 0
    hsum = 0.0
    for j in range(d):
        bit = ((y >> j) & 1).astype(np.int64)
        q = float(np.mean(bit == 0))
        hsum += float(binary_entropy(q))
        total += arithmetic_encode(bit, [q, 1 - q]).size
    assert abs(total / draws.size - hsum) < 0.05


def test_quantize_counts_properties():
    rng = np.random.default_rng(53)
    for m in (2, 7, 100):
        p = rng.dirichlet(np.ones(m))
        counts = quantize_counts(p)
        assert counts.sum() == 1 << 16
        assert np.all(counts[p > 0] >= 1)
        assert np.all(counts[p == 0] == 0)
    assert quantize_counts(np.array([1.0]))[0] == 1 << 16


# ---------------------------------------------------------------------------
# block partition and the block codec
# ---------------------------------------------------------------------------

def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(np.array([0, 1, 1]), (3,))
    with pytest.raises(ValueError):
        BlockPartition(np.arange(4), (2, 1))
    part = BlockPartition.contiguous(10, 4)
    assert part.sizes == (4, 4, 2)
    assert part.n_blocks == 3
    groups = part.groups()
    assert np.concatenate(groups).tolist() == list(range(10))


def test_block_bits_match_the_bit_at_a_time_reference():
    # runs of consecutive positions move in one shift; any order of
    # positions must move the same bits as moving them one at a time
    rng = np.random.default_rng(61)
    for _ in range(300):
        d = int(rng.integers(1, 64))
        k = int(rng.integers(0, d + 1))
        if rng.random() < 0.5:
            positions = rng.permutation(d)[:k]
        else:  # contiguous, with one position replaced half the time
            start = int(rng.integers(0, d - k + 1))
            positions = np.arange(start, start + k)
            if k > 2 and rng.random() < 0.5:
                positions[rng.integers(k)] = rng.integers(d)
        syms = rng.integers(-2 ** 62, 2 ** 62, 40)
        block = np.zeros(40, dtype=np.int64)
        for u, pos in enumerate(positions):
            block |= ((syms >> int(pos)) & 1) << u
        assert np.array_equal(extract_block(syms, positions), block)
        target = rng.integers(0, 2 ** 62, 40)
        expect = target.copy()
        for u, pos in enumerate(positions):
            expect |= ((syms >> u) & 1) << int(pos)
        insert_block(target, syms, positions)
        assert np.array_equal(target, expect)


def test_extract_block_inverse_of_insert():
    rng = np.random.default_rng(59)
    syms = rng.integers(0, 1 << 8, 500)
    part = BlockPartition(rng.permutation(8), (3, 5))
    rebuilt = np.zeros_like(syms)
    for positions in part.groups():
        insert_block(rebuilt, extract_block(syms, positions), positions)
    assert np.array_equal(rebuilt, syms)


def _random_correlated_source(rng, d, n):
    """Bits with strong pairwise correlation so blocks matter."""
    base = rng.integers(0, 2, n)
    bits = [base if j % 2 == 0 else (base ^ rng.integers(0, 2, n, dtype=np.int64)
                                     * (rng.random() < 0.3)) for j in range(d)]
    out = np.zeros(n, dtype=np.int64)
    for j, bt in enumerate(bits):
        out |= np.asarray(bt, dtype=np.int64) << j
    return out


def test_marginal_codec_round_trip_random():
    rng = np.random.default_rng(61)
    for d, b in ((4, 2), (8, 4), (8, 3)):
        syms = _random_correlated_source(rng, d, 3000)
        counts = np.bincount(syms, minlength=1 << d)
        g = order_permutation(JointDistribution(d, counts / counts.sum())).g
        enc = marginal_encode(syms, g, BlockPartition.contiguous(d, b))
        assert np.array_equal(marginal_decode(enc.container), syms)
        assert enc.cost.total == len(enc.container) * 8


def test_marginal_codec_independent_bits_near_entropy():
    rng = np.random.default_rng(67)
    d, n = 4, 20000
    qs = [0.5, 0.3, 0.8, 0.6]
    syms = np.zeros(n, dtype=np.int64)
    for j, q in enumerate(qs):
        syms |= (rng.random(n) > q).astype(np.int64) << j
    g = SymbolPermutation.identity(d)
    enc = marginal_encode(syms, g, BlockPartition.contiguous(d, 1))
    pis = bit_zero_marginals(np.bincount(syms, minlength=1 << d) / n, d)
    h_marg = float(np.sum(binary_entropy(pis)))
    assert abs(enc.cost.data_bits - n * h_marg) <= 2 * d + n * 0.01


def test_marginal_codec_single_block_equals_whole_alphabet_coding():
    rng = np.random.default_rng(71)
    syms = rng.integers(0, 16, 2000)
    counts = np.bincount(syms, minlength=16)
    g = order_permutation(JointDistribution(4, counts / counts.sum())).g
    enc = marginal_encode(syms, g, BlockPartition.contiguous(4, 4))
    y = g.apply(syms)
    direct = arithmetic_encode(y, np.bincount(y, minlength=16) / syms.size)
    assert enc.cost.data_bits == direct.size


def test_marginal_codec_rate_bracketing_zipf():
    from bicacomp.sources import SourceSpec, sample, zipf_distribution

    d = 12
    draws = sample(SourceSpec.zipf(1 << d, 1.2, seed=5), 30000)
    counts = np.bincount(draws, minlength=1 << d)
    emp = JointDistribution(d, counts / counts.sum())
    g = order_permutation(emp).g
    enc = marginal_encode(draws, g, BlockPartition.contiguous(d, 6))
    rate = enc.cost.data_bits / draws.size
    h_emp = emp.entropy()
    h_marg = order_permutation(emp).objective
    assert h_emp - 0.01 <= rate <= h_marg + 0.05


def test_block_merging_never_costs_more_data():
    rng = np.random.default_rng(73)
    syms = _random_correlated_source(rng, 8, 5000)
    counts = np.bincount(syms, minlength=256)
    g = order_permutation(JointDistribution(8, counts / counts.sum())).g
    enc4 = marginal_encode(syms, g, BlockPartition.contiguous(8, 2))  # B=4
    enc2 = marginal_encode(syms, g, BlockPartition.contiguous(8, 4))  # B=2 merged
    assert enc4.cost.data_bits >= enc2.cost.data_bits - 2 * 4


def test_marginal_codec_empty_input():
    g = SymbolPermutation.identity(4)
    enc = marginal_encode(np.empty(0, dtype=np.int64), g, BlockPartition.contiguous(4, 2))
    assert np.array_equal(marginal_decode(enc.container), np.empty(0))


def test_container_rejects_garbage():
    with pytest.raises(ValueError):
        marginal_decode(b"NOPE" + b"\x00" * 64)


def test_bitcost_total():
    c = BitCost(100.0, 28.0)
    assert c.total == 128.0
