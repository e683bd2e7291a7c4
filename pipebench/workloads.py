"""Seeded inputs, timed operations and output checks of the four workloads.

Every input array is generated here with NumPy from the workload seed; the
program only ever receives those arrays. A round runs every operation of a
workload once, on the same inputs each time, so the per-round work and the
bits it produces repeat exactly for a fixed seed. Each operation times the
library calls it makes (input generation and checks stay outside the timed
region) and raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from bicacomp import coding, search, universal, vq
from bicacomp.distributions import JointDistribution, entropy_bits

HISTORY_TOL = 1e-9   # the tolerance acceptance criteria 7 and 9 use
FULL_LAMBDA_GRID = np.geomspace(0.01, 10.0, 16)


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


@dataclass
class OpResult:
    """One operation's timed seconds, the symbols it processed, and its rate
    contribution: ``bits`` and ``model_bits`` over ``weight`` symbols.
    ECVQ fits also give their final Lagrangian. ``scale`` takes ``seconds``
    to the nominal machine speed; the harness sets it from reference work
    run around the op."""

    seconds: float
    work: int
    bits: float
    model_bits: float
    weight: float
    lagrangian: float | None = None
    scale: float = 1.0


def zipf_probs(m: int, s: float) -> np.ndarray:
    w = np.arange(1, m + 1, dtype=np.float64) ** (-s)
    return w / w.sum()


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class BytesCodec:
    """Byte files through the block codec: histogram, order search, two
    4-bit blocks, then the container decode (the CLI compress and
    decompress call sequence)."""

    name = "bytes-codec"
    uses = frozenset({
        "search.block_bica", "search.order_permutation", "coding.marginal_encode",
        "coding.marginal_decode", "coding.quantize_counts", "coding.extract_block",
        "coding.insert_block", "kernels.ac_encode", "kernels.ac_decode"})
    may_use = frozenset()
    # (KiB, Zipf skew over 256 symbols); small files expose per-container costs
    FILES = ((4, 0.6), (4, 1.2), (8, 0.8), (16, 1.0), (32, 0.7), (64, 1.1), (128, 0.9))
    TINY_FILES = ((1, 0.8), (2, 1.1))

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.files = []
        for kib, s in (self.TINY_FILES if tiny else self.FILES):
            probs = zipf_probs(256, s)[rng.permutation(256)]
            self.files.append(rng.choice(256, size=kib * 1024, p=probs).astype(np.uint8))

    def ops(self):
        return [lambda data=data: self._op(data) for data in self.files]

    @staticmethod
    def _op(data: np.ndarray) -> OpResult:
        t0 = time.perf_counter()
        symbols = data.astype(np.int64)
        counts = np.bincount(symbols, minlength=256)
        g = search.block_bica(JointDistribution(8, counts / counts.sum()), "order").g
        enc = coding.marginal_encode(symbols, g, coding.BlockPartition.contiguous(8, 4))
        restored = coding.marginal_decode(enc.container)
        seconds = time.perf_counter() - t0
        _check(np.array_equal(restored, symbols), "block codec round trip differs")
        y = g.apply(symbols)
        n = symbols.size
        block_entropy = sum(entropy_bits(np.bincount(blk, minlength=16) / n)
                            for blk in (y & 15, y >> 4))
        return OpResult(seconds, n, len(enc.container) * 8.0, n * block_entropy, n)


class UniversalZipf:
    """ROADMAP scenario E2: the descent with automatic (piecewise) search,
    baselines and cost curve, then the universal container round trip."""

    name = "universal-zipf"
    uses = frozenset({
        "universal.descend", "universal.apply_shuffle", "coding.extract_block",
        "coding.insert_block", "search.block_bica", "search.piecewise_relaxation",
        "coding.huffman_build", "coding.canonicalize", "coding.quantize_counts",
        "kernels.ac_encode", "kernels.ac_decode", "universal.compress",
        "universal.decompress"})
    may_use = frozenset({"search.order_permutation"})  # piecewise fallback only
    M, S, D, B = 4096, 1.2, 12, 6

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        n = 3000 if tiny else 100_000
        self.iters = 3 if tiny else 20
        self.seed = seed
        self.samples = rng.choice(self.M, size=n, p=zipf_probs(self.M, self.S)).astype(np.int64)

    def ops(self):
        return [self._op]

    def _op(self) -> OpResult:
        x = self.samples
        t0 = time.perf_counter()
        res = universal.descend(x, self.D, self.B, method="auto", max_iters=self.iters,
                                seed=self.seed)
        base = universal.baseline_costs(x, 1 << self.D)
        report = universal.total_cost_curve(res, x.size, base)
        blob = universal.compress(x, res)
        restored = universal.decompress(blob)
        seconds = time.perf_counter() - t0
        _check(np.array_equal(restored, x), "universal container round trip differs")
        _check(bool(np.all(np.diff(res.bounds) <= HISTORY_TOL)), "descent bound increased")
        _check(bool(np.all(res.block_sums <= res.bounds + HISTORY_TOL)),
               "block entropy sum exceeds its bound")
        return OpResult(seconds, x.size, len(blob) * 8.0, report.best_total, x.size)


class EcvqSweep:
    """Criterion 9's quantizer design: both ECVQ variants at the two ends of
    its lambda grid, reporting each fit's joint rate and its per-bit
    (order-transform) rate as the CLI sweep does."""

    name = "ecvq-sweep"
    uses = frozenset({"vq.ecvq_fit", "vq.bica_ecvq_fit", "kernels.ecvq_assign",
                      "search.block_bica", "search.order_permutation"})
    may_use = frozenset()
    DIM = 6
    LAMBDAS = FULL_LAMBDA_GRID[[0, -1]]

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        n = 200 if tiny else 1000
        self.m_init = 8 if tiny else 64
        self.seed = seed
        signs = rng.integers(0, 2, size=n) * 2 - 1
        self.x = signs[:, None] * np.ones(self.DIM) + rng.standard_normal((n, self.DIM))

    def ops(self):
        return [lambda lam=lam, bica=bica: self._op(float(lam), bica)
                for lam in self.LAMBDAS for bica in (False, True)]

    def _op(self, lam: float, bica: bool) -> OpResult:
        x, m = self.x, self.m_init
        n = x.shape[0]
        d_bits = max(1, int(np.ceil(np.log2(m))))
        t0 = time.perf_counter()
        if bica:
            state, _ = vq.bica_ecvq_fit(x, m, lam, seed=self.seed)
            rate_marginal = state.mean_rate
            rate_joint = entropy_bits(np.bincount(state.assign, minlength=m) / n)
        else:
            state = vq.ecvq_fit(x, m, lam, seed=self.seed)
            rate_joint = state.mean_rate
            probs = np.zeros(1 << d_bits)
            probs[:m] = np.bincount(state.assign, minlength=m) / n
            rate_marginal = search.block_bica(JointDistribution(d_bits, probs), "order").objective
        seconds = time.perf_counter() - t0
        _check(bool(np.all(np.diff(state.history) <= HISTORY_TOL)),
               "ECVQ Lagrangian history increased")
        return OpResult(seconds, n * state.history.size, rate_joint, rate_marginal, 1.0,
                        state.lagrangian)


class HuffmanZipf16:
    """The classic-zipf experiment at m = 2^16: Huffman build, canonical
    codebook with its wire round trip, and the order permutation of the
    whole alphabet, over a skew grid with a seeded symbol relabelling."""

    name = "huffman-zipf16"
    uses = frozenset({"coding.huffman_build", "coding.canonicalize",
                      "coding.serialize_codebook", "coding.deserialize_codebook",
                      "search.order_permutation"})
    may_use = frozenset()
    SKEWS = (0.4, 1.2, 2.0, 2.8)

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        self.d = 8 if tiny else 16
        m = 1 << self.d
        self.dists = [zipf_probs(m, s)[rng.permutation(m)] for s in self.SKEWS]

    def ops(self):
        return [lambda p=p: self._op(p) for p in self.dists]

    def _op(self, p: np.ndarray) -> OpResult:
        m = p.size
        t0 = time.perf_counter()
        code = coding.huffman_build(p)
        book = coding.canonicalize(code, m)
        wire = coding.serialize_codebook(book, m)
        back = coding.deserialize_codebook(wire, m, int(np.count_nonzero(code.lengths)))
        perbit = search.order_permutation(JointDistribution(self.d, p)).objective
        seconds = time.perf_counter() - t0
        h = entropy_bits(p)
        avg = code.average_length(p)
        _check(code.kraft_sum() <= 1.0 + 1e-12, "Huffman code violates Kraft")
        _check(h - 1e-9 <= avg < h + 1.0, "Huffman average length outside [H, H+1)")
        _check(np.array_equal(back.lengths, book.lengths)
               and np.array_equal(back.codes, book.codes)
               and back.serialized_bits == book.serialized_bits == wire.size,
               "codebook wire round trip differs")
        return OpResult(seconds, m, avg, perbit, 1.0)


WORKLOADS = {w.name: w for w in (BytesCodec, UniversalZipf, EcvqSweep, HuffmanZipf16)}


def warm_up() -> None:
    """Call every timed entry point once on tiny inputs, at the shapes the
    workloads use where that stays cheap (d=12, b=6 and k=8 for the
    descent), so that lazily filled caches are paid for in set-up."""
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=512)
    counts = np.bincount(data, minlength=256)
    g = search.block_bica(JointDistribution(8, counts / counts.sum()), "order").g
    enc = coding.marginal_encode(data, g, coding.BlockPartition.contiguous(8, 4))
    coding.marginal_decode(enc.container)

    x = rng.choice(4096, size=2000, p=zipf_probs(4096, 1.2))
    res = universal.descend(x, 12, 6, method="auto", max_iters=1, patience=1, seed=0)
    universal.total_cost_curve(res, x.size, universal.baseline_costs(x, 4096))
    universal.decompress(universal.compress(x, res))

    pts = rng.standard_normal((50, EcvqSweep.DIM))
    vq.ecvq_fit(pts, 4, 0.1, max_sweeps=2)
    vq.bica_ecvq_fit(pts, 4, 0.1, max_sweeps=2)

    p = zipf_probs(256, 1.0)
    book = coding.canonicalize(coding.huffman_build(p), 256)
    coding.deserialize_codebook(coding.serialize_codebook(book, 256), 256, 256)
    search.order_permutation(JointDistribution(8, p))
