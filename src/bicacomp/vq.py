"""Lossy coding: entropy-constrained vector quantization and fixed lattices.

The ECVQ loop alternates three steps until the Lagrangian
E{distortion} + lambda * E{codeword length} stops improving: assign each
sample to the cluster minimizing squared distance plus lambda times its
length, set ideal lengths -log2 of cluster occupancy, and move centroids
to conditional means. The variant swaps the length rule for a bit-wise
one: cluster indices are embedded as fixed-width binary words, a
marginal-entropy search picks a permutation of them, and a cluster's
length is the sum of -log2 marginal bit probabilities of its transformed
index (kept only when it beats the previous permutation, so each sweep
still descends). That length step is one batched NumPy pass per sweep:
the order search's map and the current map are scored side by side, and
no distribution or permutation object is built until the fit returns.

A sweep rebuilds only what its new centroids and lengths change:
- once per fit: the samples' lifted block for the assignment screen and
  each value's column for the centroid sums;
- once per kept index map (bit-wise variant): the map's bit tables, which
  index has each bit zero;
- once per sweep: the bias, the screen's cluster factor and rounding gap,
  the counts, the order search's candidate map and both maps' scores, the
  lengths, the centroid sums and the Lagrangian.

The pinned fit histories depend on three summation orders: each bit's
zero mass adds the cluster probabilities in index order, as a masked sum
does; each centroid's coordinate sums add its samples in sample order, as
``bincount`` does; and each sample's distortion adds its coordinates as
the row reduction ``np.sum(..., axis=1)`` does. Below 8 coordinates that
reduction adds a row left to right, so adding whole columns left to right
gives the same sums, one pass per column instead of one inner-loop call
per row; from 8 on NumPy keeps 8 partial sums per row, another order, so
the reduction itself runs there.

Fixed quantizers: the cubic integer lattice in any dimension, the
even-coordinate-sum lattice in four dimensions, and its eight-dimensional
two-coset extension, all truncated to a sphere of five source standard
deviations; samples landing outside are quantized to an admissible point
near the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .bounds import standard_redundancy
from .coding import _group
from .distributions import (
    JointDistribution,
    SymbolPermutation,
    binary_entropy,
    bit_zero_marginals,
    entropy_bits,
    next_bit_dimension,
    stable_argsort,
)
from .search import order_permutation

# Lattices are truncated to a sphere of this many source standard deviations.
SPHERE_STD = 5.0
# A fit stops once a sweep lowers its Lagrangian by less than this.
SWEEP_TOL = 1e-9
# Clusters whose indices the bit-wise variant embeds: 16-bit index words,
# the widest block the codecs code.
INDEX_MAX_CLUSTERS = 1 << 16
# Below this many coordinates NumPy's row reduction adds a row left to right,
# so adding whole columns left to right gives its sums bit for bit; from 8
# on it keeps 8 partial sums, another order. On 1000 six-dimensional rows
# the column adds take ~10 us against ~24 us for the row reduction, which
# saves 2.7 % of an ecvq-sweep round.
_COLUMN_SUM_MAX = 8


@dataclass(frozen=True, eq=False)
class QuantizerState:
    """Converged coder: centroids, sample assignment, per-cluster ideal
    codeword lengths (inf = retired), the final Lagrangian, and the
    Lagrangian after every full sweep."""

    centroids: np.ndarray
    assign: np.ndarray
    lengths: np.ndarray
    lagrangian: float
    mean_distortion: float
    mean_rate: float
    history: np.ndarray


def _fit_samples(samples, m_init: int, lam: float) -> np.ndarray:
    """The samples as a float (n, dim) array, once both fits' shared
    arguments check out: finite samples with dim >= 1, 1 <= m_init <= n and
    a finite lam >= 0."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("samples must be a non-empty (n, dim) array")
    if x.shape[1] < 1:
        raise ValueError("need dim >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if not 1 <= m_init <= x.shape[0]:
        raise ValueError("need between 1 initial cluster and one per sample")
    if not 0 <= lam < math.inf:  # False on NaN
        raise ValueError("lambda must be finite and non-negative")
    return x


def _sweep_eval(x, centroids, lengths, assign, lam):
    """Mean distortion, mean rate and Lagrangian of a sweep, equal bit for
    bit to ``np.mean(np.sum(diffs * diffs, axis=1))`` with ``diffs = x -
    centroids[assign]`` and to ``np.mean(lengths[assign])``: the same row
    sums and the same total divided by n, without the wrappers' per-call
    cost. Below _COLUMN_SUM_MAX coordinates each row is summed by adding
    whole columns left to right, the row reduction's own order there, in
    one pass per column instead of one inner-loop call per row."""
    n, dim = x.shape
    diffs = np.take(centroids, assign, axis=0)
    np.subtract(x, diffs, out=diffs)
    np.multiply(diffs, diffs, out=diffs)
    if dim < _COLUMN_SUM_MAX:
        rows = diffs[:, 0].copy()
        for j in range(1, dim):
            rows += diffs[:, j]
    else:
        rows = np.add.reduce(diffs, axis=1)
    dist = float(rows.sum()) / n
    rate = float(np.take(lengths, assign).sum()) / n
    return dist, rate, dist + lam * rate


def _lloyd(x: np.ndarray, m_init: int, lam: float, seed: int, max_sweeps: int,
           lengths: np.ndarray, length_step) -> QuantizerState:
    """The sweeps both fits share, from the initial per-cluster lengths:
    assign each sample to the cluster minimizing squared distance plus lam
    times its length, take new lengths from ``length_step(counts)`` (inf
    retires an empty cluster), move occupied centroids to their means; stop
    once a sweep lowers the Lagrangian by less than SWEEP_TOL. The samples
    are lifted for the assignment's screen, and their values' columns
    listed, once, before the first sweep; each sweep builds the bias and
    calls ``kernels.ecvq_assign`` once.

    All centroids' coordinate sums come from one ``bincount`` over the bins
    ``assign * dim + column``, which adds each bin's samples in sample order
    as ``x[assign == c].mean(axis=0)`` does for dim >= 2 (at dim = 1 that
    mean sums pairwise)."""
    if max_sweeps < 1:
        raise ValueError("need at least one sweep")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = x[rng.choice(x.shape[0], size=m_init, replace=False)].copy()
    dim = x.shape[1]
    columns = np.tile(np.arange(dim), x.shape[0])  # each value's column, sample by sample
    values = x.ravel()
    lifted = kernels.lift_samples(x)
    history = []
    prev = np.inf
    for _ in range(max_sweeps):
        bias = np.full(m_init, np.inf)  # a retired cluster stays inf (0 * inf is NaN)
        np.multiply(lam, lengths, out=bias, where=np.isfinite(lengths))
        assign = kernels.ecvq_assign(x, centroids, bias, lifted)
        counts = np.bincount(assign, minlength=m_init)
        lengths = length_step(counts)
        bins = np.repeat(assign * dim, dim)
        bins += columns
        sums = np.bincount(bins, weights=values, minlength=m_init * dim).reshape(m_init, dim)
        np.divide(sums, counts[:, None], out=centroids, where=counts[:, None] > 0)
        dist, rate, lag = _sweep_eval(x, centroids, lengths, assign, lam)
        history.append(lag)
        if prev - lag < SWEEP_TOL:
            break
        prev = lag
    return QuantizerState(centroids, assign, lengths, lag, dist, rate, np.array(history))


def ecvq_fit(samples, m_init: int, lam: float, seed: int = 0,
             max_sweeps: int = 200) -> QuantizerState:
    """Entropy-constrained VQ by alternating assignment / length / centroid
    steps; empty clusters are retired (their length would be infinite)."""
    x = _fit_samples(samples, m_init, lam)

    def ideal_lengths(counts):
        return np.where(counts > 0, -np.log2(np.maximum(counts, 1) / counts.sum()), np.inf)

    init = np.full(m_init, math.log2(m_init) if m_init > 1 else 1.0)
    return _lloyd(x, m_init, lam, seed, max_sweeps, init, ideal_lengths)


class _IndexMap(NamedTuple):
    """An index map ``map`` over 2^d indices with the bit tables
    ``_index_bit_lengths`` reads, built once per kept map by ``_index_map``:
    ``zero[j, i]`` is whether bit j of ``map[i]`` is zero, and row j of
    ``gather`` lists those i in index order."""

    map: np.ndarray
    zero: np.ndarray
    gather: np.ndarray


def _index_map(y: np.ndarray) -> _IndexMap:
    d = y.size.bit_length() - 1
    zero = (y >> np.arange(d)[:, None]) & 1 == 0
    return _IndexMap(y, zero, np.nonzero(zero)[1].reshape(d, -1))


def _index_bit_lengths(probs: np.ndarray, y: _IndexMap) -> np.ndarray:
    """Per-cluster length under bit-wise coding of the index transformed by
    the map ``y``: sum over bits of -log2 of the marginal probability of
    that bit value.

    Each bit's zero mass is gathered in index order and summed per row, the
    same elements in the same order as the masked sum ``probs[bit == 0]``
    the pinned fit histories were recorded with (``bit_zero_marginals``
    sums in another order); the bits' logs are added one bit at a time and
    subtracted from 0.0, so a zero length is +0.0."""
    zero_mass = probs[y.gather].sum(axis=1)[:, None]
    q = np.where(y.zero, zero_mass, 1.0 - zero_mass)
    return np.where(probs > 0, 0.0 - np.log2(np.maximum(q, 1e-300)).sum(axis=0), np.inf)


def _bica_length_step(counts: np.ndarray, y: _IndexMap) -> tuple[_IndexMap, np.ndarray]:
    """One sweep's length step of ``bica_ecvq_fit``: from the cluster counts
    and the current index map ``y`` (over 2^d >= counts.size indices),
    return the map kept and each cluster's length (inf when empty).

    The candidate is ``order_permutation``'s map of the occupancy padded
    to 2^d and normalized as ``JointDistribution`` does; it is kept when
    its sum of marginal bit entropies beats the current map's by more than
    1e-15. Both maps are scored in one pass, each summed as
    ``marginals(...).entropy_sum()`` sums it. The bit tables of a map are
    built once, when it is kept, and reused while it stays."""
    probs = np.zeros(y.map.size)
    probs[:counts.size] = counts / counts.sum()
    p = probs / float(probs.sum())
    cand = np.empty_like(y.map)
    cand[stable_argsort(p)] = np.arange(p.size)
    rows = np.empty((2, p.size))
    rows[0, cand] = p
    rows[1, y.map] = p
    pis = bit_zero_marginals(rows / rows.sum(axis=1, keepdims=True), y.zero.shape[0])
    cand_sum, cur_sum = binary_entropy(np.minimum(np.maximum(pis, 0.0), 1.0)).sum(axis=1)
    if cand_sum < cur_sum - 1e-15:
        y = _index_map(cand)
    return y, _index_bit_lengths(probs, y)[:counts.size]


def bica_ecvq_fit(samples, m_init: int, lam: float, seed: int = 0,
                  max_sweeps: int = 200) -> tuple[QuantizerState, SymbolPermutation]:
    """ECVQ with the length step replaced by bit-wise coding of transformed
    cluster indices, the transform found by the order search. The new
    permutation is kept only when it lowers the marginal-entropy objective
    on the current occupancy, so the Lagrangian still never increases."""
    x = _fit_samples(samples, m_init, lam)
    if m_init > INDEX_MAX_CLUSTERS:
        raise ValueError("cluster budget exceeds the index embedding cap")
    d_bits = next_bit_dimension(m_init)
    kept = _index_map(np.arange(1 << d_bits))

    def bit_lengths(counts):
        nonlocal kept
        kept, lengths = _bica_length_step(counts, kept)
        return lengths

    state = _lloyd(x, m_init, lam, seed, max_sweeps, np.full(m_init, float(d_bits)),
                   bit_lengths)
    return state, SymbolPermutation(d_bits, kept.map)


# ---------------------------------------------------------------------------
# Fixed lattice quantizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """A scaled classical lattice truncated to a sphere.

    kinds: 'cubic' (integer grid, any dimension), 'd4' (even coordinate
    sum, dimension 4), 'e8' (integer plus half-integer cosets of the
    even-sum lattice, dimension 8). The sphere has radius SPHERE_STD
    source standard deviations.
    """

    kind: str
    dim: int
    scale: float

    def __post_init__(self):
        if self.kind not in ("cubic", "d4", "e8"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "d4" and self.dim != 4:
            raise ValueError("d4 lattice requires dim=4")
        if self.kind == "e8" and self.dim != 8:
            raise ValueError("e8 lattice requires dim=8")
        if not 0 < self.scale < math.inf or self.dim < 1:
            raise ValueError("scale must be positive and finite, and dim >= 1")

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Nearest lattice point(s), ignoring the sphere truncation."""
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64)) / self.scale
        if self.kind == "cubic":
            q = np.rint(pts)
        elif self.kind == "d4":
            q = _nearest_even_sum(pts)
        else:
            a = _nearest_even_sum(pts)
            b = _nearest_even_sum(pts - 0.5) + 0.5
            da = np.sum((pts - a) ** 2, axis=1)
            db = np.sum((pts - b) ** 2, axis=1)
            q = np.where((da <= db)[:, None], a, b)
        q = q * self.scale
        return q if np.asarray(x).ndim == 2 else q[0]


def _nearest_even_sum(pts: np.ndarray) -> np.ndarray:
    """Nearest point with even coordinate sum: round everything, and when
    the sum comes out odd re-round the worst coordinate the other way."""
    f = np.rint(pts)
    odd = (f.sum(axis=1).astype(np.int64) & 1) == 1
    if np.any(odd):
        f = f.copy()
        rows = np.nonzero(odd)[0]
        err = pts[rows] - f[rows]
        worst = np.argmax(np.abs(err), axis=1)
        step = np.where(err[np.arange(rows.size), worst] >= 0, 1.0, -1.0)
        f[rows, worst] += step
    return f


@dataclass(frozen=True, eq=False)
class LatticeQuantization:
    indices: np.ndarray       # per-sample index into the occupied codebook
    codebook: np.ndarray      # occupied lattice points, (n_occ, dim)
    distortion: float         # mean total squared error per sample


def lattice_quantize(samples, lattice: Lattice) -> LatticeQuantization:
    """Quantize to the nearest admissible lattice point inside the sphere of
    SPHERE_STD source standard deviations; out-of-sphere samples shrink
    toward the origin until their quantization lands inside."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != lattice.dim:
        raise ValueError("samples must be (n, dim) matching the lattice")
    sigma = math.sqrt(float(np.mean(np.var(x, axis=0)))) if x.shape[0] > 1 else 1.0
    r = SPHERE_STD * sigma
    q = lattice.nearest(x)
    bad = np.nonzero(np.linalg.norm(q, axis=1) > r)[0]
    for i in bad:
        v = x[i]
        shrink = r / max(np.linalg.norm(v), 1e-300)
        for _ in range(64):
            cand = lattice.nearest(v * shrink)
            if np.linalg.norm(cand) <= r:
                q[i] = cand
                break
            shrink *= 0.9
        else:
            q[i] = np.zeros(lattice.dim)
    indices = _lattice_row_ranks(q, lattice.scale)
    codebook = np.empty((int(indices.max(initial=-1)) + 1, lattice.dim))
    codebook[indices] = q
    err = x - q
    total = float(np.mean(np.sum(err * err, axis=1)))
    return LatticeQuantization(indices, codebook, total)


def _lattice_row_ranks(q: np.ndarray, scale: float) -> np.ndarray:
    """Each row's index among the distinct rows of the lattice points ``q``
    in lexicographic order, the inverse of ``np.unique(q, axis=0,
    return_inverse=True)``, which sorts the rows as void keys (150-260 ms
    on 1e5 points of 3 to 8 dimensions). Every coordinate is an integer
    or half-integer multiple of ``scale``, so ``t = rint(q / scale * 2)``
    is exact, and ``-0.0`` meets ``0.0``. The offsets of each column from
    its least value pack into one int64 key per row, mixed radix with
    coordinate 0 the most significant, so ascending keys are the rows'
    order and ``coding._group`` ranks them (12-14 ms). Past 2^63 keys (at
    dim 8, a span of about 200 values per coordinate, below a scale of
    ~0.1 sigma) rows are ranked by ``np.lexsort`` of the integer columns
    instead, which has no width limit, and numbered by run (~90 ms)."""
    t = np.rint(q / scale * 2).astype(np.int64)
    lo = t.min(axis=0, initial=0)
    spans = (t.max(axis=0, initial=0) - lo + 1).tolist()
    if math.prod(spans) <= 1 << 63:
        key = np.zeros(t.shape[0], dtype=np.int64)
        for j, span in enumerate(spans):
            key *= span
            key += t[:, j] - lo[j]
        return _group(key, next_bit_dimension(math.prod(spans)))[1]
    order = np.lexsort(t.T[::-1])
    ranked = t[order]
    run = np.zeros(t.shape[0], dtype=np.int64)
    np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1), out=run[1:])
    indices = np.empty_like(run)
    indices[order] = run
    return indices


def gaussian_rd(dim: int, distortion: float) -> float:
    """Rate-distortion reference for the unit-variance Gaussian vector:
    max((dim/2) log2(dim/D), 0) bits, D = total squared error."""
    if distortion <= 0:
        raise ValueError("distortion must be positive")
    return max(0.5 * dim * math.log2(dim / distortion), 0.0)


@dataclass(frozen=True)
class RateReport:
    distortion: float
    bits_per_sample: float
    total_bits: float


def lattice_rate_report(samples, lattice: Lattice, coder: str = "joint") -> RateReport:
    """Universal-coding totals for the quantized indices.

    'joint': empirical entropy of the (compacted) indices plus the
    regime-matched whole-alphabet redundancy. 'bica-marginal': ordering
    transform on the index distribution, per-bit empirical marginal
    entropies plus the binary per-bit redundancy.
    """
    quant = lattice_quantize(samples, lattice)
    n = quant.indices.size
    m_occ = quant.codebook.shape[0]
    counts = np.bincount(quant.indices, minlength=m_occ)
    probs = counts / n
    if coder == "joint":
        rate = entropy_bits(probs)
        total = n * rate + standard_redundancy(max(m_occ, 2), n)
    elif coder == "bica-marginal":
        d_bits = next_bit_dimension(m_occ)
        dist = JointDistribution.from_probs(probs, d_bits)
        rate = order_permutation(dist).objective
        total = n * rate + d_bits * 0.5 * math.log2(n / 2)
    else:
        raise ValueError(f"unknown coder {coder!r}")
    return RateReport(quant.distortion, rate, total)
