"""Search for invertible transforms minimizing the sum of marginal bit entropies.

Each search returns a ``SearchResult``: a bare read-only int64 map, proven
a bijection only where ``SearchResult.g`` asks for a ``SymbolPermutation``.

Three routes with increasing cost/quality:

* ``order_permutation`` -- greedy: sort probabilities ascending onto
  ascending codewords. Linear-time, minimizes each bit's marginal entropy
  sequentially from the most significant bit down.
* ``piecewise_relaxation`` -- upper-bound the concave binary entropy with k
  tangent segments (``block_bica`` uses k = DEFAULT_PIECES = 8), enumerate
  placements of the d bit marginals into the k segments, and solve each
  placement as a linear assignment of sorted probabilities to sorted
  coefficients. The allocation orders do not depend on the distribution
  and are cached per (d, k) as a read-only rank table: one row per
  distinct order, its inverse permutation, so that gathering the sorted
  probabilities through it lays out every placement's probabilities over
  the codewords. Placements share orders (1083 distinct of 1716 at (6, 8);
  6362 of 6435 at (8, 8) and 19189 of 19448 at (10, 8)); each placement
  keeps an index into the table. The table holds distinct orders x 2^d
  entries (69 KB at (6, 8), 39 MB at (10, 8)), at most C(d+k-1, d) x 2^d:
  ``PIECEWISE_MAX_ENTRIES`` caps that count at the (10, 8) size, the
  widest ``block_bica`` searches. The placements' segment edges are
  cached per (d, k) beside it, and the zero-bit table per d
  (``zero_bit_matrix``). All placements are screened by one gather,
  one matmul and one pass of region checks; entropies are taken only for
  the placements that pass, and only those within the screen's error of
  the best are evaluated exactly. At (6, 8) a search takes about 0.37 ms
  in a traced ``universal-zipf`` round, of which the gather is about 0.1 ms.
* ``brute_force_optimum`` -- exact minimum over all m! permutations, only
  for d <= 3; the oracle the other two are tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    JointDistribution,
    SymbolPermutation,
    _placed_marginals,
    binary_entropy,
    stable_argsort,
    zero_bit_matrix,
)

REGION_TOL = 1e-12  # boundary points belong to both regions
DEFAULT_PIECES = 8
PIECEWISE_MAX_BITS = 10
# Bound on the error of a screened marginal or objective. The screen sums
# in another order than the exact evaluation; at d = 10 the round-off is
# under 3e-13 per marginal and 1e-10 per objective.
SCREEN_TOL = 1e-9
# Orders x symbols gathered at once by the piecewise screen (8 bytes each).
SCREEN_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class PiecewiseLinearEnvelope:
    """k tangent lines to h_b at midpoints of equal subintervals of [0, 1/2],
    mirrored onto (1/2, 1] by the symmetry of h_b. Tangency plus concavity
    makes every segment an upper bound."""

    k: int
    slopes: np.ndarray
    intercepts: np.ndarray

    def value(self, q):
        q = np.asarray(q, dtype=np.float64)
        qf = np.minimum(q, 1.0 - q)
        seg = np.minimum((qf * 2 * self.k).astype(np.int64), self.k - 1)
        out = self.slopes[seg] * qf + self.intercepts[seg]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A search's read-only int64 map (symbol i lands on ``map[i]``)."""

    map: np.ndarray
    objective: float  # sum of marginal bit entropies, bits
    fallback: bool = field(default=False)

    def __post_init__(self):
        self.map.flags.writeable = False

    @property
    def g(self) -> SymbolPermutation:
        """The map as a ``SymbolPermutation``, which proves it a bijection."""
        return SymbolPermutation(self.map.size.bit_length() - 1, self.map)


def build_envelope(k: int) -> PiecewiseLinearEnvelope:
    if k < 1:
        raise ValueError("need at least one linear piece")
    mids = (2 * np.arange(k) + 1) / (4 * k)
    slopes = np.log2((1 - mids) / mids)
    intercepts = binary_entropy(mids) - slopes * mids
    return PiecewiseLinearEnvelope(k, slopes, intercepts)


def order_permutation(p: JointDistribution) -> SearchResult:
    """Map the i-th smallest probability to codeword i-1 (ties stable by
    original symbol index). The order is ``stable_argsort``'s, an exact
    stable order from SIMD sorts; construction keeps NaN out of the
    probabilities, which is its precondition. The map inverts that order;
    it is proven a bijection only when ``SearchResult.g`` is asked for.
    Codeword i carries the i-th smallest probability, so the objective
    scores the probabilities gathered in that order, which
    ``marginals(p, g)`` would scatter through the map."""
    order = stable_argsort(p.probs)
    gmap = np.empty(p.m, dtype=np.int64)
    gmap[order] = np.arange(p.m, dtype=np.int64)
    return SearchResult(gmap, _placed_marginals(p.probs[order], p.d).entropy_sum())


def _fold_marginals(dest: np.ndarray, pis: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR-flip output bits whose zero-marginal exceeds 1/2; the objective is
    unchanged and every folded marginal lands in [0, 1/2]."""
    mask = 0
    for j in range(d):
        if pis[j] > 0.5:
            mask |= 1 << j
    if mask:
        dest = dest ^ mask
        pis = np.where((mask >> np.arange(d)) & 1 == 1, 1.0 - pis, pis)
    return dest, pis


def _table_entries(d: int, k: int) -> int:
    """Placements x symbols at (d, k), C(d+k-1, d) x 2^d: a bound on the
    entries of the (d, k) rank table."""
    return math.comb(d + k - 1, d) << d


# Placements x symbols at (10, 8), 19,914,752: the largest rank table.
PIECEWISE_MAX_ENTRIES = _table_entries(PIECEWISE_MAX_BITS, DEFAULT_PIECES)


# Placements x symbols whose coefficients and orders are built at once (8
# bytes each): 256 placements at (6, 8), 16 at (10, 8). One pass over every
# placement would hold 300 MB of them at (10, 8); at this size the set-up's
# peak RSS is no higher than when each placement was built on its own.
PLACEMENT_CHUNK_CELLS = 1 << 14


@functools.lru_cache(maxsize=8)
def _placements(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(regions, ranks, order_of) of every placement of d marginals into k
    segments, in enumeration order. ``regions[i]`` holds placement i's
    segment of each bit. Its allocation order, the stable argsort of its
    coefficients ``a0 @ slopes``, is row ``order_of[i]`` of ``ranks``,
    stored inverted: ``ranks[r, y]`` is the position in descending
    probability order whose probability lands on codeword y. The orders
    are built in chunks of PLACEMENT_CHUNK_CELLS coefficients: one stacked
    ``matmul`` of a0 with each placement's slopes as a column, which runs
    the same matrix-vector product per placement as ``a0 @ slopes`` of one
    placement, so every coefficient, and so every tie, is that product's
    (a matrix-matrix product sums in another order and moves ties); one
    ``stable_argsort`` of the chunk's rows; and one ``put_along_axis`` that
    inverts them. Each order is stored once, in first-seen order, however
    many placements share it. All three tables
    are unsigned integers of the smallest width that holds them, and
    read-only; ``ranks`` is (distinct orders) x 2^d, 1083 x 64 bytes at
    (6, 8) and 19189 x 1024 x 2 bytes at (10, 8)."""
    slopes = build_envelope(k).slopes
    a0 = zero_bit_matrix(d)
    m = 1 << d
    rank_type = np.min_scalar_type(m - 1)
    regions = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(k), d)),
        dtype=np.min_scalar_type(k - 1)).reshape(-1, d)
    row_of: dict[bytes, int] = {}  # a distinct order's ranks -> its row
    order_of = []
    rows = max(1, PLACEMENT_CHUNK_CELLS // m)
    positions = np.arange(m, dtype=rank_type)
    for start in range(0, len(regions), rows):
        coeffs = np.matmul(a0, slopes[regions[start:start + rows]][:, :, None])[:, :, 0]
        rank = np.empty(coeffs.shape, dtype=rank_type)
        np.put_along_axis(rank, stable_argsort(coeffs), positions, axis=1)
        order_of.extend(row_of.setdefault(r.tobytes(), len(row_of)) for r in rank)
    tables = (regions,
              np.frombuffer(b"".join(row_of), dtype=rank_type).reshape(len(row_of), m),
              np.array(order_of, dtype=np.min_scalar_type(len(row_of) - 1)))
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _screen_edges(d: int, k: int) -> tuple[np.ndarray, ...]:
    """(lower, upper, inner lower, inner upper) at (d, k), each d x
    placements: the segment edges of every placement's marginals, widened
    by REGION_TOL + SCREEN_TOL, then narrowed by SCREEN_TOL at inner edges
    only (-inf and +inf at the outer edges 0 and 1/2, which a folded
    marginal cannot cross); one row per bit, so the checks reduce over
    rows. All depend on (d, k) alone, so they are built once, next to
    ``_placements``, and are read-only: 82 KB each at (6, 8), 1.6 MB each
    at (10, 8)."""
    regions = _placements(d, k)[0].T
    lo = regions / (2 * k)
    hi = (regions + 1.0) / (2 * k)
    slack = REGION_TOL + SCREEN_TOL
    tables = (lo - slack, hi + slack,
              np.where(regions == 0, -np.inf, lo + SCREEN_TOL),
              np.where(regions == k - 1, np.inf, hi - SCREEN_TOL))
    tables = tuple(np.ascontiguousarray(t) for t in tables)
    for t in tables:
        t.flags.writeable = False
    return tables


def _screen(p_desc: np.ndarray, d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feasible, objs, strict) at (d, k): the placements, ascending, whose
    realized marginals miss their segments by at most REGION_TOL +
    SCREEN_TOL; their approximate objectives; and which of them lie inside
    their inner segment edges by at least SCREEN_TOL, so are certainly
    feasible. The marginals are computed once per distinct order, by
    gathering ``p_desc`` through the rank table and one matmul with a0, in
    chunks of SCREEN_CHUNK_CELLS gathered cells (a matmul, not
    ``bit_zero_marginals``: 0.03 ms against 0.5 ms on the 1083 gathered
    rows at (6, 8)); it sums in another order than the exact evaluation,
    so its marginals differ from the exact ones by far less than
    SCREEN_TOL. Each chunk of ranks is widened to intp before the gather,
    which through uint8 indices took 0.18 ms at (6, 8) against 0.07 ms for
    the cast and the gather together. The region checks are made per
    placement against ``_screen_edges``; entropies only for the few
    placements that pass (a median of 3 of 1716 per ``universal-zipf``
    block)."""
    _, ranks, order_of = _placements(d, k)
    lower, upper, inner_lower, inner_upper = _screen_edges(d, k)
    a0 = zero_bit_matrix(d)
    n_orders, m = ranks.shape
    pis = np.empty((n_orders, d))
    rows = max(1, SCREEN_CHUNK_CELLS // m)
    for start in range(0, n_orders, rows):
        cells = ranks[start:start + rows].astype(np.intp)
        pis[start:start + rows] = np.take(p_desc, cells) @ a0
    pis = np.minimum(pis, 1 - pis)
    placed = np.take(pis.T, order_of, axis=1)  # bit x placement
    feasible = np.flatnonzero(np.all((placed >= lower) & (placed <= upper), axis=0))
    objs = np.sum(binary_entropy(np.clip(pis[order_of[feasible]], 0.0, 0.5)), axis=1)
    placed = placed[:, feasible]
    strict = np.all((placed >= inner_lower[:, feasible])
                    & (placed <= inner_upper[:, feasible]), axis=0)
    return feasible, objs, strict


def piecewise_relaxation(p: JointDistribution, k: int = DEFAULT_PIECES) -> SearchResult:
    """Enumerate all C(d+k-1, d) placements of the d marginals into the k
    envelope segments; solve each as an unconstrained linear allocation,
    keep placements whose realized marginals fall inside their assigned
    segments, and return the feasible candidate with the smallest true
    objective.

    All placements are screened at once (``_screen``); only those whose
    screened objective is within 2 * SCREEN_TOL of the best certainly
    feasible one are evaluated exactly, in enumeration order, with the
    same first-best rule as a full scan. Every other placement is worse
    than the exact optimum by more than the screen's error, so it could
    never win the full scan, and the result is the full scan's.

    Raises ValueError when (d, k) has more than PIECEWISE_MAX_ENTRIES
    placements x symbols."""
    if k < 1:
        raise ValueError("need at least one linear piece")
    d, m = p.d, p.m
    if _table_entries(d, k) > PIECEWISE_MAX_ENTRIES:
        raise ValueError(f"piecewise search at d={d}, k={k} needs {_table_entries(d, k)} "
                         f"order-table entries, above {PIECEWISE_MAX_ENTRIES}")
    p_desc_idx = stable_argsort(-p.probs)
    p_desc = p.probs[p_desc_idx]
    feasible, objs, strict = _screen(p_desc, d, k)
    regions, ranks, order_of = _placements(d, k)
    a0 = zero_bit_matrix(d)
    limit = np.min(objs[strict], initial=np.inf) + 2 * SCREEN_TOL

    best_obj = np.inf
    best_map = None
    for i in feasible[objs <= limit]:
        dest = np.argsort(ranks[order_of[i]])  # the order: the inverse of its ranks
        # realized zero-marginals of the allocation: p_desc lands on dest;
        # a matmul, not bit_zero_marginals: the objective must equal the
        # plain full scan's to the bit
        pis = p_desc @ a0[dest]
        dest_f, pis_f = _fold_marginals(dest, pis, d)
        lo = regions[i] / (2 * k)
        hi = (regions[i] + 1.0) / (2 * k)
        if np.any(pis_f < lo - REGION_TOL) or np.any(pis_f > hi + REGION_TOL):
            continue
        obj = float(np.sum(binary_entropy(pis_f)))
        if obj < best_obj - 1e-15:
            best_obj = obj
            gmap = np.empty(m, dtype=np.int64)
            gmap[p_desc_idx] = dest_f
            best_map = gmap

    if best_map is None:
        # cannot occur for tangent envelopes, but guarded: the placement
        # matching any feasible permutation is itself feasible; logging is
        # imported only here, since no other program path needs it
        import logging

        logging.getLogger(__name__).warning("piecewise relaxation found no region-feasible candidate "
                    "(d=%d, k=%d); falling back to order permutation", d, k)
        res = order_permutation(p)
        return SearchResult(res.map, res.objective, fallback=True)
    return SearchResult(best_map, best_obj)


@functools.lru_cache(maxsize=3)
def _all_permutations(m: int) -> np.ndarray:
    """Every permutation of 0..m-1 as a read-only (m!, m) table."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    perms.flags.writeable = False
    return perms


def brute_force_optimum(p: JointDistribution) -> SearchResult:
    """Exact minimum over all m! permutations; refuses d > 3."""
    if p.d > 3:
        raise ValueError("brute force limited to d <= 3 (m! permutations)")
    d, m = p.d, p.m
    a0 = zero_bit_matrix(d)
    perms = _all_permutations(m)
    arranged = p.probs[perms]          # arranged[n, y] = P_Y(y) under perm n
    # clipped as MarginalProfile does: a sum can land 1 ulp above 1
    pis = np.clip(arranged @ a0, 0.0, 1.0)  # (n_perms, d)
    objs = np.sum(binary_entropy(pis), axis=1)
    n_best = int(np.argmin(objs))
    gmap = np.empty(m, dtype=np.int64)
    gmap[perms[n_best]] = np.arange(m, dtype=np.int64)
    return SearchResult(gmap, float(objs[n_best]))


def block_bica(p_block: JointDistribution, method: str = "order") -> SearchResult:
    """Run a marginal-entropy search on a block treated as a standalone
    vector: 'order', or 'auto', which is the piecewise relaxation at k =
    DEFAULT_PIECES up to PIECEWISE_MAX_BITS bits and order above."""
    if method not in ("auto", "order"):
        raise ValueError(f"unknown search method {method!r}")
    if method == "auto" and p_block.d <= PIECEWISE_MAX_BITS:
        return piecewise_relaxation(p_block, DEFAULT_PIECES)
    return order_permutation(p_block)
