"""Search for invertible transforms minimizing the sum of marginal bit entropies.

Three routes with increasing cost/quality:

* ``order_permutation`` -- greedy: sort probabilities ascending onto
  ascending codewords. Linear-time, minimizes each bit's marginal entropy
  sequentially from the most significant bit down.
* ``piecewise_relaxation`` -- upper-bound the concave binary entropy with k
  tangent segments, enumerate placements of the d bit marginals into the k
  segments, and solve each placement as a linear assignment of sorted
  probabilities to sorted coefficients.
* ``brute_force_optimum`` -- exact minimum over all m! permutations, only
  for d <= 3; the oracle the other two are tested against.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    JointDistribution,
    SymbolPermutation,
    binary_entropy,
    bit_zero_marginals,
    zero_bit_matrix,
)

log = logging.getLogger(__name__)

REGION_TOL = 1e-12  # boundary points belong to both regions
DEFAULT_PIECES = 8
PIECEWISE_MAX_BITS = 10
BLOCK_MAX_BITS = 16


@dataclass(frozen=True)
class PiecewiseLinearEnvelope:
    """k tangent lines to h_b at midpoints of equal subintervals of [0, 1/2],
    mirrored onto (1/2, 1] by the symmetry of h_b. Tangency plus concavity
    makes every segment an upper bound."""

    k: int
    slopes: np.ndarray
    intercepts: np.ndarray

    def segment_of(self, q: float) -> int:
        qf = min(q, 1.0 - q)
        return min(int(qf * 2 * self.k), self.k - 1)

    def value(self, q):
        q = np.asarray(q, dtype=np.float64)
        qf = np.minimum(q, 1.0 - q)
        seg = np.minimum((qf * 2 * self.k).astype(np.int64), self.k - 1)
        out = self.slopes[seg] * qf + self.intercepts[seg]
        return float(out) if out.ndim == 0 else out

    def region_bounds(self, seg: int) -> tuple[float, float]:
        return seg / (2 * self.k), (seg + 1) / (2 * self.k)


@dataclass(frozen=True)
class SearchResult:
    g: SymbolPermutation
    objective: float  # sum of marginal bit entropies, bits
    method: str
    fallback: bool = field(default=False)


def build_envelope(k: int) -> PiecewiseLinearEnvelope:
    if k < 1:
        raise ValueError("need at least one linear piece")
    mids = (2 * np.arange(k) + 1) / (4 * k)
    slopes = np.log2((1 - mids) / mids)
    intercepts = binary_entropy(mids) - slopes * mids
    return PiecewiseLinearEnvelope(k, slopes, intercepts)


def _objective(p: JointDistribution, g: SymbolPermutation) -> float:
    pis = bit_zero_marginals(g.transform(p).probs, p.d)
    return float(np.sum(binary_entropy(pis)))


def order_permutation(p: JointDistribution) -> SearchResult:
    """Map the i-th smallest probability to codeword i-1 (ties stable by
    original symbol index)."""
    order = np.argsort(p.probs, kind="stable")
    gmap = np.empty(p.m, dtype=np.int64)
    gmap[order] = np.arange(p.m, dtype=np.int64)
    g = SymbolPermutation(p.d, gmap)
    return SearchResult(g, _objective(p, g), "order")


def solve_linear_allocation(p: JointDistribution, coeffs: np.ndarray) -> SymbolPermutation:
    """Minimize sum_y c_y * P(Y=y) over permutations: pair probabilities
    sorted descending with coefficients sorted ascending (both stable by
    symbol index)."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape != (p.m,):
        raise ValueError(f"need {p.m} coefficients, got {c.shape}")
    src = np.argsort(-p.probs, kind="stable")
    dest = np.argsort(c, kind="stable")
    gmap = np.empty(p.m, dtype=np.int64)
    gmap[src] = dest
    return SymbolPermutation(p.d, gmap)


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


def piecewise_relaxation(p: JointDistribution, k: int = DEFAULT_PIECES) -> SearchResult:
    """Enumerate all C(d+k-1, d) placements of the d marginals into the k
    envelope segments; solve each as an unconstrained linear allocation,
    keep placements whose realized marginals fall inside their assigned
    segments, and return the feasible candidate with the smallest true
    objective."""
    if k < 1:
        raise ValueError("need at least one linear piece")
    env = build_envelope(k)
    d, m = p.d, p.m
    a0 = zero_bit_matrix(d)
    p_desc_idx = np.argsort(-p.probs, kind="stable")
    p_desc = p.probs[p_desc_idx]

    best_obj = np.inf
    best_map = None
    for regs in itertools.combinations_with_replacement(range(k), d):
        slopes = env.slopes[list(regs)]
        coeffs = a0 @ slopes
        dest = np.argsort(coeffs, kind="stable")
        # realized zero-marginals of the allocation: p_desc lands on dest
        pis = p_desc @ a0[dest]
        dest_f, pis_f = _fold_marginals(dest, pis, d)
        lo = np.array([r / (2 * k) for r in regs])
        hi = np.array([(r + 1) / (2 * k) for r in regs])
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
        # matching any feasible permutation is itself feasible
        log.warning("piecewise relaxation found no region-feasible candidate "
                    "(d=%d, k=%d); falling back to order permutation", d, k)
        res = order_permutation(p)
        return SearchResult(res.g, res.objective, f"piecewise({k})", fallback=True)
    return SearchResult(SymbolPermutation(d, best_map), best_obj, f"piecewise({k})")


def brute_force_optimum(p: JointDistribution) -> SearchResult:
    """Exact minimum over all m! permutations; refuses d > 3."""
    if p.d > 3:
        raise ValueError("brute force limited to d <= 3 (m! permutations)")
    d, m = p.d, p.m
    a0 = zero_bit_matrix(d)
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    arranged = p.probs[perms]          # arranged[n, y] = P_Y(y) under perm n
    pis = arranged @ a0                # (n_perms, d)
    objs = np.sum(binary_entropy(pis), axis=1)
    n_best = int(np.argmin(objs))
    gmap = np.empty(m, dtype=np.int64)
    gmap[perms[n_best]] = np.arange(m, dtype=np.int64)
    return SearchResult(SymbolPermutation(d, gmap), float(objs[n_best]), "brute")


def block_bica(p_block: JointDistribution, method: str = "order",
               k: int = DEFAULT_PIECES, max_bits: int = BLOCK_MAX_BITS) -> SearchResult:
    """Run a marginal-entropy search on a block treated as a standalone
    b-bit vector. Piecewise search over blocks wider than
    PIECEWISE_MAX_BITS falls back to ordering with a warning."""
    b = p_block.d
    if b > max_bits:
        raise ValueError(f"block dimension {b} exceeds maximum {max_bits}")
    if method == "order":
        return order_permutation(p_block)
    if method.startswith("piecewise"):
        if b > PIECEWISE_MAX_BITS:
            log.warning("piecewise search infeasible at b=%d; using order permutation", b)
            res = order_permutation(p_block)
            return SearchResult(res.g, res.objective, res.method, fallback=True)
        return piecewise_relaxation(p_block, k)
    raise ValueError(f"unknown search method {method!r}")
