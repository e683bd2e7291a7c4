"""Universal block compression: shuffle bits, transform blocks, descend.

The scheme partitions the d bit positions into blocks, then repeatedly
(1) shuffles bit positions uniformly at random and (2) re-runs the
marginal-entropy search on each block, keeping a block's transform only
when it improves. Each iteration therefore lowers (never raises) the sum
of empirical marginal bit entropies, which upper-bounds the sum of
empirical block entropies; the final representation is entropy-coded
block-wise and the total size is charged for the data, the per-block
model redundancy, and the descriptions of every shuffle and transform the
decoder must replay.

Shuffles and block transforms are bijections on symbols, so the descent,
``replay``, ``compress`` and ``decompress`` apply them to the distinct
symbols only and count blocks with the symbols' multiplicities: after one
grouping of the sample (``coding._group``, which counts instead of sorting
when 2^d is not far above n), each proposal costs O(distinct symbols)
instead of O(n). Blocks are consecutive bits, so a block's counts take one
shift, one mask and one ``bincount``, and its per-bit zero counts one
product with ``zero_bit_matrix``; the shuffle candidates of iteration 0 are
ranked by their block sums alone, and only the winner's bound is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import pattern_dictionary_cost, standard_redundancy
from .coding import (
    BlockPartition,
    _group,
    _symbols,
    canonicalize,
    extract_block,
    huffman_build,
    map_blocks,
    read_container,
    write_container,
)
from .distributions import JointDistribution, binary_entropy, entropy_bits, zero_bit_matrix
from .search import block_bica

DESCENT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PipelineStep:
    """One recorded iteration: the bit shuffle applied, the per-block
    transform maps, and the objective values after applying them."""

    shuffle: np.ndarray
    transforms: tuple[np.ndarray, ...]
    bound: float       # sum of empirical marginal bit entropies, bits/symbol
    block_sum: float   # sum of empirical block entropies, bits/symbol


@dataclass(frozen=True, eq=False)
class DescentResult:
    """The descent's history: the coded symbols are the samples pushed
    through ``steps`` in order."""

    partition: BlockPartition
    steps: tuple[PipelineStep, ...]

    @property
    def d(self) -> int:
        return self.partition.d

    @property
    def bounds(self) -> np.ndarray:
        return np.array([s.bound for s in self.steps])

    @property
    def block_sums(self) -> np.ndarray:
        return np.array([s.block_sum for s in self.steps])


# A shuffle gathers all d bit positions as one block: bit j of the result
# is bit shuffle[j] of the input.
apply_shuffle = extract_block


def _block_counts(values: np.ndarray, weights: np.ndarray, partition: BlockPartition
                  ) -> list[np.ndarray]:
    """Per-block count vectors of the distinct symbols ``values`` occurring
    ``weights`` times each: a block is a run of consecutive bits, so one
    shift and one mask take it from every symbol. The counts are exact
    integers."""
    counts = []
    shift = 0
    for size in partition.sizes:
        block = (values >> shift) & ((1 << size) - 1)
        counts.append(np.bincount(block, weights=weights, minlength=1 << size).astype(np.int64))
        shift += size
    return counts


def _sum_in_order(values) -> float:
    """Left-to-right float sum, as the descent has always added its block
    terms (``sum()`` compensates its float sums from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _block_sum(counts: list[np.ndarray], n: int) -> float:
    """Sum of empirical block entropies, bits/symbol, of per-block counts
    over n samples."""
    return _sum_in_order(entropy_bits(c / n) for c in counts)


def _block_bounds(counts: list[np.ndarray], n: int) -> list[float]:
    """Each block's sum of empirical marginal bit entropies, bits/symbol.
    A block's per-bit zero counts are one product of its integer counts
    with ``zero_bit_matrix``: sums of exact integers below 2^53, so their
    order cannot matter."""
    return [float(np.sum(binary_entropy((c @ zero_bit_matrix(c.size.bit_length() - 1)) / n)))
            for c in counts]


def descend(samples, d: int, b: int, method: str = "auto", max_iters: int = 30,
            seed: int = 0, init_shuffles: int = 32, patience: int = 10) -> DescentResult:
    """Run the shuffle-and-transform descent on d-bit samples.

    Iteration 0 is the naive search: the best bit arrangement by
    block-entropy sum among the identity and ``init_shuffles`` random
    shuffles, with no transforms (rank-structured inputs often already
    group well, so the trivial clustering is always a candidate). Later
    iterations shuffle once and apply the per-block search, keeping each
    block's transform only when it lowers that block's marginal-entropy
    sum; proposals that improve the bound by less than DESCENT_TOL
    bits/symbol are discarded. ``method`` is ``block_bica``'s, 'order' or
    'auto', which is piecewise up to PIECEWISE_MAX_BITS bits, order above.
    Terminates at ``max_iters`` accepted iterations or once ``patience``
    consecutive proposals fail to improve (the point where the bound can
    no longer be decreased, as far as random search can tell). Raises
    ValueError on an empty sample, on max_iters < 0, on samples that are not
    1-D integers in 0..2^d-1, and on blocks ``BlockPartition`` rejects.
    """
    x = _symbols(samples, 1 << d)
    if x.size == 0:
        raise ValueError("cannot descend on an empty sample")
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")
    partition = BlockPartition.contiguous(d, b)
    z, _, weights = _group(x, d)
    n = x.size
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # naive initialization: lowest block-entropy sum over candidate shuffles;
    # only the winner's bound is needed
    best = None
    candidates = [np.arange(d)] + [rng.permutation(d) for _ in range(max(init_shuffles, 0))]
    for sh in candidates:
        cand = apply_shuffle(z, sh)
        counts = _block_counts(cand, weights, partition)
        bsum = _block_sum(counts, n)
        if best is None or bsum < best[0] - 1e-15:
            best = (bsum, counts, sh, cand)
    bsum0, counts0, sh0, z = best
    ident = tuple(np.arange(1 << s, dtype=np.int64) for s in partition.sizes)
    steps = [PipelineStep(sh0, ident, _sum_in_order(_block_bounds(counts0, n)), bsum0)]

    bound_prev = steps[0].bound
    stall = 0
    while len(steps) - 1 < max_iters and stall < patience:
        sh = rng.permutation(d)
        cand = apply_shuffle(z, sh)
        counts_list = _block_counts(cand, weights, partition)
        new_bound = 0.0
        transforms = []
        for counts, size, ident_obj in zip(counts_list, partition.sizes,
                                           _block_bounds(counts_list, n)):
            probs = counts / n
            res = block_bica(JointDistribution(size, probs), method)
            if res.objective < ident_obj - 1e-15:
                transforms.append(res.map)
                new_bound += res.objective
            else:
                transforms.append(np.arange(probs.size, dtype=np.int64))
                new_bound += ident_obj
        if bound_prev - new_bound < DESCENT_TOL:
            stall += 1
            continue
        stall = 0
        z = map_blocks(cand, transforms, partition)
        counts = _block_counts(z, weights, partition)
        bound_prev = _sum_in_order(_block_bounds(counts, n))
        steps.append(PipelineStep(sh, tuple(transforms), bound_prev, _block_sum(counts, n)))
    return DescentResult(partition, tuple(steps))


def _walk(samples, result: DescentResult):
    """Group the checked samples into distinct symbols and push those
    through every step in turn, holding one step's values at a time.
    Yields (values, inverse, weights) once before the steps and once after
    each: ``values[inverse]`` are the samples mapped by the steps so far,
    and ``weights`` counts each distinct symbol."""
    values, inverse, weights = _group(_symbols(samples, 1 << result.d), result.d)
    yield values, inverse, weights
    for step in result.steps:
        values = map_blocks(apply_shuffle(values, step.shuffle), step.transforms,
                            result.partition)
        yield values, inverse, weights


def replay(samples, result: DescentResult) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (bounds, block_sums) from the stored descriptors alone.
    Raises ValueError on samples that are not 1-D integers in 0..2^d-1."""
    walk = _walk(samples, result)
    next(walk)  # the samples before any step
    bounds, block_sums = [], []
    for values, inverse, weights in walk:
        counts = _block_counts(values, weights, result.partition)
        bounds.append(_sum_in_order(_block_bounds(counts, inverse.size)))
        block_sums.append(_block_sum(counts, inverse.size))
    return np.array(bounds), np.array(block_sums)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

def _block_redundancy(n: int, size: int) -> float:
    """Model redundancy of one block of 2^size values over n samples: the
    paper's ((2^size - 1)/2) log2(n / 2^size) while 8 * 2^size <= n;
    beyond, where that term shrinks and turns negative, the large-alphabet
    or linear regime that ``standard_redundancy`` picks."""
    m = 1 << size
    if 8 * m <= n:
        return (m - 1) / 2 * math.log2(n / m)
    return standard_redundancy(m, n)


def _partition_redundancy(n: int, sizes: tuple[int, ...]) -> float:
    return sum(_block_redundancy(n, s) for s in sizes)


def _transform_description_bits(sizes: tuple[int, ...]) -> float:
    return float(sum(s * (1 << s) for s in sizes))


@dataclass(frozen=True, eq=False)
class CostReport:
    iterations: np.ndarray
    bounds: np.ndarray
    block_sums: np.ndarray
    totals: np.ndarray
    best_iteration: int
    best_total: float
    baseline_standard: float
    baseline_pattern: float
    baseline_canonical: float


def total_cost_curve(result: DescentResult, n: int, baselines: "Baselines | None" = None) -> CostReport:
    """Total size at every recorded iteration I:
    n*block_sum(I) + sum_v (2^b_v - 1)/2 log2(n/2^b_v)
    + I * sum_v b_v 2^b_v + I * d log2(d), where a block with 8 * 2^b_v > n
    is charged ``standard_redundancy``'s large or linear regime instead
    (``_block_redundancy``)."""
    sizes = result.partition.sizes
    red = _partition_redundancy(n, sizes)
    tdesc = _transform_description_bits(sizes)
    sdesc = result.d * math.log2(result.d) if result.d > 1 else 0.0
    iters = np.arange(len(result.steps))
    totals = n * result.block_sums + red + iters * (tdesc + sdesc)
    best = int(np.argmin(totals))
    return CostReport(
        iterations=iters,
        bounds=result.bounds,
        block_sums=result.block_sums,
        totals=totals,
        best_iteration=int(iters[best]),
        best_total=float(totals[best]),
        baseline_standard=baselines.standard if baselines else float("nan"),
        baseline_pattern=baselines.pattern if baselines else float("nan"),
        baseline_canonical=baselines.canonical if baselines else float("nan"),
    )


@dataclass(frozen=True)
class Baselines:
    standard: float
    pattern: float
    canonical: float


def baseline_costs(samples, m: int) -> Baselines:
    """Whole-alphabet reference totals: standard (empirical entropy plus the
    regime-matched minimax redundancy), pattern-plus-dictionary, and
    canonical prefix coding with its serialized codebook."""
    x = _symbols(samples, m)
    n = x.size
    counts = np.bincount(x, minlength=m)
    probs = counts / counts.sum()
    h_emp = entropy_bits(probs)
    n0 = int(np.count_nonzero(counts))
    data = n * h_emp
    standard = data + standard_redundancy(m, n)
    pattern = pattern_dictionary_cost(n, n0, m, data)
    code = huffman_build(probs)
    canonical = n * code.average_length(probs) + canonicalize(code, m).serialized_bits
    return Baselines(standard, pattern, canonical)


# ---------------------------------------------------------------------------
# Lossless container with the full descent history
# ---------------------------------------------------------------------------

def compress(samples, result: DescentResult) -> bytes:
    """Serialize the descent history plus the entropy-coded samples pushed
    through it, so a decoder can decode the block streams and replay every
    transform and shuffle in reverse. Raises ValueError on samples that are
    not 1-D integers in 0..2^d-1."""
    for values, inverse, _ in _walk(samples, result):
        pass  # keep the last step's values
    steps = [(step.shuffle, step.transforms) for step in result.steps]
    return write_container(values[inverse], result.partition, steps=steps)[0]


def decompress(blob: bytes) -> np.ndarray:
    """Invert compress: decode the block streams and replay the history in reverse."""
    return read_container(blob)
