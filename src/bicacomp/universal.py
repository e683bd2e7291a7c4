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
``replay`` and ``decompress`` apply them to the distinct symbols only and
count blocks with the symbols' multiplicities: after one sort of the
sample, each proposal costs O(distinct symbols) instead of O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import pattern_dictionary_cost, standard_redundancy
from .coding import (
    BlockPartition,
    canonicalize,
    container_header,
    decode_block_streams,
    extract_block,
    huffman_build,
    insert_block,
    open_container,
    pack_map,
    read_block_record,
    read_map,
    seal_container,
    write_block_record,
)
from .distributions import (
    JointDistribution,
    binary_entropy,
    bit_zero_marginals,
    entropy_bits,
    inverse_permutation,
)
from .search import PIECEWISE_MAX_BITS, block_bica

UNIVERSAL_MAGIC = b"BAU2"
DESCENT_TOL = 1e-6


@dataclass(frozen=True)
class PipelineStep:
    """One recorded iteration: the bit shuffle applied, the per-block
    transform maps, and the objective values after applying them."""

    iteration: int
    shuffle: np.ndarray
    transforms: tuple[np.ndarray, ...]
    bound: float       # sum of empirical marginal bit entropies, bits/symbol
    block_sum: float   # sum of empirical block entropies, bits/symbol


@dataclass(frozen=True)
class DescentResult:
    d: int
    n: int
    partition: BlockPartition
    steps: tuple[PipelineStep, ...]
    final_symbols: np.ndarray

    @property
    def bounds(self) -> np.ndarray:
        return np.array([s.bound for s in self.steps])

    @property
    def block_sums(self) -> np.ndarray:
        return np.array([s.block_sum for s in self.steps])


# A shuffle gathers all d bit positions as one block: bit j of the result
# is bit shuffle[j] of the input.
apply_shuffle = extract_block


def _map_blocks(symbols: np.ndarray, maps, partition: BlockPartition) -> np.ndarray:
    """Replace the value v of block i in every symbol by maps[i][v]."""
    out = np.zeros_like(symbols)
    for gmap, positions in zip(maps, partition.groups()):
        insert_block(out, gmap[extract_block(symbols, positions)], positions)
    return out


def _block_stats(values: np.ndarray, weights: np.ndarray, partition: BlockPartition
                 ) -> tuple[float, float, list[np.ndarray], list[float]]:
    """(bound, block_sum, per-block count vectors, per-block bounds) of the
    distinct symbols ``values`` occurring ``weights`` times each; the counts
    are exact integers and every bound is summed from them."""
    n = int(weights.sum())
    bound = 0.0
    block_sum = 0.0
    counts_list = []
    block_bounds = []
    for positions in partition.groups():
        counts = np.bincount(extract_block(values, positions), weights=weights,
                             minlength=1 << positions.size).astype(np.int64)
        block_sum += entropy_bits(counts / n)
        block_bound = float(np.sum(binary_entropy(bit_zero_marginals(counts, positions.size) / n)))
        bound += block_bound
        block_bounds.append(block_bound)
        counts_list.append(counts)
    return bound, block_sum, counts_list, block_bounds


def descend(samples, d: int, b: int, method: str = "auto", max_iters: int = 30,
            seed: int = 0, init_shuffles: int = 32, patience: int = 10,
            k: int = 8) -> DescentResult:
    """Run the shuffle-and-transform descent on d-bit samples.

    Iteration 0 is the naive search: the best bit arrangement by
    block-entropy sum among the identity and ``init_shuffles`` random
    shuffles, with no transforms (rank-structured inputs often already
    group well, so the trivial clustering is always a candidate). Later
    iterations shuffle once and apply the per-block search, keeping each
    block's transform only when it lowers that block's marginal-entropy
    sum; proposals that improve the bound by less than DESCENT_TOL
    bits/symbol are discarded. Terminates at ``max_iters`` accepted
    iterations or once ``patience`` consecutive proposals fail to improve
    (the point where the bound can no longer be decreased, as far as random
    search can tell). Raises ValueError on a symbol outside 0..2^d-1.
    """
    x = np.ascontiguousarray(samples, dtype=np.int64)
    if x.size == 0:
        raise ValueError("cannot descend on an empty sample")
    z, inverse, weights = np.unique(x, return_inverse=True, return_counts=True)
    if z[0] < 0 or z[-1] >= 1 << d:
        raise ValueError("symbol outside alphabet")
    partition = BlockPartition.contiguous(d, b)
    if method == "auto":
        method = "piecewise" if b <= PIECEWISE_MAX_BITS else "order"
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # naive initialization: lowest block-entropy sum over candidate shuffles
    best = None
    candidates = [np.arange(d)] + [rng.permutation(d) for _ in range(max(init_shuffles, 0))]
    for sh in candidates:
        cand = apply_shuffle(z, sh)
        bound, bsum, _, _ = _block_stats(cand, weights, partition)
        if best is None or bsum < best[0] - 1e-15:
            best = (bsum, bound, sh, cand)
    bsum0, bound0, sh0, z = best
    ident = tuple(np.arange(1 << s, dtype=np.int64) for s in partition.sizes)
    steps = [PipelineStep(0, sh0, ident, bound0, bsum0)]

    bound_prev = bound0
    stall = 0
    while len(steps) - 1 < max_iters and stall < patience:
        sh = rng.permutation(d)
        cand = apply_shuffle(z, sh)
        _, _, counts_list, ident_bounds = _block_stats(cand, weights, partition)
        new_bound = 0.0
        transforms = []
        for counts, size, ident_obj in zip(counts_list, partition.sizes, ident_bounds):
            probs = counts / x.size
            res = block_bica(JointDistribution(size, probs), method, k=k)
            if res.objective < ident_obj - 1e-15:
                transforms.append(res.g.map)
                new_bound += res.objective
            else:
                transforms.append(np.arange(probs.size, dtype=np.int64))
                new_bound += ident_obj
        if bound_prev - new_bound < DESCENT_TOL:
            stall += 1
            continue
        stall = 0
        z = _map_blocks(cand, transforms, partition)
        bound_prev, bsum, _, _ = _block_stats(z, weights, partition)
        steps.append(PipelineStep(len(steps), sh, tuple(transforms), bound_prev, bsum))
    return DescentResult(d, int(x.size), partition, tuple(steps), z[inverse])


def _apply_step(symbols: np.ndarray, step: PipelineStep, partition: BlockPartition) -> np.ndarray:
    """Shuffle the bits of ``symbols``, then map every block, as ``step`` did."""
    return _map_blocks(apply_shuffle(symbols, step.shuffle), step.transforms, partition)


def replay(samples, result: DescentResult) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (bounds, block_sums) from the stored descriptors alone."""
    z, weights = np.unique(np.asarray(samples, dtype=np.int64), return_counts=True)
    bounds, bsums = [], []
    for step in result.steps:
        z = _apply_step(z, step, result.partition)
        bound, bsum, _, _ = _block_stats(z, weights, result.partition)
        bounds.append(bound)
        bsums.append(bsum)
    return np.array(bounds), np.array(bsums)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

def _partition_redundancy(n: int, sizes: tuple[int, ...]) -> float:
    return sum(((1 << s) - 1) / 2 * math.log2(n / (1 << s)) for s in sizes)


def _transform_description_bits(sizes: tuple[int, ...]) -> float:
    return float(sum(s * (1 << s) for s in sizes))


@dataclass(frozen=True)
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
    + I * sum_v b_v 2^b_v + I * d log2(d)."""
    sizes = result.partition.sizes
    red = _partition_redundancy(n, sizes)
    tdesc = _transform_description_bits(sizes)
    sdesc = result.d * math.log2(result.d) if result.d > 1 else 0.0
    iters = np.array([s.iteration for s in result.steps])
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
    empirical_entropy: float
    unique_symbols: int


def baseline_costs(samples, m: int) -> Baselines:
    """Whole-alphabet reference totals: standard (empirical entropy plus the
    regime-matched minimax redundancy), pattern-plus-dictionary, and
    canonical prefix coding with its serialized codebook."""
    x = np.asarray(samples, dtype=np.int64)
    n = x.size
    counts = np.bincount(x, minlength=m)
    probs = counts / counts.sum()
    h_emp = entropy_bits(probs)
    n0 = int(np.count_nonzero(counts))
    data = n * h_emp
    standard = data + standard_redundancy(m, n)
    pattern = pattern_dictionary_cost(n, n0, m, data)
    book = canonicalize(huffman_build(probs), m)
    avg_len = book.code().average_length(probs)
    canonical = n * avg_len + book.serialized_bits
    return Baselines(standard, pattern, canonical, h_emp, n0)


# ---------------------------------------------------------------------------
# Lossless container with the full descent history
# ---------------------------------------------------------------------------

def compress(samples, result: DescentResult) -> bytes:
    """Serialize the descent history plus the entropy-coded final blocks so
    a decoder can decode the block streams and replay every transform and
    shuffle in reverse. Raises ValueError unless the recorded steps take
    ``samples`` to ``result.final_symbols``."""
    z = result.final_symbols
    values, inverse = np.unique(np.asarray(samples, dtype=np.int64), return_inverse=True)
    # the steps read only the low d bits, so a symbol outside the alphabet
    # would map like the symbol it aliases
    in_alphabet = values.size == 0 or (values[0] >= 0 and values[-1] < 1 << result.d)
    for step in result.steps:
        values = _apply_step(values, step, result.partition)
    if not (in_alphabet and np.array_equal(values[inverse], z)):
        raise ValueError("samples do not match the descent result")
    sizes = result.partition.sizes
    out = container_header(UNIVERSAL_MAGIC, result.d, len(sizes), z.size, len(result.steps))
    out += np.asarray(sizes, dtype="<u1").tobytes()
    out += np.asarray(result.partition.assignment, dtype="<u1").tobytes()
    for step in result.steps:
        out += np.asarray(step.shuffle, dtype="<u1").tobytes()
        for gmap, s in zip(step.transforms, sizes):
            out += pack_map(gmap, s)
    streams = [write_block_record(out, extract_block(z, positions), positions.size)
               for positions in result.partition.groups()]
    for data, _ in streams:
        out += data
    return seal_container(out)


def decompress(blob: bytes) -> np.ndarray:
    d, n_blocks, n, n_steps, body, at = open_container(blob, UNIVERSAL_MAGIC)
    sizes = tuple(int(v) for v in np.frombuffer(body, dtype="<u1", count=n_blocks, offset=at))
    at += n_blocks
    assignment = np.frombuffer(body, dtype="<u1", count=d, offset=at).astype(np.int64)
    at += d
    partition = BlockPartition(assignment, sizes)
    steps = []
    for _ in range(n_steps):
        shuffle = np.frombuffer(body, dtype="<u1", count=d, offset=at).astype(np.int64)
        at += d
        inverses = []
        for s in sizes:
            gmap, at = read_map(body, at, s)
            inverses.append(inverse_permutation(gmap))
        steps.append((inverse_permutation(shuffle), inverses))
    records = []
    for s in sizes:
        counts, nbits, at = read_block_record(body, at, s)
        records.append((counts, nbits))
    z, inverse = np.unique(decode_block_streams(body, at, records, partition, n),
                           return_inverse=True)
    # replay the recorded history in reverse, on the distinct symbols
    for unshuffle, inverses in reversed(steps):
        z = apply_shuffle(_map_blocks(z, inverses, partition), unshuffle)
    return z[inverse]
