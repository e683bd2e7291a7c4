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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bounds import pattern_dictionary_cost, standard_redundancy
from .coding import (
    BlockPartition,
    canonicalize,
    decode_block_streams,
    extract_block,
    huffman_build,
    insert_block,
    read_block_record,
    write_block_record,
)
from .distributions import JointDistribution, binary_entropy, bit_zero_marginals, entropy_bits
from .search import block_bica
from .sources import read_frequency_list, SourceSpec

UNIVERSAL_MAGIC = b"BAU1"
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


def invert_shuffle(shuffle: np.ndarray) -> np.ndarray:
    inv = np.empty_like(shuffle)
    inv[shuffle] = np.arange(shuffle.size)
    return inv


def _map_blocks(symbols: np.ndarray, maps, partition: BlockPartition) -> np.ndarray:
    """Replace the value v of block i in every symbol by maps[i][v]."""
    out = np.zeros_like(symbols)
    for gmap, positions in zip(maps, partition.groups()):
        insert_block(out, gmap[extract_block(symbols, positions)], positions)
    return out


def _block_stats(symbols: np.ndarray, partition: BlockPartition) -> tuple[float, float, list[np.ndarray]]:
    """(bound, block_sum, per-block count vectors) of the current state."""
    n = symbols.size
    bound = 0.0
    block_sum = 0.0
    counts_list = []
    for positions in partition.groups():
        counts = np.bincount(extract_block(symbols, positions), minlength=1 << positions.size)
        block_sum += entropy_bits(counts / n)
        bound += float(np.sum(binary_entropy(bit_zero_marginals(counts, positions.size) / n)))
        counts_list.append(counts)
    return bound, block_sum, counts_list


def descend(samples, d: int, b: int, method: str = "auto", max_iters: int = 30,
            seed: int = 0, init_shuffles: int = 32, tol: float = DESCENT_TOL,
            patience: int = 10, k: int = 8) -> DescentResult:
    """Run the shuffle-and-transform descent on d-bit samples.

    Iteration 0 is the naive search: the best bit arrangement by
    block-entropy sum among the identity and ``init_shuffles`` random
    shuffles, with no transforms (rank-structured inputs often already
    group well, so the trivial clustering is always a candidate). Later
    iterations shuffle once and apply the per-block search, keeping each
    block's transform only when it lowers that block's marginal-entropy
    sum; proposals that improve the bound by less than ``tol`` bits/symbol
    are discarded. Terminates at ``max_iters`` accepted iterations or once
    ``patience`` consecutive proposals fail to improve (the point where the
    bound can no longer be decreased, as far as random search can tell).
    """
    z = np.ascontiguousarray(samples, dtype=np.int64)
    if z.size == 0:
        raise ValueError("cannot descend on an empty sample")
    partition = BlockPartition.contiguous(d, b)
    if method == "auto":
        method = "piecewise" if b <= 10 else "order"
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # naive initialization: lowest block-entropy sum over candidate shuffles
    best = None
    candidates = [np.arange(d)] + [rng.permutation(d) for _ in range(max(init_shuffles, 0))]
    for sh in candidates:
        cand = apply_shuffle(z, sh)
        bound, bsum, _ = _block_stats(cand, partition)
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
        _, _, counts_list = _block_stats(cand, partition)
        new_bound = 0.0
        transforms = []
        for counts, size in zip(counts_list, partition.sizes):
            probs = counts / z.size
            # a bit that is zero in every symbol can sum to one ulp past 1
            pis = np.minimum(bit_zero_marginals(probs, size), 1.0)
            ident_obj = float(np.sum(binary_entropy(pis)))
            res = block_bica(JointDistribution(size, probs), method, k=k)
            if res.objective < ident_obj - 1e-15:
                transforms.append(res.g.map)
                new_bound += res.objective
            else:
                transforms.append(np.arange(probs.size, dtype=np.int64))
                new_bound += ident_obj
        if bound_prev - new_bound < tol:
            stall += 1
            continue
        stall = 0
        z = _map_blocks(cand, transforms, partition)
        _, bsum, _ = _block_stats(z, partition)
        steps.append(PipelineStep(len(steps), sh, tuple(transforms), new_bound, bsum))
        bound_prev = new_bound
    return DescentResult(d, int(z.size), partition, tuple(steps), z)


def replay(samples, result: DescentResult) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (bounds, block_sums) from the stored descriptors alone."""
    z = np.ascontiguousarray(samples, dtype=np.int64)
    bounds, bsums = [], []
    for step in result.steps:
        z = _map_blocks(apply_shuffle(z, step.shuffle), step.transforms, result.partition)
        bound, bsum, _ = _block_stats(z, result.partition)
        bounds.append(bound)
        bsums.append(bsum)
    return np.array(bounds), np.array(bsums)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

def block_cost(n: int, b: int, B: int, block_entropies) -> float:
    """Data plus per-block model redundancy:
    n * sum_v H_v + B * (2^b - 1)/2 * log2(n / 2^b)."""
    if n <= 0 or b <= 0 or B <= 0:
        raise ValueError("n, b and B must be positive")
    h = float(np.sum(block_entropies))
    return n * h + B * ((1 << b) - 1) / 2 * math.log2(n / (1 << b))


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


def baseline_costs(samples, m: int, n: int | None = None) -> Baselines:
    """Whole-alphabet reference totals: standard (empirical entropy plus the
    regime-matched minimax redundancy), pattern-plus-dictionary, and
    canonical prefix coding with its serialized codebook."""
    x = np.asarray(samples, dtype=np.int64)
    n = x.size if n is None else n
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


def ingest_frequency_list(path: str, d: int, seed: int = 0):
    """Frequency-list file to (distribution, tokens, sampler spec)."""
    dist, tokens = read_frequency_list(path, d)
    return dist, tokens, SourceSpec.frequency_list(path, d, seed)


# ---------------------------------------------------------------------------
# Lossless container with the full descent history
# ---------------------------------------------------------------------------

def compress(samples, result: DescentResult) -> bytes:
    """Serialize the descent history plus the entropy-coded final blocks so
    a decoder can decode the block streams and replay every transform and
    shuffle in reverse."""
    z = result.final_symbols
    sizes = result.partition.sizes
    out = bytearray()
    out += struct.pack("<4sBBBBQI", UNIVERSAL_MAGIC, 1, result.d, len(sizes), 0, z.size,
                       len(result.steps))
    out += np.asarray(sizes, dtype="<u1").tobytes()
    out += np.asarray(result.partition.assignment, dtype="<u1").tobytes()
    for step in result.steps:
        out += np.asarray(step.shuffle, dtype="<u1").tobytes()
        for gmap in step.transforms:
            out += np.asarray(gmap, dtype="<u2").tobytes()
    streams = [write_block_record(out, extract_block(z, positions), positions.size)
               for positions in result.partition.groups()]
    for bits in streams:
        out += np.packbits(bits).tobytes()
    return bytes(out)


def decompress(blob: bytes) -> np.ndarray:
    head = struct.calcsize("<4sBBBBQI")
    magic, ver, d, n_blocks, _, n, n_steps = struct.unpack_from("<4sBBBBQI", blob, 0)
    if magic != UNIVERSAL_MAGIC or ver != 1:
        raise ValueError("not a universal-pipeline container")
    at = head
    sizes = tuple(int(v) for v in np.frombuffer(blob, dtype="<u1", count=n_blocks, offset=at))
    at += n_blocks
    assignment = np.frombuffer(blob, dtype="<u1", count=d, offset=at).astype(np.int64)
    at += d
    partition = BlockPartition(assignment, sizes)
    steps = []
    for _ in range(n_steps):
        shuffle = np.frombuffer(blob, dtype="<u1", count=d, offset=at).astype(np.int64)
        at += d
        inverses = []
        for s in sizes:
            gmap = np.frombuffer(blob, dtype="<u2", count=1 << s, offset=at).astype(np.int64)
            at += 2 * (1 << s)
            inverses.append(invert_shuffle(gmap))
        steps.append((invert_shuffle(shuffle), inverses))
    records = []
    for s in sizes:
        counts, nbits, at = read_block_record(blob, at, s)
        records.append((counts, nbits))
    z = decode_block_streams(blob, at, records, partition, n)
    # replay the recorded history in reverse
    for unshuffle, inverses in reversed(steps):
        z = apply_shuffle(_map_blocks(z, inverses, partition), unshuffle)
    return z
