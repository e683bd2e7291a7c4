"""Finite distributions over binary-vector alphabets and their entropy functionals.

A source over an alphabet of size m = 2^d is held as a probability vector
indexed by symbol value, so that bit j of the index is the j-th binary
component of the symbol (bit 0 = least significant). Invertible transforms
of such a source are symbol permutations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-12


def binary_entropy(q):
    """Entropy in bits of a Bernoulli(q) variable; accepts scalars or arrays.

    h(0) = h(1) = 0 by the 0*log(0) = 0 convention. Raises ValueError
    outside [0, 1] and on NaN.

    One pass over the whole array: the 0 * -inf = NaN that the formula
    gives at 0 and 1 is replaced by 0, and every other element is the
    value the formula gives on that element alone.
    """
    q = np.asarray(q, dtype=np.float64)
    if not ((q >= 0) & (q <= 1)).all():  # False on NaN
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    r = 1 - q
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log2(q)
        t *= q
        u = np.log2(r)
        u *= r
        t += u
    out = np.where((q > 0) & (q < 1), -t, 0.0)
    return float(out) if out.ndim == 0 else out


def entropy_bits(probs: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector (0*log 0 = 0)."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def next_bit_dimension(size: int) -> int:
    """Smallest d with 2^d >= size."""
    if size < 1:
        raise ValueError("alphabet size must be positive")
    return max(1, int(size - 1).bit_length())


def inverse_permutation(perm) -> np.ndarray:
    """Inverse of a permutation of 0..size-1; raises ValueError on anything else."""
    p = np.asarray(perm, dtype=np.int64)
    inv = np.full(p.size, -1, dtype=np.int64)
    if p.ndim == 1 and np.all((p >= 0) & (p < p.size)):
        inv[p] = np.arange(p.size)
    if np.any(inv < 0):
        raise ValueError(f"not a permutation of 0..{p.size - 1}")
    return inv


# Rows of up to this many keys ``stable_argsort`` hands to NumPy's own
# stable argsort: under 2 % of any benchmark round, but a fresh process's
# (6, 8) and (8, 8) rank tables take 3.6 and 61 ms, not 21 and 188 ms.
STABLE_SORT_MAX_PLAIN = 1 << 10


def stable_argsort(keys) -> np.ndarray:
    """``np.argsort(keys, axis=-1, kind="stable")`` of NaN-free keys, each
    row along the last axis ordered on its own, at the speed of the SIMD
    sorts: NumPy runs a stable sort of floats as timsort, 6-9 ms on 2^16
    keys, and an unstable argsort in ~1 ms, against 0.6-0.7 ms here.

    Rows of up to STABLE_SORT_MAX_PLAIN keys are sorted by that timsort,
    every row in one call, because there it is as fast or faster: 2 us
    against 12-18 us at 64 keys, and 13-19 us against 15-48 us at 1024, the
    slow case being keys one ulp apart, which leave the packed sort (best of
    9 x 1000 on a 2-core x86-64 machine with AVX-512, NumPy 2.4). Longer
    rows are sorted one at a time, each by one ``sort`` of packed int64
    keys: each key's float64 bits made to order as the floats do (``-0.0``
    folded into ``0.0``, a negative's magnitude bits flipped), with the low
    b bits replaced by the key's index (2^b >= the key count). Equal keys
    share every bit, so they come out in index order; when the keys
    gathered in that order do not decrease, it is the stable order. Keys
    that differ only below bit b can come out reversed, and then
    ``_stable_argsort_by_runs`` orders them exactly. A NaN has no place in
    either order, so the caller keeps them out."""
    keys = np.asarray(keys)
    n = keys.shape[-1] if keys.ndim else keys.size
    if n <= STABLE_SORT_MAX_PLAIN:
        return np.argsort(keys, axis=-1, kind="stable")
    if keys.ndim > 1:
        out = np.empty(keys.shape, dtype=np.intp)
        for row, dest in zip(keys.reshape(-1, n), out.reshape(-1, n)):
            dest[...] = stable_argsort(row)
        return out
    b = max(n - 1, 0).bit_length()
    bits = np.add(keys, 0.0, dtype=np.float64).view(np.int64)  # -0.0 + 0.0 is 0.0
    packed = bits >> 63  # all ones on a negative: flip its magnitude bits
    packed &= (1 << 63) - 1
    packed ^= bits
    packed &= -1 << b
    packed |= np.arange(n)
    packed.sort()
    packed &= (1 << b) - 1
    ranked = keys[packed]
    if (ranked[1:] >= ranked[:-1]).all():
        return packed
    return _stable_argsort_by_runs(keys)


def _stable_argsort_by_runs(keys: np.ndarray) -> np.ndarray:
    """``stable_argsort`` of keys that its packed sort put out of order: one
    unstable argsort sorts the keys, the runs of equal keys in that order
    are numbered, and sorting ``run << b | index`` (which fits an int64 up
    to 2^31 keys) orders each run by index."""
    n = keys.size
    order = np.argsort(keys)
    ranked = keys[order]
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=run[1:])
    b = max(n - 1, 0).bit_length()
    run <<= b
    run |= order
    run.sort()
    run &= (1 << b) - 1
    return run


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability vector over m = 2^d symbols with bit-indexed marginals.

    Construction normalizes exactly (divide by sum) after checking the
    input sums to 1 within 1e-12 and is non-negative, with no NaN. Use
    ``from_probs`` to zero-pad a non-power-of-two support up to the next 2^d.
    """

    d: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if self.d < 1:
            raise ValueError("bit dimension d must be >= 1")
        if p.ndim != 1 or p.size != 1 << self.d:
            raise ValueError(f"need exactly 2^{self.d} probabilities, got {p.size}")
        if not np.all(p >= 0):  # False on NaN, which p < 0 and the sum test let through
            raise ValueError("probabilities must be non-negative, not NaN")
        total = float(p.sum())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1 within {_NORM_TOL}")
        p = p / total
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_probs(cls, probs, d: int | None = None) -> "JointDistribution":
        """Build from any probability vector, zero-padding to 2^d symbols."""
        p = np.asarray(probs, dtype=np.float64)
        dim = next_bit_dimension(p.size) if d is None else d
        m = 1 << dim
        if p.size > m:
            raise ValueError(f"{p.size} symbols do not fit in {dim} bits")
        padded = np.zeros(m, dtype=np.float64)
        padded[: p.size] = p
        return cls(dim, padded)

    @property
    def m(self) -> int:
        return 1 << self.d

    def entropy(self) -> float:
        return entropy_bits(self.probs)


@dataclass(frozen=True, eq=False)
class SymbolPermutation:
    """Invertible symbol-to-symbol map; ``map[i]`` is where symbol i lands.
    Construction proves the map a bijection (``inverse_permutation``), and
    every permutation is built through it: the searches return bare maps,
    and ``SearchResult.g`` builds theirs here."""

    d: int
    map: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.ascontiguousarray(self.map, dtype=np.int64)
        m = 1 << self.d
        if g.shape != (m,):
            raise ValueError(f"map must have {m} entries")
        inverse_permutation(g)
        g.flags.writeable = False
        object.__setattr__(self, "map", g)

    @classmethod
    def identity(cls, d: int) -> "SymbolPermutation":
        return cls(d, np.arange(1 << d, dtype=np.int64))

    def apply(self, symbols: np.ndarray) -> np.ndarray:
        return self.map[np.asarray(symbols, dtype=np.int64)]

    def transform(self, p: JointDistribution) -> JointDistribution:
        """Distribution of Y = g(X): mass of symbol i moves to map[i]."""
        if p.d != self.d:
            raise ValueError("bit dimensions differ")
        out = np.empty_like(p.probs)
        out[self.map] = p.probs
        return JointDistribution(self.d, out)


@dataclass(frozen=True, eq=False)
class MarginalProfile:
    """Per-bit zero-probabilities: pis[j] = P(Y_j = 0), bit 0 = lsb."""

    pis: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.pis, dtype=np.float64)
        if not np.all((v >= -1e-12) & (v <= 1 + 1e-12)):  # False on NaN
            raise ValueError("marginal probabilities must lie in [0, 1]")
        # np.clip's wrapper costs more than the two ufuncs on d-entry arrays
        v = np.minimum(np.maximum(v, 0.0), 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "pis", v)

    def entropy_sum(self) -> float:
        """Sum of marginal bit entropies in bits."""
        return float(np.sum(binary_entropy(self.pis)))


def bit_zero_marginals(probs: np.ndarray, d: int) -> np.ndarray:
    """P(bit j = 0) for j = 0..d-1 of probability vectors over 2^d symbols:
    shape (..., 2^d) -> (..., d), one row per leading index."""
    p = np.asarray(probs, dtype=np.float64)
    lead = p.shape[:-1]
    out = np.empty(lead + (d,), dtype=np.float64)
    for j in range(d):
        out[..., j] = p.reshape(lead + (-1, 2, 1 << j))[..., 0, :].sum(axis=(-2, -1))
    return out


@functools.lru_cache(maxsize=8)
def zero_bit_matrix(d: int) -> np.ndarray:
    """A0[y, j] = 1.0 where bit j of symbol y is zero; read-only, built once
    per d for every caller."""
    y = np.arange(1 << d, dtype=np.int64)
    a0 = ((y[:, None] >> np.arange(d)[None, :]) & 1 == 0).astype(np.float64)
    a0.flags.writeable = False
    return a0


def joint_entropy(p: JointDistribution) -> float:
    """H(X) in bits."""
    return p.entropy()


def marginals(p: JointDistribution, g: SymbolPermutation) -> MarginalProfile:
    """Bit marginals of Y = g(X), from ``g.transform(p).probs`` without
    building and re-checking that distribution."""
    if p.d != g.d:
        raise ValueError("bit dimensions differ")
    out = np.empty_like(p.probs)
    out[g.map] = p.probs
    return _placed_marginals(out, p.d)


def _placed_marginals(placed: np.ndarray, d: int) -> MarginalProfile:
    """Bit marginals of Y from ``placed[y]``, the probability g moves onto
    y, re-normalized as ``g.transform`` normalizes: the one formula behind
    ``marginals`` and ``order_permutation``'s objective."""
    return MarginalProfile(bit_zero_marginals(placed / float(placed.sum()), d))


def total_correlation(p: JointDistribution, g: SymbolPermutation) -> float:
    """Sum of marginal bit entropies of g(X) minus H(X), in bits.

    Non-negative up to float round-off; zero iff the bits of g(X) are
    mutually independent.
    """
    return marginals(p, g).entropy_sum() - joint_entropy(p)
