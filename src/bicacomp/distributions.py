"""Finite distributions over binary-vector alphabets and their entropy functionals.

A source over an alphabet of size m = 2^d is held as a probability vector
indexed by symbol value, so that bit j of the index is the j-th binary
component of the symbol (bit 0 = least significant). Invertible transforms
of such a source are symbol permutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-12
_LOG2 = np.log(2.0)


def binary_entropy(q):
    """Entropy in bits of a Bernoulli(q) variable; accepts scalars or arrays.

    h(0) = h(1) = 0 by the 0*log(0) = 0 convention. Raises ValueError
    outside [0, 1].
    """
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    out = np.zeros_like(q)
    inner = (q > 0) & (q < 1)
    qi = q[inner]
    out[inner] = -(qi * np.log2(qi) + (1 - qi) * np.log2(1 - qi))
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


@dataclass(frozen=True)
class JointDistribution:
    """Probability vector over m = 2^d symbols with bit-indexed marginals.

    Construction normalizes exactly (divide by sum) after checking the
    input sums to 1 within 1e-12 and is non-negative. Use ``from_probs``
    to zero-pad a non-power-of-two support up to the next 2^d.
    """

    d: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if self.d < 1:
            raise ValueError("bit dimension d must be >= 1")
        if p.ndim != 1 or p.size != 1 << self.d:
            raise ValueError(f"need exactly 2^{self.d} probabilities, got {p.size}")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
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


@dataclass(frozen=True)
class SymbolPermutation:
    """Invertible symbol-to-symbol map; ``map[i]`` is where symbol i lands."""

    d: int
    map: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.ascontiguousarray(self.map, dtype=np.int64)
        m = 1 << self.d
        if g.shape != (m,):
            raise ValueError(f"map must have {m} entries")
        if np.any((g < 0) | (g >= m)):
            raise ValueError(f"map entries must lie in 0..{m - 1}")
        seen = np.zeros(m, dtype=bool)
        seen[g] = True
        if not seen.all():
            raise ValueError("map is not a bijection on 0..m-1")
        g.flags.writeable = False
        object.__setattr__(self, "map", g)

    @classmethod
    def identity(cls, d: int) -> "SymbolPermutation":
        return cls(d, np.arange(1 << d, dtype=np.int64))

    def inverse(self) -> "SymbolPermutation":
        inv = np.empty_like(self.map)
        inv[self.map] = np.arange(self.map.size, dtype=np.int64)
        return SymbolPermutation(self.d, inv)

    def compose(self, other: "SymbolPermutation") -> "SymbolPermutation":
        """Permutation applying ``self`` first, then ``other``."""
        if other.d != self.d:
            raise ValueError("bit dimensions differ")
        return SymbolPermutation(self.d, other.map[self.map])

    def apply(self, symbols: np.ndarray) -> np.ndarray:
        return self.map[np.asarray(symbols, dtype=np.int64)]

    def unapply(self, symbols: np.ndarray) -> np.ndarray:
        return self.inverse().apply(symbols)

    def transform(self, p: JointDistribution) -> JointDistribution:
        """Distribution of Y = g(X): mass of symbol i moves to map[i]."""
        if p.d != self.d:
            raise ValueError("bit dimensions differ")
        out = np.empty_like(p.probs)
        out[self.map] = p.probs
        return JointDistribution(self.d, out)


@dataclass(frozen=True)
class MarginalProfile:
    """Per-bit zero-probabilities: pis[j] = P(Y_j = 0), bit 0 = lsb."""

    pis: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.pis, dtype=np.float64)
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise ValueError("marginal probabilities must lie in [0, 1]")
        v = np.clip(v, 0.0, 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "pis", v)

    def entropy_sum(self) -> float:
        """Sum of marginal bit entropies in bits."""
        return float(np.sum(binary_entropy(self.pis)))


def bit_zero_marginals(probs: np.ndarray, d: int) -> np.ndarray:
    """P(bit j = 0) for j = 0..d-1 of a probability vector over 2^d symbols."""
    p = np.asarray(probs, dtype=np.float64)
    out = np.empty(d, dtype=np.float64)
    for j in range(d):
        out[j] = p.reshape(-1, 2, 1 << j)[:, 0, :].sum()
    return out


def zero_bit_matrix(d: int) -> np.ndarray:
    """A0[y, j] = 1.0 where bit j of symbol y is zero."""
    y = np.arange(1 << d, dtype=np.int64)
    return ((y[:, None] >> np.arange(d)[None, :]) & 1 == 0).astype(np.float64)


def joint_entropy(p: JointDistribution) -> float:
    """H(X) in bits."""
    return p.entropy()


def marginals(p: JointDistribution, g: SymbolPermutation) -> MarginalProfile:
    """Bit marginals of Y = g(X)."""
    if p.d != g.d:
        raise ValueError("bit dimensions differ")
    return MarginalProfile(bit_zero_marginals(g.transform(p).probs, p.d))


def total_correlation(p: JointDistribution, g: SymbolPermutation) -> float:
    """Sum of marginal bit entropies of g(X) minus H(X), in bits.

    Non-negative up to float round-off; zero iff the bits of g(X) are
    mutually independent.
    """
    return marginals(p, g).entropy_sum() - joint_entropy(p)


def parse_distribution_text(text: str) -> JointDistribution:
    """Parse the plain-text literal format: first line d, then
    "symbol_index probability" lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty distribution literal")
    d = int(lines[0])
    probs = np.zeros(1 << d, dtype=np.float64)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed distribution line: {ln!r}")
        idx, val = int(parts[0]), float(parts[1])
        if not 0 <= idx < probs.size:
            raise ValueError(f"symbol index {idx} out of range for d={d}")
        probs[idx] = val
    return JointDistribution(d, probs)


def format_distribution_text(p: JointDistribution) -> str:
    lines = [str(p.d)]
    for i, v in enumerate(p.probs):
        if v > 0:
            lines.append(f"{i} {float(v):.17g}")
    return "\n".join(lines) + "\n"
