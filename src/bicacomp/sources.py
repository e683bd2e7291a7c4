"""Samplers and dataset plumbing shared by the experiments.

All randomness flows from one 64-bit root seed: every sampler builds its
generator from ``np.random.SeedSequence(seed)``, and anything needing
multiple independent streams spawns children from that sequence, so every
experiment replays from a single integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import JointDistribution


def zipf_distribution(m: int, s: float) -> JointDistribution:
    """Zipf law over ranks 1..m: P(k) = k^-s / sum_l l^-s, zero-padded to
    the next power-of-two alphabet."""
    if m < 1 or s <= 0:
        raise ValueError("need m >= 1 and s > 0")
    k = np.arange(1, m + 1, dtype=np.float64)
    w = k ** (-s)
    return JointDistribution.from_probs(w / w.sum())


@dataclass(frozen=True, eq=False)
class AliasSampler:
    """Walker alias table: O(m) build, O(1) per draw."""

    accept: np.ndarray = field(repr=False)
    alias: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, probs: np.ndarray) -> "AliasSampler":
        p = np.asarray(probs, dtype=np.float64)
        m = p.size
        scaled = p * m / p.sum()
        accept = np.ones(m, dtype=np.float64)
        alias = np.arange(m, dtype=np.int64)
        small = [i for i in range(m) if scaled[i] < 1.0]
        large = [i for i in range(m) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            lo = small.pop()
            hi = large.pop()
            accept[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            (small if scaled[hi] < 1.0 else large).append(hi)
        for i in small + large:
            accept[i] = 1.0
        return cls(accept, alias)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        m = self.accept.size
        cell = rng.integers(0, m, size=n)
        keep = rng.random(n) < self.accept[cell]
        return np.where(keep, cell, self.alias[cell]).astype(np.int64)


@dataclass(frozen=True)
class SourceSpec:
    """A named sampling recipe plus its seed.

    kinds: 'zipf' (m, s), 'gaussian-mixture' (dim), 'frequency-list'
    (path, d).
    """

    kind: str
    seed: int
    m: int = 0
    s: float = 0.0
    dim: int = 0
    path: str = ""
    d: int = 0

    @classmethod
    def zipf(cls, m: int, s: float, seed: int) -> "SourceSpec":
        if m < 1 or s <= 0:
            raise ValueError("need m >= 1 and s > 0")
        return cls("zipf", seed, m=m, s=s)

    @classmethod
    def gaussian_mixture(cls, dim: int, seed: int) -> "SourceSpec":
        if dim < 1:
            raise ValueError("need dim >= 1")
        return cls("gaussian-mixture", seed, dim=dim)

    @classmethod
    def frequency_list(cls, path: str, d: int, seed: int) -> "SourceSpec":
        return cls("frequency-list", seed, path=path, d=d)

    def distribution(self) -> JointDistribution:
        if self.kind == "zipf":
            return zipf_distribution(self.m, self.s)
        if self.kind == "frequency-list":
            dist, _ = read_frequency_list(self.path, self.d)
            return dist
        raise ValueError(f"{self.kind} has no fixed distribution")


def sample(spec: SourceSpec, n: int) -> np.ndarray:
    """n i.i.d. draws from the given source recipe; symbol arrays for
    discrete kinds, an (n, dim) float array for gaussian mixtures."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.kind in ("zipf", "frequency-list"):
        dist = spec.distribution()
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return AliasSampler.build(dist.probs).draw(rng, n)
    if spec.kind == "gaussian-mixture":
        return gaussian_mixture_sample(spec.dim, n, rng)
    raise ValueError(f"unknown source kind {spec.kind!r}")


def gaussian_mixture_sample(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Equal-weight mixture of two unit-covariance Gaussians with means at
    +-(1,...,1)."""
    if n == 0:
        return np.empty((0, dim))
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return signs[:, None] * np.ones(dim) + rng.standard_normal((n, dim))


# ---------------------------------------------------------------------------
# Frequency lists ("token count" per line)
# ---------------------------------------------------------------------------

def read_frequency_list(path: str, d: int) -> tuple[JointDistribution, list[str]]:
    """Read a word-frequency list and keep the 2^d most frequent tokens
    (ties broken by count descending, then token ascending). Returns the
    normalized distribution (rank order, zero-padded) and the kept tokens."""
    entries: list[tuple[str, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'token count', got {line!r}")
            try:
                count = float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad count {parts[1]!r}") from exc
            if count < 0:
                raise ValueError(f"{path}:{lineno}: negative count")
            entries.append((parts[0], count))
    if not entries:
        raise ValueError(f"{path}: empty frequency list")
    entries.sort(key=lambda tc: (-tc[1], tc[0]))
    entries = entries[: 1 << d]
    counts = np.array([c for _, c in entries], dtype=np.float64)
    probs = np.zeros(1 << d, dtype=np.float64)
    probs[: counts.size] = counts / counts.sum()
    return JointDistribution(d, probs), [t for t, _ in entries]
