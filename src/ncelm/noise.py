"""Noise distributions over the vocabulary with O(1) alias-method sampling.

These serve both as the contrastive noise for NCE training and as the
proposal distribution for importance sampling. Sampling uses the
Walker/Vose alias construction: each of V table slots holds a keep
probability and an alias id, so a draw is one uniform slot pick plus one
biased coin flip regardless of V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class NoiseDistribution:
    probs: np.ndarray
    log_probs: np.ndarray
    alias_prob: np.ndarray
    alias_id: np.ndarray

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @property
    def has_full_support(self) -> bool:
        return bool(np.all(self.probs > 0.0))


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose construction of the alias table.

    Slots with scaled mass below 1 take an alias from slots above 1;
    donors shed exactly the shortfall at each pairing, keeping total
    mass exact up to rounding.
    """
    v = probs.shape[0]
    scaled = probs * v
    alias_prob = np.ones(v, dtype=np.float64)
    alias_id = np.arange(v, dtype=np.int64)
    small = list(np.flatnonzero(scaled < 1.0)[::-1])
    large = list(np.flatnonzero(scaled >= 1.0)[::-1])
    while small and large:
        s = small.pop()
        l = large.pop()
        alias_prob[s] = scaled[s]
        alias_id[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    # Leftovers in either list hold mass 1 up to rounding; keep them as-is.
    return alias_prob, alias_id


def _finalize(probs: np.ndarray) -> NoiseDistribution:
    probs = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    alias_prob, alias_id = _build_alias(probs)
    return NoiseDistribution(
        probs=probs, log_probs=log_probs, alias_prob=alias_prob, alias_id=alias_id,
    )


def from_counts(counts, smoothing: float = 1.0) -> NoiseDistribution:
    """Unigram distribution proportional to counts + smoothing.

    The default add-one smoothing guarantees full support, which NCE
    needs to avoid zero-probability lookups for rare words.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if smoothing < 0:
        raise ConfigError(f"smoothing must be >= 0, got {smoothing}")
    if np.any(counts < 0):
        raise ConfigError("counts must be non-negative")
    total = counts.sum() + smoothing * counts.shape[0]
    if total <= 0:
        raise ConfigError("all-zero counts with zero smoothing")
    return _finalize((counts + smoothing) / total)


def uniform(v: int) -> NoiseDistribution:
    """Uniform distribution over V word ids."""
    if v < 1:
        raise ConfigError(f"V must be >= 1, got {v}")
    return _finalize(np.full(v, 1.0 / v))


def sample(dist: NoiseDistribution, rng: np.random.Generator, size=None):
    """Draw word ids with probability dist.probs, O(1) per draw.

    With size=None returns a single int; otherwise an int64 array of the
    given shape. Deterministic for a fixed generator state.
    """
    slots = rng.integers(0, dist.size, size=size)
    u = rng.random(size=size)
    out = np.where(u < dist.alias_prob[slots], slots, dist.alias_id[slots])
    if size is None:
        return int(out)
    return out


def reconstructed_probs(dist: NoiseDistribution) -> np.ndarray:
    """Recover the distribution implied by the alias table.

    Each id's mass is its own slot's keep probability plus the mass
    aliased to it from other slots, normalized by the slot count. Used
    to verify the construction reproduces the input exactly.
    """
    v = dist.size
    mass = dist.alias_prob.copy()
    np.add.at(mass, dist.alias_id, 1.0 - dist.alias_prob)
    return mass / v
