"""Deterministic random-stream derivation.

Every stochastic component draws from a counter-based Philox generator keyed
by (seed, *path), where path elements identify the consumer, e.g.
(replication, "chain", c).  Streams are independent of thread scheduling and
of each other, so concurrent work merges deterministically.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("stream path parts must be nonnegative")
        return int(part)
    if isinstance(part, str):
        # stable 32-bit hash of the label (FNV-1a)
        h = 2166136261
        for b in part.encode("utf-8"):
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h
    raise TypeError(f"unsupported stream path part: {part!r}")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the (seed, *path) stream; same arguments, same draws."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    key = tuple(_encode(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
