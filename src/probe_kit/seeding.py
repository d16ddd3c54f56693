"""Deterministic seed derivation for fan-out into independent RNG streams.

Each (seed, path...) pair maps to a fixed 128-bit value via SHA-256, so a
stream depends only on its path, never on execution order or worker count.
The Monte Carlo harness spawns one stream per 512-trial chunk,
(seed, "chunk", index), whose trials draw from it in order.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, *path) -> int:
    """Derive a child seed from a master seed and an arbitrary path."""
    h = hashlib.sha256(repr((int(seed),) + tuple(path)).encode())
    return int.from_bytes(h.digest()[:16], "big")


def spawn_rng(seed: int, *path) -> random.Random:
    """A random.Random whose stream depends only on (seed, *path)."""
    return random.Random(derive_seed(seed, *path))
