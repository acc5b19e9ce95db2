"""Deterministic random streams built on the Philox counter-based generator.

Every source of randomness in the package is a Philox4x64 stream keyed by
the pair (seed, mix64(*ids)).  Streams are therefore reproducible across
platforms and independent of execution order, which is what makes
permutation loops and Monte Carlo replications safe to parallelize.

The key is not the exact 128-bit pair.  numpy converts the pair to an array
before keying Philox, and when either half is >= 2**63 that array is
float64, so both halves are rounded to 53 significant bits.  About half of
all keys are rounded this way, and distinct seeds can share a stream (seeds
9807252377232042866 and 9807252377232042867 do).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Domain tags keep unrelated stream families apart even when their numeric
# ids collide (e.g. permutation index 3 vs. merge-stage 3).
TAG_PERMUTATION = 0x5045524D  # "PERM"
TAG_SEGMENT = 0x53454745  # "SEGE"
TAG_PAIRTEST = 0x50414952  # "PAIR"
TAG_SIMULATE = 0x53494D55  # "SIMU"
TAG_DATA = 0x44415441  # "DATA"
TAG_ALGO = 0x414C474F  # "ALGO"


def mix64(*values: int) -> int:
    """Fold integers into one 64-bit id with the splitmix64 finalizer."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        acc = (acc + (int(v) & _MASK64)) & _MASK64
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Generator keyed by (seed, ids); see the module docstring on rounding."""
    key = (int(seed) & _MASK64, mix64(*ids) if ids else 0)
    return np.random.Generator(np.random.Philox(key=key))


def permutation_stream(seed: int, index: int) -> np.random.Generator:
    """Stream for the index-th permutation of a permutation test."""
    return stream(seed, TAG_PERMUTATION, index)


def derive_seed(seed: int, *ids: int) -> int:
    """New 64-bit seed for a child scope (segment, replication, ...)."""
    return mix64(int(seed) & _MASK64, *ids)
