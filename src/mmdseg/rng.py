"""Deterministic random streams built on the Philox counter-based generator.

Every source of randomness in the package is a Philox4x64 stream keyed by
the pair (seed, mix64(*ids)).  Streams are therefore reproducible across
platforms and independent of execution order, which is what makes
permutation loops and Monte Carlo replications safe to parallelize.

Seeds must lie in [0, 2**64); `check_seed` rejects anything else rather
than let the key's 64-bit mask alias it onto another seed.

The key is not always the exact 128-bit pair.  `_key` converts the pair as
numpy's Philox(key=) does, through np.asarray((seed, id)).  That array is
int64, and exact, when both halves are below 2**63; uint64, and exact, when
both are >= 2**63; and float64 when exactly one half is >= 2**63, and only
then are both halves rounded to 53 significant bits.  About half of all
keys are rounded this way, and distinct seeds can share draws: seeds
9807252377232042866 and 9807252377232042867 share every draw whose id is
below 2**63 (100 of a permutation test's first 199) and differ in the rest.
A seed in [2**64 - 1024, 2**64) with an id below 2**63 rounds to 2**64
itself, which does not fit the key, so numpy warns on the cast.

A permutation test's draws are all made in `permutation_chunks`, on one
Philox whose key is reset for each draw to the `_key` that
`permutation_stream` builds; every draw is the one
`permutation_stream(seed, r)` gives.  Each draw has its own key, so draw r
does not depend on how many draws are made or in which chunk it falls: a
test that stops after L draws has made the first L draws of the full run.
The test's keys come from _key applied to the seed once per side of 2**63
and to each draw id once (cached per R), so a top seed's cast warns once
per test.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

_MASK64 = (1 << 64) - 1

# Domain tags keep unrelated stream families apart even when their numeric
# ids collide (e.g. permutation index 3 vs. merge-stage 3).
TAG_PERMUTATION = 0x5045524D  # "PERM"
TAG_SEGMENT = 0x53454745  # "SEGE"
TAG_PAIRTEST = 0x50414952  # "PAIR"
TAG_SIMULATE = 0x53494D55  # "SIMU"
TAG_DATA = 0x44415441  # "DATA"
TAG_ALGO = 0x414C474F  # "ALGO"


def check_seed(seed: int) -> None:
    """Raise ConfigurationError unless seed is an integer in [0, 2**64)."""
    if not 0 <= int(seed) <= _MASK64:
        raise ConfigurationError(f"seed must lie in [0, 2**64), got {seed}")


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


def _key(seed: int, id: int) -> np.ndarray:
    """The Philox key of the pair (seed, id), rounded as the module docstring says."""
    return np.asarray((int(seed) & _MASK64, id)).astype(np.uint64)


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Generator keyed by _key(seed, mix64(*ids)), or _key(seed, 0) without ids."""
    return np.random.Generator(np.random.Philox(key=_key(seed, mix64(*ids) if ids else 0)))


def permutation_stream(seed: int, index: int) -> np.random.Generator:
    """Stream for the index-th permutation of a permutation test."""
    return stream(seed, TAG_PERMUTATION, index)


@lru_cache(maxsize=None)
def _permutation_ids(R: int) -> tuple[tuple[int, ...], ...]:
    """Each draw id's side of 2**63 (id >> 63), then its key half beside a
    seed below 2**63 and beside one above: the id, or rounded as _key rounds it."""
    ids = [mix64(TAG_PERMUTATION, r) for r in range(1, R + 1)]
    halves = (tuple(int(_key(s, i)[1]) for i in ids) for s in (0, 1 << 63))
    return tuple(i >> 63 for i in ids), *halves


def _fresh_state(key) -> dict:
    """Philox(key=key).state in plain ints (counter 0, empty buffer), which
    the state setter reads faster than numpy arrays."""
    return {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def permutation_chunks(seed: int, m: int, ends) -> Iterator[np.ndarray]:
    """Yield rows [0, ends[0]), [ends[0], ends[1]), ... of the (ends[-1], m)
    array whose row r - 1 is permutation_stream(seed, r).permutation(m), one
    chunk at a time and all from one Philox; a caller that stops iterating
    makes no further draws.

    _key(seed, id) rounds both halves exactly when one of them is >= 2**63,
    and each half's value depends only on itself and on which side of 2**63
    the other lies.  So the test's keys are built in one pass from the two
    halves _key gives the seed and the cached halves it gives each id.
    Before each draw the Philox state is reset to what Philox(key=) would
    set up under the draw's key (`_fresh_state`); the setter copies the dict
    in, so one dict serves every draw.  Each row is then shuffled in place,
    which is all Generator.permutation(m) does to arange(m).
    """
    seed = int(seed) & _MASK64
    sides, *halves = _permutation_ids(ends[-1])
    seed_halves = [int(_key(seed, i)[0]) for i in (0, 1 << 63)]  # by the id's side
    keys = [(seed_halves[side], half) for side, half in zip(sides, halves[seed >> 63])]
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    state = _fresh_state(None)
    lo = 0
    for hi in ends:
        perms = np.tile(np.arange(m), (hi - lo, 1))
        for row, key in zip(perms, keys[lo:hi]):
            state["state"]["key"] = key
            bitgen.state = state
            gen.shuffle(row)
        yield perms
        lo = hi


def derive_seed(seed: int, *ids: int) -> int:
    """New 64-bit seed for a child scope (segment, replication, ...)."""
    return mix64(int(seed) & _MASK64, *ids)
