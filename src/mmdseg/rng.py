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
Philox re-keyed for each draw r with the `_key` of permutation_stream(seed,
r), whose draw it makes.  So draw r does not depend on how many draws are
made or in which chunk it falls: a test that stops after L draws has made
the first L draws of the full run.  Keys are built per chunk, so a test
holds none beyond its current chunk, and a top seed's cast warns once per test.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Iterator

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
TAG_BASIS = 0x42415349  # "BASI": the low-rank tier's subspace start


def check_integer(name: str, value) -> int:
    """operator.index(value): numpy integers pass, and a float or a bool
    raises ConfigurationError instead of being truncated or run as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> float:
    """float(value) for a real number, numpy's included; ConfigurationError
    for anything else, such as a bool or a string float() would parse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_seed(seed: int) -> None:
    """Raise ConfigurationError unless seed is an integer in [0, 2**64)."""
    if not 0 <= check_integer("seed", seed) <= _MASK64:
        raise ConfigurationError(f"seed must lie in [0, 2**64), got {seed}")


def mix64(*values) -> int | np.ndarray:
    """Fold integers into one 64-bit id with the splitmix64 finalizer.  The
    last value may be a uint64 array: each element is folded in after the
    others, giving the array of their ids."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        z = acc = (acc + (v if isinstance(v, np.ndarray) else int(v) & _MASK64)) & _MASK64
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

    _key(seed, id) rounds each half by itself and by which side of 2**63 the
    other lies.  So a chunk's keys pair its ids (one mix64 call) with one of
    the two halves _key gives the seed, and an id on the other side of 2**63
    from the seed takes _key's float64 round trip; no draw r <= 10**8 has an
    id in [2**64 - 1024, 2**64), where that trip would overflow the cast.
    Each draw resets the Philox to Philox(key=)'s fresh state (`_fresh_state`,
    one dict, which the setter copies in) and shuffles its row in place,
    which is all Generator.permutation(m) does to arange(m).
    """
    seed = int(seed) & _MASK64
    seed_halves = [int(_key(seed, i)[0]) for i in (0, 1 << 63)]  # by the id's side
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    state = _fresh_state(None)
    lo = 0
    for hi in ends:
        ids = mix64(TAG_PERMUTATION, np.arange(lo + 1, hi + 1, dtype=np.uint64))
        sides = ids >> np.uint64(63)
        rounded = sides != seed >> 63
        ids[rounded] = ids[rounded].astype(np.float64).astype(np.uint64)
        perms = np.tile(np.arange(m), (hi - lo, 1))
        for row, side, half in zip(perms, sides.tolist(), ids.tolist()):
            state["state"]["key"] = (seed_halves[side], half)
            bitgen.state = state
            gen.shuffle(row)
        yield perms
        lo = hi


def derive_seed(seed: int, *ids: int) -> int:
    """New 64-bit seed for a child scope (segment, replication, ...)."""
    return mix64(int(seed) & _MASK64, *ids)
