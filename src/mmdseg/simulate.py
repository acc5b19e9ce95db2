"""Deterministic generators for the benchmark model catalog.

Eighteen generative models of functional observations on a common grid of
128 equi-spaced points t_j = j/128 (right endpoint on-grid so bridge
pinning at t = 1 is exact): four no-change populations (N1-N4), seven
single-change populations (1-7), five two-change populations (8-12) and
two parameterized families (M1 location, M2 scale, both with strength c).
Curves are either Brownian bridges or truncated basis expansions
X(t) = mu(t) + sum_k sqrt(theta_k) W_k phi_k(t) with Gaussian or scaled-t3
coefficients (t3/sqrt(3) has unit variance).  `_CATALOG` is the one place a
model is defined: its populations, one row per segment, in catalog order.

All randomness flows through counter-based streams (see rng module), so a
ModelSpec including its seed pins the sample bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .rng import TAG_SIMULATE, check_integer, check_real, check_seed, stream
from .segment import Segmentation

DEFAULT_GRID_SIZE = 128


@dataclass(frozen=True)
class ModelSpec:
    """One generative model instance with its true segment layout."""

    model_id: str
    segment_lengths: tuple[int, ...]
    seed: int = 0
    grid_size: int = DEFAULT_GRID_SIZE
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        lengths = tuple(check_integer("segment length", m) for m in self.segment_lengths)
        object.__setattr__(self, "segment_lengths", lengths)
        object.__setattr__(self, "params", dict(self.params))
        want = POPULATIONS.get(self.model_id)
        if want is None:
            raise ConfigurationError(f"unknown model id {self.model_id!r}")
        if len(self.segment_lengths) != want:
            raise ConfigurationError(
                f"model {self.model_id} has {want} population(s), "
                f"got {len(self.segment_lengths)} segment lengths"
            )
        if any(m < 1 for m in self.segment_lengths):
            raise ConfigurationError("segment lengths must be positive")
        if check_integer("grid_size", self.grid_size) < 2:
            raise ConfigurationError(f"grid_size must be >= 2, got {self.grid_size}")
        check_seed(self.seed)
        unknown = set(self.params) - ({"c"} if self.model_id in PARAMETRIC_MODELS else set())
        if unknown:
            raise ConfigurationError(f"unknown params for model {self.model_id}: {sorted(unknown)}")
        if self.model_id in PARAMETRIC_MODELS:
            if "c" not in self.params:
                raise ConfigurationError(f"model {self.model_id} requires param c")
            c = check_real("c", self.params["c"])
            if not math.isfinite(c):
                raise ConfigurationError(f"model {self.model_id} needs a finite c, got {c}")
            if self.model_id == "M1" and c < 0:
                raise ConfigurationError(f"model M1 needs c >= 0, got {c}")
            if self.model_id == "M2" and c <= 0:
                raise ConfigurationError(f"model M2 needs c > 0, got {c}")

    @property
    def n(self) -> int:
        return sum(self.segment_lengths)


@dataclass(frozen=True)
class GeneratedSample:
    data: np.ndarray
    truth: Segmentation
    model: ModelSpec


def grid(p: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Evaluation grid t_j = j/p for j = 1..p."""
    return np.arange(1, p + 1, dtype=np.float64) / p


# ---------------------------------------------------------------------------
# bases, eigenvalue decays, and mean functions mean(t, c) of the grid t and
# the model strength c
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _basis(kind: str, q: int, p: int) -> np.ndarray:
    """(q, p) matrix of basis functions evaluated on the grid."""
    t = grid(p)
    if kind == "sine":
        j = np.arange(1, q + 1)[:, None]
        return np.sqrt(2.0) * np.sin(j * np.pi * t)
    # "fourier", the classical Fourier system: 1, then sqrt(2) sin and cos of
    # 2 pi l t at l = 1, 2, ...; "paired_trig" shifts each argument by pi
    shift = np.pi if kind == "paired_trig" else 0.0
    rows = [np.ones(p)]
    for l in range(1, q // 2 + 1):
        rows.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * l * t - shift))
        rows.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * l * t - shift))
    return np.vstack(rows[:q])


# Eigenvalue theta_j of each decay, as a function of the index j = 1, 2, ...
_DECAYS = {
    "geometric": lambda j: 0.7 * 2.0 ** (1 - j),
    "exp3": lambda j: np.exp(-j / 3.0),
    "exp": lambda j: np.exp(-j),
    "invsq": lambda j: j ** (-2.0),
    "inv105": lambda j: j ** (-1.05),
}


def _theta(kind: str, q: int) -> np.ndarray:
    return _DECAYS[kind](np.arange(1, q + 1, dtype=np.float64))


def _mu_bumpy(t, c=None):
    return 0.5 - 100.0 * (t - 0.1) * (t - 0.3) * (t - 0.5) * (t - 0.9)


def _mu_cubic(t, c=None):
    return 1.0 + 3.0 * t**2 - 5.0 * t**3


def _wiggly(mu, amplitude):
    """mu plus amplitude * sin(1 + 10 pi t)."""
    return lambda t, c: mu(t) + amplitude * np.sin(1.0 + 10.0 * np.pi * t)


def _mu_sine_shift(t, c):
    coef = np.zeros(40)
    coef[:3] = 0.75 * np.array([1.0, -1.0, 1.0])  # 0.75 (-1)^(j+1), j <= 3
    return coef @ _basis("sine", 40, t.size)


# ---------------------------------------------------------------------------
# sampling primitives and the model catalog
# ---------------------------------------------------------------------------


def _kl_sample(rng, n, basis, theta, noise, mean):
    shape = (n, theta.size)
    if noise == "gaussian":
        W = rng.standard_normal(shape)
    else:  # "t3_scaled"
        W = rng.standard_t(3, size=shape) / np.sqrt(3.0)
    return (W * np.sqrt(theta)) @ basis + mean


def _bb_sample(rng, n, p, mean):
    increments = rng.standard_normal((n, p)) / np.sqrt(p)
    walk = np.cumsum(increments, axis=1)
    bridge = walk - np.outer(walk[:, -1], grid(p))
    return bridge + mean


class _Bridge(NamedTuple):
    """A Brownian bridge around mean(t, c)."""

    mean: Callable = lambda t, c: 0.0


class _KL(NamedTuple):
    """mean(t, c) plus a truncated basis expansion: q functions of the
    basis, eigenvalues scale(c) * theta_j of the decay for j = 1..q, and
    coefficients of the noise."""

    basis: str
    q: int
    decay: str
    mean: Callable = lambda t, c: 0.0
    noise: str = "gaussian"
    scale: Callable = lambda c: 1.0


_TRIG = ("paired_trig", 151, "geometric")
_SINE40_INVSQ = ("sine", 40, "invsq")
_SINE50_EXP3 = ("sine", 50, "exp3")
_TIMES3 = lambda c: 3.0

# Every model, in catalog order, with one population row per segment.
_CATALOG = {
    "N1": (_KL(*_TRIG, _wiggly(_mu_bumpy, 0.8)),),
    "N2": (_Bridge(),),
    "N3": (_KL(*_SINE50_EXP3, lambda t, c: 2.0 * t),),
    "N4": (_KL(*_SINE40_INVSQ),),
    "1": (
        _KL(*_SINE50_EXP3, lambda t, c: 2.0 * t),
        _KL(*_SINE50_EXP3, lambda t, c: 6.0 * t * (1.0 - t)),
    ),
    "2": (
        _KL(*_SINE40_INVSQ, noise="t3_scaled"),
        _KL(*_SINE40_INVSQ, _mu_sine_shift, "t3_scaled"),
    ),
    "3": (_KL(*_TRIG, _wiggly(_mu_bumpy, 0.8)), _KL(*_TRIG, _wiggly(_mu_cubic, 0.6))),
    "4": (_Bridge(), _Bridge(lambda t, c: np.sin(t))),
    "5": (_KL(*_SINE40_INVSQ), _KL(*_SINE40_INVSQ, scale=_TIMES3)),
    "6": (_KL("sine", 50, "invsq"), _KL("sine", 50, "exp")),
    "7": (_KL(*_SINE40_INVSQ), _KL("fourier", 40, "invsq")),
    "8": (
        _KL(*_TRIG, _mu_bumpy),
        _KL(*_TRIG, _wiggly(_mu_cubic, 1.5)),
        _KL(*_TRIG, _mu_cubic),
    ),
    "9": (_Bridge(), _Bridge(lambda t, c: t), _Bridge()),
    "10": (_KL("sine", 50, "invsq"), _KL("sine", 50, "inv105"), _KL("sine", 50, "exp")),
    "11": (
        _KL(*_SINE40_INVSQ, noise="t3_scaled"),
        _KL(*_SINE40_INVSQ, noise="t3_scaled", scale=_TIMES3),
        _KL(*_SINE40_INVSQ, noise="t3_scaled"),
    ),
    "12": (_KL("sine", 40, "exp3"), _KL("fourier", 40, "exp3"), _KL("sine", 40, "exp3")),
    "M1": (_Bridge(), _Bridge(lambda t, c: c * np.sin(t))),
    "M2": (_KL(*_SINE40_INVSQ), _KL(*_SINE40_INVSQ, scale=lambda c: c)),
}
MODEL_IDS = tuple(_CATALOG)
POPULATIONS = {model_id: len(rows) for model_id, rows in _CATALOG.items()}
PARAMETRIC_MODELS = {"M1", "M2"}


def _sample(row, rng, n: int, t: np.ndarray, c) -> np.ndarray:
    """n curves of one population row on the grid t."""
    mean = np.asarray(row.mean(t, c), dtype=np.float64)
    if isinstance(row, _Bridge):
        return _bb_sample(rng, n, t.size, mean)
    theta = row.scale(c) * _theta(row.decay, row.q)
    return _kl_sample(rng, n, _basis(row.basis, row.q, t.size), theta, row.noise, mean)


def generate(spec: ModelSpec) -> GeneratedSample:
    """Draw one sample: per-segment populations concatenated in time order."""
    t = grid(spec.grid_size)
    c = float(spec.params.get("c", 0.0))  # the strength of M1 and M2
    rng = stream(spec.seed, TAG_SIMULATE)
    rows = _CATALOG[spec.model_id]
    data = np.vstack([_sample(row, rng, m, t, c) for row, m in zip(rows, spec.segment_lengths)])
    cuts = np.cumsum(spec.segment_lengths)[:-1]
    truth = Segmentation(spec.n, tuple(int(b) for b in cuts))
    return GeneratedSample(data=data, truth=truth, model=spec)
