"""Deterministic generators for the benchmark model catalog.

Sixteen generative models of functional observations on a common grid of
128 equi-spaced points t_j = j/128 (right endpoint on-grid so bridge
pinning at t = 1 is exact): four no-change populations (N1-N4), seven
single-change populations (1-7), five two-change populations (8-12) and
two parameterized families (M1 location, M2 scale, both with strength c).
Curves are either Brownian bridges or truncated basis expansions
X(t) = mu(t) + sum_k sqrt(theta_k) W_k phi_k(t) with Gaussian or scaled-t3
coefficients (t3/sqrt(3) has unit variance).

All randomness flows through counter-based streams (see rng module), so a
ModelSpec including its seed pins the sample bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError
from .rng import TAG_SIMULATE, check_seed, stream
from .segment import Segmentation

DEFAULT_GRID_SIZE = 128

# The segment count of each model, in catalog order, and the models
# parameterized by a strength c.
_SEGMENT_COUNTS = {
    **dict.fromkeys(("N1", "N2", "N3", "N4"), 1),
    **dict.fromkeys(("1", "2", "3", "4", "5", "6", "7"), 2),
    **dict.fromkeys(("8", "9", "10", "11", "12"), 3),
    **dict.fromkeys(("M1", "M2"), 2),
}
MODEL_IDS = tuple(_SEGMENT_COUNTS)
PARAMETRIC_MODELS = {"M1", "M2"}


@dataclass(frozen=True)
class ModelSpec:
    """One generative model instance with its true segment layout."""

    model_id: str
    segment_lengths: tuple[int, ...]
    seed: int = 0
    grid_size: int = DEFAULT_GRID_SIZE
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "segment_lengths", tuple(int(m) for m in self.segment_lengths)
        )
        object.__setattr__(self, "params", dict(self.params))
        if self.model_id not in _SEGMENT_COUNTS:
            raise ConfigurationError(f"unknown model id {self.model_id!r}")
        want = _SEGMENT_COUNTS[self.model_id]
        if len(self.segment_lengths) != want:
            raise ConfigurationError(
                f"model {self.model_id} has {want} population(s), "
                f"got {len(self.segment_lengths)} segment lengths"
            )
        if any(m < 1 for m in self.segment_lengths):
            raise ConfigurationError("segment lengths must be positive")
        if self.grid_size < 2:
            raise ConfigurationError(f"grid_size must be >= 2, got {self.grid_size}")
        check_seed(self.seed)
        unknown = set(self.params) - ({"c"} if self.model_id in PARAMETRIC_MODELS else set())
        if unknown:
            raise ConfigurationError(f"unknown params for model {self.model_id}: {sorted(unknown)}")
        if self.model_id in PARAMETRIC_MODELS:
            if "c" not in self.params:
                raise ConfigurationError(f"model {self.model_id} requires param c")
            c = float(self.params["c"])
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
# bases and coefficient decays
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _basis(kind: str, q: int, p: int) -> np.ndarray:
    """(q, p) matrix of basis functions evaluated on the grid."""
    t = grid(p)
    if kind == "sine":
        j = np.arange(1, q + 1)[:, None]
        return np.sqrt(2.0) * np.sin(j * np.pi * t)
    if kind == "paired_trig":
        # row 0 constant, then sqrt(2) sin(2 pi l t - pi), sqrt(2) cos(2 pi l t - pi)
        rows = [np.ones(p)]
        for l in range(1, (q - 1) // 2 + 1):
            rows.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * l * t - np.pi))
            rows.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * l * t - np.pi))
        return np.vstack(rows[:q])
    if kind == "fourier":
        # classical Fourier system: 1, then sin/cos pairs at frequency l
        rows = [np.ones(p)]
        l = 1
        while len(rows) < q:
            rows.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * l * t))
            if len(rows) < q:
                rows.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * l * t))
            l += 1
        return np.vstack(rows)
    raise ConfigurationError(f"unknown basis kind {kind!r}")


def _theta(kind: str, q: int, start: int = 1) -> np.ndarray:
    j = np.arange(start, start + q, dtype=np.float64)
    if kind == "geometric":  # 0.7 * 2^-j, j from 0
        return 0.7 * 2.0 ** (-j)
    if kind == "exp3":
        return np.exp(-j / 3.0)
    if kind == "exp":
        return np.exp(-j)
    if kind == "invsq":
        return j ** (-2.0)
    if kind == "inv105":
        return j ** (-1.05)
    raise ConfigurationError(f"unknown eigenvalue decay {kind!r}")


# ---------------------------------------------------------------------------
# mean functions
# ---------------------------------------------------------------------------


def _mu_bumpy(t):
    return 0.5 - 100.0 * (t - 0.1) * (t - 0.3) * (t - 0.5) * (t - 0.9)


def _mu_bumpy_wiggle(t):
    return _mu_bumpy(t) + 0.8 * np.sin(1.0 + 10.0 * np.pi * t)


def _mu_cubic(t):
    return 1.0 + 3.0 * t**2 - 5.0 * t**3


# ---------------------------------------------------------------------------
# sampling primitives
# ---------------------------------------------------------------------------


def _draw_coeffs(rng: np.random.Generator, n: int, q: int, noise: str) -> np.ndarray:
    if noise == "gaussian":
        return rng.standard_normal((n, q))
    if noise == "t3_scaled":
        return rng.standard_t(3, size=(n, q)) / np.sqrt(3.0)
    raise ConfigurationError(f"unknown noise tag {noise!r}")


def _kl_sample(rng, n, basis, theta, noise, mean):
    W = _draw_coeffs(rng, n, theta.size, noise)
    return (W * np.sqrt(theta)) @ basis + mean


def _bb_sample(rng, n, p, mean):
    increments = rng.standard_normal((n, p)) / np.sqrt(p)
    walk = np.cumsum(increments, axis=1)
    bridge = walk - np.outer(walk[:, -1], grid(p))
    return bridge + mean


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------


def _kl(basis_kind, q, theta_kind, noise, mean_values, p, theta_start=1):
    basis = _basis(basis_kind, q, p)
    theta = _theta(theta_kind, q, start=theta_start)
    mean = np.asarray(mean_values, dtype=np.float64)

    def sampler(rng, n):
        return _kl_sample(rng, n, basis, theta, noise, mean)

    return sampler


def _bb(mean_values, p):
    mean = np.asarray(mean_values, dtype=np.float64)

    def sampler(rng, n):
        return _bb_sample(rng, n, p, mean)

    return sampler


def _populations(model_id: str, params: Mapping[str, float], p: int) -> list[Callable]:
    t = grid(p)
    zero = np.zeros(p)
    if model_id == "N1":
        return [_kl("paired_trig", 151, "geometric", "gaussian", _mu_bumpy_wiggle(t), p, theta_start=0)]
    if model_id == "N2":
        return [_bb(zero, p)]
    if model_id == "N3":
        return [_kl("sine", 50, "exp3", "gaussian", 2.0 * t, p)]
    if model_id == "N4":
        return [_kl("sine", 40, "invsq", "gaussian", zero, p)]
    if model_id == "1":
        return [
            _kl("sine", 50, "exp3", "gaussian", 2.0 * t, p),
            _kl("sine", 50, "exp3", "gaussian", 6.0 * t * (1.0 - t), p),
        ]
    if model_id == "2":
        coef = np.zeros(40)
        coef[:3] = 0.75 * np.array([1.0, -1.0, 1.0])  # 0.75 (-1)^(j+1), j <= 3
        shift = coef @ _basis("sine", 40, p)
        return [
            _kl("sine", 40, "invsq", "t3_scaled", zero, p),
            _kl("sine", 40, "invsq", "t3_scaled", shift, p),
        ]
    if model_id == "3":
        post = _mu_cubic(t) + 0.6 * np.sin(1.0 + 10.0 * np.pi * t)
        return [
            _kl("paired_trig", 151, "geometric", "gaussian", _mu_bumpy_wiggle(t), p, theta_start=0),
            _kl("paired_trig", 151, "geometric", "gaussian", post, p, theta_start=0),
        ]
    if model_id == "4":
        return [_bb(zero, p), _bb(np.sin(t), p)]
    if model_id == "5":
        basis = _basis("sine", 40, p)
        theta = _theta("invsq", 40)
        return [
            lambda rng, n: _kl_sample(rng, n, basis, theta, "gaussian", 0.0),
            lambda rng, n: _kl_sample(rng, n, basis, 3.0 * theta, "gaussian", 0.0),
        ]
    if model_id == "6":
        return [
            _kl("sine", 50, "invsq", "gaussian", zero, p),
            _kl("sine", 50, "exp", "gaussian", zero, p),
        ]
    if model_id == "7":
        return [
            _kl("sine", 40, "invsq", "gaussian", zero, p),
            _kl("fourier", 40, "invsq", "gaussian", zero, p),
        ]
    if model_id == "8":
        return [
            _kl("paired_trig", 151, "geometric", "gaussian", _mu_bumpy(t), p, theta_start=0),
            _kl("paired_trig", 151, "geometric", "gaussian",
                _mu_cubic(t) + 1.5 * np.sin(1.0 + 10.0 * np.pi * t), p, theta_start=0),
            _kl("paired_trig", 151, "geometric", "gaussian", _mu_cubic(t), p, theta_start=0),
        ]
    if model_id == "9":
        return [_bb(zero, p), _bb(t, p), _bb(zero, p)]
    if model_id == "10":
        return [
            _kl("sine", 50, "invsq", "gaussian", zero, p),
            _kl("sine", 50, "inv105", "gaussian", zero, p),
            _kl("sine", 50, "exp", "gaussian", zero, p),
        ]
    if model_id == "11":
        basis = _basis("sine", 40, p)
        theta = _theta("invsq", 40)
        return [
            lambda rng, n: _kl_sample(rng, n, basis, theta, "t3_scaled", 0.0),
            lambda rng, n: _kl_sample(rng, n, basis, 3.0 * theta, "t3_scaled", 0.0),
            lambda rng, n: _kl_sample(rng, n, basis, theta, "t3_scaled", 0.0),
        ]
    if model_id == "12":
        return [
            _kl("sine", 40, "exp3", "gaussian", zero, p),
            _kl("fourier", 40, "exp3", "gaussian", zero, p),
            _kl("sine", 40, "exp3", "gaussian", zero, p),
        ]
    if model_id == "M1":
        c = float(params["c"])
        return [_bb(zero, p), _bb(c * np.sin(t), p)]
    if model_id == "M2":
        c = float(params["c"])
        basis = _basis("sine", 40, p)
        theta = _theta("invsq", 40)
        return [
            lambda rng, n: _kl_sample(rng, n, basis, theta, "gaussian", 0.0),
            lambda rng, n: _kl_sample(rng, n, basis, c * theta, "gaussian", 0.0),
        ]
    raise ConfigurationError(f"unknown model id {model_id!r}")


def generate(spec: ModelSpec) -> GeneratedSample:
    """Draw one sample: per-segment populations concatenated in time order."""
    populations = _populations(spec.model_id, spec.params, spec.grid_size)
    rng = stream(spec.seed, TAG_SIMULATE)
    parts = [
        sampler(rng, m) for sampler, m in zip(populations, spec.segment_lengths)
    ]
    data = np.vstack(parts)
    cuts = np.cumsum(spec.segment_lengths)[:-1]
    truth = Segmentation(spec.n, tuple(int(c) for c in cuts))
    return GeneratedSample(data=data, truth=truth, model=spec)
