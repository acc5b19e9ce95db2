"""Closed-form reference curves for labeled data and the mixture identity.

When the segment labels are known, the split statistic of a pooled sample
has an explicit form in terms of the pairwise pool MMDs: it rises up to the
first boundary, falls after the last one, and is convex in between.  These
curves serve as ground-truth fixtures for the empirical split machinery and
back the `oracle-curve` CLI export.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .mmd import mmd_squared_groups


def _check_pool_sizes(n: int, sizes: tuple[int, ...]):
    if any(s < 1 for s in sizes):
        raise ConfigurationError(f"pool sizes must be positive, got {sizes}")
    if sum(sizes) != n:
        raise ConfigurationError(f"pool sizes {sizes} do not sum to n={n}")


def _rho_single(gram: np.ndarray, n1: int, splits) -> list[float]:
    """Single-boundary branch formulas at each split, from one pool MMD."""
    n = gram.shape[0]
    n2 = n - n1
    d = mmd_squared_groups(gram, np.arange(n1), np.arange(n1, n))
    return [
        r * n2 * n2 * d / (n * n * (n - r)) if r <= n1 else n1 * n1 * (n - r) * d / (r * n * n)
        for r in splits
    ]


def _rho_two(gram: np.ndarray, n1: int, n2: int, splits) -> list[float]:
    """Two-boundary branch formulas at each split, from three pool MMDs."""
    n = gram.shape[0]
    n3 = n - n1 - n2
    pool1, pool2, pool3 = np.arange(n1), np.arange(n1, n1 + n2), np.arange(n1 + n2, n)
    d12 = mmd_squared_groups(gram, pool1, pool2)
    d13 = mmd_squared_groups(gram, pool1, pool3)
    d23 = mmd_squared_groups(gram, pool2, pool3)
    nn = float(n) * float(n)
    rise = n2 * (n2 + n3) * d12 + n3 * (n2 + n3) * d13 - n2 * n3 * d23
    fall = n2 * (n1 + n2) * d23 + n1 * (n1 + n2) * d13 - n1 * n2 * d12

    def branch(r):
        if r <= n1:
            return r * rise / (nn * (n - r))
        if r <= n1 + n2:
            return (n * n1 - r * (n1 + n3)) / nn * (
                n1 * d12 / r - n3 * d23 / (n - r)
            ) + n1 * n3 * d13 / nn
        return (n - r) * fall / (r * nn)

    return [branch(r) for r in splits]


def oracle_rho_single(gram: np.ndarray, n1: int, r: int) -> float:
    """Labeled split statistic for one boundary after n1 observations.

    Rises on r <= n1, falls on r > n1, peaks exactly at r = n1.  r = n is
    excluded: the left-branch denominator vanishes and an empty right block
    carries no information.
    """
    n = gram.shape[0]
    if not 1 <= n1 <= n - 1:
        raise ConfigurationError(f"n1={n1} out of range [1, {n - 1}]")
    if not 1 <= r <= n - 1:
        raise IndexError(f"r={r} out of range [1, {n - 1}]")
    return _rho_single(gram, n1, [r])[0]


def oracle_rho_two(gram: np.ndarray, n1: int, n2: int, r: int) -> float:
    """Labeled split statistic for two boundaries (pools of sizes n1, n2, n3).

    Three branches: rises on r <= n1, is convex on n1 < r <= n1 + n2, and
    falls on r > n1 + n2, so the peak sits at one of the two boundaries.
    """
    n = gram.shape[0]
    _check_pool_sizes(n, (n1, n2, n - n1 - n2))
    if not 1 <= r <= n - 1:
        raise IndexError(f"r={r} out of range [1, {n - 1}]")
    return _rho_two(gram, n1, n2, [r])[0]


def oracle_curve(gram: np.ndarray, segment_lengths) -> np.ndarray:
    """Labeled curve over every split r = 1..n-1, for one or two boundaries."""
    sizes = tuple(int(s) for s in segment_lengths)
    n = gram.shape[0]
    _check_pool_sizes(n, sizes)
    if len(sizes) == 2:
        return np.array(_rho_single(gram, sizes[0], range(1, n)))
    if len(sizes) == 3:
        return np.array(_rho_two(gram, sizes[0], sizes[1], range(1, n)))
    raise ConfigurationError(
        f"closed-form curves exist for 2 or 3 pools, got {len(sizes)}"
    )


def mixture_mmd(gram: np.ndarray, pool_a, pool_b, alpha: float, beta: float) -> float:
    """Squared MMD between two weighted mixtures of the pool empiricals.

    Measures alpha * P_A + (1 - alpha) * P_B versus beta * P_A + (1 - beta)
    * P_B, evaluated by the explicit three-term double sums over the Gram
    matrix.  Equals (alpha - beta)^2 times the pure-pool MMD, which is what
    the identity property tests verify.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ConfigurationError(f"weights must lie in [0, 1], got {alpha}, {beta}")
    a = np.asarray(pool_a, dtype=np.intp)
    b = np.asarray(pool_b, dtype=np.intp)
    if a.size == 0 or b.size == 0:
        raise ValueError("pools must be non-empty")
    n = gram.shape[0]
    w = np.zeros(n)
    v = np.zeros(n)
    w[a] += alpha / a.size
    w[b] += (1.0 - alpha) / b.size
    v[a] += beta / a.size
    v[b] += (1.0 - beta) / b.size
    return float(w @ gram @ w + v @ gram @ v - 2.0 * (w @ gram @ v))
