"""Closed-form reference curves for labeled data.

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


def _rho_single(gram: np.ndarray, n1: int) -> list[float]:
    """Single-boundary branch formulas at every split, from one pool MMD.

    Rises on r <= n1, falls on r > n1, peaks exactly at r = n1.
    """
    n = gram.shape[0]
    n2 = n - n1
    d = mmd_squared_groups(gram, np.arange(n1), np.arange(n1, n))
    return [
        r * n2 * n2 * d / (n * n * (n - r)) if r <= n1 else n1 * n1 * (n - r) * d / (r * n * n)
        for r in range(1, n)
    ]


def _rho_two(gram: np.ndarray, n1: int, n2: int) -> list[float]:
    """Two-boundary branch formulas at every split, from three pool MMDs.

    Rises on r <= n1, is convex on n1 < r <= n1 + n2, and falls on
    r > n1 + n2, so the peak sits at one of the two boundaries.
    """
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

    return [branch(r) for r in range(1, n)]


def oracle_curve(gram: np.ndarray, segment_lengths) -> np.ndarray:
    """Labeled curve over every split r = 1..n-1, for one or two boundaries."""
    sizes = tuple(int(s) for s in segment_lengths)
    n = gram.shape[0]
    if any(s < 1 for s in sizes):
        raise ConfigurationError(f"pool sizes must be positive, got {sizes}")
    if sum(sizes) != n:
        raise ConfigurationError(f"pool sizes {sizes} do not sum to n={n}")
    if len(sizes) == 2:
        return np.array(_rho_single(gram, sizes[0]))
    if len(sizes) == 3:
        return np.array(_rho_two(gram, sizes[0], sizes[1]))
    raise ConfigurationError(
        f"closed-form curves exist for 2 or 3 pools, got {len(sizes)}"
    )
