"""Closed-form reference curve for labeled data.

When the sample is known to be P contiguous pools, the left and right sides
of split r are mixtures of the pool empiricals, and the split statistic is

    rho*(r) = -r (n - r) / (2 n^2) * Delta_r' D Delta_r

where Delta_r holds each pool's weight on the left of r minus its weight on
the right, and D is the matrix of pool-pair V-statistic MMDs (zero
diagonal).  Because Delta_r sums to zero, this equals the V-statistic
between the two mixtures, so one formula covers any number of pools.  The
curve rises up to the first boundary, falls after the last one, and is
convex in between.  It serves as ground truth for the empirical split
machinery and backs the `oracle-curve` CLI export.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .mmd import _clamp_nonnegative
from .rng import check_integer


def oracle_curve(gram: np.ndarray, segment_lengths) -> np.ndarray:
    """Labeled curve over every split r = 1..n-1, for any number of pools."""
    sizes = tuple(check_integer("pool size", s) for s in segment_lengths)
    n = gram.shape[0]
    if any(s < 1 for s in sizes):
        raise ConfigurationError(f"pool sizes must be positive, got {sizes}")
    if sum(sizes) != n:
        raise ConfigurationError(f"pool sizes {sizes} do not sum to n={n}")
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    pools = [np.arange(s, s + m) for s, m in zip(starts, sizes)]
    sums = np.array([[gram[np.ix_(a, b)].sum() for b in pools] for a in pools])
    within = np.diagonal(sums) / (sizes * sizes)
    mmd = np.triu(within[:, None] + within - 2.0 * sums / np.outer(sizes, sizes), 1)
    mmd = _clamp_nonnegative(mmd + mmd.T)
    # r (n - r) Delta_r is the exact integer vector n c(r) - r sizes, where c
    # holds each pool's count left of r; scale once after the quadratic form.
    r = np.arange(1, n)
    e = (n * np.clip(r[:, None] - starts, 0, sizes) - r[:, None] * sizes).astype(np.float64)
    quad = np.sum((e @ mmd) * e, axis=1)
    return -quad / (2.0 * n * n * r * (n - r)) + 0.0  # + 0.0: a flat curve reads 0, not -0
