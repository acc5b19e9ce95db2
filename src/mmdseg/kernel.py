"""Curve geometry and Gaussian-kernel machinery shared by every detector.

Observations are curves sampled on a common grid of p points in [0, 1],
stored row-wise in an (n, p) array.  Distances use the scaled L2 norm
sqrt((1/p) * sum (a_j - b_j)^2), the Riemann approximation of the L2[0, 1]
norm, so the bandwidth and kernel values are grid-resolution independent.

as_dataset validates the data, squared_distances makes the one distance
pass, and median_heuristic and gram_matrix (at a checked bandwidth) read it.
`segment.prepare` chains them: it is the one public route to a Gram matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ConfigurationError, DataError, DegenerateBandwidthError


def as_dataset(data) -> np.ndarray:
    """Validate and return observations as an (n, p) float64 array."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"dataset must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"dataset must be non-empty, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("dataset contains non-finite values")
    return X


def squared_distances(X: np.ndarray) -> np.ndarray:
    """Condensed vector of the n(n-1)/2 squared scaled L2 distances of the
    rows of X, an array as_dataset has already validated.

    This is the run's single O(n^2 p) distance pass: the median bandwidth
    and the Gram matrix are both derived from it.
    """
    if X.shape[0] < 2:
        raise DataError(f"need at least 2 observations, got {X.shape[0]}")
    sq = pdist(X, "sqeuclidean")
    sq /= X.shape[1]
    return sq


def _in_kernel_range(h: float) -> bool:
    """exp(-d^2 / (2h^2)) is defined: h > 0 and 2h^2 positive and finite."""
    return h > 0.0 and 0.0 < 2.0 * h * h < np.inf


def median_heuristic(sq: np.ndarray) -> float:
    """Bandwidth h = median of all pairwise distances over distinct pairs.

    `sq` is the condensed squared distances from squared_distances.  Even
    pair counts take the mean of the two central order statistics.
    Raises DegenerateBandwidthError when the median is out of the kernel's
    range: zero, or so small or large that 2h^2 is 0 or inf.
    """
    # sqrt is monotone, so the square roots of sq's central order statistics
    # are those of sqrt(sq): this is np.median(np.sqrt(sq)) bit for bit,
    # without the square root of every pair.
    half = sq.size // 2
    kth = [half] if sq.size % 2 else [half - 1, half]
    h = float(np.mean(np.sqrt(np.partition(sq, kth)[kth])))
    if not _in_kernel_range(h):
        raise DegenerateBandwidthError(
            f"median pairwise distance is {h}; the kernel needs h > 0 with 2h^2 finite"
        )
    return h


def check_bandwidth(h) -> float:
    """A fixed bandwidth h as a float; ConfigurationError unless it is in the
    kernel's range, as median_heuristic requires of the median."""
    h = float(h)
    if not _in_kernel_range(h):
        raise ConfigurationError(f"bandwidth must be positive with 2h^2 finite, got {h}")
    return h


def gram_matrix(sq: np.ndarray, h: float) -> np.ndarray:
    """Symmetric (n, n) matrix of kernel evaluations with exact unit diagonal.

    `sq` is the condensed squared distances from squared_distances.
    Computed once per run and shared read-only by every split statistic and
    permutation sweep; permutations reorder it rather than recompute it.
    """
    G = squareform(sq)
    np.negative(G, out=G)
    G /= 2.0 * h * h
    np.exp(G, out=G)
    return G
