"""Curve geometry and Gaussian-kernel machinery shared by every detector.

Observations are curves sampled on a common grid of p points in [0, 1],
stored row-wise in an (n, p) array.  Distances use the scaled L2 norm
sqrt((1/p) * sum (a_j - b_j)^2), the Riemann approximation of the L2[0, 1]
norm, so the bandwidth and kernel values are grid-resolution independent.

as_dataset validates the data; squared_distances makes the one distance
pass into an (n, n) buffer and moves the pairs into both triangles.
Between the pass and the move, median_heuristic reads the bandwidth from a
copy of the pairs in the buffer's free half.  gram_matrix (at a checked
bandwidth) then turns that same buffer into the Gram matrix.  A run peaks
at that 8n^2-byte Gram, the rows, and 1 MiB (`mmd._SCRATCH_BYTES`) for each
sweep buffer, rank mask, and chunk of permutation draws with their ranks;
only the near-tie recheck in `amoc.permutation_test` gathers an m x m copy.
`segment.prepare` chains them: it is the one public route to a Gram matrix.

scipy is loaded at the first distance pass only, by `pdist`, and not at
import: the generators, the oracle curve, the metrics and the CLI's checks
never need it, and its import (about 0.27 s on 2 vCPU) would be nearly
three quarters of `import mmdseg`.
"""

from __future__ import annotations

import numpy as np

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


def _available_memory() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where the file or the
    field does not exist."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_memory(n: int, p: int) -> None:
    """DataError unless the (n, n) buffer and a copy of the rows fit in the
    memory available.  Under overcommit the allocation itself succeeds and
    its fill can be killed, so this is checked before the buffer exists."""
    need = 8 * n * n + 8 * n * p
    available = _available_memory()
    if available is not None and need > available:
        raise DataError(
            f"input too large for memory: {n} observations of {p} points need about "
            f"{need / 1e6:.3g} MB for the {n} x {n} Gram matrix, "
            f"{available / 1e6:.3g} MB available"
        )


def _condensed_start(i: int, n: int) -> int:
    """Index of pair (i, i + 1) in the condensed order of n observations."""
    return i * n - i * (i + 1) // 2


def pdist(*args, **kwargs):
    """scipy.spatial.distance.pdist, imported at its first call."""
    from scipy.spatial.distance import pdist

    return pdist(*args, **kwargs)


def squared_distances(X: np.ndarray, h: float | None = None) -> tuple[np.ndarray, float]:
    """(D, bandwidth): the symmetric (n, n) squared scaled L2 distances of
    the rows of X, an array as_dataset has already validated, with exact
    zeros on the diagonal, and h, or the median heuristic when h is None.

    This is the run's single O(n^2 p) distance pass: the median bandwidth
    and the Gram matrix are both derived from it, and the Gram is made in
    this same buffer.
    """
    n, p = X.shape
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    _check_memory(n, p)
    D = np.empty((n, n))
    flat = D.reshape(-1)
    pairs = n * (n - 1) // 2
    pdist(X, "sqeuclidean", out=flat[:pairs])
    flat[:pairs] /= p
    if h is None:
        # Until the rows move, the back half of the buffer is free, and
        # 2 pairs = n(n - 1) <= n^2: the median partitions a copy there.
        flat[pairs : 2 * pairs] = flat[:pairs]
        h = median_heuristic(flat[pairs : 2 * pairs])
    # pdist packs the strict upper triangle, row by row, at the front of the
    # buffer.  Rows move last first: each destination lies at or after its
    # source, so a row overwrites only values that have already moved.
    for i in reversed(range(n - 1)):
        start = _condensed_start(i, n)
        D[i, i + 1 :] = flat[start : start + n - 1 - i]
    for i in range(1, n):
        D[i, :i] = D[:i, i]  # the mirror image, in the lower triangle
    np.fill_diagonal(D, 0.0)
    return D, h


def _in_kernel_range(h: float) -> bool:
    """exp(-d^2 / (2h^2)) is defined: h > 0 and 2h^2 positive and finite."""
    return h > 0.0 and 0.0 < 2.0 * h * h < np.inf


def median_heuristic(sq: np.ndarray) -> float:
    """Bandwidth h = median of all pairwise distances over distinct pairs.

    `sq` is the 1-D vector of squared distances, one per pair; it is
    partitioned in place.  Even pair counts take the mean of the two central
    order statistics; sqrt is monotone, so this is np.median of the distances
    bit for bit.  Raises DegenerateBandwidthError when the median is out of
    the kernel's range: zero, or so small or large that 2h^2 is 0 or inf.
    """
    half = sq.size // 2
    sq.partition(half)
    central = np.array([sq[half]] if sq.size % 2 else [sq[:half].max(), sq[half]])
    h = float(np.mean(np.sqrt(central)))
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


def gram_matrix(D: np.ndarray, h: float) -> np.ndarray:
    """Symmetric (n, n) matrix of kernel evaluations with exact unit diagonal.

    Consumes `D`, the squared distances from squared_distances: the kernel
    values overwrite them in place, and D itself is returned.  Computed once
    per run and shared read-only by every split statistic and permutation
    sweep; permutations reorder it rather than recompute it.
    """
    np.negative(D, out=D)
    D /= 2.0 * h * h
    np.exp(D, out=D)
    return D
