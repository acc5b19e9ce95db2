"""Curve geometry and Gaussian-kernel machinery shared by every detector.

Observations are curves sampled on a common grid of p points in [0, 1],
stored row-wise in an (n, p) array.  Distances use the scaled L2 norm
sqrt((1/p) * sum (a_j - b_j)^2), the Riemann approximation of the L2[0, 1]
norm, so the bandwidth and kernel values are grid-resolution independent.

as_dataset validates the data; squared_distances makes the one distance
pass into an (n, n) buffer, median_heuristic reads the bandwidth from it,
and gram_matrix (at a checked bandwidth) turns that same buffer into the
Gram matrix, so the run's peak is one 8n^2-byte array.  `segment.prepare`
chains them: it is the one public route to a Gram matrix.

scipy is loaded at the first distance pass only, by `pdist`, and not at
import: the generators, the oracle curve, the metrics and the CLI's checks
never need it, and its import (about 0.27 s on 2 vCPU) would be nearly
three quarters of `import mmdseg`.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateBandwidthError

# Cells per block of the scatter and of the median's counting pass; bounds
# their temporaries to about a megabyte whatever n is.
_BLOCK_CELLS = 1 << 17

# The strided sample that brackets the median's order statistics takes
# about _SAMPLE entries, and at most one entry in _MIN_STEP: a sample of
# every entry would cost a sort of the whole matrix at small n.
_SAMPLE = 1 << 16
_MIN_STEP = 16


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


def squared_distances(X: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) matrix of the squared scaled L2 distances of the
    rows of X, an array as_dataset has already validated, with exact zeros
    on the diagonal.

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
    # pdist packs the strict upper triangle, row by row, at the front of the
    # buffer; every value moves forward to its place.  Blocks of rows go last
    # first, so a block overwrites only values that have already moved, and
    # its own values are copied out before they are written.
    rows = max(1, _BLOCK_CELLS // n)
    columns = np.arange(n)
    for a in reversed(range(0, n, rows)):
        b = min(a + rows, n)
        upper = columns > np.arange(a, b)[:, None]
        values = flat[_condensed_start(a, n) : _condensed_start(b, n)].copy()
        D[a:b][upper] = values
        D.T[a:b][upper] = values  # the mirror image, in the lower triangle
    np.fill_diagonal(D, 0.0)
    return D


def _in_kernel_range(h: float) -> bool:
    """exp(-d^2 / (2h^2)) is defined: h > 0 and 2h^2 positive and finite."""
    return h > 0.0 and 0.0 < 2.0 * h * h < np.inf


def _bracket_pass(values: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """(number of values below lo, the values in [lo, hi]), a block at a time."""
    below, inside = 0, []
    for a in range(0, values.size, _BLOCK_CELLS):
        block = values[a : a + _BLOCK_CELLS]
        below += np.count_nonzero(block < lo)
        inside.append(np.compress((block >= lo) & (block <= hi), block))
    return below, np.concatenate(inside)


def _sample_step(n: int) -> int:
    """Stride of the bracket's sample of an (n, n) matrix: about _SAMPLE
    entries, at least every _MIN_STEP-th, and prime to n, so the sample
    meets every row and every column alike."""
    step = max(_MIN_STEP, n * n // _SAMPLE)
    while gcd(step, n) != 1:
        step += 1
    return step


def _order_statistics(D: np.ndarray, rank: int) -> np.ndarray:
    """The (rank - 1)-th and rank-th smallest entries of a square C-contiguous
    D, 0 < rank < D.size, as np.sort(D, axis=None)[rank - 1 : rank + 1] gives
    them, without a copy of D.

    A sorted strided sample brackets the rank.  One pass over blocks counts
    the entries below the bracket and collects those inside it, and only the
    collected entries are partitioned.  A side the bracket missed is widened
    to infinity for another pass.
    """
    values = D.reshape(-1)
    step = _sample_step(D.shape[0])
    sample = np.sort(values[::step])
    slack = 4 * isqrt(sample.size)
    lo = sample[max(rank // step - slack, 0)]
    hi = sample[min(rank // step + slack, sample.size - 1)]
    while True:
        below, inside = _bracket_pass(values, lo, hi)
        missed_low, missed_high = below >= rank, below + inside.size <= rank
        if not (missed_low or missed_high):
            k = rank - below
            inside = np.partition(inside, k)  # one kth: far faster than two
            return np.array([inside[:k].max(), inside[k]])
        if missed_low:
            lo = -np.inf
        if missed_high:
            hi = np.inf


def median_heuristic(D: np.ndarray) -> float:
    """Bandwidth h = median of all pairwise distances over distinct pairs.

    `D` is the (n, n) squared distances from squared_distances; it is read,
    not copied.  Even pair counts take the mean of the two central order
    statistics.  Raises DegenerateBandwidthError when the median is out of
    the kernel's range: zero, or so small or large that 2h^2 is 0 or inf.
    """
    n = D.shape[0]
    pairs = n * (n - 1) // 2
    # D holds n exact zeros on its diagonal and every pair twice, so the k-th
    # smallest pair is the (n + 2k)-th and (n + 2k + 1)-th smallest entry of
    # D.  With half = pairs // 2, entry n + 2 half is the upper central pair
    # and entry n + 2 half - 1 the lower one of an even count.  sqrt is
    # monotone, so the square roots of the central order statistics are those
    # of the distances: this is np.median of the n(n-1)/2 pairwise distances
    # bit for bit, without the square root of every pair.
    lower, upper = _order_statistics(D, n + 2 * (pairs // 2))
    central = np.array([upper] if pairs % 2 else [lower, upper])
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
