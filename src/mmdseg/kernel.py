"""Curve geometry and Gaussian-kernel machinery shared by every detector.

Observations are curves sampled on a common grid of p points in [0, 1],
stored row-wise in an (n, p) array.  Distances use the scaled L2 norm
sqrt((1/p) * sum (a_j - b_j)^2), the Riemann approximation of the L2[0, 1]
norm, so the bandwidth and kernel values are grid-resolution independent.

as_dataset validates the data; gram_of_rows makes the one distance pass
into the front of an (n, n) buffer.  From a copy of the condensed pairs in
the buffer's free half, median_heuristic reads the bandwidth; gram_matrix
(at a checked bandwidth) turns the pairs into kernel values where they lie,
and they are then moved into both triangles.  A run peaks at that 8n^2-byte
Gram, the rows, and 1 MiB (`mmd._SCRATCH_BYTES`) for each chunk of draws
with their ranks and for their rank masks or low-rank prefix sums, a
screened block's float32 copy included: a sweep, reordered or not, takes a
few rows of n floats.  `segment.prepare` is the one public route to a Gram.

The distance pass is scipy's compiled sqeuclidean kernel: `pdist` loads that
one file at the first pass, not the 0.3-0.5 s import of scipy.spatial.
"""

from __future__ import annotations

import functools
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateBandwidthError
from .rng import check_real


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


@functools.cache
def _distance_pybind():
    """scipy.spatial._distance_pybind, loaded alone and kept out of sys.modules."""
    folder = getattr(find_spec("scipy"), "submodule_search_locations", ["<no scipy>"])[0]
    path = os.path.join(folder, "spatial", "_distance_pybind" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no {path}")
    loader = ExtensionFileLoader("scipy.spatial._distance_pybind", path)
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def pdist(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.spatial.distance.pdist(X, "sqeuclidean", out=out), bit for bit."""
    return _distance_pybind().pdist_sqeuclidean(X, out=out)


def gram_of_rows(X: np.ndarray, h: float | None = None) -> tuple[float, np.ndarray]:
    """(bandwidth, G): h, or the median heuristic when h is None, and the
    symmetric (n, n) Gaussian Gram matrix of the rows of X, an array
    as_dataset has already validated, with exact ones on the diagonal.

    This is the run's single O(n^2 p) distance pass: the median bandwidth
    and the kernel values are both derived from it in one n x n buffer.

    Each entry lies within eps(p) = gamma_{p+4} / (e (1 - gamma_{p+4})) + 4u
    (u = 2^-53, gamma_n = n u / (1 - n u); 6e-15 at p = 128) of the Gaussian
    Gram of the rows at h* with 2 h*^2 = fl(2 h^2), which is positive
    semidefinite (Schoenberg 1938, Trans. AMS 44).  pdist sums p terms
    (a - b)^2 >= 0, so with the two divisions the exponent x errs by
    gamma_{p+4} x (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.1), moving e^-x by gamma / (e (1 - gamma)) at most, as
    y e^-y <= 1/e; exp adds 2 ulp (numpy's float64 exp: 0.69 at most), 4u;
    underflowing squares and quotients add 2^-1073 / (2h^2), below 2^-73 at
    2h^2 >= 2^-1000.  So no split curve t (m-t) / m^2 v^T G v (|v|_1 = 2) of
    a principal block, in any order, falls below -eps(p).
    """
    n, p = X.shape
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    _check_memory(n, p)
    G = np.empty((n, n))
    flat = G.reshape(-1)
    pairs = n * (n - 1) // 2
    sq = flat[:pairs]
    pdist(X, out=sq)
    sq /= p
    if h is None:
        # Until the rows move, the back half of the buffer is free, and
        # 2 pairs = n(n - 1) <= n^2: the median partitions a copy there.
        flat[pairs : 2 * pairs] = sq
        h = median_heuristic(flat[pairs : 2 * pairs])
    gram_matrix(sq, h)
    # pdist packs the strict upper triangle row by row, row i from pair
    # i n - i (i + 1) / 2.  Rows move last first: each destination lies at or
    # after its source, so a row overwrites only values that have moved.
    for i in reversed(range(n - 1)):
        start = i * n - i * (i + 1) // 2
        G[i, i + 1 :] = flat[start : start + n - 1 - i]
    # The lower triangle mirrors the upper in w x w tiles, whose source and
    # destination rows stay in cache (w = 64 and 256 were slower at n = 1000).
    w = 128
    lower = np.tri(w, k=-1, dtype=bool)
    for c in range(0, n, w):
        e = min(c + w, n)
        for lo in range(e, n, w):
            G[lo : lo + w, c:e] = G[c:e, lo : lo + w].T
        tile = G[c:e, c:e]
        np.copyto(tile, tile.T, where=lower[: e - c, : e - c])
    np.fill_diagonal(G, 1.0)  # exp(-0)
    return h, G


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
    h = check_real("bandwidth", h)
    if not _in_kernel_range(h):
        raise ConfigurationError(f"bandwidth must be positive with 2h^2 finite, got {h}")
    return h


def gram_matrix(sq: np.ndarray, h: float) -> np.ndarray:
    """Kernel values exp(-d / (2h^2)) of gram_of_rows' condensed squared
    distances d in sq, in place; returns sq.  The Gram made from them is
    shared read-only by every split statistic and permutation sweep."""
    np.divide(sq, -2.0 * h * h, out=sq)  # -d / (2h^2), exactly
    return np.exp(sq, out=sq)
