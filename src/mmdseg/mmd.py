"""Empirical squared-MMD V-statistics and the scaled split curve.

The two-sample statistic between index blocks A and B is the V-statistic

    d(A, B) = sum(G[A, A]) / |A|^2 + sum(G[B, B]) / |B|^2
              - 2 sum(G[A, B]) / (|A| |B|)

with diagonal terms included.  The split statistic at split t of an ordered
block of size n is rho(t) = t (n - t) / n^2 * d(first t, rest); its curve
over all admissible t is computed with one prefix-sum sweep, O(n) per split
and O(n^2) total, instead of recomputing the three block sums per split.
The same sweep over permuted blocks takes its row sums from a rank mask on
the unpermuted matrix (`permuted_maxima`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from .errors import ConfigurationError

# Both sides of any tested split keep at least this many observations, on
# top of the delta exclusion; recursion on short segments must terminate.
MIN_SIDE = 2

# V-statistics with a PSD kernel are provably >= 0; anything below this is
# floating-point cancellation gone wrong rather than roundoff.
CLAMP_WARN_THRESHOLD = -1e-9

# Rank-mask entries per chunk of permuted_maxima; bounds its temporaries.
_MASK_CELLS = 1 << 20


@dataclass(frozen=True)
class RhoCurve:
    """Split-statistic values over the admissible split range.

    values[i] is the statistic at split t = t_min + i; argmax_t is the
    smallest maximizing split.
    """

    t_min: int
    t_max: int
    values: np.ndarray
    argmax_t: int
    max_value: float


def _clamp_nonnegative(values: np.ndarray | float):
    low = np.min(values) if np.ndim(values) else values
    if low < CLAMP_WARN_THRESHOLD:
        warnings.warn(
            f"split statistic clamped from {low!r} to 0; cancellation beyond "
            f"the {CLAMP_WARN_THRESHOLD} threshold",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(values, 0.0)


def split_sums(gram: np.ndarray):
    """Block sums (within_left, within_right, cross) for every split t.

    Returns three arrays of length n - 1; entry t - 1 holds the sums for the
    split putting the first t observations on the left.  The conservation
    identity within_left + within_right + 2 cross == total holds at every t
    up to roundoff.
    """
    cs = np.cumsum(gram, axis=1)
    row_prefix_diag = np.diagonal(cs)  # sum of row i through column i
    return _sums_from_rows(2.0 * row_prefix_diag - np.diagonal(gram), cs[:, -1])


def _sums_from_rows(wl_rows: np.ndarray, rows: np.ndarray):
    """split_sums along the last axis from per-row terms in split order.

    wl_rows[i] = 2 sum_{j<i} P[i, j] + P[i, i] and rows[i] = sum_j P[i, j]
    for the reordered block P.
    """
    wl = np.cumsum(wl_rows, axis=-1)  # wl[t-1] = sum of P[:t, :t]
    left_rows = np.cumsum(rows, axis=-1)  # = within_left + cross
    total = left_rows[..., -1:]
    within_left = wl[..., :-1]
    cross = left_rows[..., :-1] - within_left
    within_right = total - 2.0 * left_rows[..., :-1] + within_left
    return within_left, within_right, cross


def _split_bounds(n: int, delta: float) -> tuple[int, int]:
    if not 0.0 < delta < 0.5:
        raise ConfigurationError(f"delta must lie in (0, 1/2), got {delta}")
    return max(ceil(n * delta), MIN_SIDE), min(floor(n * (1.0 - delta)), n - MIN_SIDE)


def splittable(n: int, delta: float) -> bool:
    """True when a block of n observations admits at least one tested split."""
    t_min, t_max = _split_bounds(n, delta)
    return t_min <= t_max


def admissible_range(n: int, delta: float) -> tuple[int, int]:
    """Split bounds [max(ceil(n delta), MIN_SIDE), min(floor(n(1-delta)), n - MIN_SIDE)]."""
    t_min, t_max = _split_bounds(n, delta)
    if t_min > t_max:
        raise ConfigurationError(f"admissible split range is empty for n={n}, delta={delta}")
    return t_min, t_max


def rho_values(gram: np.ndarray) -> np.ndarray:
    """Split statistic t(n-t)/n^2 * d(first t, rest) for every t = 1..n-1."""
    return _rho_from_sums(*split_sums(gram), gram.shape[0])


def _rho_from_sums(within_left, within_right, cross, n: int) -> np.ndarray:
    t = np.arange(1, n, dtype=np.float64)
    nn = float(n) * float(n)
    values = (within_left * (n - t) / t + within_right * t / (n - t) - 2.0 * cross) / nn
    return _clamp_nonnegative(values)


def rho_curve(gram: np.ndarray, delta: float) -> RhoCurve:
    """Split curve over the admissible range, with its (max, smallest argmax)."""
    t_min, t_max = admissible_range(gram.shape[0], delta)
    values = rho_values(gram)[t_min - 1 : t_max]
    argmax = t_min + int(np.argmax(values))  # first occurrence = smallest t
    return RhoCurve(
        t_min=t_min,
        t_max=t_max,
        values=values,
        argmax_t=argmax,
        max_value=float(values[argmax - t_min]),
    )


def permuted_maxima(gram: np.ndarray, perms, delta: float) -> np.ndarray:
    """rho_curve(gram[np.ix_(p, p)], delta).max_value for each row p of perms.

    No reordered copy of the Gram matrix is built.  With r the inverse of a
    permutation p, the strict-lower row sums of the reordered matrix are
    S[a] = sum_b gram[a, b] [r_b < r_a] on the matrix as it is, so one
    rank mask per draw replaces the m x m gather and its cumulative sum.
    Draws go through in chunks of about _MASK_CELLS mask entries.  The sums
    run in another order than rho_curve's, so the maxima agree with it to
    roundoff, not bit for bit.
    """
    perms = np.asarray(perms, dtype=np.intp)
    m = gram.shape[0]
    t_min, t_max = admissible_range(m, delta)
    ranks = np.empty(perms.shape, dtype=np.min_scalar_type(m))  # narrow: faster masks
    np.put_along_axis(ranks, perms, np.arange(m), axis=1)
    diag = np.diagonal(gram)
    rows = gram.sum(axis=1)
    out = np.empty(perms.shape[0])
    step = max(1, _MASK_CELLS // (m * m))
    for lo in range(0, perms.shape[0], step):
        p, r = perms[lo : lo + step], ranks[lo : lo + step]
        lower = np.einsum("cab,ab->ca", r[:, None, :] < r[:, :, None], gram)
        wl_rows = 2.0 * np.take_along_axis(lower, p, axis=1) + diag[p]
        values = _rho_from_sums(*_sums_from_rows(wl_rows, rows[p]), m)
        out[lo : lo + step] = values[:, t_min - 1 : t_max].max(axis=1)
    return out
