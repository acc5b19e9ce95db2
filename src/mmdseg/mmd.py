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
from math import ceil, floor

import numpy as np

from .errors import ConfigurationError

# Both sides of any tested split keep at least this many observations, on
# top of the delta exclusion; recursion on short segments must terminate.
MIN_SIDE = 2

# V-statistics with a PSD kernel are provably >= 0; anything below this is
# floating-point cancellation gone wrong rather than roundoff.
CLAMP_WARN_THRESHOLD = -1e-9

# Bytes of each scratch temporary: rho_values' prefix sums, permuted_maxima's
# rank masks, and amoc.permutation_test's chunks of draws with their ranks.
_SCRATCH_BYTES = 1 << 20


def _clamp_nonnegative(values: np.ndarray) -> np.ndarray:
    low = np.min(values)
    if low < CLAMP_WARN_THRESHOLD:
        warnings.warn(
            f"split statistic clamped from {low!r} to 0; cancellation beyond "
            f"the {CLAMP_WARN_THRESHOLD} threshold",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(values, 0.0)


def _rho_from_rows(wl_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Split statistic for t = 1..m-1 along the last axis, from per-row terms
    of a block P in split order: wl_rows[i] = 2 sum_{j<i} P[i, j] + P[i, i]
    and rows[i] = sum_j P[i, j].  Their prefix sums give every split's
    within-left, within-right and cross block sums."""
    m = wl_rows.shape[-1]
    wl = np.cumsum(wl_rows, axis=-1)  # wl[t-1] = sum of P[:t, :t]
    left_rows = np.cumsum(rows, axis=-1)  # = within_left + cross
    total = left_rows[..., -1:]
    within_left = wl[..., :-1]
    cross = left_rows[..., :-1] - within_left
    within_right = total - 2.0 * left_rows[..., :-1] + within_left
    t = np.arange(1, m, dtype=np.float64)
    mm = float(m) * float(m)
    values = (within_left * (m - t) / t + within_right * t / (m - t) - 2.0 * cross) / mm
    return _clamp_nonnegative(values)


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
    """Split statistic t(n-t)/n^2 * d(first t, rest) for every t = 1..n-1.

    Row prefix sums are taken into one buffer of _SCRATCH_BYTES (or of one
    row, if larger) that every block of rows reuses, so no n x n temporary
    is made; each row's sum runs in the same order whatever the block size.
    """
    n = gram.shape[0]
    row_prefix_diag = np.empty(n)  # sum of row i through column i
    rows = np.empty(n)
    step = min(max(1, _SCRATCH_BYTES // (8 * n)), n)
    buffer = np.empty((step, n))
    for lo in range(0, n, step):
        block = gram[lo : lo + step]
        cs = np.cumsum(block, axis=1, out=buffer[: block.shape[0]])
        row_prefix_diag[lo : lo + step] = np.diagonal(cs, offset=lo)
        rows[lo : lo + step] = cs[:, -1]
    return _rho_from_rows(2.0 * row_prefix_diag - np.diagonal(gram), rows)


def rho_curve(gram: np.ndarray, delta: float) -> tuple[int, float]:
    """(argmax_t, max_value) of the split curve over the admissible range;
    argmax_t is the smallest maximizing split."""
    t_min, t_max = admissible_range(gram.shape[0], delta)
    values = rho_values(gram)[t_min - 1 : t_max]
    i = int(np.argmax(values))  # first occurrence = smallest t
    return t_min + i, float(values[i])


def permuted_maxima(gram: np.ndarray, perms, delta: float) -> np.ndarray:
    """rho_curve(gram[np.ix_(p, p)], delta)[1] for each row p of perms.

    No reordered copy of the Gram matrix is built.  With r the inverse of a
    permutation p, the strict-lower row sums of the reordered matrix are
    S[a] = sum_b gram[a, b] [r_b < r_a] on the matrix as it is, so one
    rank mask per draw replaces the m x m gather and its cumulative sum.
    Each bool mask takes at most _SCRATCH_BYTES: draws go through in chunks
    of that many cells, and a draw whose mask is larger (m > 1024) sums a
    span of rows per mask; no row sum's order depends on either.  The sums
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
    step = max(1, _SCRATCH_BYTES // (m * m))  # draws per chunk
    span = min(max(1, _SCRATCH_BYTES // m), m)  # mask rows per einsum
    for lo in range(0, perms.shape[0], step):
        p, r = perms[lo : lo + step], ranks[lo : lo + step]
        lower = np.empty(p.shape)
        for a in range(0, m, span):
            q = slice(a, a + span)
            # unnamed, the mask is freed before the next (named: 45% slower)
            np.einsum("cab,ab->ca", r[:, None, :] < r[:, q, None], gram[q], out=lower[:, q])
        wl_rows = 2.0 * np.take_along_axis(lower, p, axis=1) + diag[p]
        values = _rho_from_rows(wl_rows, rows[p])
        out[lo : lo + step] = values[:, t_min - 1 : t_max].max(axis=1)
    return out
