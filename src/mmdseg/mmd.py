"""Empirical squared-MMD V-statistics and the scaled split curve.

The two-sample statistic between index blocks A and B is the V-statistic

    d(A, B) = sum(G[A, A]) / |A|^2 + sum(G[B, B]) / |B|^2
              - 2 sum(G[A, B]) / (|A| |B|)

with diagonal terms included.  The split statistic at split t of an ordered
block of size n is rho(t) = t (n - t) / n^2 * d(first t, rest); its curve
over all admissible t comes from one sweep of running sums, O(n) per split
and O(n^2) total, instead of recomputing the three block sums per split.
Admissible splits trim max(ceil(n delta), MIN_SIDE) observations off each end.
A permuted block's sweep streams its reordered rows (an `order`), or takes
its row sums from rank masks on the matrix as it is, in float64
(`permuted_maxima`) or screened in float32 (`screened_maxima`).
"""

from __future__ import annotations

import warnings
from math import ceil

import numpy as np

from .errors import ConfigurationError

# Both sides of any tested split keep at least this many observations, on
# top of the delta exclusion; recursion on short segments must terminate.
MIN_SIDE = 2

# V-statistics with a PSD kernel are provably >= 0; anything below this is
# floating-point cancellation gone wrong rather than roundoff.
CLAMP_WARN_THRESHOLD = -1e-9

# Bytes of each scratch temporary: permuted_maxima's rank masks,
# screened_maxima's float32 copy with its rank masks, and
# amoc.permutation_test's chunks of draws with their ranks.
_SCRATCH_BYTES = 1 << 20


def _clamp_nonnegative(values: np.ndarray) -> np.ndarray:
    low = np.min(values, initial=np.inf)
    if low < CLAMP_WARN_THRESHOLD:
        warnings.warn(
            f"split statistic clamped from {low!r} to 0; cancellation beyond "
            f"the {CLAMP_WARN_THRESHOLD} threshold",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(values, 0.0)


def _rho_from_sums(wl: np.ndarray, left_rows: np.ndarray) -> np.ndarray:
    """Split statistic for t = 1..m-1 along the last axis, unclamped, from
    prefix sums over a block P in split order: wl[t-1] = sum of P[:t, :t]
    and left_rows[t-1] = sum of P[:t, :], so left_rows[-1] is P's total.
    They give every split's within-left, within-right and cross block sums."""
    m = wl.shape[-1]
    total, left, within_left = left_rows[..., -1:], left_rows[..., :-1], wl[..., :-1]
    t = np.arange(1, m, dtype=np.float64)
    # (within_left (m-t) / t + within_right t / (m-t) - 2 cross) / m^2, with
    # within_right = total - 2 left + within_left and cross = left -
    # within_left, evaluated in that order in place
    cross = left - within_left
    within_right = np.subtract(total, 2.0 * left)
    within_right += within_left
    within_right *= t
    within_right /= m - t
    values = within_left * (m - t)
    values /= t
    values += within_right
    cross *= 2.0
    values -= cross
    values /= float(m) * float(m)
    return values


def _trim(n: int, delta: float) -> int:
    if not 0.0 < delta < 0.5:
        raise ConfigurationError(f"delta must lie in (0, 1/2), got {delta}")
    return max(ceil(n * delta), MIN_SIDE)


def splittable(n: int, delta: float) -> bool:
    """True when n observations admit a split: 2 t <= n for admissible_range's trim t."""
    return 2 * _trim(n, delta) <= n


def admissible_range(n: int, delta: float) -> tuple[int, int]:
    """Split bounds (t, n - t), t = max(ceil(n delta), MIN_SIDE): each end
    leaves out t observations.  A block with 2 t > n is too short."""
    t = _trim(n, delta)
    if 2 * t > n:
        raise ConfigurationError(f"block of {n} observations is too short at delta={delta}")
    return t, n - t


def rho_values(gram: np.ndarray, order=None) -> np.ndarray:
    """Split statistic t(n-t)/n^2 * d(first t, rest) for every t = 1..n-1
    of a symmetric block, such as a Gram block, or of gram[np.ix_(order, order)].

    Symmetry makes row i's sums in column order column i's sums in row
    order, so one running sum over the rows gives both: once rows 0..i are
    added, col[i] is row i's sum through the diagonal, and after the last
    row col holds every row total, in np.cumsum's order of additions.  The
    reordered rows gram[i].take(order), i in order, come one at a time, with
    no copy made: the copy's bits in O(n) memory.
    """
    rows = iter(gram) if order is None else (gram[i].take(order) for i in order)
    diag = np.diagonal(gram) if order is None else np.diagonal(gram)[order]
    col = next(rows).copy()
    row_prefix_diag = np.empty(diag.shape[0])  # sum of row i through column i
    row_prefix_diag[0] = col[0]
    for i, row in enumerate(rows, 1):
        col += row
        row_prefix_diag[i] = col[i]
    wl = np.cumsum(2.0 * row_prefix_diag - diag)
    return _clamp_nonnegative(_rho_from_sums(wl, np.cumsum(col)))


def rho_curve(gram: np.ndarray, delta: float, order=None) -> tuple[int, float]:
    """(argmax_t, max_value) of the split curve rho_values(gram, order) over
    the admissible range; argmax_t is the smallest maximizing split."""
    t_min, t_max = admissible_range(gram.shape[0], delta)
    values = rho_values(gram, order)[t_min - 1 : t_max]
    i = int(np.argmax(values))  # first occurrence = smallest t
    return t_min + i, float(values[i])


def _masked_sums(gram: np.ndarray, perms: np.ndarray, sums: np.ndarray, mask_bytes: int):
    """Yield (draws, wl, left_rows): the _rho_from_sums prefix sums of gram
    reordered by each draw of perms[draws], for chunks of _SCRATCH_BYTES // m^2
    draws (at least one).

    No reordered copy of the Gram matrix is built.  With r the inverse of a
    permutation p, the strict-lower row sums of the reordered matrix are
    S[a] = sum_b gram[a, b] [r_b < r_a] on the matrix as it is, so one
    rank mask per draw replaces the m x m gather and its cumulative sum.
    Those sums are taken over `sums`, gram itself or a float32 copy of it,
    in sums' dtype; the diagonal and the full row sums always come from
    gram.  A chunk's bool masks span as many rows as mask_bytes holds (at
    least one); no row sum's order depends on the chunk or the span.
    """
    m = gram.shape[0]
    ranks = np.empty(perms.shape, dtype=np.min_scalar_type(m))  # narrow: faster masks
    np.put_along_axis(ranks, perms, np.arange(m), axis=1)
    diag = np.diagonal(gram)
    rows = gram.sum(axis=1)
    step = max(1, _SCRATCH_BYTES // (m * m))  # draws per chunk
    span = min(max(1, mask_bytes // (step * m)), m)  # mask rows per einsum
    for lo in range(0, perms.shape[0], step):
        draws = slice(lo, lo + step)
        p, r = perms[draws], ranks[draws]
        lower = np.empty(p.shape, dtype=sums.dtype)
        for a in range(0, m, span):
            q = slice(a, a + span)
            # unnamed, the mask is freed before the next (named: 45% slower)
            np.einsum("cab,ab->ca", r[:, None, :] < r[:, q, None], sums[q], out=lower[:, q])
        # wl_rows[c, i] = 2 lower[c, p[c, i]] + diag[p[c, i]], read from the flat array
        wl_rows = (2.0 * lower + diag).ravel().take(p + m * np.arange(len(p))[:, None])
        yield draws, np.cumsum(wl_rows, axis=1), np.cumsum(rows.take(p), axis=1)


def permuted_maxima(gram: np.ndarray, perms, delta: float) -> np.ndarray:
    """rho_curve(gram, delta, p)[1], to roundoff, for each row p of perms.

    The curves come from rank-mask sums over gram (`_masked_sums`), each
    chunk's masks within _SCRATCH_BYTES, in another order than rho_curve's;
    a draw's maximum is the same whatever the other draws passed.
    """
    perms = np.asarray(perms, dtype=np.intp)
    t_min, t_max = admissible_range(gram.shape[0], delta)
    out = np.empty(perms.shape[0])
    for draws, wl, left_rows in _masked_sums(gram, perms, gram, _SCRATCH_BYTES):
        values = _clamp_nonnegative(_rho_from_sums(wl, left_rows))
        out[draws] = values[:, t_min - 1 : t_max].max(axis=1)
    return out


def screened_maxima(gram: np.ndarray, copy: np.ndarray, perms, delta: float):
    """(maxima, minima, bands) of each row p of perms, from the mask sums of
    `_masked_sums` over copy, the float32 copy of a gram with entries in [0, 1].

    Every term of a masked row sum is >= 0 and is rounded to float32 with
    relative error at most u = 2^-24, so in any summation order the sum errs
    by at most gamma = (m+1)u / (1 - (m+1)u) of itself (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.2).  Only within_left
    carries that error e(t): cross = left_rows - within_left and within_right
    = total - 2 left_rows + within_left, with left_rows and total exact, so
    rho(t) moves by e(t) ((m-t)/t + t/(m-t) + 2) / m^2 = e(t) / (t (m-t)).
    Two bounds hold, with W(t) the exact within-left sum:
      - |e(t)| <= gamma W(t), from the rows before t;
      - |e(t)| <= |E| + gamma (total - W(t)), from the rows at t and after:
        W(m) = total for every draw, so the whole sum's error E = e(m) is
        known, and e(t) = E minus those rows' error.
    The screen takes only blocks with entries in [0, 1], so W(t) <= t^2 and
    total - W(t) <= m^2 - t^2.  For t <= m/2 the first bound moves rho(t) by
    at most gamma t / (m-t) <= gamma; for t > m/2 the second moves it by at
    most |E| / (t (m-t)) + gamma (m+t) / t < |E| / (m-1) + 3 gamma, since
    t (m-t) >= m - 1.  So one number per draw, band = 3 gamma + |E| / (m-1),
    bounds the error at every t.  (With the first bound alone, a band near
    t = m - 1 outgrows the curve itself at m = 300.)

    maxima are the screened curves' maxima over the admissible range (as
    permuted_maxima clamps, with no warning), minima their unclamped minima
    over every t, and bands each draw's band.  So a draw's float64 maximum
    lies within its band of its screened one, and its float64 curve falls
    below CLAMP_WARN_THRESHOLD only if its screened minimum comes within its
    band of that threshold, up to float64 roundoff (and 2^-150 per entry
    below float32's normal range), which the caller's margin covers.
    Each einsum's masks take half of what the copy leaves of _SCRATCH_BYTES,
    so the copy and masks stay within (_SCRATCH_BYTES + 4 m^2) / 2, below the
    float64 route's masks: with all of it, mc-bounded's peak RSS rose 0.6 MB.
    """
    perms = np.asarray(perms, dtype=np.intp)
    m = gram.shape[0]
    t_min, t_max = admissible_range(m, delta)
    u = 2.0**-24  # float32's unit roundoff
    gamma = (m + 1) * u / (1.0 - (m + 1) * u)
    maxima, minima, bands = np.empty((3, perms.shape[0]))
    mask_bytes = (_SCRATCH_BYTES - copy.nbytes) // 2
    for draws, W, left_rows in _masked_sums(gram, perms, copy, mask_bytes):
        values = _rho_from_sums(W, left_rows)
        maxima[draws] = np.maximum(values[:, t_min - 1 : t_max].max(axis=1), 0.0)
        minima[draws] = values.min(axis=1)
        bands[draws] = 3.0 * gamma + np.abs(W[:, -1] - left_rows[:, -1]) / (m - 1)
    return maxima, minima, bands
