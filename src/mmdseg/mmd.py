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
its row sums from rank masks on the block or its float32 copy, with a
certified band per draw (`masked_maxima`); a strong-signal block's draws can
be bounded from a low-rank factor of the centered Gram in O(K m) each, with
no O(m^2) sweep (`low_rank_bound`, `low_rank_maxima`).
"""

from __future__ import annotations

import warnings
from math import ceil

import numpy as np

from .errors import ConfigurationError
from .rng import TAG_BASIS, stream

# Both sides of any tested split keep at least this many observations, on
# top of the delta exclusion; recursion on short segments must terminate.
MIN_SIDE = 2

# V-statistics with a PSD kernel are provably >= 0; anything below this is
# floating-point cancellation gone wrong rather than roundoff.
CLAMP_WARN_THRESHOLD = -1e-9

# Bytes of each scratch temporary: masked_maxima's rank masks (with a
# float32 copy beside them), and amoc.permutation_test's chunks of draws
# with their ranks.
_SCRATCH_BYTES = 1 << 20

# Columns of the low-rank tier's subspace basis: the widest W it builds.
_RANK = 8


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


def _gamma(n: int, u: float = 2.0**-53) -> float:
    """Higham's gamma_n = n u / (1 - n u), for float64's u = 2^-53 by default."""
    return n * u / (1.0 - n * u)


def masked_maxima(gram: np.ndarray, sums: np.ndarray, perms, delta: float, scale: float):
    """(maxima, minima, bands) of the split curve of gram reordered by each
    row p of perms: its maximum over the admissible range (clamped at 0, with
    no warning), its unclamped minimum over every t, and a band that bounds
    the curve's error at every t.  scale is at least every |gram| entry.

    No reordered copy of the Gram matrix is built.  With r the inverse of a
    permutation p, the strict-lower row sums of the reordered matrix are
    S[a] = sum_b gram[a, b] [r_b < r_a] on the matrix as it is, so one rank
    mask per draw replaces the m x m gather and its cumulative sum.  They are
    taken over `sums`, gram itself or its float32 copy, in sums' dtype, in
    chunks of up to _SCRATCH_BYTES // m^2 draws (at least one); the diagonal and
    the full row sums always come from gram.  A chunk's masks span as many
    rows as the budget holds: all of _SCRATCH_BYTES over gram, half of what
    a copy leaves of it.  No row sum's order depends on the chunk or the
    span, so a draw's values are the same whatever the other draws passed.

    The band.  Each term of a masked row sum has |term| <= scale and carries
    relative error at most u, sums' unit roundoff, so in any summation order
    the sum errs by at most gamma = gamma_{m+1} of its terms' absolute sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
    Only within_left carries that error e(t): cross = left_rows - within_left
    and within_right = total - 2 left_rows + within_left, with left_rows and
    total from gram's row sums, so rho(t) moves by e(t) ((m-t)/t + t/(m-t)
    + 2) / m^2 = e(t) / (t (m-t)).  Two bounds hold, with W(t) the exact
    within-left sum of absolute values:
      - |e(t)| <= gamma W(t), from the rows before t;
      - |e(t)| <= |E| + gamma (W(m) - W(t)), from the rows at t and after:
        the whole within-left sum is the block total for every draw, so its
        error E = e(m) is known, and e(t) = E minus those rows' error.
    W(t) <= scale t^2 and W(m) - W(t) <= scale (m^2 - t^2).  For t <= m/2
    the first bound moves rho(t) by at most gamma scale t / (m-t) <= gamma
    scale; for t > m/2 the second moves it by at most |E| / (t (m-t)) +
    gamma scale (m+t) / t < |E| / (m-1) + 3 gamma scale, since t (m-t) >=
    m - 1.  So band = 3 gamma scale + |E| / (m-1).

    So a draw's exact maximum lies within its band of maxima, and its curve
    falls below CLAMP_WARN_THRESHOLD only if its minimum comes within its band
    of that threshold, up to the float64 roundoff of the rest of the sweep
    (and, in float32, 2^-150 per entry below the normal range), which the
    caller's margin covers.
    """
    perms = np.asarray(perms, dtype=np.intp)
    m = gram.shape[0]
    t_min, t_max = admissible_range(m, delta)
    ranks = np.empty(perms.shape, dtype=np.min_scalar_type(m))  # narrow: faster masks
    np.put_along_axis(ranks, perms, np.arange(m), axis=1)
    diag = np.diagonal(gram)
    rows = gram.sum(axis=1)
    gamma = _gamma(m + 1, np.finfo(sums.dtype).eps / 2)
    step = max(1, min(_SCRATCH_BYTES // (m * m), len(perms)))  # draws per chunk
    mask_bytes = _SCRATCH_BYTES if sums is gram else (_SCRATCH_BYTES - sums.nbytes) // 2
    span = min(max(1, mask_bytes // (step * m)), m)  # mask rows per einsum
    maxima, minima, bands = np.empty((3, perms.shape[0]))
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
        wl = np.cumsum(wl_rows, axis=1)
        left_rows = np.cumsum(rows.take(p), axis=1)
        values = _rho_from_sums(wl, left_rows)
        maxima[draws] = np.maximum(values[:, t_min - 1 : t_max].max(axis=1), 0.0)
        minima[draws] = values.min(axis=1)
        bands[draws] = 3.0 * gamma * scale + np.abs(wl[:, -1] - left_rows[:, -1]) / (m - 1)
    return maxima, minima, bands


def _centered_product(gram: np.ndarray, V: np.ndarray) -> np.ndarray:
    """C V for the centered C = H gram H, H = I - 1 1^T / m, with no m x m temporary."""
    Z = gram @ (V - V.mean(axis=0))
    Z -= Z.mean(axis=0)
    return Z


def _orthonormalize(Q: np.ndarray) -> np.ndarray:
    """Q's columns orthonormalized in place, in order, by Gram-Schmidt applied twice."""
    for k in range(Q.shape[1]):
        q = Q[:, k]
        for _ in range(2):
            q -= Q[:, :k] @ (Q[:, :k].T @ q)
        q /= np.sqrt(q @ q)
    return Q


def low_rank_bound(gram: np.ndarray, delta: float, target: float, budget: float):
    """(W, below) such that every draw p with low_rank_maxima(W, [p], delta) <
    below has an exact split curve below target at every admissible t, or None.

    A draw's curve is rho(t) = t (m-t) / m^2 v^T C v, with v = 1_L / t -
    1_R / (m-t) in draw order and C = H gram H (1^T v = 0, so C may replace
    gram).  For any m x K matrix W and E = C - W W^T, |v^T E v| <= ||E||_F
    |v|^2 and |v|^2 = m / (t (m-t)), so rho(t) lies within ||E||_F / m of
    t (m-t) / m^2 |W^T v|^2.  That equals q(t) = sum_k P_k(t)^2 / (t (m-t)),
    P_k the prefix sums of W's column k in draw order, when 1^T W = 0.  And
    ||E||_F^2 = ||C||_F^2 - 2 tr(W^T C W) + ||W^T W||_F^2 for any W, with
    ||C||_F^2 = ||gram||_F^2 - (2/m) |gram 1|^2 + (1^T gram 1)^2 / m^2.  So
    neither W's departure from orthonormality nor how well it captures C
    can make the bound fail; they only loosen it.

    W comes from randomized subspace iteration (Halko, Martinsson & Tropp
    2011, SIAM Review 53): Q orthonormalizes C^3 Y for a fixed Philox start
    Y of _RANK columns, B = Q^T C Q, K is the smallest width whose estimated
    slack sqrt(||C||_F^2 - ||B[:K, :K]||_F^2) / m is below budget, and W =
    Q[:, :K] L with L L^T = B[:K, :K] (Cholesky): W W^T is the Rayleigh-Ritz
    compression of C, so q needs no weights.  None comes back when no
    K <= _RANK passes or B[:K, :K] has no Cholesky factor.  All this holds
    for any symmetric gram with entries in [-1, 1]; whether a decided draw
    could have warned is the caller's to know (amoc.permutation_test).

    Roundoff, with u = 2^-53 and gamma_n = n u / (1 - n u):
      - ||E||_F^2.  Its three terms are at most 4 ||gram||_F^2, 2 m ||W||_F^2
        (||gram||_2 <= m) and ||W||_F^4, and each is computed within
        5 gamma_{m^2 + 4m} of its size (sums of at most m^2 products, the
        centering included), so 20 gamma_{m^2 + 4m} (||gram||_F^2 +
        m ||W||_F^2 + ||W||_F^4) is added under the root before the
        cancellation, and 4u on the slack covers the root and the division.
      - 1^T W.  The centering leaves s_k = 1^T w_k with |s_k| <= sigma_k =
        |fl(s_k)| + gamma_m omega_k, omega_k = sum_i |W_ik|.  The exact
        t (m-t) / m^2 |W^T v|^2 is sum_k (P_k - t s_k / m)^2 / (t (m-t)),
        within sum_k sigma_k (2 omega_k + sigma_k) / (m t_min) of q(t), as
        |P_k| <= omega_k and m - t >= t_min.
      - q.  Each prefix sum errs by at most gamma_m omega_k, which moves q by
        at most 3 gamma_m sum_k omega_k^2 / (t_min (m - t_min)); squaring,
        adding K terms and dividing by the exact t (m-t) err by gamma_{K+1}
        of q.  below takes gamma_{K+6} there, which also covers the four
        roundings that form it.
    On model-8 Gram blocks at m = 256 to 3000 they took 2e-9 to 3e-7 off
    the threshold, against slacks near 0.03.
    """
    m = gram.shape[0]
    t_min = admissible_range(m, delta)[0]
    rows = gram.sum(axis=1)
    total, frob = rows.sum(), np.einsum("ij,ij->", gram, gram)
    norm_c = frob - 2.0 * (rows @ rows) / m + total * total / (m * m)
    Y = stream(0, TAG_BASIS).standard_normal((m, _RANK))
    for _ in range(3):  # power steps
        Y = _centered_product(gram, Y)
    Q = _orthonormalize(Y)  # centered columns stay centered, to roundoff
    B = Q.T @ _centered_product(gram, Q)
    captured = np.diagonal(np.cumsum(np.cumsum(B * B, axis=0), axis=1))  # ||B[:K, :K]||_F^2
    fits = np.flatnonzero(np.sqrt(np.maximum(norm_c - captured, 0.0)) / m < budget)
    if fits.size == 0:
        return None
    K = fits[0] + 1
    try:
        W = Q[:, :K] @ np.linalg.cholesky(B[:K, :K])
    except np.linalg.LinAlgError:
        return None
    centered = W - W.mean(axis=0)
    WtW = W.T @ W
    w2 = np.trace(WtW)
    residual = norm_c - 2.0 * np.vdot(centered, gram @ centered) + np.vdot(WtW, WtW)
    residual += 20.0 * _gamma(m * m + 4 * m) * (frob + m * w2 + w2 * w2)
    slack = np.sqrt(max(residual, 0.0)) / m * (1.0 + 2.0**-51)
    omega = np.abs(W).sum(axis=0)
    sigma = np.abs(W.sum(axis=0)) + _gamma(m) * omega
    centering = np.sum(sigma * (2.0 * omega + sigma)) / (m * t_min)
    prefix = 3.0 * _gamma(m) * np.sum(omega * omega) / (t_min * (m - t_min))
    return W, (target - slack - centering - prefix) * (1.0 - _gamma(K + 6))


def low_rank_maxima(W: np.ndarray, perms, delta: float) -> np.ndarray:
    """max over the admissible range of q(t) = sum_k P_k(t)^2 / (t (m-t)) for
    each row p of perms, P_k the prefix sums of W[p, k] (`low_rank_bound`).

    Each chunk of draws gathers W^T in draw order, K prefix sums per draw in
    half of _SCRATCH_BYTES, and adds the K squares in place with no BLAS
    call: a draw's value does not depend on the other draws passed or on the
    BLAS thread count.
    """
    perms = np.asarray(perms, dtype=np.intp)
    m, K = W.shape
    t_min, t_max = admissible_range(m, delta)
    t = np.arange(t_min, t_max + 1, dtype=np.float64)
    span = t * (m - t)
    Wt = np.ascontiguousarray(W.T)
    out = np.empty(perms.shape[0])
    step = max(1, _SCRATCH_BYTES // (16 * K * t_max))  # draws per chunk
    for lo in range(0, perms.shape[0], step):
        order = perms[lo : lo + step, :t_max].T
        P = np.empty((K, *order.shape))
        for k in range(K):
            Wt[k].take(order, out=P[k], mode="clip")  # unbuffered; order is in range
        np.cumsum(P, axis=1, out=P)
        P = P[:, t_min - 1 :]
        q = np.square(P[0], out=P[0])
        for k in range(1, K):
            q += np.square(P[k], out=P[k])
        q /= span[:, None]
        out[lo : lo + step] = q.max(axis=0)
        del P, q  # freed before the next chunk's P, not beside it
    return out
