"""At-most-one-changepoint test: max split statistic and its permutation test.

The observed statistic is the maximum of the split curve over the admissible
range; significance comes from R random reorderings of the same Gram matrix
(kernel values are permutation-invariant, so nothing is recomputed).  The
p-value is the strict exceedance fraction #{r : T^(r) > T} / R, which gives
an exact level-alpha test for exchangeable data.

A caller that needs only the decision (the recursive detectors) may ask the
test to stop once it accepts: when the exceedance count reaches h, the
smallest count whose full-run p-value is >= alpha, no later draw can bring
p below alpha.  Such a test reports the Besag-Clifford (1991) sequential
p-value h / L after L draws, itself a valid p-value and never below alpha,
and its decision is the full run's on every input.

Each test draws by one route, chosen before its first draw: a low-rank
bound on vouched PSD blocks of m >= 150 whose T stands far above their mean
draw, or else rank masks over the block's float32 copy (entries in [0, 1],
m <= 457) or over the block itself.  Each is certified to place a draw
against T exactly as the gathered per-draw route would, or to leave it
undecided, and one recheck on the draw's reordered curve settles each
undecided draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mmd
from .errors import ConfigurationError
from .rng import check_integer, check_real, check_seed, permutation_chunks

# 2 TIE_BAND A, A the block's largest |entry|, covers float64 roundoff beyond
# mmd.masked_maxima's band (masked and reordered Gram-block maxima agree within
# 1.3e-14 at m = 4..3000); a draw that close to T_n is recomputed in its order.
TIE_BAND = 1e-12

# The low-rank tier is built only when _MEAN_SHARE mean draws lie below this
# share of T_n (a test's first 2h draws peak near 3.7 mean draws, at most 9.5).
_TIER_GATE = 0.8
_MEAN_SHARE = 6.0


@dataclass(frozen=True)
class AmocConfig:
    """Parameters of the permutation test (and of the detectors built on it)."""

    delta: float = 0.05
    R: int = 199
    alpha: float = 0.05
    seed: int = 0
    add_one: bool = False  # opt-in (1 + #{T^(r) >= T}) / (R + 1) variant

    def __post_init__(self):
        if not 0.0 < check_real("delta", self.delta) < 0.5:
            raise ConfigurationError(f"delta must lie in (0, 1/2), got {self.delta}")
        if check_integer("R", self.R) < 1:
            raise ConfigurationError(f"R must be >= 1, got {self.R}")
        if not 0.0 < check_real("alpha", self.alpha) < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not isinstance(self.add_one, (bool, np.bool_)):
            raise ConfigurationError(f"add_one must be a bool, got {self.add_one!r}")
        check_seed(self.seed)


@dataclass(frozen=True)
class AmocResult:
    """Outcome of one permutation test on the block gram[a:c, a:c].

    tau_hat is the split index local to the block; a + tau_hat is the
    boundary in full-sequence coordinates.  permutation_stats holds the
    statistics of the draws made, in draw order: all R, or the first L when
    the test stopped on an accept.  Each is its reordered curve's maximum (a
    rechecked draw), its max q (low-rank) or its rank-mask maximum, and lies
    on its reordered curve's side of T_n, so every count is exact.
    """

    T_n: float
    tau_hat: int
    p_value: float
    reject: bool
    permutation_stats: np.ndarray = field(repr=False)


def _p_value(exceedances: int, draws: int, add_one: bool) -> float:
    return (1 + exceedances) / (draws + 1) if add_one else exceedances / draws


def _accept_count(config: AmocConfig) -> int:
    """h: the smallest exceedance count whose p-value over all R draws is >= alpha,
    ceil(alpha R) or, under add_one, ceil(alpha (R + 1)) - 1, at least 0; h
    then moves until _p_value agrees, as the products round."""
    R, alpha, add_one = config.R, config.alpha, config.add_one
    h = max(int(np.ceil(alpha * (R + 1))) - 1 if add_one else int(np.ceil(alpha * R)), 0)
    while h > 0 and _p_value(h - 1, R, add_one) >= alpha:
        h -= 1
    while _p_value(h, R, add_one) < alpha:
        h += 1
    return h


def _chunk_ends(R: int, h: int, m: int) -> list[int]:
    """Draw counts after chunks of 2h, 4h, 8h, ... draws (an early accept stops
    after few) up to R, each capped to the draws and ranks mmd._SCRATCH_BYTES fits."""
    cell = np.dtype(np.intp).itemsize + np.min_scalar_type(m).itemsize
    cap = max(1, mmd._SCRATCH_BYTES // (cell * m))
    ends, drawn, chunk = [], 0, max(2 * h, 1)
    while drawn < R:
        drawn = min(drawn + min(chunk, cap), R)
        ends.append(drawn)
        chunk *= 2
    return ends


def _masked(block, sums, scale, perms, T_n, delta):
    """Rank-mask maxima over sums (the block or its float32 copy), and which are unsure:
    within band + 2 TIE_BAND scale of T_n, or with minima that close to CLAMP_WARN_THRESHOLD."""
    maxima, minima, band = mmd.masked_maxima(block, sums, perms, delta, scale)
    margin = band + 2 * TIE_BAND * scale
    return maxima, (np.abs(maxima - T_n) <= margin) | (minima <= mmd.CLAMP_WARN_THRESHOLD + margin)


def permutation_test(
    block: np.ndarray, config: AmocConfig, stop_on_accept: bool = False, psd: bool = False
) -> AmocResult:
    """Exact permutation test on a block of the Gram matrix, e.g. the view
    gram[a:c, a:c]; tau_hat is local to the block.

    Permutation r is drawn from the deterministic stream keyed by
    (config.seed, r) (`rng.permutation_chunks`), so results do not depend on
    evaluation order.  Every draw's statistic comes from the block as it is,
    by one route per test, chosen before the first draw.

    psd vouches that block is a principal block of a Gram that
    `kernel.gram_of_rows` certifies to 1e-10 (`segment`'s are): no exact curve
    lies below -1e-10.  Then at m >= 150 the route is the low-rank tier if it
    builds, from B and T_n alone: every split's mean over draws is mu =
    (tr B - 1^T B 1 / m) / (m (m-1)), as E[v v^T] = |v|^2 H / (m-1) (v as in
    `mmd.low_rank_bound`).  When _MEAN_SHARE mu < _TIER_GATE T_n,
    `mmd.low_rank_bound` takes the smallest K whose slack fits under the
    difference, and each draw whose max q lies below its threshold is decided
    below T_n - 2 TIE_BAND A with no float64 curve (none could have warned).

    Any other test takes each draw's maximum, minimum and certified band from
    rank-masked sums (`mmd.masked_maxima`) over the block's float32 copy when
    its entries lie in [0, 1] and the copy (4 m^2 bytes) and one draw's mask
    (m^2) fit in mmd._SCRATCH_BYTES (m <= 457), over the block itself
    otherwise, and decides a draw unless its maximum lies within band +
    margin of T_n or its minimum that close to mmd.CLAMP_WARN_THRESHOLD; band
    and margin 2 TIE_BAND A scale with A, the block's largest |entry|.  Either
    route's undecided draws are rechecked by `mmd.rho_curve` in the draw's
    order, with the gathered copy's bits.  So every count, p-value, decision
    and stop L is the gathered route's at any entry scale, and each rechecked
    draw whose curve dips warns once.

    Draws come in the chunks of `_chunk_ends`, and the test stops at the draw
    L that brings the exceedance count to h.  By default h = R + 1, which no
    count reaches, so all R draws are made.  With stop_on_accept h is
    _accept_count(config): the test then reports p = h / L, or (1 + h) / (L + 1)
    under add_one, and permutation_stats holds those L draws (none when h = 0).
    Chunking changes no value, and every decision equals the full run's.
    """
    m = block.shape[0]
    tau_hat, T_n = mmd.rho_curve(block, config.delta)

    h = _accept_count(config) if stop_on_accept else config.R + 1
    low, high = block.min(), block.max()
    scale = max(high, -low)  # A, with no m x m temporary
    bound = None
    if psd and 150 <= m:  # below 150 rows the tier saved no time
        mu = (np.trace(block) - block.sum() / m) / (m * (m - 1))
        if (budget := _TIER_GATE * T_n - _MEAN_SHARE * mu) > 0:
            bound = mmd.low_rank_bound(block, config.delta, T_n - 2 * TIE_BAND * scale, budget)
    if bound is None:
        screen = 5 * m * m <= mmd._SCRATCH_BYTES and 0.0 <= low and high <= 1.0
        sums = block.astype(np.float32) if screen else block
    stats, hits = np.empty(0), np.empty(0, dtype=np.intp)
    # h = 0: even no exceedance gives p >= alpha, so the test accepts undrawn
    for perms in permutation_chunks(config.seed, m, _chunk_ends(config.R, h, m)) if h else ():
        if bound is None:
            chunk, unsure = _masked(block, sums, scale, perms, T_n, config.delta)
        else:
            chunk = mmd.low_rank_maxima(bound[0], perms, config.delta)
            unsure = chunk >= bound[1]  # not decided below T_n
        for i in np.flatnonzero(unsure):
            chunk[i] = mmd.rho_curve(block, config.delta, perms[i])[1]
        stats = np.concatenate((stats, chunk))
        hits = np.flatnonzero(stats >= T_n if config.add_one else stats > T_n)
        if hits.size >= h:
            stats = stats[: hits[h - 1] + 1]
            hits = hits[:h]
            break

    p_value = _p_value(hits.size, stats.size, config.add_one)
    # T = 0 is the statistic's minimum (all splits indistinguishable); the
    # strict-exceedance count would report p = 0 there, so rejection also
    # requires positive evidence.  Matters only for degenerate blocks.
    return AmocResult(
        T_n=T_n,
        tau_hat=tau_hat,
        p_value=p_value,
        reject=p_value < config.alpha and T_n > 0.0,
        permutation_stats=stats,
    )
