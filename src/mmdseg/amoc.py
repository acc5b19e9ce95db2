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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mmd
from .errors import ConfigurationError
from .rng import check_seed, permutation_chunks

# permuted_maxima agrees with rho_curve on a reordered copy of the block to
# well within this (1.3e-14 at most over m = 4..3000).  A draw closer than
# this to the observed statistic is recomputed on that copy, so a draw that
# ties T exactly is counted as the copy's roundoff counts it, and every
# exceedance count equals the per-draw copy route's.
TIE_BAND = 1e-12


@dataclass(frozen=True)
class AmocConfig:
    """Parameters of the permutation test (and of the detectors built on it)."""

    delta: float = 0.05
    R: int = 199
    alpha: float = 0.05
    seed: int = 0
    add_one: bool = False  # opt-in (1 + #{T^(r) >= T}) / (R + 1) variant

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ConfigurationError(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.R < 1:
            raise ConfigurationError(f"R must be >= 1, got {self.R}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        check_seed(self.seed)


@dataclass(frozen=True)
class AmocResult:
    """Outcome of one permutation test on the block gram[a:c, a:c].

    tau_hat is the split index local to the block; a + tau_hat is the
    boundary in full-sequence coordinates.  permutation_stats holds the
    statistics of the draws made, in draw order: all R of them, or the first
    L when the test stopped on an accept.
    """

    T_n: float
    tau_hat: int
    p_value: float
    reject: bool
    permutation_stats: np.ndarray = field(repr=False)


def _p_value(exceedances: int, draws: int, add_one: bool) -> float:
    return (1 + exceedances) / (draws + 1) if add_one else exceedances / draws


def _accept_count(config: AmocConfig) -> int:
    """h: the smallest exceedance count whose p-value over all R draws is >= alpha."""
    h = 0
    while _p_value(h, config.R, config.add_one) < config.alpha:
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


def permutation_test(
    block: np.ndarray, config: AmocConfig, stop_on_accept: bool = False
) -> AmocResult:
    """Exact permutation test on a block of the Gram matrix, e.g. the view
    gram[a:c, a:c]; tau_hat is local to the block.

    Permutation r is drawn from the deterministic stream keyed by
    (config.seed, r), so results do not depend on evaluation order.  Draws
    come from `rng.permutation_chunks`, on one generator re-keyed per draw
    with the same keys `permutation_stream` uses.  Every draw's statistic
    comes from rank-masked sums over the block (`permuted_maxima`), never
    from recomputed kernel values.

    Draws come in the chunks of `_chunk_ends`, and the test stops at the draw
    L that brings the exceedance count to h.  By default h = R + 1, which no
    count reaches, so all R draws are made.  With stop_on_accept h is
    _accept_count(config): the test then reports p = h / L, or (1 + h) / (L + 1)
    under add_one, and permutation_stats holds those L draws (none when h = 0).
    Chunking changes no bit, and every decision equals the full run's.
    """
    m = block.shape[0]
    if not mmd.splittable(m, config.delta):
        raise ConfigurationError(f"block of {m} observations is too short to test")
    tau_hat, T_n = mmd.rho_curve(block, config.delta)

    h = _accept_count(config) if stop_on_accept else config.R + 1
    stats, hits = np.empty(0), np.empty(0, dtype=np.intp)
    # h = 0: even no exceedance gives p >= alpha, so the test accepts undrawn
    for perms in permutation_chunks(config.seed, m, _chunk_ends(config.R, h, m)) if h else ():
        chunk = mmd.permuted_maxima(block, perms, config.delta)
        for i in np.flatnonzero(np.abs(chunk - T_n) <= TIE_BAND):
            p = perms[i]
            chunk[i] = mmd.rho_curve(block[np.ix_(p, p)], config.delta)[1]
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
