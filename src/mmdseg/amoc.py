"""At-most-one-changepoint test: max split statistic and its permutation test.

The observed statistic is the maximum of the split curve over the admissible
range; significance comes from R random reorderings of the same Gram matrix
(kernel values are permutation-invariant, so nothing is recomputed).  The
p-value is the strict exceedance fraction #{r : T^(r) > T} / R, which gives
an exact level-alpha test for exchangeable data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .mmd import permuted_maxima, rho_curve, splittable
from .rng import check_seed, permutations

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
    """Outcome of one permutation test on the block [start, stop).

    tau_hat is the split index local to the block; start + tau_hat is the
    boundary in full-sequence coordinates.
    """

    T_n: float
    tau_hat: int
    p_value: float
    reject: bool
    permutation_stats: np.ndarray = field(repr=False)


def permutation_test(
    gram: np.ndarray,
    config: AmocConfig,
    start: int = 0,
    stop: int | None = None,
    stream_seed: int | None = None,
) -> AmocResult:
    """Exact permutation test on the block [start, stop) of the Gram matrix.

    Permutation r is drawn from the deterministic stream keyed by
    (stream_seed, r), so results do not depend on evaluation order.  All R
    draws are made by one call to `rng.permutations`, on one generator
    re-keyed per draw with the same keys `permutation_stream` uses.  Every
    draw's statistic comes from rank-masked sums over the shared block
    (`permuted_maxima`), never from recomputed kernel values.
    """
    n = gram.shape[0]
    stop = n if stop is None else stop
    if not 0 <= start < stop <= n:
        raise ConfigurationError(f"invalid block [{start}, {stop}) for n={n}")
    m = stop - start
    if not splittable(m, config.delta):
        raise ConfigurationError(f"block of {m} observations is too short to test")
    seed = config.seed if stream_seed is None else stream_seed

    block = gram[start:stop, start:stop]
    tau_hat, T_n = rho_curve(block, config.delta)

    perms = permutations(seed, config.R, m)
    stats = permuted_maxima(block, perms, config.delta)
    for i in np.flatnonzero(np.abs(stats - T_n) <= TIE_BAND):
        p = perms[i]
        stats[i] = rho_curve(block[np.ix_(p, p)], config.delta)[1]

    if config.add_one:
        p_value = (1 + int(np.count_nonzero(stats >= T_n))) / (config.R + 1)
    else:
        p_value = int(np.count_nonzero(stats > T_n)) / config.R
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

