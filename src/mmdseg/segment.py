"""Multiple-changepoint detectors built on the block permutation test.

Three strategies over one shared Gram matrix and one global bandwidth:

* detect_u -- unsupervised recursive binary segmentation; every split must
  pass the permutation test, recursion stops when all blocks accept.
* detect_s -- supervised with a fixed budget K: each round force-splits
  every block, keeps only the split with the largest (segment-locally
  scaled) statistic and merges the rest back, so exactly one boundary is
  added per round and the boundary sets are nested across budgets.
* detect_ss -- semi-supervised with bounds [K_l, K_u]: detect_s at K_u,
  then backward merging of the adjacent pair with the largest permutation
  p-value until every pair is significant at the Bonferroni level
  alpha / (K_u - m + 1) or the lower bound is reached.
* detect_forward -- lower-bound-only variant: detect_s at K_l, then
  detect_u independently inside each block.

Every decision is appended to a JSON-serializable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amoc import (
    MIN_SIDE,
    AmocConfig,
    permutation_test,
    segment_seed,
    splittable,
)
from .errors import ConfigurationError
from .kernel import as_dataset, gram_matrix, median_heuristic, squared_distances
from .mmd import rho_curve
from .rng import TAG_PAIRTEST, derive_seed


@dataclass(frozen=True)
class Segmentation:
    """Strictly increasing boundary indices partitioning range(n).

    Boundary b means the change happens after observation b (1-based count),
    i.e. blocks are the half-open index ranges between consecutive
    boundaries.
    """

    n: int
    boundaries: tuple[int, ...]

    def __post_init__(self):
        bs = tuple(int(b) for b in self.boundaries)
        if any(not 0 < b < self.n for b in bs):
            raise ConfigurationError(f"boundaries {bs} must lie in (0, {self.n})")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ConfigurationError(f"boundaries {bs} must be strictly increasing")
        object.__setattr__(self, "boundaries", bs)

    @property
    def k(self) -> int:
        return len(self.boundaries)

    @property
    def breakfractions(self) -> tuple[float, ...]:
        return tuple(b / self.n for b in self.boundaries)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        edges = (0, *self.boundaries, self.n)
        return tuple(zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class DetectionResult:
    algorithm: str
    segmentation: Segmentation
    trace: list[dict] = field(repr=False)
    bandwidth: float


def _prepare(data, h: float | None):
    """Dataset, bandwidth and Gram matrix from one pairwise-distance pass."""
    X = as_dataset(data)
    sq = squared_distances(X)
    bw = median_heuristic(X, sq) if h is None else float(h)
    return X, bw, gram_matrix(X, bw, sq)


# ---------------------------------------------------------------------------
# unsupervised
# ---------------------------------------------------------------------------


def _recurse_u(gram, config, start, stop, boundaries, trace):
    if not splittable(stop - start, config.delta):
        trace.append({"op": "skip", "block": [start, stop], "reason": "too_short"})
        return
    res = permutation_test(
        gram, config, start, stop,
        stream_seed=segment_seed(config, start, stop, gram.shape[0]),
    )
    b = start + res.tau_hat
    trace.append(
        {
            "op": "test",
            "block": [start, stop],
            "statistic": res.T_n,
            "candidate": b,
            "p_value": res.p_value,
            "reject": res.reject,
        }
    )
    if res.reject:
        boundaries.append(b)
        trace.append({"op": "split", "block": [start, stop], "boundary": b})
        _recurse_u(gram, config, start, b, boundaries, trace)
        _recurse_u(gram, config, b, stop, boundaries, trace)


def detect_u(data, config: AmocConfig, h: float | None = None) -> DetectionResult:
    """Unsupervised detection: recursive splitting gated by the permutation test.

    Depth-first, left block first; each block's permutation stream is keyed
    by its coordinates, so the result does not depend on traversal order.
    """
    X, bw, gram = _prepare(data, h)
    boundaries: list[int] = []
    trace: list[dict] = []
    _recurse_u(gram, config, 0, X.shape[0], boundaries, trace)
    return DetectionResult(
        algorithm="u",
        segmentation=Segmentation(X.shape[0], tuple(sorted(boundaries))),
        trace=trace,
        bandwidth=bw,
    )


# ---------------------------------------------------------------------------
# supervised
# ---------------------------------------------------------------------------


def _supervised_boundaries(gram, K: int, delta: float, trace: list[dict]) -> list[int]:
    n = gram.shape[0]
    boundaries: list[int] = []
    for i in range(K):
        edges = [0, *boundaries, n]
        candidates = []  # (rho, block index, boundary)
        for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if not splittable(b - a, delta):
                trace.append(
                    {"op": "sweep", "round": i, "block": [a, b], "rho": None,
                     "reason": "too_short"}
                )
                continue
            curve = rho_curve(gram[a:b, a:b], delta, min_side=MIN_SIDE)
            trace.append(
                {"op": "sweep", "round": i, "block": [a, b],
                 "candidate": a + curve.argmax_t, "rho": curve.max_value}
            )
            candidates.append((curve.max_value, j, a + curve.argmax_t))
        if not candidates:
            raise ConfigurationError(
                f"budget infeasible: no block is splittable at round {i} "
                f"(n={n}, K={K})"
            )
        # Ascending merge order with ties broken by leftmost block; the last
        # entry survives as the committed split, everything else merges back.
        candidates.sort(key=lambda c: (c[0], c[1]))
        for rho, j, _ in candidates[:-1]:
            trace.append({"op": "merge_back", "round": i, "block_index": j, "rho": rho})
        rho, j, boundary = candidates[-1]
        boundaries.append(boundary)
        boundaries.sort()
        trace.append({"op": "commit", "round": i, "boundary": boundary, "rho": rho})
    return boundaries


def detect_s(data, K: int, delta: float = 0.05, h: float | None = None) -> DetectionResult:
    """Supervised detection returning exactly K boundaries (no testing step)."""
    if K < 1:
        raise ConfigurationError(f"K must be >= 1, got {K}")
    if not 0.0 < delta < 0.5:
        raise ConfigurationError(f"delta must lie in (0, 1/2), got {delta}")
    X = as_dataset(data)
    n = X.shape[0]
    if n < 2 * (K + 1):
        raise ConfigurationError(
            f"budget K={K} needs at least {2 * (K + 1)} observations, got {n}"
        )
    X, bw, gram = _prepare(X, h)
    trace: list[dict] = []
    boundaries = _supervised_boundaries(gram, K, delta, trace)
    return DetectionResult(
        algorithm="s",
        segmentation=Segmentation(n, tuple(boundaries)),
        trace=trace,
        bandwidth=bw,
    )


# ---------------------------------------------------------------------------
# semi-supervised
# ---------------------------------------------------------------------------


def detect_ss(
    data,
    K_l: int,
    K_u: int,
    config: AmocConfig,
    h: float | None = None,
) -> DetectionResult:
    """Bounded detection: supervised at K_u, then Bonferroni-gated merging.

    Stage m tests all K_u - m + 1 adjacent block pairs; if every p-value is
    below alpha / (K_u - m + 1) the current boundaries stand, otherwise the
    pair with the largest p-value merges (ties to the leftmost pair).  The
    loop also stops once only K_l boundaries remain; the final-stage pair
    tests are skipped then, as they cannot change the output.
    """
    if K_l < 0:
        raise ConfigurationError(f"K_l must be >= 0, got {K_l}")
    if K_u < 1:
        raise ConfigurationError(f"K_u must be >= 1, got {K_u}")
    if K_l > K_u:
        raise ConfigurationError(f"K_l={K_l} exceeds K_u={K_u}")
    X, bw, gram = _prepare(data, h)
    n = X.shape[0]
    if n < 2 * (K_u + 1):
        raise ConfigurationError(
            f"upper bound K_u={K_u} needs at least {2 * (K_u + 1)} observations, got {n}"
        )
    trace: list[dict] = []
    boundaries = _supervised_boundaries(gram, K_u, config.delta, trace)

    m = 1
    while True:
        if m == K_u - K_l + 1:
            trace.append({"op": "stop", "stage": m, "reason": "lower_bound_reached"})
            break
        edges = [0, *boundaries, n]
        level = config.alpha / (K_u - m + 1)
        p_values = []
        for i in range(len(boundaries)):
            a, c = edges[i], edges[i + 2]
            res = permutation_test(
                gram, config, a, c,
                stream_seed=derive_seed(config.seed, TAG_PAIRTEST, m, i),
            )
            p_values.append(res.p_value)
            trace.append(
                {"op": "pair_test", "stage": m, "pair": i, "block": [a, c],
                 "p_value": res.p_value, "level": level}
            )
        if max(p_values) < level:
            trace.append({"op": "stop", "stage": m, "reason": "all_pairs_significant"})
            break
        j = int(np.argmax(p_values))  # ties resolve to the leftmost pair
        removed = boundaries.pop(j)
        trace.append(
            {"op": "merge", "stage": m, "pair": j, "boundary": removed,
             "p_value": p_values[j]}
        )
        m += 1

    return DetectionResult(
        algorithm="ss",
        segmentation=Segmentation(n, tuple(boundaries)),
        trace=trace,
        bandwidth=bw,
    )


# ---------------------------------------------------------------------------
# forward (lower bound only)
# ---------------------------------------------------------------------------


def detect_forward(
    data,
    K_l: int,
    config: AmocConfig,
    h: float | None = None,
) -> DetectionResult:
    """Supervised pass at K_l, then unsupervised recursion inside each block."""
    if K_l < 0:
        raise ConfigurationError(f"K_l must be >= 0, got {K_l}")
    if K_l == 0:
        return detect_u(data, config, h)
    X = as_dataset(data)
    n = X.shape[0]
    if n < 2 * (K_l + 1):
        raise ConfigurationError(
            f"lower bound K_l={K_l} needs at least {2 * (K_l + 1)} observations, got {n}"
        )
    X, bw, gram = _prepare(X, h)
    trace: list[dict] = []
    boundaries = _supervised_boundaries(gram, K_l, config.delta, trace)
    all_boundaries = list(boundaries)
    edges = [0, *boundaries, n]
    for a, b in zip(edges[:-1], edges[1:]):
        _recurse_u(gram, config, a, b, all_boundaries, trace)
    return DetectionResult(
        algorithm="forward",
        segmentation=Segmentation(n, tuple(sorted(all_boundaries))),
        trace=trace,
        bandwidth=bw,
    )
