"""Multiple-changepoint detectors built on the block permutation test.

The four detectors are one pipeline over one shared Gram matrix and one
global bandwidth, and differ only in how they use prior knowledge of the
changepoint count:

1. prepare: load the data, check that k supervised rounds fit it, then make
   one distance pass for the bandwidth and the Gram matrix;
2. k supervised rounds: each force-splits every block, keeps only the split
   with the largest (segment-locally scaled) statistic and merges the rest
   back, so exactly one boundary is added per round and the boundary sets
   are nested across budgets;
3. refine: nothing for detect_s (k = K); Bonferroni-gated backward merging
   down towards K_l for detect_ss (k = K_u); permutation-gated recursive
   splitting inside every block for detect_u (k = 0) and detect_forward
   (k = K_l).

Every decision is appended to a JSON-serializable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .amoc import AmocConfig, permutation_test
from .errors import ConfigurationError
from .kernel import as_dataset, check_bandwidth, gram_of_rows
from .mmd import MIN_SIDE, rho_curve, splittable
from .rng import TAG_PAIRTEST, TAG_SEGMENT, check_integer, derive_seed

# The widest grid where gram_of_rows' certificate is within 1e-10 (at 2h^2 >= 2^-1000)
PSD_GRID = 2**21


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
        object.__setattr__(self, "n", check_integer("n", self.n))
        bs = tuple(check_integer("boundary", b) for b in self.boundaries)
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


def prepare(data, h: float | None = None, k: int = 0):
    """(bandwidth, Gram matrix) from one pairwise-distance pass; the
    bandwidth is h, or the median heuristic when h is None.  With k > 0 the
    pass is made only once k supervised rounds are known to fit the data."""
    X = as_dataset(data)
    n = X.shape[0]
    if k and n < (need := MIN_SIDE * (k + 1)):
        raise ConfigurationError(
            f"a budget of {k} changepoints needs at least {need} observations, got {n}"
        )
    if h is not None:
        h = check_bandwidth(h)  # before the O(n^2 p) pass, not after it
    return gram_of_rows(X, h)


def _detect(algorithm: str, data, config: AmocConfig, h, k: int, K_l: int = 0):
    """k supervised rounds, then the algorithm's refinement of their blocks."""
    X = as_dataset(data)
    bw, gram = prepare(X, h, k)
    psd = X.shape[1] <= PSD_GRID and 2.0 * bw * bw >= 2.0**-1000
    n = gram.shape[0]
    trace: list[dict] = []
    boundaries = _supervised_boundaries(gram, k, config.delta, trace)
    if algorithm == "ss":
        _merge_insignificant(gram, config, boundaries, K_l, trace, psd)
    elif algorithm != "s":
        for a, b in Segmentation(n, boundaries).blocks:
            _recurse_u(gram, config, a, b, boundaries, trace, psd)
    return DetectionResult(algorithm, Segmentation(n, tuple(sorted(boundaries))), trace, bw)


def _supervised_boundaries(gram, K: int, delta: float, trace: list[dict]) -> list[int]:
    n = gram.shape[0]
    boundaries: list[int] = []
    for i in range(K):
        candidates = []  # (rho, block index, boundary)
        for j, (a, b) in enumerate(Segmentation(n, boundaries).blocks):
            if not splittable(b - a, delta):
                trace.append(
                    {"op": "sweep", "round": i, "block": [a, b], "rho": None,
                     "reason": "too_short"}
                )
                continue
            t, rho = rho_curve(gram[a:b, a:b], delta)
            trace.append(
                {"op": "sweep", "round": i, "block": [a, b], "candidate": a + t, "rho": rho}
            )
            candidates.append((rho, j, a + t))
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


def segment_seed(config: AmocConfig, start: int, stop: int, n: int) -> int:
    """Permutation-stream seed for a detect-u block: config.seed at the root,
    a coordinate-derived seed below it (independent of recursion order)."""
    if start == 0 and stop == n:
        return config.seed
    return derive_seed(config.seed, TAG_SEGMENT, start, stop)


def pair_seed(config: AmocConfig, stage: int, pair: int) -> int:
    """Permutation-stream seed for detect-ss's test of pair `pair` at merge `stage`."""
    return derive_seed(config.seed, TAG_PAIRTEST, stage, pair)


def _merge_insignificant(gram, config, boundaries, K_l, trace, psd):
    """Bonferroni-gated backward merging of the K_u supervised boundaries.

    Stage m tests all K_u - m + 1 adjacent block pairs; if every p-value is
    below alpha / (K_u - m + 1) the current boundaries stand, otherwise the
    pair with the largest p-value merges (ties to the leftmost pair).  The
    loop also stops once only K_l boundaries remain; the final-stage pair
    tests are skipped then, as they cannot change the output.
    """
    K_u = len(boundaries)
    for m in range(1, K_u - K_l + 1):
        blocks = Segmentation(gram.shape[0], boundaries).blocks
        level = config.alpha / (K_u - m + 1)
        p_values = []
        for i, ((a, _), (_, c)) in enumerate(zip(blocks, blocks[1:])):
            res = permutation_test(gram[a:c, a:c], replace(config, seed=pair_seed(config, m, i)),
                                   psd=psd)
            p_values.append(res.p_value)
            trace.append(
                {"op": "pair_test", "stage": m, "pair": i, "block": [a, c],
                 "p_value": res.p_value, "level": level}
            )
        if max(p_values) < level:
            trace.append({"op": "stop", "stage": m, "reason": "all_pairs_significant"})
            return
        j = int(np.argmax(p_values))  # ties resolve to the leftmost pair
        removed = boundaries.pop(j)
        trace.append(
            {"op": "merge", "stage": m, "pair": j, "boundary": removed,
             "p_value": p_values[j]}
        )
    trace.append({"op": "stop", "stage": K_u - K_l + 1, "reason": "lower_bound_reached"})


def _recurse_u(gram, config, start, stop, boundaries, trace, psd):
    if not splittable(stop - start, config.delta):
        trace.append({"op": "skip", "block": [start, stop], "reason": "too_short"})
        return
    seed = segment_seed(config, start, stop, gram.shape[0])
    # Only the decision steers the recursion, so an accepting test may stop
    # early; its reported p-value is then the sequential one (see amoc).
    res = permutation_test(gram[start:stop, start:stop], replace(config, seed=seed),
                           stop_on_accept=True, psd=psd)
    b = start + res.tau_hat
    trace.append(
        {
            "op": "test",
            "block": [start, stop],
            "statistic": res.T_n,
            "candidate": b,
            "p_value": res.p_value,
            "reject": res.reject,
            "permutations_used": res.permutation_stats.size,
        }
    )
    if res.reject:
        boundaries.append(b)
        trace.append({"op": "split", "block": [start, stop], "boundary": b})
        _recurse_u(gram, config, start, b, boundaries, trace, psd)
        _recurse_u(gram, config, b, stop, boundaries, trace, psd)


# ---------------------------------------------------------------------------
# public API: the budget table, its one check, the one dispatcher and the four
# detectors; each detector checks its own budget, then runs the pipeline once
# ---------------------------------------------------------------------------

# The budget parameters each algorithm takes, in its detector's argument order.
BUDGETS = {"u": (), "s": ("K",), "ss": ("K_l", "K_u"), "forward": ("K_l",)}


def check_budget(algorithm: str, K=None, K_l=None, K_u=None) -> dict:
    """The budget `algorithm` runs with, in BUDGETS order (None means not
    given; ss's K_l defaults to 0).  ConfigurationError for an unknown
    algorithm, a parameter it does not take, a missing one or a bad value."""
    if algorithm not in BUDGETS:
        raise ConfigurationError(f"algorithm must be one of {tuple(BUDGETS)}, got {algorithm!r}")
    if algorithm == "ss" and K_l is None:
        K_l = 0
    given = {"K": K, "K_l": K_l, "K_u": K_u}
    unused = [n for n, v in given.items() if v is not None and n not in BUDGETS[algorithm]]
    if unused:
        raise ConfigurationError(f"algorithm {algorithm!r} takes no {', '.join(unused)}")
    budget = {name: given[name] for name in BUDGETS[algorithm]}
    missing = [name for name, value in budget.items() if value is None]
    if missing:
        raise ConfigurationError(f"algorithm {algorithm!r} needs {', '.join(missing)}")
    for name in budget:
        low = 0 if name == "K_l" else 1
        value = budget[name] = check_integer(name, budget[name])
        if value < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    if algorithm == "ss" and K_l > K_u:
        raise ConfigurationError(f"K_l={K_l} exceeds K_u={K_u}")
    return budget


def detect(algorithm: str, data, config: AmocConfig, h: float | None = None, **budget):
    """Run `algorithm` with its budget (keywords K, K_l, K_u; see BUDGETS).
    Detectors are called by their module names, never through a table built
    at import, so a wrapper installed on one (a tracer, say) sees every call."""
    budget = check_budget(algorithm, **budget)
    if algorithm == "u":
        return detect_u(data, config, h)
    if algorithm == "s":  # detect_s takes only config.delta
        return detect_s(data, budget["K"], config.delta, h)
    if algorithm == "ss":
        return detect_ss(data, budget["K_l"], budget["K_u"], config, h)
    return detect_forward(data, budget["K_l"], config, h)


def detect_u(data, config: AmocConfig, h: float | None = None) -> DetectionResult:
    """Unsupervised detection: recursive splitting gated by the permutation test.

    Depth-first, left block first; each block's permutation stream is keyed
    by its coordinates, so the result does not depend on traversal order.
    """
    return _detect("u", data, config, h, 0)


def detect_s(data, K: int, delta: float = 0.05, h: float | None = None) -> DetectionResult:
    """Supervised detection returning exactly K boundaries (no testing step)."""
    check_budget("s", K=K)
    return _detect("s", data, AmocConfig(delta=delta), h, K)


def detect_ss(
    data,
    K_l: int,
    K_u: int,
    config: AmocConfig,
    h: float | None = None,
) -> DetectionResult:
    """Bounded detection: supervised at K_u, then Bonferroni-gated merging
    down towards K_l (see _merge_insignificant)."""
    check_budget("ss", K_l=K_l, K_u=K_u)
    return _detect("ss", data, config, h, K_u, K_l)


def detect_forward(
    data,
    K_l: int,
    config: AmocConfig,
    h: float | None = None,
) -> DetectionResult:
    """Supervised pass at K_l, then unsupervised recursion inside each block;
    at K_l = 0 this is detect_u."""
    check_budget("forward", K_l=K_l)
    return _detect("forward" if K_l else "u", data, config, h, K_l)
