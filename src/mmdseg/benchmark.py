"""Monte Carlo harness estimating detection success rates per model cell.

A cell is (model spec, algorithm, parameters); each replication draws a
fresh sample and runs the detector with seeds derived from (benchmark seed,
cell index, replication index), so results are reproducible and replication
order (or parallel execution) is irrelevant to the aggregate.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .amoc import AmocConfig
from .errors import ConfigurationError
from .metrics import hausdorff, match, subset_match, superset_match
from .rng import TAG_ALGO, TAG_DATA, check_seed, derive_seed
from .segment import detect_forward, detect_s, detect_ss, detect_u
from .simulate import ModelSpec, generate

# The budget parameters each algorithm takes.
BUDGETS = {"u": (), "s": ("K",), "ss": ("K_l", "K_u"), "forward": ("K_l",)}


@dataclass(frozen=True)
class BenchmarkCell:
    """One table cell: a model, an algorithm and its parameters."""

    model: ModelSpec
    algorithm: str
    config: AmocConfig = field(default_factory=AmocConfig)
    K: int | None = None
    K_l: int | None = None
    K_u: int | None = None
    bandwidth: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.algorithm not in BUDGETS:
            raise ConfigurationError(
                f"algorithm must be one of {tuple(BUDGETS)}, got {self.algorithm!r}"
            )
        if self.algorithm == "s" and self.K is None:
            raise ConfigurationError("supervised cells need K")
        if self.algorithm == "ss" and self.K_u is None:
            raise ConfigurationError("semi-supervised cells need K_u")
        if self.algorithm == "ss" and self.K_l is None:
            object.__setattr__(self, "K_l", 0)
        if self.algorithm == "forward" and self.K_l is None:
            raise ConfigurationError("forward cells need K_l")
        unused = [
            name for name in ("K", "K_l", "K_u")
            if name not in BUDGETS[self.algorithm] and getattr(self, name) is not None
        ]
        if unused:
            raise ConfigurationError(
                f"algorithm {self.algorithm!r} takes no {', '.join(unused)}"
            )


def run_replication(cell: BenchmarkCell, base_seed: int) -> dict:
    """One draw-and-detect round; every field of the record is derived
    deterministically from base_seed, never from global state."""
    model = replace(cell.model, seed=derive_seed(base_seed, TAG_DATA))
    sample = generate(model)
    config = replace(cell.config, seed=derive_seed(base_seed, TAG_ALGO))
    t0 = time.perf_counter()
    if cell.algorithm == "u":
        det = detect_u(sample.data, config, h=cell.bandwidth)
    elif cell.algorithm == "s":
        det = detect_s(sample.data, cell.K, config.delta, h=cell.bandwidth)
    elif cell.algorithm == "ss":
        det = detect_ss(sample.data, cell.K_l, cell.K_u, config, h=cell.bandwidth)
    else:
        det = detect_forward(sample.data, cell.K_l, config, h=cell.bandwidth)
    seconds = time.perf_counter() - t0
    est, truth = det.segmentation, sample.truth
    record = {
        "k_hat": est.k,
        "k_true": truth.k,
        "k_correct": est.k == truth.k,
        "match": match(est, truth),
        "superset": superset_match(est, truth),
        "subset": subset_match(est, truth),
        "hausdorff": (
            hausdorff(est.breakfractions, truth.breakfractions)
            if est.k > 0 and truth.k > 0
            else None
        ),
        "seconds": seconds,
    }
    return record


def _binomial_se(rate: float, n: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / n))


def _cell_worker(args):
    cell, base_seed = args
    return run_replication(cell, base_seed)


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[dict, ...]
    replications: int
    seed: int

    def to_rows(self) -> list[dict]:
        return [dict(r) for r in self.rows]


def run_benchmark(
    cells,
    replications: int,
    seed: int = 0,
    workers: int = 1,
) -> BenchmarkReport:
    """Estimate success rates for every cell over `replications` rounds."""
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    check_seed(seed)
    cells = list(cells)
    rows = []
    for ci, cell in enumerate(cells):
        tasks = [(cell, derive_seed(seed, ci, rep)) for rep in range(replications)]
        if workers == 1:
            records = [run_replication(c, s) for c, s in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_cell_worker, tasks, chunksize=4))
        rates = {
            key: float(np.mean([r[key] for r in records]))
            for key in ("k_correct", "match", "superset", "subset")
        }
        h_values = [r["hausdorff"] for r in records if r["hausdorff"] is not None]
        seconds = [r["seconds"] for r in records]
        row = {
            "label": cell.label or f"cell{ci}",
            "model": cell.model.model_id,
            "n": cell.model.n,
            "segment_lengths": list(cell.model.segment_lengths),
            "algorithm": cell.algorithm,
            "K": cell.K,
            "K_l": cell.K_l,
            "K_u": cell.K_u,
            "delta": cell.config.delta,
            "R": cell.config.R,
            "alpha": cell.config.alpha,
            "replications": replications,
            "rate_k_correct": rates["k_correct"],
            "rate_match": rates["match"],
            "rate_superset": rates["superset"],
            "rate_subset": rates["subset"],
            "se_k_correct": _binomial_se(rates["k_correct"], replications),
            "se_match": _binomial_se(rates["match"], replications),
            "se_superset": _binomial_se(rates["superset"], replications),
            "se_subset": _binomial_se(rates["subset"], replications),
            "mean_hausdorff": float(np.mean(h_values)) if h_values else None,
            "mean_seconds": float(np.mean(seconds)),
            "total_seconds": float(np.sum(seconds)),
        }
        rows.append(row)
    return BenchmarkReport(rows=tuple(rows), replications=replications, seed=seed)
