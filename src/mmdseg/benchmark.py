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
from .segment import check_budget, detect
from .simulate import ModelSpec, generate


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
        # Rejects a bad budget before any sample is drawn; fills ss's K_l.
        budget = check_budget(self.algorithm, self.K, self.K_l, self.K_u)
        for name, value in budget.items():
            object.__setattr__(self, name, value)


def run_replication(cell: BenchmarkCell, base_seed: int) -> dict:
    """One draw-and-detect round; every field of the record is derived
    deterministically from base_seed, never from global state."""
    model = replace(cell.model, seed=derive_seed(base_seed, TAG_DATA))
    sample = generate(model)
    config = replace(cell.config, seed=derive_seed(base_seed, TAG_ALGO))
    t0 = time.perf_counter()
    det = detect(
        cell.algorithm, sample.data, config, cell.bandwidth, K=cell.K, K_l=cell.K_l, K_u=cell.K_u
    )
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
        seeds = [derive_seed(seed, ci, rep) for rep in range(replications)]
        if workers == 1:
            records = [run_replication(cell, s) for s in seeds]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(run_replication, [cell] * replications, seeds,
                                        chunksize=4))
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
