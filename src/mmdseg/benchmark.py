"""Monte Carlo harness estimating detection success rates per model cell.

A cell is (model spec, algorithm, parameters); each replication draws a
fresh sample and runs the detector with seeds derived from (benchmark seed,
cell index, replication index), so results are reproducible and replication
order (or parallel execution) is irrelevant to the aggregate.  A grid's
replications of every cell form one job list, run on one pool of processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .amoc import AmocConfig
from .errors import ConfigurationError
from .metrics import hausdorff, match, subset_match, superset_match
from .rng import TAG_ALGO, TAG_DATA, check_integer, check_seed, derive_seed
from .segment import check_budget, detect
from .simulate import ModelSpec, generate

# The success rates of a row, each with a binomial standard error.
RATES = ("k_correct", "match", "superset", "subset")


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
    """One draw-and-detect round; every field of the record derives from
    (cell, base_seed) alone, never from global state or the clock."""
    model = replace(cell.model, seed=derive_seed(base_seed, TAG_DATA))
    sample = generate(model)
    config = replace(cell.config, seed=derive_seed(base_seed, TAG_ALGO))
    det = detect(
        cell.algorithm, sample.data, config, cell.bandwidth, K=cell.K, K_l=cell.K_l, K_u=cell.K_u
    )
    est, truth = det.segmentation, sample.truth
    return {
        "k_correct": est.k == truth.k,
        "match": match(est, truth),
        "superset": superset_match(est, truth),
        "subset": subset_match(est, truth),
        "hausdorff": (
            hausdorff(est.breakfractions, truth.breakfractions)
            if est.k > 0 and truth.k > 0
            else None
        ),
    }


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[dict, ...]
    replications: int
    seed: int

    def to_rows(self) -> list[dict]:
        return [dict(r) for r in self.rows]


def run_benchmark(cells, replications: int, seed: int = 0, workers: int = 1) -> BenchmarkReport:
    """Estimate success rates for every cell over `replications` rounds, on
    min(workers, jobs, usable CPUs) processes: in this process when that is 1."""
    replications = check_integer("replications", replications)
    workers = check_integer("workers", workers)
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    check_seed(seed)
    cells = list(cells)
    jobs = [(cell, derive_seed(seed, ci, rep))
            for ci, cell in enumerate(cells) for rep in range(replications)]
    size = min(workers, len(jobs), _usable_cpus())
    if size <= 1:
        records = [run_replication(cell, s) for cell, s in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here: a run of 1 never loads it

        with ProcessPoolExecutor(max_workers=size) as pool:
            records = list(pool.map(run_replication, *zip(*jobs), chunksize=4))
    rows = []
    for ci, cell in enumerate(cells):
        cell_records = records[ci * replications:(ci + 1) * replications]
        rates = {key: float(np.mean([r[key] for r in cell_records])) for key in RATES}
        h_values = [r["hausdorff"] for r in cell_records if r["hausdorff"] is not None]
        rows.append({
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
            **{f"rate_{key}": rate for key, rate in rates.items()},
            **{f"se_{key}": float(np.sqrt(rate * (1.0 - rate) / replications))
               for key, rate in rates.items()},
            "mean_hausdorff": float(np.mean(h_values)) if h_values else None,
        })
    return BenchmarkReport(rows=tuple(rows), replications=replications, seed=seed)
