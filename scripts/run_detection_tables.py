"""Detection success tables across the change models.

Builds the benchmark grids behind the published-style tables:

  single   detect-u on models 1-7 (two populations), every layout
  multi    detect-u on models 8-12 (three populations), every layout
  budget   detect-s at K in {K0-1, K0, K0+1}, K >= 1, where K0 is the true
           count (subset / match / superset rates), balanced layout
  bounds   detect-ss for (K_l, K_u) in (0, 2), (0, 3), (1, 3), balanced layout

Every table takes any model: its layouts of n = 300 follow from its
population count.

The full grids at 100 replications run for hours; use --models /
--replications to carve out a slice.
"""

import os
import sys

# One BLAS thread per process, unless set already: with --workers above 1,
# each worker's spare OpenBLAS thread spins on the CPUs the others need.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from mmdseg import AmocConfig, BenchmarkCell, ModelSpec, run_benchmark  # noqa: E402
from mmdseg.cli import Parser, run_command  # noqa: E402
from mmdseg.dataio import check_writable, write_json  # noqa: E402
from mmdseg.errors import ConfigurationError  # noqa: E402
from mmdseg.simulate import POPULATIONS  # noqa: E402

# Segment layouts of n = 300, by a model's population count.  The detect-u
# tables run every layout; budget and bounds run the balanced one.
LAYOUTS = {
    1: [(300,)],
    2: [(45, 255), (150, 150), (240, 60)],
    3: [(45, 75, 180), (100, 100, 100), (180, 45, 75)],
}

# Each table's algorithm and default models.
TABLES = {
    "single": ("u", ("1", "2", "3", "4", "5", "6", "7")),
    "multi": ("u", ("8", "9", "10", "11", "12")),
    "budget": ("s", ("8", "9", "10", "11", "12")),
    "bounds": ("ss", ("1", "2", "5")),
}


def budgets(algorithm, populations):
    """The budgets a table runs on a model: none for detect-u, K around the
    true count K0 = populations - 1 for detect-s, three bounds for detect-ss."""
    if algorithm == "s":
        K0 = populations - 1
        return [{"K": K} for K in (K0 - 1, K0, K0 + 1) if K >= 1]
    if algorithm == "ss":
        return [{"K_l": K_l, "K_u": K_u} for K_l, K_u in ((0, 2), (0, 3), (1, 3))]
    return [{}]


def label(model_id, lengths, budget):
    """The model id, then the budget (K2, Kl0-Ku3), or with no budget the
    segment lengths but the last."""
    parts = [f"{name.replace('_', '')}{value}" for name, value in budget.items()]
    if not parts:
        parts = [",".join(map(str, lengths[:-1] or lengths))]
    return "-".join([model_id, *parts])


def build_cells(table, models, config):
    algorithm, defaults = TABLES[table]
    cells = []
    for mid in models or defaults:
        if mid not in POPULATIONS:
            raise ConfigurationError(f"unknown model id {mid!r}")
        populations = POPULATIONS[mid]
        balanced = (300 // populations,) * populations
        for lengths in LAYOUTS[populations] if algorithm == "u" else [balanced]:
            for budget in budgets(algorithm, populations):
                cells.append(BenchmarkCell(
                    model=ModelSpec(mid, lengths), algorithm=algorithm, config=config,
                    label=label(mid, lengths, budget), **budget,
                ))
    return cells


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("table", choices=tuple(TABLES))
    ap.add_argument("--models", help="comma-separated model ids (default: table's set)")
    ap.add_argument("--replications", type=int, default=100)
    ap.add_argument("--permutations", type=int, default=AmocConfig.R)
    ap.add_argument("--seed", type=int, default=AmocConfig.seed)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--output", default=None)
    ap.set_defaults(func=run)
    return run_command(ap, argv)


def run(args):
    out = args.output or f"table_{args.table}.json"
    check_writable(out)
    config = AmocConfig(R=args.permutations)
    models = tuple(args.models.split(",")) if args.models else None
    cells = build_cells(args.table, models, config)
    report = run_benchmark(cells, args.replications, seed=args.seed, workers=args.workers)
    rows = report.to_rows()
    for row in rows:
        print(
            f"{row['label']:>14}: K-correct {row['rate_k_correct']:.2f}  "
            f"match {row['rate_match']:.2f}  superset {row['rate_superset']:.2f}  "
            f"subset {row['rate_subset']:.2f}"
        )
    write_json({"cells": rows}, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
