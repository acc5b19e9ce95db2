"""Detection success tables across the change models.

Builds the benchmark grids behind the published-style tables:

  single   detect-u on models 1-7 (two populations), every layout
  multi    detect-u on models 8-12 (three populations), every layout
  budget   detect-s at K in {K0-1, K0, K0+1}, K >= 1, where K0 is the true
           count (subset / match / superset rates), balanced layout
  bounds   detect-ss for (K_l, K_u) in (0, 2), (0, 3), (1, 3), balanced layout
  null     detect-u on the no-change models N1-N4: the empirical size, or
           rejection rate at level alpha, is 1 - K-correct

Every table takes any model: its layouts follow from its population count.
Every table runs at each sample size of --n, by default n = 300, and
n in {100, 500} for null.

The full grids at 100 replications run for hours; use --models / --n /
--replications to carve out a slice.
"""

import argparse
import itertools
import os
import sys

# One BLAS thread per process, unless set already: with --workers above 1,
# each worker's spare OpenBLAS thread spins on the CPUs the others need.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from mmdseg import AmocConfig, BenchmarkCell, ModelSpec, run_benchmark  # noqa: E402
from mmdseg.cli import Parser, int_list, run_command  # noqa: E402
from mmdseg.dataio import check_writable, write_json  # noqa: E402
from mmdseg.errors import ConfigurationError  # noqa: E402
from mmdseg.simulate import POPULATIONS  # noqa: E402

# Segment layouts by a model's population count, as their lengths at n = 300,
# the size of the paper's detection tables.  The detect-u tables run every
# layout; budget and bounds run the balanced one, of equal parts.
BASE_N = 300
LAYOUTS = {
    1: [(300,)],
    2: [(45, 255), (150, 150), (240, 60)],
    3: [(45, 75, 180), (100, 100, 100), (180, 45, 75)],
}

# Each table's algorithm, default models and default sample sizes.
TABLES = {
    "single": ("u", ("1", "2", "3", "4", "5", "6", "7"), (BASE_N,)),
    "multi": ("u", ("8", "9", "10", "11", "12"), (BASE_N,)),
    "budget": ("s", ("8", "9", "10", "11", "12"), (BASE_N,)),
    "bounds": ("ss", ("1", "2", "5"), (BASE_N,)),
    "null": ("u", ("N1", "N2", "N3", "N4"), (100, 500)),
}


def scaled(layout, n):
    """The layout's segment lengths at sample size n: each boundary at the
    layout's fraction of n, rounded down in integers, so they sum to n."""
    ends = [n * end // sum(layout) for end in itertools.accumulate(layout)]
    return tuple(b - a for a, b in zip([0, *ends], ends))


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
    """The model id, then the budget (K2, Kl0-Ku3) or else the segment
    lengths but the last, then n, which n = 300 leaves out unless nothing
    else follows the model id."""
    parts = [f"{name.replace('_', '')}{value}" for name, value in budget.items()]
    if not parts and len(lengths) > 1:
        parts = [",".join(map(str, lengths[:-1]))]
    if sum(lengths) != BASE_N or not parts:
        parts.append(str(sum(lengths)))
    return "-".join([model_id, *parts])


def build_cells(table, models, config, sizes=None):
    algorithm, default_models, default_sizes = TABLES[table]
    cells = []
    for n in sizes or default_sizes:
        for mid in models or default_models:
            if mid not in POPULATIONS:
                raise ConfigurationError(f"unknown model id {mid!r}")
            populations = POPULATIONS[mid]
            layouts = LAYOUTS[populations] if algorithm == "u" else [(1,) * populations]
            for lengths in (scaled(layout, n) for layout in layouts):
                for budget in budgets(algorithm, populations):
                    cells.append(BenchmarkCell(
                        model=ModelSpec(mid, lengths), algorithm=algorithm, config=config,
                        label=label(mid, lengths, budget), **budget,
                    ))
    if len({cell.label for cell in cells}) < len(cells):
        raise ConfigurationError("--models or --n names a value twice")
    return cells


def main(argv=None):
    ap = Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("table", choices=tuple(TABLES))
    ap.add_argument("--models", help="comma-separated model ids (default: table's set)")
    ap.add_argument("--n", type=int_list, help="comma-separated sample sizes (default: table's)")
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
    cells = build_cells(args.table, models, config, args.n)
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
