"""Detection success tables across the change models.

Builds the benchmark grids behind the published-style tables:

  single   detect-u on models 1-7, one boundary, n = 300 or 600
  multi    detect-u on models 8-12, two boundaries
  budget   detect-s at K in {K0-1, K0, K0+1} (subset / match / superset rates)
  bounds   detect-ss for a few (K_l, K_u) combinations

The full grids at 100 replications run for hours; use --models /
--replications to carve out a slice.
"""

import sys

from mmdseg import AmocConfig, BenchmarkCell, ModelSpec, run_benchmark
from mmdseg.cli import Parser, run_command
from mmdseg.dataio import check_writable, write_json

SINGLE_LENGTHS = {300: [(45, 255), (150, 150), (240, 60)]}
MULTI_LENGTHS = {300: [(45, 75, 180), (100, 100, 100), (180, 45, 75)]}


def build_cells(table, models, config):
    cells = []
    if table == "single":
        for mid in models or ("1", "2", "3", "4", "5", "6", "7"):
            for lengths in SINGLE_LENGTHS[300]:
                cells.append(BenchmarkCell(
                    model=ModelSpec(mid, lengths), algorithm="u", config=config,
                    label=f"{mid}-{lengths[0]}",
                ))
    elif table == "multi":
        for mid in models or ("8", "9", "10", "11", "12"):
            for lengths in MULTI_LENGTHS[300]:
                cells.append(BenchmarkCell(
                    model=ModelSpec(mid, lengths), algorithm="u", config=config,
                    label=f"{mid}-{lengths[0]},{lengths[1]}",
                ))
    elif table == "budget":
        for mid in models or ("8", "9", "10", "11", "12"):
            for K in (1, 2, 3):
                cells.append(BenchmarkCell(
                    model=ModelSpec(mid, (100, 100, 100)), algorithm="s", K=K,
                    config=config, label=f"{mid}-K{K}",
                ))
    elif table == "bounds":
        for mid in models or ("1", "2", "5"):
            for K_l, K_u in ((0, 2), (0, 3), (1, 3)):
                cells.append(BenchmarkCell(
                    model=ModelSpec(mid, (150, 150)), algorithm="ss",
                    K_l=K_l, K_u=K_u, config=config,
                    label=f"{mid}-Kl{K_l}-Ku{K_u}",
                ))
    else:
        raise SystemExit(f"unknown table {table!r}")
    return cells


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("table", choices=("single", "multi", "budget", "bounds"))
    ap.add_argument("--models", help="comma-separated model ids (default: table's set)")
    ap.add_argument("--replications", type=int, default=100)
    ap.add_argument("--permutations", type=int, default=199)
    ap.add_argument("--seed", type=int, default=0)
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
