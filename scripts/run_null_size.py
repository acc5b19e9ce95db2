"""Empirical size of the unsupervised detector on the no-change models.

Reproduces the null-model table: rejection rate of detect-u at level 0.05
for models N1-N4 at n in {100, 500}.  The full grid at 100 replications
takes tens of minutes; trim --replications or --sizes for a quick look.
"""

import os
import sys

# One BLAS thread per process, unless set already: with --workers above 1,
# each worker's spare OpenBLAS thread spins on the CPUs the others need.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from mmdseg import AmocConfig, BenchmarkCell, ModelSpec, run_benchmark  # noqa: E402
from mmdseg.cli import Parser, int_list, run_command  # noqa: E402
from mmdseg.dataio import check_writable, write_json  # noqa: E402


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("--replications", type=int, default=100)
    ap.add_argument("--sizes", type=int_list, default=(100, 500),
                    help="comma-separated sample sizes")
    ap.add_argument("--permutations", type=int, default=AmocConfig.R)
    ap.add_argument("--seed", type=int, default=AmocConfig.seed)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--output", default="null_size.json")
    ap.set_defaults(func=run)
    return run_command(ap, argv)


def run(args):
    check_writable(args.output)
    config = AmocConfig(R=args.permutations)
    cells = [
        BenchmarkCell(
            model=ModelSpec(mid, (n,)),
            algorithm="u",
            config=config,
            label=f"{mid}-n{n}",
        )
        for n in args.sizes
        for mid in ("N1", "N2", "N3", "N4")
    ]
    report = run_benchmark(cells, args.replications, seed=args.seed, workers=args.workers)
    rows = report.to_rows()
    for row in rows:
        rate = 1.0 - row["rate_k_correct"]
        print(f"{row['label']:>8}: rejection rate {rate:.3f} (se {row['se_k_correct']:.3f})")
    write_json({"cells": rows}, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
