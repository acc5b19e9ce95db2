#!/usr/bin/env python3
"""Record the correctness fixture used by run.py for the default seed.

    python3 perfbench/record_fixture.py

Writes perfbench/fixture.json: the boundaries of every CLI input and the
per-replication outcomes (k correct, match, superset, subset, Hausdorff
distance) of the first rounds of each Monte Carlo workload.  Re-record only
when a change is meant to alter detection results, and say so.
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "fixture-work"
    workdir.mkdir(exist_ok=True)
    fixture = {"seed": run.DEFAULT_SEED}
    try:
        for name in run.WORKLOADS:
            wl = run.make_workload(name, smoke=False)
            wl.setup(run.DEFAULT_SEED, workdir)
            fixture[name] = wl.fixture_record(run.DEFAULT_SEED)
            print(f"recorded {name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
