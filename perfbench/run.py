#!/usr/bin/env python3
"""Layered benchmark for mmdseg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  Every load is closed-loop: one client, one
detection or replication at a time, Monte Carlo with workers=1.

--trace 0 measures the end-to-end metrics.  --trace 1 instead runs the
same fixed round of operations twice, first plain and then with the layer
functions wrapped (tracing.py), and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a fuller record, stamped with
the environment, goes to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# One BLAS thread for this process and its children, unless set already: the
# loads are single-client, and an OpenBLAS worker left spinning on the second
# CPU after a matrix product slows the main thread by a varying amount.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracing import LAYER_METRICS, Tracer, layer_table  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FIXTURE = HERE / "fixture.json"

DEFAULT_SEED = 0  # the seed the correctness fixture was recorded for
SETUP_REPS = 3
R, ALPHA, DELTA = 199, 0.05, 0.05
OP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import_seconds(module: str) -> float:
    """Time `import <module>` in a new interpreter, excluding its start-up."""
    code = (
        "import time; t0 = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=OP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class CheckFailed(Exception):
    """An operation's output is invalid or differs from the fixture."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """`python -m mmdseg.cli <command>` once per operation, cycling over inputs.

    One round runs every input once, so each round has the same mix.
    """

    import_module = "mmdseg.cli"
    rss_who = resource.RUSAGE_CHILDREN
    traced_in_process = False  # each child traces itself under clitrace.py

    def __init__(self, name, command, inputs, K=None):
        self.name, self.command, self.inputs, self.K = name, command, inputs, K
        self.paths, self.n, self.truth = {}, {}, {}
        self.first_output = {}
        self.expected = None

    def setup(self, seed, workdir):
        """Draw each input from the seed and write it as CSV."""
        import numpy as np
        from mmdseg.simulate import ModelSpec, generate

        for i, (label, model, lengths) in enumerate(self.inputs):
            sample = generate(ModelSpec(model, lengths, seed=1000 * seed + i))
            path = workdir / f"{self.name}-{label}.csv"
            np.savetxt(path, sample.data, fmt="%.17g", delimiter=",")
            self.paths[label] = path
            self.n[label] = sample.truth.n
            self.truth[label] = list(sample.truth.boundaries)

    def round(self, r):
        return [label for label, _, _ in self.inputs]

    def run_op(self, label, seed, tracer, spans_path, run):
        argv = [self.command, str(self.paths[label]), "--seed", str(seed)]
        if self.K is not None:
            argv += ["-K", str(self.K)]
        if tracer is None:
            cmd = [sys.executable, "-m", "mmdseg.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans_path), "--", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=OP_TIMEOUT_S)
        latency = time.perf_counter() - t0
        clamps = 0
        if tracer is not None and spans_path.exists():
            recorded = json.loads(spans_path.read_text())
            spans_path.unlink()
            tracer.extend(recorded["spans"], run)
            clamps = recorded["clamp_warnings"]
        return latency, proc, clamps

    def check(self, label, proc) -> bool:
        """Validate one CLI output; True when it matches the true boundaries."""
        from mmdseg.metrics import match

        require(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-300:]}")
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{label}: unparsable output: {exc}") from None
        n = self.n[label]
        bounds = doc.get("boundaries")
        require(doc.get("command") == self.command and doc.get("n") == n,
                f"{label}: wrong command or n in output")
        require(isinstance(bounds, list) and all(type(b) is int for b in bounds),
                f"{label}: boundaries are not a list of integers")
        edges = [0, *bounds, n]
        require(all(a < b for a, b in zip(edges, edges[1:])),
                f"{label}: boundaries {bounds} not strictly increasing in (0, {n})")
        require(doc.get("k_hat") == len(bounds), f"{label}: k_hat disagrees with boundaries")
        require(self.K is None or len(bounds) == self.K, f"{label}: expected {self.K} boundaries")
        first = self.first_output.setdefault(label, bounds)
        require(bounds == first, f"{label}: boundaries {bounds} differ from this run's {first}")
        if self.expected is not None:
            require(bounds == self.expected[label],
                    f"{label}: boundaries {bounds} differ from fixture {self.expected[label]}")
        return bool(match(bounds, self.truth[label]))

    def fixture_record(self, seed):
        """Boundaries per input, from one checked detection each."""
        for label in self.round(0):
            self.check(label, self.run_op(label, seed, None, None, None)[1])
        return dict(self.first_output)


class McWorkload:
    """In-process `run_benchmark([cell], replications=1, workers=1)` per operation.

    Round r runs every cell once, each with its own replication seed derived
    from (workload seed, r, cell index), so rounds are distinct draws.
    """

    import_module = "mmdseg"
    rss_who = resource.RUSAGE_SELF
    traced_in_process = True

    def __init__(self, name, cells):
        self.name = name
        self.cell_specs = cells
        self.cells = []
        self.expected = None

    def setup(self, seed, workdir):
        from mmdseg import AmocConfig, BenchmarkCell, ModelSpec

        config = AmocConfig(delta=DELTA, R=R, alpha=ALPHA)
        self.cells = [
            BenchmarkCell(model=ModelSpec(model, lengths), algorithm=algo, config=config,
                          label=label, **params)
            for label, model, lengths, algo, params in self.cell_specs
        ]

    def round(self, r):
        return [(r, ci) for ci in range(len(self.cells))]

    def run_op(self, key, seed, tracer, spans_path, run):
        from mmdseg.benchmark import run_benchmark

        r, ci = key
        if tracer is not None:
            tracer.run = run
        t0 = time.perf_counter()
        report = run_benchmark([self.cells[ci]], replications=1,
                               seed=seed * 10**9 + r * 100 + ci, workers=1)
        latency = time.perf_counter() - t0
        return latency, report.to_rows()[0], 0

    @staticmethod
    def outcome(row) -> list:
        return [row["rate_k_correct"], row["rate_match"], row["rate_superset"],
                row["rate_subset"], row["mean_hausdorff"]]

    def check(self, key, row) -> bool:
        r, ci = key
        label = self.cells[ci].label
        k_ok, matched, sup, sub, haus = self.outcome(row)
        require(row["replications"] == 1, f"{label}: wrong replication count")
        require(all(v in (0.0, 1.0) for v in (k_ok, matched, sup, sub)),
                f"{label}: rates of one replication must be 0 or 1")
        require(matched <= k_ok and matched + sup + sub <= 1,
                f"{label}: inconsistent match/superset/subset rates")
        require(haus is None or 0.0 <= haus <= 1.0, f"{label}: Hausdorff distance {haus}")
        if self.expected is not None and r < len(self.expected):
            want = self.expected[r][ci]
            require(self.outcome(row) == want,
                    f"{label} round {r}: outcome {self.outcome(row)} differs from fixture {want}")
        return matched == 1.0

    def fixture_record(self, seed, rounds=40):
        """Per-replication outcomes of the first `rounds` rounds."""
        return [[self.outcome(self.run_op(key, seed, None, None, None)[1])
                 for key in self.round(r)] for r in range(rounds)]


def make_workload(name: str, smoke: bool):
    """The workloads; `smoke` shrinks every input to toy size."""
    def lens(full, toy):
        return toy if smoke else full

    if name == "cli-detect-s-large":
        return CliWorkload(name, "detect-s", [
            ("model8", "8", lens((1000, 1000, 1000), (30, 30, 30))),
        ], K=2)
    if name == "mc-unknown":
        return McWorkload(name, [
            *((f"{m}-u", m, lens((100,), (30,)), "u", {}) for m in ("N1", "N2", "N3", "N4")),
            *((f"{m}-u", m, lens((150, 150), (20, 20)), "u", {}) for m in ("5", "6")),
            ("8-u", "8", lens((100, 100, 100), (20, 20, 20)), "u", {}),
        ])
    if name == "mc-bounded":
        m8 = lens((100, 100, 100), (20, 20, 20))
        return McWorkload(name, [
            ("1-s-K1", "1", lens((150, 150), (20, 20)), "s", {"K": 1}),
            ("8-s-K3", "8", m8, "s", {"K": 3}),
            ("2-ss-0-2", "2", lens((150, 150), (20, 20)), "ss", {"K_l": 0, "K_u": 2}),
            ("8-ss-1-3", "8", m8, "ss", {"K_l": 1, "K_u": 3}),
            ("8-ss-0-6", "8", m8, "ss", {"K_l": 0, "K_u": 6}),
        ])
    raise KeyError(name)


WORKLOADS = ("cli-detect-s-large", "mc-unknown", "mc-bounded")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile at or
    above the median with at least 10 samples beyond it.  With fewer than
    20 samples no such percentile exists and the maximum is reported."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def run_rounds(wl, seed, rounds, seconds, tracer=None, spans_dir=None, fixed_round=None):
    """Run whole rounds until `seconds` pass (or exactly `rounds` rounds).

    Returns latencies, per-op outcome (None on success, else the reason),
    matches, elapsed wall time, rounds run and clamp-warning count.
    """
    latencies, failures, matched = [], [], 0
    clamps = 0
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while (r < rounds) if rounds else (r == 0 or time.perf_counter() < deadline):
        for key in wl.round(r if fixed_round is None else fixed_round):
            run = f"op-{len(latencies)}"
            spans_path = spans_dir / f"spans-{len(latencies)}.json" if spans_dir else None
            t0 = time.perf_counter()
            try:
                latency, output, n_clamps = wl.run_op(key, seed, tracer, spans_path, run)
            except Exception as exc:  # a crash of the program is a failed operation
                latencies.append(time.perf_counter() - t0)
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(latency)
            clamps += n_clamps
            try:
                matched += wl.check(key, output)
                failures.append(None)
            except CheckFailed as exc:
                failures.append(str(exc))
        r += 1
    return latencies, failures, matched, time.perf_counter() - start, r, clamps


def environment_stamp(workload, seed) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmdseg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_fixture(wl, seed, smoke):
    if smoke or seed != DEFAULT_SEED or not FIXTURE.exists():
        return None, f"validity only: the fixture covers seed {DEFAULT_SEED} at full size"
    fixture = json.loads(FIXTURE.read_text())
    return fixture[wl.name], f"fixture: outputs compared with {FIXTURE.name} (seed {DEFAULT_SEED})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "mmdseg" / "__init__.py").is_file():
        print(f"error: no mmdseg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = make_workload(args.workload, args.smoke)
    wl.expected, check_note = load_fixture(wl, args.seed, args.smoke)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["stamp"] = environment_stamp(args.workload, args.seed)
    record["check"] = check_note
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, value in record["result"]["metrics"].items():
        print(f"{name:40s} {value['value']:.6g} {value['unit']}", file=sys.stderr)
    for reason in record["failures"][:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(f"# stamp {json.dumps(record['stamp'])}")
    print(f"# correctness {check_note}; details in {result_path.relative_to(ROOT)}")
    if "tail" in record:
        print(f"# latency_tail_s is p{record['tail']['percentile']:.1f} of "
              f"{record['tail']['samples']} samples, {record['tail']['beyond']} beyond it; "
              f"match_rate {record['match_rate']:.4f}")
    print(json.dumps(record["result"]))
    return 0


def measure(wl, args, workdir) -> dict:
    tracer = Tracer() if args.trace else None
    setup_s, import_s = [], []
    for k in range(SETUP_REPS):
        imported = fresh_import_seconds(wl.import_module)
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.run = f"setup-{k}"
            tracer.install()
        try:
            wl.setup(args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s.append(imported + time.perf_counter() - t0)
        import_s.append(imported)

    if tracer is None:
        lat, fails, matched, elapsed, _, _ = run_rounds(wl, args.seed, 0, args.seconds)
        value, pct, beyond = tail(lat)
        rss = resource.getrusage(wl.rss_who).ru_maxrss / 1024.0
        failed = sum(f is not None for f in fails)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "throughput_per_s": len(lat) / elapsed,
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": value,
            "peak_rss_mb": rss,
            "success_ratio": 1.0 - failed / len(lat),
        }
        units = dict(END_TO_END)
        extra = {"tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
                 "match_rate": matched / len(lat), "latencies_s": lat}
    else:
        # The same fixed round (round 0), plain for half the time, then the
        # same number of rounds traced: per-operation counts repeat exactly.
        lat0, fails0, m0, plain_s, rounds, _ = run_rounds(
            wl, args.seed, 0, args.seconds / 2, fixed_round=0)
        spans_dir = workdir / "spans"
        spans_dir.mkdir()
        if wl.traced_in_process:
            tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                lat1, fails1, m1, traced_s, _, clamps = run_rounds(
                    wl, args.seed, rounds, 0, tracer=tracer, spans_dir=spans_dir, fixed_round=0)
        finally:
            tracer.uninstall()
        clamps += sum("clamped" in str(w.message) for w in caught)
        lat, fails, matched = lat0 + lat1, fails0 + fails1, m0 + m1
        failed = sum(f is not None for f in fails)
        metrics = layer_table(tracer.spans, len(lat1), SETUP_REPS, {
            "import_s": statistics.median(import_s),
            "clamp_warnings": clamps,
            "match_rate": matched / len(lat),
            "overhead_ratio": traced_s / plain_s - 1.0,
        })
        units = dict(LAYER_METRICS)
        extra = {"spans": len(tracer.spans), "traced_ops": len(lat1), "rounds": rounds}
    result = {
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "failures": [f for f in fails if f], **extra}


if __name__ == "__main__":
    sys.exit(main())
