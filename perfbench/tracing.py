"""Outside-in layer tracing for mmdseg, kept entirely in the benchmark.

A Tracer replaces each traced layer function with a wrapper at every
mmdseg module attribute that refers to it (for example both
`mmdseg.amoc.permutation_test` and `mmdseg.segment.permutation_test`), so
the package's own calls go through the wrapper.  Nothing under src/ is
changed; `uninstall` puts the original objects back.

A span is the tuple (name, start, end, parent, run, note): `parent` is the
index of the enclosing span in the same list (-1 at a root), `run` names
the set-up or operation the span belongs to, and `note` holds the few facts
the layer table needs from the call's arguments and result.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _permutation_test_note(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    stats = result.permutation_stats
    return {
        "reject": bool(result.reject),
        "drawn": int(stats.size),
        "decisive": decisive_index(stats, result.T_n, config.alpha, result.reject),
    }


def _rho_curve_note(args, kwargs, result):
    order = args[2] if len(args) > 2 else kwargs.get("order")
    return {"m": None if order is None else len(order)}


def _load_csv_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _gram_matrix_note(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _detect_ss_note(args, kwargs, result):
    return {"repeated": pair_tests_repeated(result.trace)}


# (span name, defining module, attribute, note maker).  kernel.pdist is
# scipy's function as seen by mmdseg.kernel; each call is one O(n^2 p)
# distance pass.
TARGETS = (
    ("cli.main", "mmdseg.cli", "main", None),
    ("dataio.load_csv", "mmdseg.dataio", "load_csv", _load_csv_note),
    ("dataio.dumps_json", "mmdseg.dataio", "dumps_json", None),
    ("kernel.median_heuristic", "mmdseg.kernel", "median_heuristic", None),
    ("kernel.gram_matrix", "mmdseg.kernel", "gram_matrix", _gram_matrix_note),
    ("kernel.pdist", "mmdseg.kernel", "pdist", None),
    ("mmd.rho_curve", "mmdseg.mmd", "rho_curve", _rho_curve_note),
    ("rng.permutation_stream", "mmdseg.rng", "permutation_stream", None),
    ("amoc.permutation_test", "mmdseg.amoc", "permutation_test", _permutation_test_note),
    ("segment.detect_u", "mmdseg.segment", "detect_u", None),
    ("segment.detect_s", "mmdseg.segment", "detect_s", None),
    ("segment.detect_ss", "mmdseg.segment", "detect_ss", _detect_ss_note),
    ("segment.detect_forward", "mmdseg.segment", "detect_forward", None),
    ("simulate.generate", "mmdseg.simulate", "generate", None),
    ("metrics.match", "mmdseg.metrics", "match", None),
    ("metrics.superset_match", "mmdseg.metrics", "superset_match", None),
    ("metrics.subset_match", "mmdseg.metrics", "subset_match", None),
    ("metrics.hausdorff", "mmdseg.metrics", "hausdorff", None),
    ("benchmark.run_replication", "mmdseg.benchmark", "run_replication", None),
)

DETECTORS = ("u", "s", "ss", "forward")

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("dataio.load_csv.busy_s", "s"),
    ("dataio.load_csv.mb_per_s", "MB/s"),
    ("dataio.dumps_json.busy_s", "s"),
    ("kernel.median_heuristic.busy_s", "s"),
    ("kernel.gram_matrix.busy_s", "s"),
    ("kernel.distance_passes", "count"),
    ("kernel.gram_bytes_computed", "bytes"),
    ("mmd.rho_curve.calls", "count"),
    ("mmd.rho_curve.permuted_calls", "count"),
    ("mmd.rho_curve.self_s", "s"),
    ("mmd.reindex_bytes_computed", "bytes"),
    ("mmd.clamp_warnings", "count"),
    ("rng.permutation_stream.calls", "count"),
    ("rng.permutation_stream.busy_s", "s"),
    ("amoc.permutation_test.calls", "count"),
    ("amoc.permutation_test.busy_s", "s"),
    ("amoc.permutation_test.self_s", "s"),
    ("amoc.permutations_drawn", "count"),
    ("amoc.decisive_ratio", "ratio"),
    ("amoc.reject_ratio", "ratio"),
    *((f"segment.detect_{a}.{k}", "s") for a in DETECTORS for k in ("busy_s", "self_s")),
    ("segment.sweeps", "count"),
    ("segment.pair_tests", "count"),
    ("segment.pair_tests_repeated", "count"),
    ("simulate.generate.calls", "count"),
    ("simulate.generate.busy_s", "s"),
    ("metrics.busy_s", "s"),
    ("metrics.match_rate", "ratio"),
    ("benchmark.run_replication.busy_s", "s"),
    ("benchmark.run_replication.self_s", "s"),
    ("benchmark.detector_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def decisive_index(stats, observed: float, alpha: float, reject: bool) -> int:
    """Draws after which the test's decision could no longer change.

    An accept is certain once the strict exceedance count #{T^(r) > T}
    reaches the smallest k with k / R >= alpha (so p >= alpha whatever the
    remaining draws give); a reject needs every draw.  Returns the 1-based
    index of that draw, or R when the count never gets there.
    """
    R = len(stats)
    if reject:
        return R
    need = max(math.ceil(alpha * R) - 1, 0)
    while need / R < alpha:
        need += 1
    if need == 0:
        return 0
    hits = np.flatnonzero(np.asarray(stats) > observed)
    return int(hits[need - 1]) + 1 if hits.size >= need else R


def pair_tests_repeated(trace) -> int:
    """detect-ss pair tests whose [a, c) block was already tested in this trace."""
    seen = set()
    repeated = 0
    for rec in trace:
        if rec.get("op") != "pair_test":
            continue
        block = tuple(rec["block"])
        repeated += block in seen
        seen.add(block)
    return repeated


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans around the package's layer functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run, None)
            if note is not None:
                spans[idx] = (name, start, end, parent, self.run, note(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "mmdseg" or k.startswith("mmdseg.")]
        for name, module, attr, note in TARGETS:
            if module not in sys.modules:  # a layer this process never loaded
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def extend(self, spans, run):
        """Append spans recorded in another process, re-basing parent links."""
        base = len(self.spans)
        for name, start, end, parent, _, note in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, run, note))


def _detector_of(spans, i):
    """Name of the nearest enclosing detector span, or None."""
    while i >= 0:
        if spans[i][0].startswith("segment.detect_"):
            return spans[i][0]
        i = spans[i][3]
    return None


def layer_table(spans, n_ops: int, n_setups: int, extra: dict) -> dict:
    """Per-layer metrics: counts and seconds per operation, ratios over the run.

    Spans whose run starts with "setup" count per set-up; only
    simulate.generate runs there (the CLI workloads draw their inputs once).
    `extra` supplies the values measured outside spans: import time, clamp
    warnings, the share of operations matching the truth, tracing overhead.
    """
    selfs = self_times(spans)
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    setup_busy = defaultdict(float)
    setup_calls = defaultdict(int)
    totals = defaultdict(float)
    for i, (name, start, end, parent, run, note) in enumerate(spans):
        if run.startswith("setup"):
            setup_busy[name] += end - start
            setup_calls[name] += 1
            continue
        busy[name] += end - start
        own[name] += selfs[i]
        calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "mmd.rho_curve":
            if note["m"] is not None:
                totals["permuted"] += 1
                totals["reindex_bytes"] += 8 * note["m"] ** 2
            elif parent_name.startswith("segment.detect_"):
                totals["sweeps"] += 1
        elif name == "amoc.permutation_test":
            totals["drawn"] += note["drawn"]
            totals["rejects"] += note["reject"]
            if _detector_of(spans, parent) == "segment.detect_ss":
                totals["pair_tests"] += 1
            else:
                totals["u_drawn"] += note["drawn"]
                totals["u_decisive"] += note["decisive"]
        elif name == "segment.detect_ss":
            totals["pair_repeated"] += note["repeated"]
        elif name == "dataio.load_csv":
            totals["csv_bytes"] += note["bytes"]
        elif name == "kernel.gram_matrix":
            totals["gram_bytes"] += note["bytes"]
        if name.startswith("segment.detect_") and parent_name == "benchmark.run_replication":
            totals["detector_busy"] += end - start

    per_op = 1.0 / max(n_ops, 1)
    per_setup = 1.0 / max(n_setups, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.import_s": extra["import_s"],
        "cli.main.self_s": own["cli.main"] * per_op,
        "dataio.load_csv.busy_s": busy["dataio.load_csv"] * per_op,
        "dataio.load_csv.mb_per_s": ratio(totals["csv_bytes"] / 1e6, busy["dataio.load_csv"]),
        "dataio.dumps_json.busy_s": busy["dataio.dumps_json"] * per_op,
        "kernel.median_heuristic.busy_s": busy["kernel.median_heuristic"] * per_op,
        "kernel.gram_matrix.busy_s": busy["kernel.gram_matrix"] * per_op,
        "kernel.distance_passes": calls["kernel.pdist"] * per_op,
        "kernel.gram_bytes_computed": totals["gram_bytes"] * per_op,
        "mmd.rho_curve.calls": calls["mmd.rho_curve"] * per_op,
        "mmd.rho_curve.permuted_calls": totals["permuted"] * per_op,
        "mmd.rho_curve.self_s": own["mmd.rho_curve"] * per_op,
        "mmd.reindex_bytes_computed": totals["reindex_bytes"] * per_op,
        "mmd.clamp_warnings": extra["clamp_warnings"] * per_op,
        "rng.permutation_stream.calls": calls["rng.permutation_stream"] * per_op,
        "rng.permutation_stream.busy_s": busy["rng.permutation_stream"] * per_op,
        "amoc.permutation_test.calls": calls["amoc.permutation_test"] * per_op,
        "amoc.permutation_test.busy_s": busy["amoc.permutation_test"] * per_op,
        "amoc.permutation_test.self_s": own["amoc.permutation_test"] * per_op,
        "amoc.permutations_drawn": totals["drawn"] * per_op,
        "amoc.decisive_ratio": ratio(totals["u_decisive"], totals["u_drawn"]),
        "amoc.reject_ratio": ratio(totals["rejects"], calls["amoc.permutation_test"]),
    }
    for a in DETECTORS:
        out[f"segment.detect_{a}.busy_s"] = busy[f"segment.detect_{a}"] * per_op
        out[f"segment.detect_{a}.self_s"] = own[f"segment.detect_{a}"] * per_op
    out.update({
        "segment.sweeps": totals["sweeps"] * per_op,
        "segment.pair_tests": totals["pair_tests"] * per_op,
        "segment.pair_tests_repeated": totals["pair_repeated"] * per_op,
        "simulate.generate.calls": calls["simulate.generate"] * per_op
        + setup_calls["simulate.generate"] * per_setup,
        "simulate.generate.busy_s": busy["simulate.generate"] * per_op
        + setup_busy["simulate.generate"] * per_setup,
        "metrics.busy_s": sum(v for k, v in busy.items() if k.startswith("metrics.")) * per_op,
        "metrics.match_rate": extra["match_rate"],
        "benchmark.run_replication.busy_s": busy["benchmark.run_replication"] * per_op,
        "benchmark.run_replication.self_s": own["benchmark.run_replication"] * per_op,
        "benchmark.detector_share": ratio(totals["detector_busy"], busy["benchmark.run_replication"]),
        "trace.overhead_ratio": extra["overhead_ratio"],
    })
    return out
