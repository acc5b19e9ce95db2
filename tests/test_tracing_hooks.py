"""The layer tracer of perfbench/ still reaches every detector.

perfbench/tracing.py wraps package functions by replacing module
attributes, so a detector reached through anything but its module name (a
dict of functions captured at import, say) would silently drop out of the
per-layer metrics.  These tests import tracing.py as it is, install its
Tracer, and check that each detector still records its span, under
`run_replication` for the Monte Carlo harness and under `cli.main` for the
CLI.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pathlib

import pytest

import mmdseg.benchmark
import mmdseg.cli
import mmdseg.segment
from mmdseg import AmocConfig, BenchmarkCell, ModelSpec, generate
from mmdseg.dataio import save_csv

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def traced(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def spans_named(tracer, name):
    return [(i, span) for i, span in enumerate(tracer.spans) if span[0] == name]


def test_every_tracer_target_exists(tracing):
    for name, module, attr, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module), attr), name


@pytest.mark.parametrize(
    "algorithm, budget",
    [("u", {}), ("s", {"K": 2}), ("ss", {"K_u": 3}), ("forward", {"K_l": 1})],
)
def test_run_replication_records_its_detector_span(tracing, algorithm, budget):
    cell = BenchmarkCell(ModelSpec("8", (12, 12, 12), grid_size=8), algorithm,
                         config=AmocConfig(R=9), **budget)
    with traced(tracing) as tracer:
        mmdseg.benchmark.run_replication(cell, 3)
    (outer, _), = spans_named(tracer, "benchmark.run_replication")
    detectors = spans_named(tracer, f"segment.detect_{algorithm}")
    assert [span[3] for _, span in detectors] == [outer]
    (inner, _), = detectors
    below = [span[0] for span in tracer.spans if span[3] == inner]
    assert ("mmd.rho_curve" if budget else "amoc.permutation_test") in below


def test_cli_detect_records_its_detector_span(tracing, tmp_path):
    path = tmp_path / "m8.csv"
    save_csv(generate(ModelSpec("8", (12, 12, 12), grid_size=8)).data, path)
    with traced(tracing) as tracer, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert mmdseg.cli.main(["detect-s", str(path), "-K", "2"]) == 0
    (outer, _), = spans_named(tracer, "cli.main")
    assert [span[3] for _, span in spans_named(tracer, "segment.detect_s")] == [outer]


@pytest.mark.parametrize("algorithm, budget", [("u", []), ("ss", ["--upper", "3"])])
def test_permutation_test_spans_note_the_draws_the_detector_made(
    tracing, tmp_path, algorithm, budget
):
    # perfbench's per-layer counters read the config and the statistics of
    # each permutation_test call; they must agree with the detector's trace.
    path = tmp_path / "m8.csv"
    save_csv(generate(ModelSpec("8", (30, 30, 30), grid_size=8)).data, path)
    out = io.StringIO()
    with traced(tracing) as tracer, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert mmdseg.cli.main([f"detect-{algorithm}", str(path), "-R", "49", *budget]) == 0
    trace = json.loads(out.getvalue())["trace"]
    drawn = [span[5]["drawn"] for _, span in spans_named(tracer, "amoc.permutation_test")]
    if algorithm == "u":
        expected = [rec["permutations_used"] for rec in trace if rec["op"] == "test"]
        assert min(expected) < 49  # an accepting test stopped early
    else:
        expected = [49 for rec in trace if rec["op"] == "pair_test"]
    assert drawn == expected != []


def test_the_tracer_sees_each_recheck_with_its_block_size(tracing):
    # A draw the fast routes cannot decide is rechecked by rho_curve with the
    # draw as its order, which the tracer notes as a permuted call of m rows.
    data = generate(ModelSpec("8", (12, 12, 12))).data
    with traced(tracing) as tracer:
        result = mmdseg.segment.detect_ss(data, 0, 6, config=AmocConfig(R=49))
    blocks = [c - a for a, c in (rec["block"] for rec in result.trace if rec["op"] == "pair_test")]
    tests = [i for i, _ in spans_named(tracer, "amoc.permutation_test")]
    assert len(tests) == len(blocks)
    size = dict(zip(tests, blocks))
    rechecks = [span for _, span in spans_named(tracer, "mmd.rho_curve") if span[5]["m"] is not None]
    assert rechecks and all(span[5]["m"] == size[span[3]] for span in rechecks)
