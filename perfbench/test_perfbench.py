"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys

import numpy as np
import pytest

import run
from tracing import Tracer, decisive_index, layer_table, pair_tests_repeated, self_times

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "op-0", None),
        ("a", 1.0, 4.0, 0, "op-0", None),
        ("b", 5.0, 7.0, 0, "op-0", None),
        ("a.child", 2.0, 3.0, 1, "op-0", None),
        ("other", 0.0, 6.0, -1, "op-1", None),
        ("x", 1.0, 4.0, 4, "op-1", None),
        ("y", 3.0, 5.0, 4, "op-1", None),  # overlaps x: [1, 5) is covered once
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 2.0, 3.0, 2.0]


def test_decisive_index_early_accept_late_accept_and_reject():
    R, alpha, observed = 199, 0.05, 1.0
    need = 10  # smallest k with k / 199 >= 0.05
    early = np.zeros(R)
    early[:need] = 2.0
    assert decisive_index(early, observed, alpha, reject=False) == need

    late = np.zeros(R)
    late[-need - 5:] = 2.0  # exceedances only among the last 15 draws
    assert decisive_index(late, observed, alpha, reject=False) == R - need - 5 + need

    ties = np.full(R, observed)  # equal statistics do not exceed
    assert decisive_index(ties, observed, alpha, reject=False) == R

    reject = np.zeros(R)
    reject[:3] = 2.0
    assert decisive_index(reject, observed, alpha, reject=True) == R


def test_pair_tests_repeated_on_hand_built_detect_ss_trace():
    # K_u = 3 on n = 100: boundaries (30, 50, 80); stage 1 merges the last
    # pair, so stage 2 re-tests [0, 50) and tests [30, 100) afresh.
    trace = [
        {"op": "sweep", "round": 0, "block": [0, 100]},
        {"op": "pair_test", "stage": 1, "pair": 0, "block": [0, 50]},
        {"op": "pair_test", "stage": 1, "pair": 1, "block": [30, 80]},
        {"op": "pair_test", "stage": 1, "pair": 2, "block": [50, 100]},
        {"op": "merge", "stage": 1, "pair": 2, "boundary": 80},
        {"op": "pair_test", "stage": 2, "pair": 0, "block": [0, 50]},
        {"op": "pair_test", "stage": 2, "pair": 1, "block": [30, 100]},
        {"op": "merge", "stage": 2, "pair": 0, "boundary": 30},
        {"op": "pair_test", "stage": 3, "pair": 0, "block": [0, 100]},
    ]
    assert pair_tests_repeated(trace) == 1
    assert pair_tests_repeated([r for r in trace if r.get("stage") != 2]) == 0


def test_tail_percentile_rule():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    xs = list(range(100))
    assert run.tail(xs) == (89, 90.0, 10)


def test_tracer_wraps_every_alias_and_restores_them():
    import mmdseg.amoc
    import mmdseg.segment
    from mmdseg import AmocConfig, ModelSpec, detect_ss, generate

    original = mmdseg.amoc.permutation_test
    tracer = Tracer()
    tracer.install()
    try:
        assert mmdseg.segment.permutation_test is mmdseg.amoc.permutation_test
        assert mmdseg.segment.permutation_test is not original
        tracer.run = "op-0"
        data = generate(ModelSpec("8", (20, 20, 20), seed=3)).data
        mmdseg.segment.detect_ss(data, 0, 3, AmocConfig(R=19))
    finally:
        tracer.uninstall()
    assert mmdseg.amoc.permutation_test is original
    assert mmdseg.segment.permutation_test is original
    assert detect_ss is mmdseg.segment.detect_ss

    table = layer_table(tracer.spans, 1, 1,
                        {"import_s": 0.0, "clamp_warnings": 0, "match_rate": 1.0,
                         "overhead_ratio": 0.0})
    assert table["kernel.distance_passes"] == 2
    assert table["segment.sweeps"] == 6  # rounds 0..2 sweep 1, 2 and 3 blocks
    assert table["segment.pair_tests"] == table["amoc.permutation_test.calls"] > 0
    assert table["amoc.permutations_drawn"] == 19 * table["amoc.permutation_test.calls"]
    assert table["amoc.decisive_ratio"] == 0.0  # no test on the detect-u path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
