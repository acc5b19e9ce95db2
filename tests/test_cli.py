import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmdseg.cli
from mmdseg.cli import main
from mmdseg.dataio import load_csv, save_csv, truth_sidecar_path
from mmdseg.errors import DataError

from test_scripts import TINY, load_script


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# dataio ---------------------------------------------------------------------


def test_csv_round_trip_preserves_doubles(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(7, 5))
    path = tmp_path / "data.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert np.array_equal(back, data)


def test_csv_header_detection(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("t1,t2,t3\n1,2,3\n4,5,6\n")
    data = load_csv(path)
    assert data.shape == (2, 3)


def test_csv_byte_order_mark_before_a_numeric_row_keeps_every_row(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n")
    assert np.array_equal(load_csv(path), [[1.5, 2], [3, 4], [5, 6]])


def test_csv_byte_order_mark_before_a_header_skips_the_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbft1,t2\n1,2\n3,4\n")
    assert np.array_equal(load_csv(path), [[1, 2], [3, 4]])


def test_csv_ragged_row_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_csv_non_numeric_cell_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        load_csv(path)


def test_csv_undecodable_bytes_is_data_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(DataError, match="cannot read"):
        load_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        load_csv(path)


# simulate + detect ----------------------------------------------------------


@pytest.fixture(scope="module")
def model8_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "m8.csv"
    code = main(
        ["simulate", str(path), "--model", "8", "--lengths", "60,60,60", "--seed", "5"]
    )
    assert code == 0
    return path


def test_simulate_writes_data_and_sidecar(model8_csv):
    data = load_csv(model8_csv)
    assert data.shape == (180, 128)
    sidecar = json.loads(Path(truth_sidecar_path(model8_csv)).read_text())
    assert sidecar["boundaries"] == [60, 120]
    assert sidecar["model"] == "8"


def test_detect_u_round_trip(model8_csv, capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, _, err = run(
        capsys,
        "detect-u", str(model8_csv),
        "-R", "99", "--seed", "3", "--output", str(out_path),
    )
    assert code == 0
    assert "elapsed_seconds=" in err
    doc = json.loads(out_path.read_text())
    assert doc["k_hat"] == 2
    assert all(abs(b - t) <= 2 for b, t in zip(doc["boundaries"], (60, 120)))
    assert len(doc["p_values"]) == doc["k_hat"]
    assert all(p is not None and p < 0.05 for p in doc["p_values"])
    assert doc["bandwidth"] > 0
    assert any(rec["op"] == "test" for rec in doc["trace"])


def test_detect_output_byte_identical(model8_csv, tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(
            capsys,
            "detect-u", str(model8_csv), "-R", "49", "--seed", "7",
            "--output", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_benchmark_reports_are_byte_identical(tmp_path, capsys):
    argv = ["benchmark", "--model", "N4", "--lengths", "24", "--algorithm", "u",
            "--replications", "2", "-R", "9", "--seed", "4"]
    reports = []
    for prefix in (tmp_path / "a", tmp_path / "b"):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--output", str(prefix))[:2] == (0, "")
        reports.append([out, *(prefix.with_suffix(ext).read_bytes() for ext in (".json", ".csv"))])
    assert reports[0] == reports[1]


# Each command of the CLI, in-process, with its stdout: the simulated CSV and
# truth sidecar, every detector, the oracle curve, and a benchmark cell's
# JSON and CSV reports.  The detectors read curves far from the origin
# (M1 shifts the second segment by 20 sin t), where a distance pass by
# |x|^2 + |y|^2 - 2 x.y would cancel and show any thread-dependent bits.
_EVERY_COMMAND = """
import pathlib, sys, tempfile
from mmdseg.cli import main
from mmdseg.dataio import truth_sidecar_path
with tempfile.TemporaryDirectory() as tmp:
    csv, report = pathlib.Path(tmp, "d.csv"), pathlib.Path(tmp, "b")
    runs = [["simulate", str(csv), "--model", "M1", "--lengths", "60,90", "--param", "c=20"],
            ["detect-u", str(csv)], ["detect-s", str(csv), "-K", "2"],
            ["detect-ss", str(csv), "--upper", "3"], ["detect-forward", str(csv), "--lower", "1"],
            ["oracle-curve", "--model", "2", "--lengths", "50,100"],
            ["benchmark", "--model", "8", "--lengths", "40,30,30", "--algorithm", "u",
             "--replications", "2", "--output", str(report)]]
    for argv in runs:
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
    print(csv.read_text(), pathlib.Path(truth_sidecar_path(csv)).read_text())
    print(report.with_suffix(".json").read_text(), report.with_suffix(".csv").read_text())
"""


def test_stdout_does_not_depend_on_the_blas_thread_count():
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _EVERY_COMMAND], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS"), threads)},
        )
        for threads in ("1", "2")
    ]
    (one, err), (two, _) = (proc.communicate() for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0], err
    assert one.count(b'"command": "detect-') == 4 and b"rho_star" in one
    assert one == two


# What only a distance pass or a pool of processes loads, listed after each
# step of a fresh process: scipy's distance kernel file, which never puts a
# scipy module in sys.modules, and the pool's module.  It is a subprocess
# because the test process has scipy loaded already (tests/reference.py uses
# it).  The oracle curve and the metrics are called on a given Gram and
# boundaries; the oracle-curve command builds its Gram, so it makes a
# distance pass.
_IMPORT_FOOTPRINT = """
import contextlib, io, json, pathlib, sys, tempfile
import numpy as np
import mmdseg, mmdseg.cli, mmdseg.kernel

def loaded():
    modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                     or m == "concurrent.futures.process")
    return modules + ["kernel file"] * mmdseg.kernel._distance_pybind.cache_info().currsize

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return mmdseg.cli.main(list(argv))

steps = {"import": loaded()}
with tempfile.TemporaryDirectory() as tmp:
    csv = str(pathlib.Path(tmp, "d.csv"))
    steps["simulate"] = [run("simulate", csv, "--model", "8", "--lengths", "20,20,20"), loaded()]
    mmdseg.oracle_curve(np.eye(6), (3, 3))
    mmdseg.hausdorff((20, 40), (21, 40))
    steps["oracle and metrics"] = [0, loaded()]
    steps["config error"] = [run("detect-u", csv, "--bandwidth", "-1"), loaded()]
    passes, pdist = [], mmdseg.kernel.pdist
    mmdseg.kernel.pdist = lambda *a, **k: passes.append(1) or pdist(*a, **k)
    code = run("detect-s", csv, "-K", "2")
    steps["detect-s"] = [code, loaded(), len(passes)]
    code = run("benchmark", "--model", "N4", "--lengths", "24", "--algorithm", "u",
               "--replications", "2", "-R", "9")
    steps["benchmark"] = [code, loaded()]
print(json.dumps(steps))
"""


def test_only_a_distance_pass_loads_scipy():
    src = os.path.dirname(os.path.dirname(mmdseg.cli.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "simulate": [0, []], "oracle and metrics": [0, []],
        "config error": [2, []], "detect-s": [0, ["kernel file"], 1],
        "benchmark": [0, ["kernel file"]],
    }


def test_detect_s_budget_and_csv_format(model8_csv, capsys):
    code, out, _ = run(
        capsys, "detect-s", str(model8_csv), "-K", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "boundary,breakfraction"
    assert len(lines) == 3


def test_detect_ss_rejects_crossed_bounds(model8_csv, capsys):
    code, _, err = run(
        capsys, "detect-ss", str(model8_csv), "--lower", "2", "--upper", "1"
    )
    assert code == 2
    assert json.loads(err)["kind"] == "configuration"


def test_detect_s_requires_budget(model8_csv, capsys):
    for argv, missing in (
        (["detect-s"], "K"),
        (["detect-ss", "--lower", "1"], "K_u"),
        (["detect-forward"], "K_l"),
    ):
        code, out, err = run(capsys, *argv, str(model8_csv))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "configuration"
        assert doc["error"].endswith(f"needs {missing}"), doc["error"]


# Algorithm s runs no permutation test, so a permutation setting given to
# it is an error, never echoed as if used.
_BENCHMARK_S = ["benchmark", "--model", "8", "--lengths", "9,9,9", "--algorithm", "s", "-K", "2",
                "--replications", "1"]


@pytest.mark.parametrize("command", ["detect-s", "benchmark"])
@pytest.mark.parametrize("flag, key, value", [
    (["-R", "9"], "permutations", "9"),
    (["--alpha", "0.5"], "alpha", "0.5"),
    (["--add-one"], "add_one", "yes"),
])
def test_algorithm_s_rejects_permutation_settings(
        model8_csv, tmp_path, capsys, command, flag, key, value):
    argv = ["detect-s", str(model8_csv), "-K", "2"] if command == "detect-s" else _BENCHMARK_S
    assert run(capsys, *argv)[0] == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    for extra in (flag, ["--config", str(cfg)]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "configuration"


def test_detect_s_echoes_only_the_settings_it_reads(model8_csv, capsys):
    code, out, _ = run(capsys, "detect-s", str(model8_csv), "-K", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out)["config"] == {"delta": 0.05, "seed": 3, "bandwidth": "median", "K": 2}


def test_config_file_may_start_with_a_byte_order_mark(model8_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfdelta=0.1\n")
    code, out, _ = run(capsys, "detect-s", str(model8_csv), "-K", "2", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["delta"] == 0.1


def test_detect_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "detect-u", "/nonexistent/file.csv")
    assert code == 3
    assert json.loads(err)["kind"] == "data"


def test_config_file_supplies_flags(model8_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("permutations=49\nseed=7\nformat=csv\n# comment\n")
    code, out, _ = run(capsys, "detect-u", str(model8_csv), "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "boundary,breakfraction"


def test_config_file_sets_permutation_count(model8_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("permutations=9\nadd_one=yes\nbandwidth=2.5\n")
    code, out, _ = run(capsys, "detect-u", str(model8_csv), "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["R"] == 9
    assert doc["config"]["add_one"] is True
    assert doc["bandwidth"] == 2.5


def test_flags_override_config_file(model8_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\n")
    code, out, _ = run(
        capsys, "detect-u", str(model8_csv), "--config", str(cfg),
        "--format", "json", "-R", "49",
    )
    assert code == 0
    assert json.loads(out)["config"]["R"] == 49


def test_detect_forward_runs(model8_csv, capsys):
    code, out, _ = run(
        capsys, "detect-forward", str(model8_csv), "--lower", "1",
        "-R", "49", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k_hat"] >= 1
    assert doc["config"]["K_l"] == 1


def test_add_one_pvalue_flag(model8_csv, capsys):
    code, out, _ = run(
        capsys, "detect-u", str(model8_csv), "-R", "49", "--seed", "3", "--add-one"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["add_one"] is True
    for rec in doc["trace"]:
        if rec["op"] == "test":
            assert rec["p_value"] >= 1 / 50  # add-one variant is bounded below


def test_fixed_bandwidth_flag(model8_csv, capsys):
    code, out, _ = run(
        capsys, "detect-u", str(model8_csv), "-R", "49", "--bandwidth", "2.5"
    )
    assert code == 0
    assert json.loads(out)["bandwidth"] == 2.5
    code, _, err = run(capsys, "detect-u", str(model8_csv), "--bandwidth", "-1")
    assert code == 2


# error contract: exit 2 or 3 with JSON on stderr, never a traceback ----------


@pytest.mark.parametrize(
    "argv, config, expected",
    [
        pytest.param(["detect-u", "{csv}"], "permutation=9\nalhpa=0.5\n", 2, id="misspelt-keys"),
        pytest.param(["detect-u", "{csv}"], "alhpa=0.5\n", 2, id="unknown-key"),
        pytest.param(["detect-u", "{csv}"], "add_one=maybe\n", 2, id="not-a-boolean"),
        pytest.param(["detect-u", "{csv}"], "permutations 9\n", 2, id="no-equals"),
        pytest.param(["detect-u", "{csv}"], "config=other.cfg\n", 2, id="nested-config"),
        pytest.param(["detect-u", "{csv}"], "format=xml\n", 2, id="bad-choice"),
        pytest.param(["detect-u", "{csv}", "--bogus"], None, 2, id="unknown-flag"),
        pytest.param(["detect-u", "{csv}", "-R", "x"], None, 2, id="non-integer-R"),
        pytest.param(["detect-u", "{csv}", "--bandwidth", "nan"], None, 2, id="nan-bandwidth"),
        pytest.param(["detect-u", "{csv}", "--bandwidth", "auto"], None, 2, id="auto-bandwidth"),
        pytest.param([], None, 2, id="no-subcommand"),
        pytest.param(["detect-u", "{tmp}/a\tb.csv"], None, 3, id="tab-in-path"),
        pytest.param(["detect-u", "{csv}", "-R", "9", "--output", "{tmp}/missing/r.json"],
                     None, 2, id="unwritable-output"),
        pytest.param(["simulate", "{tmp}/missing/d.csv", "--model", "8", "--lengths", "9,9,9"],
                     None, 2, id="unwritable-simulate"),
        pytest.param(["benchmark", "--model", "N4", "--lengths", "24", "--algorithm", "u",
                      "--replications", "1", "-R", "9", "--output", "{tmp}/missing/b"],
                     None, 2, id="unwritable-benchmark"),
        pytest.param(["benchmark", "--model", "N1", "--lengths", "30", "--algorithm", "u",
                      "-K", "3", "--replications", "1", "-R", "9"],
                     None, 2, id="benchmark-unused-budget"),
        pytest.param(["simulate", "{tmp}/d.csv", "--model", "8", "--lengths", "9,9,9",
                      "--seed", "-1"], None, 2, id="negative-seed"),
        pytest.param(["detect-u", "{csv}", "-R", "9", "--seed", str(2**64)],
                     None, 2, id="seed-out-of-range"),
        pytest.param(["oracle-curve", "--input", "{csv}", "--segment-lengths", "60,60,60",
                      "--model", "8", "--lengths", "1,2,3", "--seed", "9", "--param", "c=4"],
                     None, 2, id="oracle-input-with-model-flags"),
        pytest.param(["oracle-curve", "--input", "{csv}", "--segment-lengths", "60,60,60"],
                     "grid_size=16\n", 2, id="oracle-input-with-grid-size"),
        pytest.param(["oracle-curve", "--model", "8", "--lengths", "20,20,20",
                      "--segment-lengths", "20,20,20"], None, 2, id="oracle-model-with-input-flag"),
        pytest.param(["oracle-curve", "--input", "{csv}", "--segment-lengths", "60,60,59"],
                     None, 2, id="oracle-lengths-off-n"),
    ],
)
def test_error_contract(model8_csv, tmp_path, capsys, argv, config, expected):
    argv = [a.format(csv=model8_csv, tmp=tmp_path) for a in argv]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert json.loads(err)["kind"] == ("configuration" if expected == 2 else "data")
    assert "Traceback" not in err


# After a success stderr holds one elapsed_seconds line (after simulate's
# `wrote` line) and stdout none; after a failure stderr holds only the JSON
# object.  The last entry is the table script, which shares run_command.
@pytest.mark.parametrize(
    "argv, failing",
    [
        pytest.param(["detect-u", "{csv}", "-R", "9"], ["--bandwidth", "-1"], id="detect-u"),
        pytest.param(["detect-s", "{csv}", "-K", "2"], ["-K", "0"], id="detect-s"),
        pytest.param(["detect-ss", "{csv}", "--upper", "2", "-R", "9"], ["--lower", "3"],
                     id="detect-ss"),
        pytest.param(["detect-forward", "{csv}", "--lower", "1", "-R", "9"], ["--lower", "-1"],
                     id="detect-forward"),
        pytest.param(["simulate", "{tmp}/d.csv", "--model", "8", "--lengths", "9,9,9"],
                     ["--seed", "-1"], id="simulate"),
        pytest.param(["oracle-curve", "--model", "1", "--lengths", "9,9"],
                     ["--segment-lengths", "9,9"], id="oracle-curve"),
        pytest.param(["benchmark", "--model", "N4", "--lengths", "24", "--algorithm", "u",
                      "--replications", "1", "-R", "9"], ["--replications", "0"], id="benchmark"),
        pytest.param(["null", "--n", "40", *TINY, "--output", "{tmp}/t.json"], ["--n", "0"],
                     id="run_detection_tables"),
    ],
)
def test_stderr_holds_the_elapsed_line_after_a_success_and_only_json_after_a_failure(
        model8_csv, tmp_path, capsys, argv, failing):
    argv = [a.format(csv=model8_csv, tmp=tmp_path) for a in argv]
    entry = load_script("run_detection_tables").main if argv[0] == "null" else main
    assert entry(argv) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    if argv[0] == "simulate":
        assert lines.pop(0).startswith("wrote ")
    assert "elapsed_seconds" not in out
    assert len(lines) == 1 and re.fullmatch(r"elapsed_seconds=\d+\.\d{3}", lines[0])
    assert entry([*argv, *failing]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["kind"] == "configuration"


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [
        ["detect-s", "{csv}", "-K", "1", "-o", "/dev/full"],
        ["simulate", "/dev/full", "--model", "1", "--lengths", "3,3"],
    ],
    ids=["detect-output", "simulate"],
)
def test_a_failed_file_write_exits_2_with_json(model8_csv, capsys, argv):
    code, out, err = run(capsys, *(a.format(csv=model8_csv) for a in argv))
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["kind"] == "configuration"
    assert doc["error"].startswith("cannot write /dev/full: [Errno 28]")


@needs_dev_full
def test_a_failed_stdout_write_exits_2_with_json(model8_csv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "mmdseg.cli", "detect-s", str(model8_csv), "-K", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    assert proc.returncode == 2
    doc = json.loads(proc.stderr)
    assert doc["kind"] == "configuration"
    assert doc["error"].startswith("cannot write stdout: [Errno 28]")


def test_a_bad_bandwidth_exits_2_before_the_distance_pass(model8_csv, capsys, monkeypatch):
    import mmdseg.kernel

    passes = []
    monkeypatch.setattr(mmdseg.kernel, "pdist", lambda *a, **k: passes.append(1))
    code, out, err = run(capsys, "detect-u", str(model8_csv), "--bandwidth", "-1")
    assert (code, out, passes) == (2, "", [])
    assert json.loads(err) == {
        "error": "bandwidth must be positive with 2h^2 finite, got -1.0", "kind": "configuration",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["detect-u", "{csv}"],
        ["oracle-curve", "--input", "{csv}", "--segment-lengths", "60,60,60"],
    ],
    ids=["detect-u", "oracle-curve"],
)
def test_an_unwritable_output_exits_2_before_the_distance_pass(
        model8_csv, tmp_path, capsys, monkeypatch, argv):
    import mmdseg.kernel

    passes = []
    monkeypatch.setattr(mmdseg.kernel, "pdist", lambda *a, **k: passes.append(1))
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *(a.format(csv=model8_csv) for a in argv), "-o", str(target))
    assert (code, out, passes) == (2, "", [])
    assert json.loads(err) == {
        "error": f"cannot write {target}: no directory {target.parent}", "kind": "configuration",
    }


def test_detect_checks_its_budget_before_reading_the_csv(model8_csv, capsys, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("the CSV was read")

    monkeypatch.setattr(mmdseg.cli, "load_csv", no_load)
    code, out, err = run(capsys, "detect-s", str(model8_csv), "-K", "0")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "K must be >= 1, got 0", "kind": "configuration"}


def test_simulate_non_finite_strength_writes_nothing(tmp_path, capsys):
    path = tmp_path / "s.csv"
    code, _, err = run(capsys, "simulate", str(path), "--model", "M2", "--lengths", "5,5",
                       "--param", "c=inf")
    assert code == 2
    assert "finite" in json.loads(err)["error"]
    assert not path.exists()
    assert not path.with_suffix(".truth.json").exists()


def test_simulate_with_an_unwritable_sidecar_writes_no_csv(tmp_path, capsys):
    path = tmp_path / "o.csv"
    (tmp_path / "o.truth.json").mkdir()
    code, _, err = run(capsys, "simulate", str(path), "--model", "1", "--lengths", "3,3")
    assert code == 2
    assert json.loads(err) == {
        "error": f"cannot write {tmp_path / 'o.truth.json'}: it is a directory",
        "kind": "configuration",
    }
    assert not path.exists()


def test_a_median_bandwidth_that_overflows_is_a_data_error(tmp_path, capsys):
    # No bandwidth was set: the data's scale puts the median out of range.
    path = tmp_path / "f.csv"
    save_csv(np.random.default_rng(0).normal(size=(40, 5)) * 1e200, path)
    code, out, err = run(capsys, "detect-s", str(path), "-K", "1")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "median pairwise distance is inf; the kernel needs h > 0 with 2h^2 finite",
        "kind": "data",
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Tiny inputs: valid, constant (degenerate bandwidth) and non-numeric."""
    path = tmp_path_factory.mktemp("fuzz")
    save_csv(np.random.default_rng(0).normal(size=(12, 3)), path / "tiny.csv")
    save_csv(np.ones((12, 3)), path / "constant.csv")
    (path / "bad.csv").write_text("1,2\n3,x\n")
    return path


_FLAGS = ["-K", "--lower", "--upper", "--delta", "--alpha", "--seed", "--bandwidth",
          "--add-one", "--format", "--config", "-h"]
_VALUES = ["json", "csv", "median", "0", "1", "2", "3", "-1", "0.3", "1e-300", "1e308",
           "nan", "inf", "x", "", "yes", "maybe"]
_KEYS = ["permutations", "delta", "alpha", "seed", "add_one", "add-one", "bandwidth",
         "format", "changepoints", "lower", "upper", "config", "R", "input", "alhpa"]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_NUMBER = st.one_of(
    st.floats(-9.0, 9.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["1e308", "-1e308", "1e309", '"1"', " 2", "0x1", "1_0"]),
).map(str.encode)
_JUNK = st.sampled_from(
    [b"x", b"'", b'"', b",", b";", b"\t", b"\r", b"\n", b"\x00", b"\xff", b"\xc3(", b"\xef\xbb\xbf"]
) | st.binary(max_size=3)


def _csv_bytes(rows, sep, eol, edits):
    """Rows of number cells, then each junk insertion spliced in at its offset."""
    text = eol.join(sep.join(row) for row in rows)
    for at, junk in edits:
        at %= len(text) + 1
        text = text[:at] + junk + text[at:]
    return text


_CSV_BYTES = st.builds(
    _csv_bytes,
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(_NUMBER, min_size=k, max_size=k), max_size=14)
    ),
    st.sampled_from([b",", b",", b";", b", ", b"\t"]),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
    st.lists(st.tuples(st.integers(0, 400), _JUNK), max_size=2),
)


@given(
    command=st.sampled_from(["detect-u", "detect-s", "detect-ss", "detect-forward", "", "-h"]),
    data=st.sampled_from(["tiny.csv", "constant.csv", "bad.csv", "missing.csv"]) | _CSV_BYTES,
    options=st.lists(
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES))
        | st.tuples(_TEXT, st.sampled_from(_VALUES) | _TEXT),
        max_size=4,
    ),
    lines=st.none() | st.lists(
        st.tuples(st.sampled_from(_KEYS) | _TEXT, st.sampled_from(["=", " = ", ""]),
                  st.sampled_from(_VALUES) | _TEXT),
        max_size=4,
    ),
)
@settings(max_examples=80, deadline=None)
def test_fuzzed_argv_and_config_end_in_result_or_json_error(
    fuzz_dir, command, data, options, lines
):
    if isinstance(data, bytes):
        (fuzz_dir / "fuzzed.csv").write_bytes(data)
        data = "fuzzed.csv"
    argv = [command, data, *(tok for pair in options for tok in pair)]
    if lines is not None:
        (fuzz_dir / "fuzz.cfg").write_text(
            "\n".join(k + sep + v for k, sep, v in lines), encoding="utf-8"
        )
        argv += ["--config", "fuzz.cfg"]
    if command != "detect-s":  # detect-s takes no -R
        argv += ["-R", "9"]  # last, so it bounds the permutation count
    _assert_result_or_json_error(fuzz_dir, argv)


def _assert_result_or_json_error(fuzz_dir, argv):
    """main(argv), run in fuzz_dir, exits 0, or 2 or 3 with one JSON object on stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # relative paths, and any stray output file, stay here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # -h prints usage and exits 0
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3)
    if code:
        assert json.loads(err.getvalue())["kind"] in ("configuration", "data")


# The other subcommands, each with a valid run to start from and its own
# flags.  Every value keeps a run tiny (segment lengths summing to at most
# 12), and a benchmark ends with one replication of 5 permutations.
_MODEL_FLAGS = ["--model", "--lengths", "--grid-size", "--param", "--seed", "--config", "-h"]
_OTHER_COMMANDS = {
    "simulate": (["sim.csv", "--model", "8", "--lengths", "4,4,4"], _MODEL_FLAGS),
    "oracle-curve": (
        ["--model", "8", "--lengths", "4,4,4", "--grid-size", "8"],
        [*_MODEL_FLAGS, "--input", "--segment-lengths", "--bandwidth", "--output"],
    ),
    "benchmark": (
        ["--model", "8", "--lengths", "4,4,4", "--grid-size", "8", "--algorithm", "u"],
        [*_MODEL_FLAGS, "--algorithm", "-K", "--lower", "--upper", "--workers", "--delta",
         "--alpha", "--add-one", "--bandwidth", "--output"],
    ),
}
_OTHER_VALUES = ["1", "8", "N1", "M2", "99", "12", "3,4", "6,6", "4,4,4", "0,5", "0", "2", "-1",
                 "0.3", "nan", "inf", "1e308", "c=0.5", "c=inf", "c", "u", "s", "ss", "forward",
                 "median", "x", "", "yes", "tiny.csv", "bad.csv", "missing.csv", "out",
                 "missing/out"]
_OTHER_KEYS = ["model", "lengths", "grid_size", "param", "seed", "input", "segment_lengths",
               "bandwidth", "output", "algorithm", "changepoints", "lower", "upper", "workers",
               "delta", "alpha", "add_one", "replications", "permutations", "config", "alhpa"]


@st.composite
def _other_argv(draw):
    """A command, its valid run or nothing, then up to four of its flags."""
    command = draw(st.sampled_from(sorted(_OTHER_COMMANDS)))
    start, flags = _OTHER_COMMANDS[command]
    pairs = draw(st.lists(st.tuples(st.sampled_from(flags), st.sampled_from(_OTHER_VALUES)),
                          max_size=4))
    return [command, *draw(st.sampled_from([start, []])), *(tok for pair in pairs for tok in pair)]


@given(
    argv=_other_argv(),
    lines=st.none() | st.lists(
        st.tuples(st.sampled_from(_OTHER_KEYS), st.sampled_from(_OTHER_VALUES)), max_size=3
    ),
)
@settings(max_examples=90, deadline=None)
def test_fuzzed_simulate_oracle_and_benchmark_end_in_result_or_json_error(fuzz_dir, argv, lines):
    if lines is not None:
        (fuzz_dir / "other.cfg").write_text("\n".join(f"{k}={v}" for k, v in lines))
        argv += ["--config", "other.cfg"]
    if argv[0] == "benchmark":
        argv += ["--replications", "1", "-R", "5"]  # last, so they bound the run
    _assert_result_or_json_error(fuzz_dir, argv)


def test_input_too_large_for_memory_is_data_error(model8_csv, capsys, monkeypatch):
    def out_of_memory(data, h=None):
        raise MemoryError(
            "Unable to allocate 149. GiB for an array with shape (19999900000,) "
            "and data type float64"
        )

    monkeypatch.setattr("mmdseg.segment.squared_distances", out_of_memory)
    code, out, err = run(capsys, "detect-s", str(model8_csv), "-K", "1")
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "data" and "149. GiB" in doc["error"]


def test_an_input_over_the_available_memory_exits_3_before_the_distance_pass(
        model8_csv, capsys, monkeypatch):
    import mmdseg.kernel

    passes = []
    monkeypatch.setattr(mmdseg.kernel, "pdist", lambda *a, **k: passes.append(1))
    monkeypatch.setattr(mmdseg.kernel, "_available_memory", lambda: 1000)
    code, out, err = run(capsys, "detect-s", str(model8_csv), "-K", "1")
    assert (code, out, passes) == (3, "", [])
    doc = json.loads(err)
    assert doc["kind"] == "data"
    assert doc["error"].startswith("input too large for memory: ")
    assert doc["error"].endswith(" MB for the 180 x 180 Gram matrix, 0.001 MB available")


# oracle-curve ---------------------------------------------------------------


def test_oracle_curve_from_simulated_model(capsys):
    code, out, _ = run(
        capsys,
        "oracle-curve", "--model", "1", "--lengths", "40,40", "--seed", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,rho_star,rho"
    assert len(lines) == 80  # header + n-1 rows
    r, star, emp = lines[40].split(",")
    assert int(r) == 40
    assert float(star) >= 0 and float(emp) >= 0


def test_oracle_curve_from_csv_requires_lengths(model8_csv, capsys):
    code, _, _ = run(capsys, "oracle-curve", "--input", str(model8_csv))
    assert code == 2
    code, out, _ = run(
        capsys,
        "oracle-curve", "--input", str(model8_csv), "--segment-lengths", "60,60,60",
    )
    assert code == 0
    assert out.splitlines()[0] == "r,rho_star,rho"


def test_oracle_curve_takes_any_number_of_pools(model8_csv, capsys):
    code, out, _ = run(capsys, "oracle-curve", "--input", str(model8_csv),
                       "--segment-lengths", "45,45,45,45")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,rho_star,rho"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 180))


def test_oracle_curve_names_the_other_routes_flag(model8_csv, capsys):
    code, _, err = run(capsys, "oracle-curve", "--input", str(model8_csv),
                       "--segment-lengths", "60,60,60", "--seed", "0")
    assert code == 2 and "--seed" in json.loads(err)["error"]
    code, _, err = run(capsys, "oracle-curve", "--model", "1", "--lengths", "9,9",
                       "--segment-lengths", "9,9")
    assert code == 2 and "--segment-lengths" in json.loads(err)["error"]


# benchmark ------------------------------------------------------------------


def test_benchmark_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "bench"
    code, _, err = run(
        capsys,
        "benchmark", "--model", "N4", "--lengths", "24", "--algorithm", "u",
        "--replications", "2", "-R", "9", "--output", str(prefix),
    )
    assert code == 0
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["cells"][0]["replications"] == 2
    header = (tmp_path / "bench.csv").read_text().splitlines()[0]
    assert "rate_match" in header


def test_benchmark_checks_the_output_path_before_running(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(mmdseg.cli, "run_benchmark", no_run)
    prefix = tmp_path / "missing" / "bench"
    code, out, err = run(
        capsys,
        "benchmark", "--model", "N4", "--lengths", "24", "--algorithm", "u",
        "--replications", "2", "-R", "9", "--output", str(prefix),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"cannot write {prefix}.json: no directory {prefix.parent}"


def test_benchmark_reports_lower_bound_zero_for_ss_without_lower(capsys):
    argv = ["benchmark", "--model", "8", "--lengths", "20,20,20", "--algorithm", "ss",
            "--upper", "2", "--replications", "2", "-R", "9"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    row = json.loads(out)["cells"][0]
    assert row["K_l"] == 0
    code, out, _ = run(capsys, *argv, "--lower", "0")
    assert code == 0
    explicit = json.loads(out)["cells"][0]
    assert row["rate_match"] == explicit["rate_match"]
    assert row["rate_k_correct"] == explicit["rate_k_correct"]


def test_benchmark_takes_every_flag_from_a_config_file(tmp_path, capsys):
    flags = ["--model", "8", "--lengths", "20,20,20", "--algorithm", "ss", "--upper", "2",
             "--replications", "2", "-R", "9"]
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("model=8\nlengths=20,20,20\nalgorithm=ss\nupper=2\n"
                   "replications=2\npermutations=9\n")
    code, by_flags, _ = run(capsys, "benchmark", *flags)
    assert code == 0
    code, by_config, _ = run(capsys, "benchmark", "--config", str(cfg))
    assert code == 0
    assert by_config == by_flags


def test_benchmark_without_an_algorithm_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("model=N4\nlengths=24\n")
    code, out, err = run(capsys, "benchmark", "--config", str(cfg), "--replications", "1")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "algorithm must be one of ('u', 's', 'ss', 'forward'), got None",
        "kind": "configuration",
    }
