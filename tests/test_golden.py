"""Golden outputs of the CLI, compared byte for byte.

Each case runs `mmdseg.cli.main` on a small generated input and compares
what it writes with a file under tests/golden/: the stdout of every
detector, in JSON and (for one run of each detector) in CSV, of
`benchmark` and the CSV its `--output` writes, of `oracle-curve` on both
input routes, the CSV and truth sidecar `simulate` writes, (through
`generate`) every model of the catalog, and the cells of each default
table of `scripts/run_detection_tables.py`.  Like perfbench/fixture.json,
these files pin the program's results: a change that keeps results must
leave them untouched, and they are re-recorded only by a change that moves
results on purpose (a stream re-baseline, say), which says so.  To
re-record, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from mmdseg import AmocConfig, ModelSpec, generate
from mmdseg.cli import main
from mmdseg.dataio import save_csv
from mmdseg.simulate import MODEL_IDS

from test_scripts import load_script

GOLDEN = pathlib.Path(__file__).parent / "golden"

INPUTS = {
    "m8": ModelSpec("8", (30, 30, 30), seed=11, grid_size=16),
    "m1": ModelSpec("1", (40, 40), seed=12, grid_size=16),
    "n1": ModelSpec("N1", (60,), seed=13, grid_size=16),
}

RUNS = {
    "u": ["detect-u"],
    "u-add-one": ["detect-u", "--add-one"],
    "s": ["detect-s", "-K", "2"],
    "ss": ["detect-ss", "--upper", "4"],
    "ss-lower": ["detect-ss", "--lower", "1", "--upper", "3"],
    "forward-0": ["detect-forward", "--lower", "0"],
    "forward-1": ["detect-forward", "--lower", "1"],
}

CASES = [(i, r) for i in INPUTS for r in RUNS]

# `--format csv` runs: every detector on m8, and one run finding nothing.
CSV_CASES = [("m8", "u"), ("m8", "s"), ("m8", "ss"), ("m8", "forward-1"), ("n1", "u")]

BENCHMARKS = {
    "u": ["--algorithm", "u"],
    "s": ["--algorithm", "s", "-K", "2"],
    "ss": ["--algorithm", "ss", "--upper", "3"],
    "forward": ["--algorithm", "forward", "--lower", "1"],
}

ORACLE_ROUTES = {
    "model": ["--model", "8", "--lengths", "30,30,30", "--grid-size", "16", "--seed", "11"],
    "input": ["--input", "{csv_dir}/m8.csv", "--segment-lengths", "30,30,30"],
}

SIMULATE = ["--model", "M1", "--lengths", "12,12", "--grid-size", "8",
            "--param", "c=0.5", "--seed", "3"]

# Segment lengths of each catalog model, in catalog order.
CATALOG = {
    **dict.fromkeys(("N1", "N2", "N3", "N4"), (4,)),
    **dict.fromkeys(("1", "2", "3", "4", "5", "6", "7"), (3, 4)),
    **dict.fromkeys(("8", "9", "10", "11", "12"), (3, 2, 4)),
    **dict.fromkeys(("M1", "M2"), (3, 4)),
}

TABLES = ("single", "multi", "budget", "bounds")


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def detect_stdout(csv_path, run: str, *extra: str) -> str:
    return cli_stdout([*RUNS[run][:1], str(csv_path), *RUNS[run][1:], "-R", "99", "--seed", "7",
                       *extra])


def benchmark_argv(run: str) -> list[str]:
    return ["benchmark", "--model", "8", "--lengths", "20,20,20", "--grid-size", "16",
            *BENCHMARKS[run], "--replications", "3", "-R", "19", "--seed", "5"]


def benchmark_csv(out_dir, run: str) -> str:
    """The CSV `benchmark --output` writes."""
    prefix = pathlib.Path(out_dir) / f"benchmark-{run}"
    assert cli_stdout([*benchmark_argv(run), "--output", str(prefix)]) == ""
    return prefix.with_suffix(".csv").read_text()


def oracle_stdout(csv_dir, route: str) -> str:
    argv = [arg.format(csv_dir=csv_dir) for arg in ORACLE_ROUTES[route]]
    return cli_stdout(["oracle-curve", *argv])


def simulate_files(out_dir) -> dict[str, str]:
    """File name under tests/golden/ -> text, for the CSV and its sidecar."""
    path = pathlib.Path(out_dir) / "simulate-M1.csv"
    assert cli_stdout(["simulate", str(path), *SIMULATE]) == ""
    sidecar = path.with_suffix(".truth.json")
    return {path.name: path.read_text(), sidecar.name: sidecar.read_text()}


def catalog_json() -> str:
    """The `.17g` rows `generate` draws for every model id, at grid size 8."""
    doc = {}
    for model, lengths in CATALOG.items():
        params = {"c": 0.5} if model in ("M1", "M2") else {}
        data = generate(ModelSpec(model, lengths, seed=17, grid_size=8, params=params)).data
        doc[model] = [",".join(format(v, ".17g") for v in row) for row in data]
    return json.dumps(doc, indent=1) + "\n"


def tables_json() -> str:
    """The cells each default table of run_detection_tables.py builds."""
    build_cells = load_script("run_detection_tables").build_cells
    doc = {
        table: [
            {"label": cell.label, "model": cell.model.model_id,
             "lengths": list(cell.model.segment_lengths), "algorithm": cell.algorithm,
             "K": cell.K, "K_l": cell.K_l, "K_u": cell.K_u}
            for cell in build_cells(table, None, AmocConfig())
        ]
        for table in TABLES
    }
    return json.dumps(doc, indent=1) + "\n"


def write_inputs(csv_dir):
    for name, spec in INPUTS.items():
        save_csv(generate(spec).data, pathlib.Path(csv_dir) / f"{name}.csv")


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


@pytest.mark.parametrize("data, run", CASES, ids=[f"{i}-{r}" for i, r in CASES])
def test_detector_stdout_matches_golden(csv_dir, data, run):
    expected = (GOLDEN / f"{data}-{run}.json").read_text()
    assert detect_stdout(csv_dir / f"{data}.csv", run) == expected


@pytest.mark.parametrize("data, run", CSV_CASES, ids=[f"{i}-{r}" for i, r in CSV_CASES])
def test_detector_csv_matches_golden(csv_dir, data, run):
    expected = (GOLDEN / f"{data}-{run}.csv").read_text()
    assert detect_stdout(csv_dir / f"{data}.csv", run, "--format", "csv") == expected


@pytest.mark.parametrize("run", BENCHMARKS)
def test_benchmark_stdout_matches_golden(run):
    expected = (GOLDEN / f"benchmark-{run}.json").read_text()
    assert cli_stdout(benchmark_argv(run)) == expected


@pytest.mark.parametrize("run", BENCHMARKS)
def test_benchmark_csv_matches_golden(tmp_path, run):
    expected = (GOLDEN / f"benchmark-{run}.csv").read_text()
    assert benchmark_csv(tmp_path, run) == expected


@pytest.mark.parametrize("route", ORACLE_ROUTES)
def test_oracle_curve_matches_golden(csv_dir, route):
    expected = (GOLDEN / f"oracle-{route}.csv").read_text()
    assert oracle_stdout(csv_dir, route) == expected


def test_simulate_files_match_golden(tmp_path):
    for name, text in simulate_files(tmp_path).items():
        assert text == (GOLDEN / name).read_text(), name


def test_catalog_samples_match_golden():
    assert tuple(CATALOG) == MODEL_IDS
    assert catalog_json() == (GOLDEN / "simulate-catalog.json").read_text()


def test_table_cells_match_golden():
    assert tables_json() == (GOLDEN / "tables.json").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        outputs = {
            **{f"{d}-{r}.json": detect_stdout(pathlib.Path(tmp) / f"{d}.csv", r) for d, r in CASES},
            **{f"{d}-{r}.csv": detect_stdout(pathlib.Path(tmp) / f"{d}.csv", r, "--format", "csv")
               for d, r in CSV_CASES},
            **{f"benchmark-{r}.json": cli_stdout(benchmark_argv(r)) for r in BENCHMARKS},
            **{f"benchmark-{r}.csv": benchmark_csv(tmp, r) for r in BENCHMARKS},
            **{f"oracle-{r}.csv": oracle_stdout(tmp, r) for r in ORACLE_ROUTES},
            **simulate_files(tmp),
            "simulate-catalog.json": catalog_json(),
            "tables.json": tables_json(),
        }
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text)
        print(f"{name}: {len(text)} bytes", file=sys.stderr)
