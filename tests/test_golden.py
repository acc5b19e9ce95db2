"""Golden stdout of every detector, compared byte for byte.

Each case runs `mmdseg.cli.main` on a small generated input and compares
its stdout with a file under tests/golden/.  Like perfbench/fixture.json,
these files pin the detectors' results: a change that keeps results must
leave them untouched, and they are re-recorded only by a change that moves
results on purpose (a stream re-baseline, say), which says so.  To
re-record, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from mmdseg import ModelSpec, generate
from mmdseg.cli import main
from mmdseg.dataio import save_csv

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


def detect_stdout(csv_path, run: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*RUNS[run][:1], str(csv_path), *RUNS[run][1:], "-R", "99", "--seed", "7"])
    assert code == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, spec in INPUTS.items():
        save_csv(generate(spec).data, path / f"{name}.csv")
    return path


@pytest.mark.parametrize("data, run", CASES, ids=[f"{i}-{r}" for i, r in CASES])
def test_detector_stdout_matches_golden(csv_dir, data, run):
    expected = (GOLDEN / f"{data}-{run}.json").read_text()
    assert detect_stdout(csv_dir / f"{data}.csv", run) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in INPUTS.items():
            save_csv(generate(spec).data, pathlib.Path(tmp) / f"{name}.csv")
        for data, run in CASES:
            text = detect_stdout(pathlib.Path(tmp) / f"{data}.csv", run)
            (GOLDEN / f"{data}-{run}.json").write_text(text)
            print(f"{data}-{run}: {len(text)} bytes", file=sys.stderr)
