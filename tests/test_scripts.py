"""Smoke tests of the experiment script behind the paper's tables, at tiny sizes."""

import importlib.util
import json
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
TINY = ["--replications", "1", "--permutations", "9", "--workers", "1"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def written_cells(path):
    return {row["label"]: row for row in json.loads(path.read_text())["cells"]}


def test_the_null_table_writes_one_cell_per_null_model(tmp_path, capsys):
    out = tmp_path / "null.json"
    script = load_script("run_detection_tables")
    assert script.main(["null", "--n", "40", *TINY, "--output", str(out)]) == 0
    cells = written_cells(out)
    assert list(cells) == ["N1-40", "N2-40", "N3-40", "N4-40"]
    for row in cells.values():
        assert 0.0 <= row["rate_k_correct"] <= 1.0
        assert row["se_k_correct"] >= 0.0
    assert "K-correct" in capsys.readouterr().out


def test_the_table_json_is_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    script = load_script("run_detection_tables")
    for out in paths:
        assert script.main(["null", "--n", "40", *TINY, "--output", str(out)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_detection_tables_writes_the_bounds_cells(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    script = load_script("run_detection_tables")
    assert script.main(["bounds", "--models", "1", *TINY, "--output", str(out)]) == 0
    cells = written_cells(out)
    assert list(cells) == ["1-Kl0-Ku2", "1-Kl0-Ku3", "1-Kl1-Ku3"]
    for row in cells.values():
        for key in ("rate_k_correct", "rate_match", "rate_superset", "rate_subset"):
            assert 0.0 <= row[key] <= 1.0
    assert "K-correct" in capsys.readouterr().out


@pytest.mark.parametrize(
    "table, models, labels",
    [("bounds", "8", ["8-Kl0-Ku2", "8-Kl0-Ku3", "8-Kl1-Ku3"]),  # 3 populations
     ("budget", "1", ["1-K1", "1-K2"])],  # 2 populations: K0 = 1, and K >= 1
    ids=["bounds-8", "budget-1"],
)
def test_run_detection_tables_builds_cells_from_the_population_count(table, models, labels,
                                                                     tmp_path):
    out = tmp_path / f"{table}.json"
    script = load_script("run_detection_tables")
    assert script.main([table, "--models", models, *TINY, "--output", str(out)]) == 0
    cells = written_cells(out)
    assert list(cells) == labels
    balanced = [100, 100, 100] if models == "8" else [150, 150]
    assert all(row["segment_lengths"] == balanced for row in cells.values())


@pytest.mark.parametrize("models", ["99", "1,1"])  # unknown id; a repeated label
def test_run_detection_tables_rejects_a_bad_model_with_exit_2(models, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    script = load_script("run_detection_tables")
    assert script.main(["bounds", "--models", models, *TINY, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["kind"] == "configuration"


@pytest.mark.parametrize(
    "sizes, code, kind",
    [("0", 2, "configuration"), ("1", 3, "data"),  # an empty sample; one observation
     ("abc", 2, "configuration")],  # not an integer
)
def test_the_null_table_bad_sizes_end_in_json(sizes, code, kind, tmp_path, capsys):
    out = tmp_path / "null.json"
    script = load_script("run_detection_tables")
    assert script.main(["null", "--n", sizes, *TINY, "--output", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["kind"] == kind


def test_every_table_scales_with_n(tmp_path):
    out = tmp_path / "budget.json"
    script = load_script("run_detection_tables")
    assert script.main(["budget", "--models", "1", "--n", "60,100", *TINY,
                        "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["cells"]
    assert [row["label"] for row in rows] == ["1-K1-60", "1-K2-60", "1-K1-100", "1-K2-100"]
    assert [sum(row["segment_lengths"]) for row in rows] == [row["n"] for row in rows]
    assert [row["n"] for row in rows] == [60, 60, 100, 100]


def test_layouts_are_exact_fractions_of_n():
    script = load_script("run_detection_tables")
    for layout in (layout for layouts in script.LAYOUTS.values() for layout in layouts):
        assert script.scaled(layout, script.BASE_N) == layout
        for n in (7, 60, 100, 299, 301, 1000):
            lengths = script.scaled(layout, n)
            assert sum(lengths) == n and min(lengths) >= 1
            assert all(n * part // script.BASE_N <= m <= n * part // script.BASE_N + 1
                       for part, m in zip(layout, lengths))


def test_a_size_that_empties_a_segment_exits_2_before_the_grid_runs(tmp_path, capsys):
    out = tmp_path / "single.json"
    script = load_script("run_detection_tables")
    assert script.main(["single", "--models", "1", "--n", "5", *TINY, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["kind"] == "configuration"


def test_run_detection_tables_usage_error_is_json_with_exit_2(capsys):
    assert load_script("run_detection_tables").main(["nope", *TINY]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "configuration"


@pytest.mark.parametrize(
    "args", [["null", "--n", "40"], ["bounds", "--models", "1"]], ids=["null", "bounds"],
)
def test_the_script_checks_the_output_path_before_the_grid_runs(args, tmp_path, capsys):
    out = tmp_path / "nonexistent" / "x.json"
    assert load_script("run_detection_tables").main([*args, *TINY, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no rate line: nothing ran
    assert json.loads(captured.err) == {
        "error": f"cannot write {out}: no directory {out.parent}", "kind": "configuration",
    }


def test_the_help_lists_one_table_per_line(capsys):
    script = load_script("run_detection_tables")
    with pytest.raises(SystemExit) as exit_:
        script.main(["-h"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for table in script.TABLES:
        assert any(line.startswith(f"  {table} ") for line in lines), table
