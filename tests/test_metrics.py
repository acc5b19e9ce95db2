import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdseg import (
    AmocConfig,
    BenchmarkCell,
    ModelSpec,
    Segmentation,
    hausdorff,
    match,
    run_benchmark,
    subset_match,
    superset_match,
)
from mmdseg.benchmark import run_replication
from mmdseg.errors import ConfigurationError


def seg(n, *bs):
    return Segmentation(n, tuple(bs))


def test_match_examples():
    assert match(seg(300, 100, 200), seg(300, 100, 200))
    assert match(seg(300, 101, 199), seg(300, 100, 200))
    assert not match(seg(300, 100), seg(300, 100, 200))
    assert not match(seg(300, 102, 200), seg(300, 100, 200))
    assert match(seg(300), seg(300))


def test_superset_examples():
    assert superset_match(seg(300, 50, 100, 200), seg(300, 100, 200))
    assert not superset_match(seg(300, 100, 200), seg(300, 100, 200))
    assert not superset_match(seg(300, 50, 150), seg(300, 100))


def test_subset_examples():
    assert subset_match(seg(300, 100), seg(300, 100, 200))
    assert not subset_match(seg(300, 150), seg(300, 100, 200))
    assert subset_match(seg(300), seg(300, 100))  # vacuous on empty estimate


def test_hausdorff_examples():
    assert hausdorff([0.2, 0.4], [0.2, 0.4]) == 0.0
    assert hausdorff([0.25], [0.75]) == pytest.approx(0.5)
    assert hausdorff([0.2, 0.8], [0.25]) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        hausdorff([], [0.5])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_match_variants_are_mutually_exclusive(seed):
    rng = np.random.default_rng(seed)
    n = 50
    est = seg(n, *np.sort(rng.choice(np.arange(1, n), rng.integers(0, 6), replace=False)))
    truth = seg(n, *np.sort(rng.choice(np.arange(1, n), rng.integers(1, 5), replace=False)))
    flags = [match(est, truth), superset_match(est, truth), subset_match(est, truth)]
    assert sum(flags) <= 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_match_implies_small_hausdorff(seed):
    rng = np.random.default_rng(seed)
    n = 60
    truth = np.sort(rng.choice(np.arange(3, n - 2, 3), 3, replace=False))
    est = np.sort(truth + rng.integers(-1, 2, size=3))
    if match(seg(n, *est), seg(n, *truth)):
        d = hausdorff(est / n, truth / n)
        assert d <= 1.0 / n + 1e-12


def test_run_benchmark_single_replication_rates_are_binary():
    cell = BenchmarkCell(
        model=ModelSpec("N4", (30,)),
        algorithm="u",
        config=AmocConfig(R=19),
    )
    report = run_benchmark([cell], replications=1, seed=5)
    row = report.to_rows()[0]
    for key in ("rate_k_correct", "rate_match", "rate_superset", "rate_subset"):
        assert row[key] in (0.0, 1.0)
    assert row["replications"] == 1


def test_run_benchmark_is_deterministic_and_validates():
    cell = BenchmarkCell(model=ModelSpec("N4", (24,)), algorithm="u", config=AmocConfig(R=9))
    a = run_benchmark([cell], replications=3, seed=7).to_rows()[0]
    b = run_benchmark([cell], replications=3, seed=7).to_rows()[0]
    assert a == b  # every field, not only the rates
    assert a["rate_match"] <= a["rate_k_correct"]
    with pytest.raises(ConfigurationError):
        run_benchmark([cell], replications=0)
    with pytest.raises(ConfigurationError):
        BenchmarkCell(model=ModelSpec("N4", (24,)), algorithm="s")  # K missing


def test_run_benchmark_rejects_counts_that_are_not_integers():
    # replications=2.5 and workers=1.5 or 2.0 raised TypeError, and
    # replications=True ran once, reported as True.
    cell = BenchmarkCell(model=ModelSpec("N4", (24,)), algorithm="u", config=AmocConfig(R=9))
    for kwargs in ({"replications": 2.5}, {"replications": True}, {"replications": "2"},
                   {"replications": 1, "workers": 1.5}, {"replications": 1, "workers": 2.0},
                   {"replications": 1, "workers": True}):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            run_benchmark([cell], **kwargs)
    assert run_benchmark([cell], np.int64(2), workers=np.int64(1)).replications == 2


POOL_CELLS = [
    BenchmarkCell(model=ModelSpec("N4", (24,)), algorithm="u", config=AmocConfig(R=9)),
    BenchmarkCell(model=ModelSpec("1", (12, 12)), algorithm="s", K=1),
]


def test_run_replication_records_depend_only_on_the_cell_and_seed():
    for cell in POOL_CELLS:
        assert run_replication(cell, 3) == run_replication(cell, 3)


@pytest.mark.parametrize(
    "workers, cpus, replications, size",
    [
        (64, 16, 1, 2),  # capped by the 2 jobs
        (64, 2, 3, 2),  # capped by the CPUs
        (3, 16, 3, 3),  # as asked
        (64, 1, 3, 1),  # one CPU: in this process
        (1, 16, 3, 1),
    ],
)
def test_run_benchmark_runs_every_job_on_one_bounded_pool(
    monkeypatch, workers, cpus, replications, size
):
    import concurrent.futures

    import mmdseg.benchmark

    sizes = []

    class InlinePool:
        """A ProcessPoolExecutor that records its size and maps in this process.
        run_benchmark imports the pool class from concurrent.futures at its
        first pool, so this takes its place there."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    def rows(**kwargs):
        report = run_benchmark(POOL_CELLS, replications, seed=3, **kwargs)
        return [{k: v for k, v in row.items() if not k.endswith("_seconds")}
                for row in report.to_rows()]

    serial = rows()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(mmdseg.benchmark, "_usable_cpus", lambda: cpus)
    assert rows(workers=workers) == serial
    assert sizes == ([] if size == 1 else [size])


@pytest.mark.parametrize(
    "algorithm, budget",
    [
        ("u", {"K": 3}),
        ("u", {"K_u": 9}),
        ("u", {"K_l": 0}),
        ("s", {"K": 1, "K_l": 5}),
        ("ss", {"K_u": 2, "K": 1}),
        ("forward", {"K_l": 1, "K_u": 3}),
    ],
)
def test_benchmark_cell_rejects_budget_its_algorithm_ignores(algorithm, budget):
    with pytest.raises(ConfigurationError, match="takes no"):
        BenchmarkCell(model=ModelSpec("N4", (24,)), algorithm=algorithm, **budget)


@pytest.mark.parametrize(
    "algorithm, budget, message",
    [
        ("s", {"K": 0}, "K must be >= 1, got 0"),
        ("ss", {"K_u": 0}, "K_u must be >= 1, got 0"),
        ("ss", {"K_l": -1, "K_u": 2}, "K_l must be >= 0, got -1"),
        ("forward", {"K_l": -1}, "K_l must be >= 0, got -1"),
        ("ss", {"K_l": 3, "K_u": 1}, "K_l=3 exceeds K_u=1"),
    ],
)
def test_benchmark_cell_rejects_out_of_range_budget_when_built(algorithm, budget, message):
    with pytest.raises(ConfigurationError, match=message):
        BenchmarkCell(model=ModelSpec("N4", (24,)), algorithm=algorithm, **budget)
