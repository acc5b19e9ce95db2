import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

import mmdseg.kernel
import mmdseg.mmd
from mmdseg import AmocConfig, ModelSpec, generate, permutation_test, prepare
from mmdseg.errors import ConfigurationError, DataError, DegenerateBandwidthError
from mmdseg.kernel import as_dataset, median_heuristic

from reference import certificate_error, condensed_prepare, gaussian_kernel, quadrature_l2


def distances(X):
    """The squared scaled L2 distances of the rows of X, one per pair in
    condensed order: the values the package's distance pass turns into
    kernel values."""
    return mmdseg.kernel.pdist(X) / X.shape[1]


def scaled_l2(a, b):
    """The package's scaled L2 distance between two curves."""
    return float(np.sqrt(distances(as_dataset(np.vstack([a, b])))[0]))


def test_l2_identical_curves_is_zero():
    rng = np.random.default_rng(0)
    a = rng.normal(size=37)
    assert scaled_l2(a, a) == 0.0


@pytest.mark.parametrize("p", [1, 5, 128])
def test_l2_constant_difference(p):
    assert scaled_l2(np.ones(p), np.zeros(p)) == pytest.approx(1.0)


def test_l2_sine_matches_high_resolution_quadrature():
    t = np.arange(1, 129) / 128
    value = scaled_l2(np.sin(2 * np.pi * t), np.zeros(128))
    expected = quadrature_l2(lambda s: np.sin(2 * np.pi * s), lambda s: 0.0 * s)
    assert value == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(1 / np.sqrt(2), abs=1e-4)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="longdouble is float64 here")
@pytest.mark.parametrize("p", [1, 3, 128, 1000])
def test_every_gram_entry_lies_within_the_certificate(p):
    # gram_of_rows' docstring bounds each entry's distance from the exact
    # Gaussian Gram at the same float64 2h^2 by eps(p): checked against a
    # longdouble recomputation on plain, shrunk and stretched rows and on
    # rows with 30 near-duplicates, whose kernel values lie near 1.
    rng = np.random.default_rng(p)
    X = rng.normal(size=(40, p))
    near = np.vstack([X, X[:30] + 1e-9 * rng.normal(size=(30, p))])
    for rows in (X, X * 1e-3, X * 1e3, near):
        h, G = prepare(rows)
        exact = rows.astype(np.longdouble)
        two_h2 = np.longdouble(2.0 * h * h)
        for i, row in enumerate(exact):
            kernel = np.exp(-((exact - row) ** 2).sum(axis=1) / p / two_h2)
            assert np.max(np.abs(G[i] - kernel)) <= certificate_error(p)


def test_l2_rejects_non_finite():
    with pytest.raises(DataError):
        scaled_l2(np.array([1.0, np.nan]), np.zeros(2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_l2_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=(3, 12))
    assert scaled_l2(a, c) <= scaled_l2(a, b) + scaled_l2(b, c) + 1e-10


def test_median_heuristic_single_pair():
    data = np.vstack([np.zeros(6), np.full(6, 3.0)])
    assert prepare(data)[0] == pytest.approx(3.0)


def test_median_heuristic_odd_count():
    # constants 0, 1, 3 give pairwise distances {1, 2, 3}
    data = np.vstack([np.zeros(4), np.ones(4), np.full(4, 3.0)])
    assert prepare(data)[0] == pytest.approx(2.0)


def test_median_heuristic_even_count_midpoint():
    # perfect ruler 0, 1, 4, 6: pairwise distances {1, 2, 3, 4, 5, 6}
    data = np.vstack([np.full(4, v) for v in (0.0, 1.0, 4.0, 6.0)])
    assert sorted(np.sqrt(distances(as_dataset(data))).round(12)) == [1, 2, 3, 4, 5, 6]
    assert prepare(data)[0] == pytest.approx(3.5)


# n(n + 1)/2 pairs: 1, 3, 6, 21, 1035, 5050, ..., 500500, 501501 -- odd and
# even counts.  The model8 cases prepare an n-curve model-8 draw.
@pytest.mark.parametrize("n, model8", [
    *(pytest.param(n, False, id=str(n)) for n in (1, 2, 3, 6, 45, 1000, 1001)),
    *(pytest.param(n, True, id=f"model8-{n}") for n in (100, 300, 600, 1000)),
])
def test_median_heuristic_is_numpy_median_bit_for_bit(n, model8):
    rng = np.random.default_rng(n)
    pairs = n * (n + 1) // 2
    for sq in (rng.random(pairs) * 3.0, rng.integers(1, 4, size=pairs).astype(float)):  # ties
        assert median_heuristic(sq.copy()) == float(np.median(np.sqrt(sq)))
    if model8:
        X = generate(ModelSpec("8", (n // 3, n // 3, n - 2 * (n // 3)))).data
    else:
        X = rng.normal(size=(n % 40 + 2, 5))
    assert prepare(X)[0] == float(np.median(np.sqrt(distances(X))))


def test_median_heuristic_degenerate():
    data = np.zeros((5, 3))
    with pytest.raises(DegenerateBandwidthError):
        prepare(data)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_median_heuristic_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(9, 5))
    perm = rng.permutation(9)
    assert prepare(X)[0] == prepare(X[perm])[0]


def test_gaussian_kernel_values():
    a, b = np.zeros(3), np.full(3, 2.0)  # distance 2
    assert prepare(np.vstack([a, a]), 1.0)[1][0, 1] == 1.0
    assert prepare(np.vstack([a, b]), 2.0)[1][0, 1] == pytest.approx(np.exp(-0.5))
    assert prepare(np.vstack([a, b]), 1.0)[1][0, 1] == pytest.approx(np.exp(-2.0))


def test_gaussian_kernel_needs_positive_bandwidth():
    with pytest.raises(ConfigurationError):
        prepare(np.vstack([np.zeros(3), np.ones(3)]), 0.0)


def test_gram_matrix_rejects_single_observation():
    with pytest.raises(DataError):
        prepare(np.ones((1, 4)), 1.0)


def test_gram_matrix_identical_curves_all_ones():
    data = np.vstack([np.ones(7), np.ones(7)])
    assert np.array_equal(prepare(data, 2.0)[1], np.ones((2, 2)))


def test_gram_matrix_matches_elementwise_kernel():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 11))
    h, G = prepare(X)
    for i in range(5):
        for j in range(5):
            assert G[i, j] == pytest.approx(gaussian_kernel(X[i], X[j], h), abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 5.0]))
@settings(max_examples=25, deadline=None)
def test_gram_matrix_properties(seed, scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    X = rng.normal(size=(n, 6))
    G = prepare(X, scale * prepare(X)[0])[1]
    assert np.array_equal(G, G.T)
    assert np.array_equal(np.diag(G), np.ones(n))
    assert (G > 0).all() and (G <= 1).all()


def _rows_with_repeats(rng, n, distinct, integer):
    """n rows drawn from `distinct` rows; integer rows also tie across pairs."""
    rows = rng.integers(0, 3, size=(distinct, 4)) if integer else rng.normal(size=(distinct, 7))
    return rows[rng.integers(0, distinct, size=n)].astype(float)


@given(st.integers(2, 80), st.integers(1, 80), st.booleans(), st.integers(0, 2**32 - 1))
@example(127, 127, False, 0)  # the mirror's 128-row tiles: one short of a tile,
@example(128, 40, True, 1)  # one whole tile,
@example(129, 129, False, 2)  # a tile and a row,
@example(257, 60, True, 3)  # two tiles and a row
@settings(max_examples=60, deadline=None)
def test_prepare_equals_the_condensed_route_bit_for_bit(n, distinct, integer, seed):
    # Repeated rows put zero distances off the diagonal.
    X = _rows_with_repeats(np.random.default_rng(seed), n, min(distinct, n), integer)
    h, G = condensed_prepare(X)
    if h is None:
        with pytest.raises(DegenerateBandwidthError):
            prepare(X)
    else:
        bw, gram = prepare(X)
        assert bw == h and gram.tobytes() == G.tobytes()
    assert prepare(X, 0.7)[1].tobytes() == condensed_prepare(X, 0.7)[1].tobytes()


def test_prepare_equals_the_condensed_route_bit_for_bit_at_n_1000():
    X = generate(ModelSpec("8", (333, 333, 334), seed=3)).data
    h, G = condensed_prepare(X)
    bw, gram = prepare(X)
    assert bw == h and gram.tobytes() == G.tobytes()


@pytest.mark.parametrize("n", [600, 602, 1000])  # 179700, 180901, 499500 pairs
def test_the_exact_median_on_heavy_ties(n):
    X = _rows_with_repeats(np.random.default_rng(n), n, 40, integer=True)
    sq = distances(X)
    assert len(np.unique(sq)) < 30
    assert prepare(X)[0] == float(np.median(np.sqrt(sq)))


def test_an_input_too_large_for_memory_stops_before_the_distance_pass(monkeypatch):
    passes = []
    monkeypatch.setattr(mmdseg.kernel, "pdist", lambda *a, **k: passes.append(1))
    monkeypatch.setattr(mmdseg.kernel, "_available_memory", lambda: 10**6)
    with pytest.raises(DataError, match="input too large for memory: 2000 observations of 3 "
                                        "points need about 32 MB for the 2000 x 2000 Gram "
                                        "matrix, 1 MB available"):
        prepare(np.zeros((2000, 3)))
    assert passes == []


def test_the_memory_check_is_skipped_without_a_reading(monkeypatch):
    available = mmdseg.kernel._available_memory()
    assert available is None or available > 0
    monkeypatch.setattr(mmdseg.kernel, "_available_memory", lambda: None)
    assert prepare(np.eye(3))[1].shape == (3, 3)


_LAYOUTS = {
    "C": lambda X: X.copy(),
    "F": np.asfortranarray,
    "strided": lambda X: np.repeat(X, 2, axis=1)[:, ::2],
}


@st.composite
def distance_inputs(draw):
    """Rows in a drawn memory layout, with up to three rows copied over others."""
    n, p = draw(st.integers(2, 12)), draw(st.integers(1, 9))
    X = draw(arrays(np.float64, (n, p), elements=st.floats(-1e6, 1e6)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        X[dst] = X[src]
    return _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](X)


@given(distance_inputs())
@example(_LAYOUTS["C"](np.array([[0.5], [-2.0]])))
@example(_LAYOUTS["F"](np.array([[0.5, 1.0], [0.5, 1.0]])))
@example(_LAYOUTS["strided"](np.array([[3.0, 1.0], [3.0, 1.0], [0.0, 1.0]])))
@settings(max_examples=100, deadline=None)
def test_the_distance_pass_is_scipys_pdist_bit_for_bit(X):
    # The pass calls a private scipy kernel; a change to it must fail here.
    sq = mmdseg.kernel.pdist(X)
    assert sq.tobytes() == pdist(X, "sqeuclidean").tobytes()
    out = np.full(sq.size, np.nan)
    mmdseg.kernel.pdist(X, out=out)
    assert out.tobytes() == sq.tobytes()
    duplicates = (X[:, None] == X[None]).all(axis=2)
    assert (squareform(sq)[duplicates] == 0.0).all()


def test_a_missing_distance_kernel_names_the_file_it_looked_for(monkeypatch, tmp_path):
    scipy_dir = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(mmdseg.kernel, "find_spec", lambda name: scipy_dir)
    mmdseg.kernel._distance_pybind.cache_clear()
    with pytest.raises(ImportError) as raised:
        prepare(np.eye(3))
    path = tmp_path / "spatial" / "_distance_pybind"
    assert str(raised.value).startswith(f"scipy {scipy.__version__} has no {path}")
    monkeypatch.undo()  # the next pass finds the file again
    assert prepare(np.eye(3))[0] == np.sqrt(2 / 3)


_HIGH_WATER_RISE = textwrap.dedent("""
    import numpy as np
    from mmdseg import AmocConfig, detect_s, permutation_test, prepare, rho_curve

    def high_water_mark():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

    X = np.random.default_rng(0).normal(size=({n}, 8))
    {warm}  # every module loaded
    before = high_water_mark()
    {run}
    print(high_water_mark() - before)
""")


def high_water_rise(n, warm, run):
    """Bytes by which `run` raises a fresh process's high-water mark, after
    `warm`; the child reads only its own /proc/self/status."""
    script = _HIGH_WATER_RISE.format(n=n, warm=warm, run=run)
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return int(child.stdout)


needs_proc_status = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)


@needs_proc_status
def test_prepare_peaks_at_one_n_by_n_buffer():
    # The condensed route rises by about 12 n^2 bytes (47.9 MB at n = 2000):
    # the condensed vector, its partition copy, and squareform's matrix beside
    # the vector.  The one buffer rises by 8 n^2: the median's copy lies in the
    # buffer's free half, and the rows move one at a time with no block
    # temporaries.
    n = 2000
    assert high_water_rise(n, "prepare(X[:100])", "prepare(X)") <= 1.05 * 8 * n * n


@needs_proc_status
def test_a_detection_peaks_at_its_gram():
    # The sweeps of the supervised rounds take a few rows of n floats on top
    # of the Gram (a 1 MiB buffer of row prefix sums was 0.03 x 8n^2 here); a
    # sweep buffer of 2^20 float64 cells (8 MiB) would take the rise to
    # 1.26 x 8n^2.
    n = 2000
    assert high_water_rise(n, "detect_s(X[:100], 2)", "detect_s(X, 2)") <= 1.05 * 8 * n * n


@needs_proc_status
def test_a_split_curve_sweep_takes_a_few_rows():
    # The running column sums hold a few rows of n floats (16 KB each here);
    # the row prefix sums they replaced took a 1 MiB buffer.
    warm = "G = prepare(X)[1]; rho_curve(G[:100, :100], 0.05)"
    assert high_water_rise(2000, warm, "rho_curve(G, 0.05)") < mmdseg.mmd._SCRATCH_BYTES / 2


@needs_proc_status
def test_a_permutation_test_adds_at_most_its_scratch():
    # On a Gram that already exists, a test's sweep and its rank masks each
    # take at most 1 MiB; an 8 MiB sweep buffer would take the rise to 7.9 MiB,
    # and a whole m^2-byte mask per draw (2.25 MB at m = 1500) to 2.3 MiB.
    warm = "G = prepare(X)[1]; permutation_test(G[:100, :100], AmocConfig(R=3))"
    rise = high_water_rise(1500, warm, "permutation_test(G, AmocConfig(R=3))")
    assert rise <= 2 * 1024 * 1024


@needs_proc_status
@pytest.mark.parametrize(
    "n, rows, R, stop, psd",
    [(1500, "X", 199, False, False), (1500, "X", 999, False, False),
     (1500, "X", 999, True, False),
     (256, "generate(ModelSpec('8', (86, 85, 85))).data", 199, False, True),
     (1500, "generate(ModelSpec('8', (500, 500, 500))).data", 199, False, True)],
    ids=["199-False", "999-False", "999-True", "199-tier", "1500-tier"],
)
def test_a_permutation_test_holds_its_draws_in_scratch(n, rows, R, stop, psd):
    # A chunk of draws with their ranks fits in the budget, and so does a rank
    # mask; with per-draw rows and the allocator's slack the rise is 2.5 MiB.
    # One (R, m) block of draws and ranks at once took it to 3.96 MiB
    # (R = 199), 15.4 MiB (R = 999) and 4.8 MiB (R = 999, stopping early).
    # Vouched model-8 blocks also build the low-rank tier's bound, over the
    # float32 copy at m = 256 and over the block itself at m = 1500: m x 8
    # products, LAPACK's first call, and prefix sums within half of what the
    # copy leaves of the budget.
    warm = ("from mmdseg import ModelSpec, generate; "
            f"G = prepare({rows})[1]; permutation_test(G[:100, :100], AmocConfig(R=3))")
    run = f"permutation_test(G, AmocConfig(R={R}), stop_on_accept={stop}, psd={psd})"
    assert high_water_rise(n, warm, run) <= 3 * mmdseg.mmd._SCRATCH_BYTES


@needs_proc_status
def test_a_permutation_test_holds_no_key_per_draw():
    # Five times the draws on a 40-row block: only the 8-byte statistics grow
    # with R (16 bytes per draw while a chunk is appended).  A key list and an
    # id cache held for all R draws took the rise from 4.8 to 12.4 MB.
    warm = "G = prepare(X)[1]; permutation_test(G, AmocConfig(R=3))"
    small, large = (high_water_rise(40, warm, f"permutation_test(G, AmocConfig(R={R}))")
                    for R in (9_999, 49_999))
    assert large - small <= 2 * 1024 * 1024


@needs_proc_status
def test_a_screened_test_rechecks_within_its_scratch(monkeypatch):
    # Entries in [0, 1] around a diagonal at their mean: not positive
    # semidefinite, so every permuted curve dips below CLAMP_WARN_THRESHOLD
    # and every draw is rechecked on its reordered curve.  A chunk of draws
    # takes at most 1 MiB and the float32 copy with its masks another, and a
    # recheck streams a few rows (1.88 MiB in all); batches of float64 masks
    # beside the copy and an m x m gather per near tie rose 1.75 MiB, and
    # batches whose masks ignored the copy 2.51 MiB.
    block = "A = np.random.default_rng(0).uniform(size=(450, 450)); G = (A + A.T) / 2; np.fill_diagonal(G, 0.5)"
    namespace = {"np": np}
    exec(block, namespace)
    rechecked, curve = [], mmdseg.mmd.rho_curve

    def counting_curve(G, delta, order=None):
        if order is not None:
            rechecked.append(tuple(order))
        return curve(G, delta, order)

    monkeypatch.setattr(mmdseg.mmd, "rho_curve", counting_curve)
    with pytest.warns(RuntimeWarning, match="clamped"):
        permutation_test(namespace["G"], AmocConfig(R=199))
    assert len(set(rechecked)) == len(rechecked) == 199
    warm = f"{block}; permutation_test(G[:100, :100], AmocConfig(R=3))"
    run = "permutation_test(G, AmocConfig(R=199))"
    assert high_water_rise(450, warm, run) <= 2.25 * mmdseg.mmd._SCRATCH_BYTES


@needs_proc_status
def test_a_forced_recheck_of_every_draw_streams_its_rows():
    # With TIE_BAND = 1 every draw of a 1500-row test is rechecked on its
    # reordered curve, which streams one row at a time: the rise stays
    # within the bound of a test whose draws are all decided by rank masks.
    # A gathered 1500 x 1500 copy per recheck rose 18.2 MiB.
    warm = ("G = prepare(X)[1]; permutation_test(G[:100, :100], AmocConfig(R=3)); "
            "import mmdseg.amoc; mmdseg.amoc.TIE_BAND = 1.0")
    run = "permutation_test(G, AmocConfig(R=9))"
    assert high_water_rise(1500, warm, run) <= 3 * mmdseg.mmd._SCRATCH_BYTES
