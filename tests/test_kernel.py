import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmdseg.kernel
import mmdseg.mmd
from mmdseg import ModelSpec, generate, prepare
from mmdseg.errors import ConfigurationError, DataError, DegenerateBandwidthError
from mmdseg.kernel import as_dataset, median_heuristic, squared_distances

from reference import condensed_prepare, gaussian_kernel, quadrature_l2


def scaled_l2(a, b):
    """The package's scaled L2 distance between two curves."""
    return float(np.sqrt(squared_distances(as_dataset(np.vstack([a, b])), 1.0)[0][0, 1]))


def upper(D):
    """The strict upper triangle of a square matrix, in condensed order."""
    return D[np.triu_indices(D.shape[0], 1)]


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
    D = squared_distances(as_dataset(data), 1.0)[0]
    assert sorted(np.sqrt(upper(D)).round(12)) == [1, 2, 3, 4, 5, 6]
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
    assert prepare(X)[0] == float(np.median(np.sqrt(upper(squared_distances(X, 1.0)[0]))))


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
    D, h = squared_distances(X)
    assert len(np.unique(upper(D))) < 30
    assert h == float(np.median(np.sqrt(upper(D))))


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


_HIGH_WATER_RISE = textwrap.dedent("""
    import numpy as np
    from mmdseg import AmocConfig, detect_s, permutation_test, prepare

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
    # The sweeps of the supervised rounds work in mmd._SCRATCH_BYTES (1 MiB,
    # 0.03 x 8n^2 here) on top of the Gram; a sweep buffer of 2^20 float64
    # cells (8 MiB) would take the rise to 1.26 x 8n^2.
    n = 2000
    assert high_water_rise(n, "detect_s(X[:100], 2)", "detect_s(X, 2)") <= 1.05 * 8 * n * n


@needs_proc_status
def test_a_permutation_test_adds_at_most_its_scratch():
    # On a Gram that already exists, a test's sweep and its rank masks each
    # take at most 1 MiB; an 8 MiB sweep buffer would take the rise to 7.9 MiB,
    # and a whole m^2-byte mask per draw (2.25 MB at m = 1500) to 2.3 MiB.
    warm = "G = prepare(X)[1]; permutation_test(G[:100, :100], AmocConfig(R=3))"
    rise = high_water_rise(1500, warm, "permutation_test(G, AmocConfig(R=3))")
    assert rise <= 2 * 1024 * 1024


@needs_proc_status
@pytest.mark.parametrize("R, stop", [(199, False), (999, False), (999, True)])
def test_a_permutation_test_holds_its_draws_in_scratch(R, stop):
    # A chunk of draws with their ranks fits in the budget, and so does a rank
    # mask; with per-draw rows and the allocator's slack the rise is 2.5 MiB.
    # One (R, m) block of draws and ranks at once took it to 3.96 MiB
    # (R = 199), 15.4 MiB (R = 999) and 4.8 MiB (R = 999, stopping early).
    warm = "G = prepare(X)[1]; permutation_test(G[:100, :100], AmocConfig(R=3))"
    run = f"permutation_test(G, AmocConfig(R={R}), stop_on_accept={stop})"
    assert high_water_rise(1500, warm, run) <= 3 * mmdseg.mmd._SCRATCH_BYTES
