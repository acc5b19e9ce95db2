import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdseg import prepare
from mmdseg.errors import ConfigurationError, DataError, DegenerateBandwidthError
from mmdseg.kernel import as_dataset, median_heuristic, squared_distances

from reference import gaussian_kernel, quadrature_l2


def scaled_l2(a, b):
    """The package's scaled L2 distance between two curves."""
    return float(np.sqrt(squared_distances(as_dataset(np.vstack([a, b])))[0]))


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
    assert sorted(np.sqrt(squared_distances(as_dataset(data))).round(12)) == [1, 2, 3, 4, 5, 6]
    assert prepare(data)[0] == pytest.approx(3.5)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 45, 1000, 1001])  # odd and even pair counts
def test_median_heuristic_is_numpy_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for sq in (rng.random(n) * 3.0, rng.integers(1, 4, size=n).astype(float)):  # 2nd: ties
        assert median_heuristic(sq) == float(np.median(np.sqrt(sq)))
    X = rng.normal(size=(n % 40 + 2, 5))
    sq = squared_distances(X)
    assert median_heuristic(sq) == float(np.median(np.sqrt(sq)))


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
