import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdseg import (
    oracle_curve,
    prepare,
    rho_curve,
)
from mmdseg.errors import ConfigurationError
from mmdseg.segment import _supervised_boundaries

from reference import (
    labeled_curve,
    mixture_mmd,
    naive_mmd_groups,
    separated_pools,
    single_boundary_curve,
    two_boundary_branches,
)


def labeled_gram(seed, sizes, gap=3.0, p=6):
    rng = np.random.default_rng(seed)
    X = separated_pools(rng, sizes, p=p, gap=gap)
    return prepare(X)[1]


def test_single_peak_value_at_boundary():
    n1, n2 = 6, 9
    G = labeled_gram(0, (n1, n2))
    n = n1 + n2
    d = naive_mmd_groups(G, range(n1), range(n1, n))
    assert oracle_curve(G, (n1, n2))[n1 - 1] == pytest.approx(n1 * n2 * d / n**2, abs=1e-12)


def test_single_zero_when_pools_identical():
    G = np.ones((10, 10))
    assert np.all(oracle_curve(G, (4, 6)) == 0.0)


def test_single_matches_hand_expansion():
    G = labeled_gram(3, (3, 3))
    d = naive_mmd_groups(G, range(3), range(3, 6))
    expected = single_boundary_curve(d, 6, 3)
    got = oracle_curve(G, (3, 3))
    assert np.max(np.abs(got - expected)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_single_monotone_and_peaked_at_boundary(seed):
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(2, 12))
    n2 = int(rng.integers(2, 12))
    G = labeled_gram(seed, (n1, n2))
    vals = oracle_curve(G, (n1, n2))
    assert np.all(np.diff(vals[:n1]) >= -1e-12)
    assert np.all(np.diff(vals[n1 - 1 :]) <= 1e-12)
    assert int(np.argmax(vals)) + 1 == n1


def test_two_zero_when_all_pools_identical():
    G = np.ones((12, 12))
    assert np.all(oracle_curve(G, (4, 4, 4)) == 0.0)


def test_two_matches_branch_formulas():
    n1, n2, n3 = 4, 5, 6
    n = n1 + n2 + n3
    G = labeled_gram(8, (n1, n2, n3))
    d12 = naive_mmd_groups(G, range(n1), range(n1, n1 + n2))
    d13 = naive_mmd_groups(G, range(n1), range(n1 + n2, n))
    d23 = naive_mmd_groups(G, range(n1, n1 + n2), range(n1 + n2, n))
    b1, b2, b3 = two_boundary_branches(d12, d13, d23, n, n1, n2)
    curve = oracle_curve(G, (n1, n2, n3))
    for r in range(1, n):
        expected = b1(r) if r <= n1 else b2(r) if r <= n1 + n2 else b3(r)
        assert curve[r - 1] == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_two_branches_agree_at_first_boundary(seed):
    rng = np.random.default_rng(seed)
    n1, n2, n3 = (int(rng.integers(3, 9)) for _ in range(3))
    n = n1 + n2 + n3
    G = labeled_gram(seed, (n1, n2, n3))
    d12 = naive_mmd_groups(G, range(n1), range(n1, n1 + n2))
    d13 = naive_mmd_groups(G, range(n1), range(n1 + n2, n))
    d23 = naive_mmd_groups(G, range(n1, n1 + n2), range(n1 + n2, n))
    b1, b2, _ = two_boundary_branches(d12, d13, d23, n, n1, n2)
    assert b1(n1) == pytest.approx(b2(n1), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_two_convex_between_boundaries(seed):
    rng = np.random.default_rng(seed)
    n1, n2, n3 = (int(rng.integers(4, 12)) for _ in range(3))
    G = labeled_gram(seed, (n1, n2, n3))
    vals = oracle_curve(G, (n1, n2, n3))[n1 : n1 + n2]  # r = n1 + 1 .. n1 + n2
    second = np.diff(vals, 2)
    assert second.size == 0 or np.min(second) >= -1e-9


def test_two_boundary_data_peaks_at_second_boundary():
    # eigenvalue-change data whose labeled curve has its single prominent
    # maximum at the second boundary, which is what motivates recursion
    from mmdseg import ModelSpec, generate

    sample = generate(ModelSpec("10", (100, 100, 100), seed=4))
    G = prepare(sample.data)[1]
    vals = oracle_curve(G, (100, 100, 100))
    assert int(np.argmax(vals)) + 1 == 200


def test_oracle_curve_dispatch_and_limits():
    G = labeled_gram(6, (5, 7))
    curve = oracle_curve(G, (5, 7))
    assert curve.shape == (11,)
    d = naive_mmd_groups(G, range(5), range(5, 12))
    assert np.max(np.abs(curve - single_boundary_curve(d, 12, 5))) < 1e-12
    G3 = labeled_gram(6, (4, 3, 5))
    assert oracle_curve(G3, (4, 3, 5)).shape == (11,)
    G4 = labeled_gram(6, (3, 3, 3, 3))
    assert np.max(np.abs(oracle_curve(G4, (3, 3, 3, 3)) - labeled_curve(G4, (3, 3, 3, 3)))) < 1e-12
    assert np.array_equal(oracle_curve(G, (12,)), np.zeros(11))  # one pool: no change
    with pytest.raises(ConfigurationError):
        oracle_curve(G, (5, 6))  # wrong total
    with pytest.raises(ConfigurationError):
        oracle_curve(G, (5, 0, 7))  # empty pool


@pytest.mark.parametrize("pools", range(1, 7))
def test_matches_brute_force_mixture_curve(pools):
    for seed in range(5):
        rng = np.random.default_rng([pools, seed])
        sizes = tuple(int(s) for s in rng.integers(1, 12, size=pools))
        G = labeled_gram(seed, sizes)
        assert np.max(np.abs(oracle_curve(G, sizes) - labeled_curve(G, sizes))) < 1e-12


def test_local_maxima_sit_on_true_boundaries():
    # The paper's oracle analysis: every interior local maximum of the labeled
    # curve is a true changepoint.
    rng = np.random.default_rng(20260808)
    off = []
    for _ in range(200):
        sizes = tuple(int(s) for s in rng.integers(2, 30, size=rng.integers(2, 7)))
        X = separated_pools(rng, sizes, p=5, gap=float(rng.uniform(0.5, 3.0)))
        v = oracle_curve(prepare(X)[1], sizes)
        peaks = 2 + np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))  # r values
        off += sorted(set(peaks.tolist()) - set(np.cumsum(sizes[:-1]).tolist()))
    assert off == []


def pool_mean_gram(G, sizes):
    """G with every entry replaced by the mean of its pool-pair block."""
    onehot = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    return onehot @ (onehot.T @ G @ onehot / np.outer(sizes, sizes)) @ onehot.T


def test_supervised_rounds_preserve_order_on_pool_means():
    # The paper's order-preserving claim: on the pool-mean Gram, a budget
    # below the true count finds only true changepoints, and one at or above
    # it finds all of them.  delta = 0.01 leaves every boundary admissible.
    rng = np.random.default_rng(20260809)
    cases = violations = 0
    for _ in range(160):
        sizes = tuple(int(s) for s in rng.integers(3, 40, size=rng.integers(2, 6)))
        X = separated_pools(rng, sizes, p=5, gap=float(rng.uniform(0.5, 3.0)))
        M = pool_mean_gram(prepare(X)[1], sizes)
        truth = set(np.cumsum(sizes[:-1]).tolist())
        for K in range(1, len(sizes) + 2):
            try:
                found = set(_supervised_boundaries(M, K, 0.01, []))
            except ConfigurationError:  # infeasible budget
                continue
            cases += 1
            violations += not (found <= truth if K < len(truth) else found >= truth)
    assert cases >= 500 and violations == 0


def test_empirical_argmax_tracks_boundary_on_separated_pools():
    hits = 0
    for seed in range(20):
        G = labeled_gram(seed, (100, 200), gap=5.0)
        hits += abs(rho_curve(G, 0.05)[0] - 100) <= 3
    assert hits >= 18  # 90% of seeds


# mixture identity ----------------------------------------------------------


def test_mixture_equal_weights_is_zero():
    G = labeled_gram(2, (6, 6))
    assert mixture_mmd(G, range(6), range(6, 12), 0.4, 0.4) == pytest.approx(
        0.0, abs=1e-12
    )


def test_mixture_extreme_weights_recover_pool_distance():
    G = labeled_gram(2, (6, 9))
    d = naive_mmd_groups(G, range(6), range(6, 15))
    assert mixture_mmd(G, range(6), range(6, 15), 1.0, 0.0) == pytest.approx(
        d, abs=1e-12
    )


def test_mixture_half_weight_quarters_distance():
    G = labeled_gram(7, (8, 8))
    d = naive_mmd_groups(G, range(8), range(8, 16))
    assert mixture_mmd(G, range(8), range(8, 16), 0.5, 0.0) == pytest.approx(
        d / 4.0, abs=1e-12
    )


def test_mixture_identity_on_weight_grid():
    G = labeled_gram(13, (10, 14))
    d = naive_mmd_groups(G, range(10), range(10, 24))
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert mixture_mmd(G, range(10), range(10, 24), alpha, beta) == (
                pytest.approx((alpha - beta) ** 2 * d, abs=1e-12)
            )
