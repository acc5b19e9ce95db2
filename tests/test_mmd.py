import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdseg import (
    AmocConfig,
    oracle_curve,
    permutation_test,
    prepare,
    rho_curve,
    rho_values,
)
import mmdseg.mmd
from mmdseg.errors import ConfigurationError
from mmdseg.mmd import admissible_range, permuted_maxima
from mmdseg.rng import permutation_stream

from reference import (
    gathered_permutation_maxima,
    mixture_mmd,
    naive_mmd_groups,
    naive_rho_values,
    naive_rho_values_blockwise,
    separated_pools,
)


def random_gram(seed, n=None, p=6):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24)) if n is None else n
    X = rng.normal(size=(n, p))
    return prepare(X)[1]


def test_split_all_identical_observations_is_zero():
    assert np.array_equal(rho_values(np.ones((8, 8))), np.zeros(7))


def test_split_n2_expansion():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2, 5))
    h = 1.3
    G = prepare(X, h)[1]
    # the one split t = 1: t(n - t)/n^2 * d = (2 - 2 k(x1, x2)) / 4
    assert rho_values(G) == pytest.approx([(2.0 - 2.0 * G[0, 1]) / 4], abs=1e-12)


def test_split_matches_naive_oracle():
    G = random_gram(7, n=10)
    np.testing.assert_allclose(rho_values(G), naive_rho_values(G), rtol=0, atol=1e-10)


def test_groups_identical_points_zero():
    G = np.ones((6, 6))
    assert naive_mmd_groups(G, [0, 1, 2], [3, 4, 5]) == 0.0


def test_groups_singletons():
    G = random_gram(3, n=7)
    assert naive_mmd_groups(G, [2], [5]) == pytest.approx(
        2.0 - 2.0 * G[2, 5], abs=1e-12
    )


def test_groups_random_blocks_match_oracle():
    G = random_gram(11, n=16)
    idx_a, idx_b = [0, 3, 4, 9], [1, 2, 10, 11, 15]
    pooled = G[np.ix_(idx_a + idx_b, idx_a + idx_b)]
    # at the boundary of two pools the labeled curve is |A| |B| / n^2 * d(A, B)
    assert oracle_curve(pooled, (4, 5))[3] * 81 / 20 == pytest.approx(
        naive_mmd_groups(G, idx_a, idx_b), abs=1e-10
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_nonnegative_and_conserved(seed):
    assert (rho_values(random_gram(seed)) >= 0.0).all()


def test_rho_curve_constant_data():
    G = np.ones((20, 20))
    assert np.all(rho_values(G) == 0.0)
    assert rho_curve(G, 0.05) == (admissible_range(20, 0.05)[0], 0.0)


def test_rho_curve_bounds_and_argmax_tie():
    G = np.ones((40, 40))
    assert admissible_range(40, 0.1) == (4, 36)
    argmax_t, max_value = rho_curve(G, 0.1)
    assert argmax_t == 4  # ties resolve to the smallest split
    assert max_value == rho_values(G)[argmax_t - 1]


def test_rho_curve_rejects_bad_delta():
    G = random_gram(4, n=12)
    with pytest.raises(ConfigurationError):
        rho_curve(G, 0.0)
    with pytest.raises(ConfigurationError):
        rho_curve(G, 0.5)


def test_rho_curve_empty_range_rejected():
    # n=5, delta=0.45: t_min = max(ceil(2.25), 2) = 3 > t_max = min(floor(2.75), 3) = 2
    G = random_gram(4, n=5)
    with pytest.raises(ConfigurationError):
        rho_curve(G, 0.45)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rho_curve_matches_naive_recomputation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 100))
    X = rng.normal(size=(n, 5))
    G = prepare(X)[1]
    t_min, t_max = admissible_range(n, 0.05)
    window = rho_values(G)[t_min - 1 : t_max]
    naive = naive_rho_values_blockwise(G)[t_min - 1 : t_max]
    assert np.max(np.abs(window - naive)) < 1e-9
    assert rho_curve(G, 0.05) == (t_min + int(np.argmax(window)), window.max())


def test_rho_curve_reindexing_equals_physical_permutation():
    # A permutation reorders Gram entries, never recomputes them: both the
    # rank-mask maxima and the gathered copy the near-tie recheck sweeps
    # match the curve of the physically permuted data.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(25, 6))
    h, G = prepare(X)
    perm = rng.permutation(25)
    G_physical = prepare(X[perm], h)[1]
    gathered = G[np.ix_(perm, perm)]
    assert np.max(np.abs(rho_values(gathered) - rho_values(G_physical))) < 1e-12
    assert rho_curve(gathered, 0.05)[0] == rho_curve(G_physical, 0.05)[0]
    assert abs(permuted_maxima(G, [perm], 0.05)[0] - rho_curve(G_physical, 0.05)[1]) < 1e-12


def test_rho_curve_two_population_shape():
    # strongly separated pools: rises to the boundary at 100, falls after
    rng = np.random.default_rng(5)
    X = separated_pools(rng, (100, 200), p=8, gap=6.0)
    G = prepare(X)[1]
    vals = rho_values(G)
    assert abs(rho_curve(G, 0.05)[0] - 100) <= 3
    assert vals[19] < vals[59] < vals[99]  # t = 20, 60, 100
    assert vals[99] > vals[159] > vals[259]  # t = 100, 160, 260


def test_mixture_blocks_never_exceed_pure_pool_distance():
    rng = np.random.default_rng(9)
    X = separated_pools(rng, (12, 18), p=4, gap=3.0)
    G = prepare(X)[1]
    pure = naive_mmd_groups(G, range(12), range(12, 30))
    for alpha in (0.0, 0.3, 0.7, 1.0):
        for beta in (0.0, 0.4, 1.0):
            assert mixture_mmd(G, range(12), range(12, 30), alpha, beta) <= pure + 1e-12


@pytest.mark.parametrize(
    "m, R",
    # 100 and 300: R is not a multiple of the draws per chunk (104 and 11);
    # 1024: one draw fills a chunk; 1100: one draw's mask takes two spans of rows
    [*((m, 199) for m in (*range(4, 13), 16, 24, 40, 100)), (300, 25), (1024, 2), (1100, 2)],
)
def test_permuted_maxima_match_gathered_route(m, R):
    G = random_gram(m, n=m)
    perms = np.array([permutation_stream(m, r).permutation(m) for r in range(1, R + 1)])
    np.testing.assert_allclose(
        permuted_maxima(G, perms, 0.05),
        gathered_permutation_maxima(G, perms, 0.05),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("m, R", [(40, 30), (300, 5), (1100, 2)])
@pytest.mark.parametrize("budget", [1, 1000])  # one row per chunk and per span; uneven ones
def test_the_scratch_budget_changes_no_bit(m, R, budget, monkeypatch):
    G = random_gram(m, n=m)
    perms = np.array([permutation_stream(m, r).permutation(m) for r in range(1, R + 1)])
    curve, maxima = rho_values(G), permuted_maxima(G, perms, 0.05)
    monkeypatch.setattr(mmdseg.mmd, "_SCRATCH_BYTES", budget)
    assert np.array_equal(rho_values(G), curve)
    assert np.array_equal(permuted_maxima(G, perms, 0.05), maxima)


@pytest.mark.parametrize("m", [40, 300, 1100])
def test_the_scratch_budget_changes_no_permutation_test_bit(m, monkeypatch):
    # At 1 or 1000 bytes every chunk of draws holds one or two draws, and at
    # m = 1100 the default budget splits R = 99 draws too (95 + 4); each draw
    # has its own key, so full and early-stopping tests agree bit for bit.
    G, cfg = random_gram(m, n=m), AmocConfig(R=99, seed=m)

    def outcomes():
        return [permutation_test(G, cfg, stop_on_accept=stop) for stop in (False, True)]

    default = outcomes()
    assert default[1].permutation_stats.size < cfg.R  # the null block stops early
    for budget in (1, 1000):
        monkeypatch.setattr(mmdseg.mmd, "_SCRATCH_BYTES", budget)
        for got, want in zip(outcomes(), default):
            assert got.p_value == want.p_value and got.tau_hat == want.tau_hat
            assert np.array_equal(got.permutation_stats, want.permutation_stats)
