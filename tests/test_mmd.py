from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmdseg import (
    AmocConfig,
    ModelSpec,
    detect_s,
    generate,
    oracle_curve,
    permutation_test,
    prepare,
    rho_curve,
    rho_values,
)
import mmdseg.mmd
from mmdseg.amoc import TIE_BAND
from mmdseg.errors import ConfigurationError
from mmdseg.mmd import (
    admissible_range,
    low_rank_bound,
    low_rank_maxima,
    masked_maxima,
    splittable,
)
from mmdseg.rng import permutation_chunks, permutation_stream
from mmdseg.simulate import POPULATIONS

from reference import (
    chunked_rho_values,
    gathered_permutation_maxima,
    kernel_scatter,
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
    # n=5, delta=0.45: the trim t = max(ceil(2.25), 2) = 3 leaves no split, 2 t > 5
    G = random_gram(4, n=5)
    with pytest.raises(ConfigurationError, match="too short"):
        rho_curve(G, 0.45)


@pytest.mark.parametrize(
    "delta", [0.01, 0.02, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49]
)
def test_admissible_range_trims_both_ends_alike(delta):
    for n in range(1, 2001):
        t = max(ceil(n * delta), 2)
        assert splittable(n, delta) == (2 * t <= n)
        if 2 * t <= n:
            assert admissible_range(n, delta) == (t, n - t)
        else:
            with pytest.raises(ConfigurationError, match="too short"):
                admissible_range(n, delta)


def test_both_ends_leave_out_the_same_count():
    # deltas at which floor(n (1 - delta)) and n - ceil(n delta) part ways
    assert admissible_range(90, 0.3) == (27, 63)
    assert admissible_range(100, 0.07) == (8, 92)


def test_the_default_delta_keeps_the_two_formula_bounds():
    # [max(ceil(n delta), 2), min(floor(n (1 - delta)), n - 2)], the range
    # every golden file and benchmark fixture was recorded with
    n = np.arange(1, 200_001)
    lo = np.maximum(np.ceil(n * 0.05), 2).astype(int)
    hi = np.minimum(np.floor(n * (1.0 - 0.05)), n - 2).astype(int)
    empty = lo > hi
    assert not any(splittable(int(k), 0.05) for k in n[empty])
    got = [admissible_range(int(k), 0.05) for k in n[~empty]]
    assert np.array_equal(got, np.column_stack((lo, hi))[~empty])


def test_one_observation_has_an_empty_curve():
    G = np.ones((1, 1))
    assert rho_values(G).shape == (0,)
    assert oracle_curve(G, (1,)).shape == (0,)


# model -> segment lengths of a small draw from each population layout
SCATTER_MODELS = {"8": (30, 30, 30), "2": (45, 45), "N1": (90,), "5": (45, 45)}


@given(st.sampled_from(sorted(SCATTER_MODELS)), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_statistic_is_the_drop_in_kernel_scatter(model, seed):
    # n rho(t) = C(0, n) - C(0, t) - C(t, n): kernel least squares (ROADMAP item 17)
    G = prepare(generate(ModelSpec(model, SCATTER_MODELS[model], seed=seed)).data)[1]
    n = G.shape[0]
    total = kernel_scatter(G, 0, n)
    drop = [total - kernel_scatter(G, 0, t) - kernel_scatter(G, t, n) for t in range(1, n)]
    assert np.max(np.abs(n * rho_values(G) - drop)) <= 1e-10 * total


@given(st.sampled_from(sorted(SCATTER_MODELS)), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_detect_s_at_one_change_minimizes_the_kernel_scatter(model, seed):
    # so K = 1 is the kernel least-squares split over the admissible range,
    # up to roundoff between near-tied splits
    data = generate(ModelSpec(model, SCATTER_MODELS[model], seed=seed)).data
    (tau,) = detect_s(data, 1).segmentation.boundaries
    G = prepare(data)[1]
    n = G.shape[0]
    lo, hi = admissible_range(n, 0.05)
    cost = np.array([kernel_scatter(G, 0, t) + kernel_scatter(G, t, n) for t in range(lo, hi + 1)])
    assert cost[tau - lo] <= cost.min() * (1.0 + 1e-12)


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
    reused = masked_maxima(G, G, [perm], 0.05, 1.0)[0][0]
    assert abs(reused - rho_curve(G_physical, 0.05)[1]) < 1e-12


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
        masked_maxima(G, G, perms, 0.05, 1.0)[0],
        gathered_permutation_maxima(G, perms, 0.05),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("m", [458, 1024, 1100])  # past the screen; one draw per chunk; two spans
def test_float64_masked_maxima_lie_within_their_band(m, scale):
    # Over the block itself, each maximum lies within its band plus the
    # 2 TIE_BAND A margin of the gathered route's, A the largest |entry|: 1 on
    # a Gram block, 1e6 on the same block scaled.
    G = random_gram(m, n=m) * scale
    A = np.abs(G).max()
    perms = np.array([permutation_stream(m, r).permutation(m) for r in range(1, 6)])
    maxima, _, bands = masked_maxima(G, G, perms, 0.05, A)
    gap = np.abs(maxima - gathered_permutation_maxima(G, perms, 0.05))
    assert np.all(gap <= bands + 2 * TIE_BAND * A)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 40, 300, 1000])
def test_rho_values_equals_the_row_prefix_sums_bit_for_bit(n):
    # On the block as given, a view that starts off the corner, a gathered
    # reordered copy, all ones (every sum exact), and duplicated rows.  Each
    # block reordered by an order streams the gathered copy's bits, in
    # rho_values, in rho_curve, and in a clamp warning's value.
    G = random_gram(n, n=n + 9)
    p = np.random.default_rng(n).permutation(n + 9)[:n]
    twins = np.arange(n) // 2
    orders = (np.arange(n), np.arange(n)[::-1], next(permutation_chunks(n, n, (1,)))[0])
    for block in (G[:n, :n], G[9:, 9:], G[4 : 4 + n, 4 : 4 + n], G[np.ix_(p, p)], np.ones((n, n)),
                  G[np.ix_(twins, twins)]):
        assert rho_values(block).tobytes() == chunked_rho_values(block).tobytes()
        for q in orders:
            gathered = block[np.ix_(q, q)]
            assert np.array_equal(rho_values(block, order=q), rho_values(gathered))
            if splittable(n, 0.05):
                assert rho_curve(block, 0.05, q) == rho_curve(gathered, 0.05)
    A = np.random.default_rng(n).uniform(size=(n, n))
    A = (A + A.T) / 2
    np.fill_diagonal(A, 0.0)  # entries in [0, 1], not positive semidefinite
    for q in orders[1:] if n > 1 else ():  # one observation has no split
        with pytest.warns(RuntimeWarning, match="clamped") as streamed:
            rho_values(A, order=q)
        with pytest.warns(RuntimeWarning, match="clamped") as gathered:
            rho_values(A[np.ix_(q, q)])
        assert [str(w.message) for w in streamed] == [str(w.message) for w in gathered]


@pytest.mark.parametrize("m, R", [(40, 30), (300, 5), (1100, 2)])
@pytest.mark.parametrize("budget", [1, 1000])  # one row per chunk and per span; uneven ones
def test_the_scratch_budget_changes_no_bit(m, R, budget, monkeypatch):
    # Over the block and over its float32 copy: maxima, minima and bands.
    G = random_gram(m, n=m)
    perms = np.array([permutation_stream(m, r).permutation(m) for r in range(1, R + 1)])
    routes = (G, G.astype(np.float32))
    curve = rho_values(G)
    masked = [masked_maxima(G, sums, perms, 0.05, 1.0) for sums in routes]
    monkeypatch.setattr(mmdseg.mmd, "_SCRATCH_BYTES", budget)
    assert np.array_equal(rho_values(G), curve)
    for sums, want in zip(routes, masked):
        assert np.array_equal(masked_maxima(G, sums, perms, 0.05, 1.0), want)


@pytest.mark.parametrize("m", [40, 100, 300, 1100])
def test_the_scratch_budget_changes_no_permutation_test_bit(m, monkeypatch):
    # At 1 or 1000 bytes every chunk of draws holds one or two draws, and at
    # m = 1100 the default budget splits R = 99 draws too (95 + 4); each draw
    # has its own key, so full and early-stopping tests agree in every
    # decision.  The budget also decides whether a block is screened (at the
    # default, m = 40, 100 and 300 are; at 1 or 1000 bytes no block is), so
    # draws far from T may hold screened values, but each lies on its float64
    # value's side of T.  A short chunk's masks span more rows: at m = 100 the
    # early stop's first 10 draws take one 100-row span, the full run's 99
    # draws 50-row spans, with every value the same.
    G, cfg = random_gram(m, n=m), AmocConfig(R=99, seed=m)

    def outcomes():
        return [permutation_test(G, cfg, stop_on_accept=stop) for stop in (False, True)]

    default = outcomes()
    full, early = (result.permutation_stats for result in default)
    assert early.size < cfg.R  # the null block stops early
    assert np.array_equal(early, full[: early.size])
    for budget in (1, 1000):
        monkeypatch.setattr(mmdseg.mmd, "_SCRATCH_BYTES", budget)
        for got, want in zip(outcomes(), default):
            assert got.p_value == want.p_value and got.tau_hat == want.tau_hat
            assert got.reject == want.reject
            assert got.permutation_stats.size == want.permutation_stats.size
            assert np.array_equal(got.permutation_stats > got.T_n, want.permutation_stats > want.T_n)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["8", "2", "5", "N1"]),
    m=st.integers(150, 256),
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from([np.inf, 1.0, 0.3]),
)
@example(model="8", m=600, seed=0, share=1.0)  # above the float32 screen: K = 6
def test_the_low_rank_bound_is_certified(model, m, seed, share):
    # For every draw, max q lies within ||C - W W^T||_F / m of the float64
    # maximum (that slack taken here from the dense centered Gram), the
    # bound leaves at least that much below T, and every draw it decides
    # lies below T on the float64 route.  share of T is the slack budget,
    # which sets K (1 at an infinite budget).
    k = POPULATIONS[model]
    lengths = [m // k + (i < m % k) for i in range(k)]
    G = prepare(generate(ModelSpec(model, lengths, seed=seed)).data)[1]
    T = rho_curve(G, 0.05)[1]
    bound = low_rank_bound(G, 0.05, T, share * T)
    if bound is None:  # no K <= mmd._RANK fits the budget
        return
    W, below = bound
    H = np.eye(m) - 1.0 / m
    slack = np.linalg.norm(H @ G @ H - W @ W.T) / m
    assert T - below >= slack
    perms = next(permutation_chunks(seed, m, (49,)))
    q, exact = low_rank_maxima(W, perms, 0.05), gathered_permutation_maxima(G, perms, 0.05)
    assert np.all(np.abs(q - exact) <= slack * (1 + 1e-9) + 1e-12)
    assert np.all(exact[q < below] < T)
