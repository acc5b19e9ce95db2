import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmdseg.amoc
import mmdseg.mmd
from mmdseg import (
    AmocConfig,
    detect_u,
    generate,
    permutation_test,
    ModelSpec,
    prepare,
    rho_curve,
)
from mmdseg.amoc import _accept_count, _chunk_ends
from mmdseg.mmd import splittable
from mmdseg.errors import ConfigurationError
from mmdseg.rng import TAG_PERMUTATION, _key, mix64, permutation_chunks, permutation_stream

from reference import gathered_p_value, naive_rho_values_blockwise, separated_pools


def random_gram(seed, n, p=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    return prepare(X)[1]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AmocConfig(delta=0.5)
    with pytest.raises(ConfigurationError):
        AmocConfig(R=0)
    with pytest.raises(ConfigurationError):
        AmocConfig(alpha=1.0)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigurationError):
            AmocConfig(seed=seed)
    AmocConfig(seed=2**64 - 1)


def test_statistic_zero_on_constant_data():
    assert rho_curve(np.ones((30, 30)), 0.05) == (2, 0.0)  # smallest admissible split


def test_statistic_matches_exhaustive_evaluation():
    G = random_gram(3, n=20)
    argmax_t, max_value = rho_curve(G, 0.05)
    naive = naive_rho_values_blockwise(G)
    lo, hi = 2, 18  # ceil(1) floored to 2, min(floor(19), 18)
    window = naive[lo - 1 : hi]
    assert max_value == pytest.approx(window.max(), abs=1e-10)
    assert argmax_t == lo + int(np.argmax(window))


def test_estimator_locates_boundary_on_separated_data():
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = separated_pools(rng, (150, 150), p=8, gap=2.0)
        G = prepare(X)[1]
        tau = rho_curve(G, 0.05)[0]
        hits += abs(tau - 150) <= 1
    assert hits >= 34  # 85% of seeds


def identity_draw_seed(m):
    """Smallest stream seed whose first permutation of range(m) is the identity."""
    seed = 0
    while not np.array_equal(permutation_stream(seed, 1).permutation(m), np.arange(m)):
        seed += 1
    return seed


def test_pvalue_strict_count_with_identity_permutation():
    G = random_gram(5, n=4)
    res = permutation_test(G, AmocConfig(R=1, seed=identity_draw_seed(4)))
    assert res.permutation_stats[0] == res.T_n
    assert res.p_value == 0.0  # identity ties the observed statistic; strict > fails
    assert res.reject


def test_pvalue_add_one_variant():
    G = random_gram(5, n=4)
    res = permutation_test(G, AmocConfig(R=1, add_one=True, seed=identity_draw_seed(4)))
    assert res.p_value == 1.0  # (1 + 1) / (1 + 1)
    assert not res.reject


def test_pvalue_counts_exceedances_exactly():
    G = random_gram(9, n=24)
    cfg = AmocConfig(R=99, seed=11)
    res = permutation_test(G, cfg)
    assert res.p_value == np.count_nonzero(res.permutation_stats > res.T_n) / 99
    assert res.reject == (res.p_value < cfg.alpha)


def test_deterministic_given_config():
    G = random_gram(13, n=30)
    cfg = AmocConfig(R=49, seed=1234)
    a = permutation_test(G, cfg)
    b = permutation_test(G, cfg)
    assert a.T_n == b.T_n and a.p_value == b.p_value
    assert np.array_equal(a.permutation_stats, b.permutation_stats)


def test_permutation_reuse_equals_physical_permutation():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(28, 5))
    h, G = prepare(X)
    for seed in range(20):
        perm = permutation_stream(seed, 1).permutation(28)
        reused = permutation_test(G, AmocConfig(R=1, seed=seed))
        physical = rho_curve(prepare(X[perm], h)[1], 0.05)[1]
        assert reused.permutation_stats[0] == pytest.approx(physical, abs=1e-12)


def _drawn_seeds():
    # 20 seeds on each side of 2**63; the top 1024 seeds, whose keys round to
    # 2**64 and warn on the cast when the id is below 2**63, are left out.
    draw = np.random.default_rng(8)
    low = draw.integers(0, 2**63, size=20, dtype=np.uint64)
    high = draw.integers(2**63, 2**64 - 1024, size=20, dtype=np.uint64)
    return [int(s) for s in (*low, *high)]


@pytest.mark.parametrize("m", [4, 5, 20, 101])
def test_permutations_equal_per_draw_streams(m):
    # Keys of both kinds occur (exact, and rounded to float64 when exactly one
    # half is >= 2**63), as does the pair of seeds that rounding makes share
    # their draws with an id below 2**63.
    seeds = [0, 1, 2**63 - 1, 2**63, 9807252377232042866, 9807252377232042867]
    for seed in seeds + _drawn_seeds():
        per_draw = np.array([permutation_stream(seed, r).permutation(m) for r in range(1, 200)])
        for R in (1, 19, 199):
            got = next(permutation_chunks(seed, m, (R,)))
            assert got.dtype == per_draw.dtype
            assert np.array_equal(got, per_draw[:R]), (seed, R)


def test_the_key_rule_is_numpys_conversion_of_the_pair():
    # The seeds of test_permutations_equal_per_draw_streams, checked against
    # the key numpy's Philox(key=) builds itself, not through _key.
    seeds = [0, 1, 2**63 - 1, 2**63, 9807252377232042866, 9807252377232042867]
    ids = [0, 1, 2**63 - 1, 2**63, *(mix64(TAG_PERMUTATION, r) for r in range(1, 20))]
    for seed in seeds + _drawn_seeds():
        for i in ids:
            key = np.random.Philox(key=(seed, i)).state["state"]["key"]
            assert np.array_equal(key, _key(seed, i)), (seed, i)
            assert _key(seed, i).dtype == key.dtype


def test_key_conversion_regimes():
    # np.asarray((seed, id)) is int64 when both halves are below 2**63,
    # uint64 when both are >= 2**63, and exact in both; it is float64, and
    # rounds, only when exactly one half is >= 2**63.
    for pair, dtype in (((2**63 - 1, 2**63 - 2), np.int64),
                        ((2**64 - 1, 2**63), np.uint64),
                        ((2**63 + 1, 5), np.float64)):
        assert np.asarray(pair).dtype == dtype
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [int(k) for k in _key(2**63 - 1, 2**63 - 2)] == [2**63 - 1, 2**63 - 2]
        assert [int(k) for k in _key(2**64 - 1, 2**63)] == [2**64 - 1, 2**63]
        assert [int(k) for k in _key(5, 2**63 + 1)] == [5, 2**63]
    # Two seeds one apart round to one key exactly when the id is below 2**63:
    # 100 of a permutation test's first 199 draws.
    a, b = 9807252377232042866, 9807252377232042867
    ids = [mix64(TAG_PERMUTATION, r) for r in range(1, 200)]
    shared = [np.array_equal(_key(a, i), _key(b, i)) for i in ids]
    assert shared == [i < 2**63 for i in ids]
    assert sum(shared) == 100
    for r in (1, 2, 3, 4):
        same = np.array_equal(permutation_stream(a, r).permutation(50),
                              permutation_stream(b, r).permutation(50))
        assert same == shared[r - 1]


def test_permutation_test_builds_one_generator(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    G, cfg = random_gram(2, n=40), AmocConfig(R=199, seed=3)
    permutation_test(G, cfg)
    assert len(built) == 1
    built.clear()
    early = permutation_test(G, cfg, stop_on_accept=True)
    assert 20 < early.permutation_stats.size < cfg.R  # past the first chunk of 2h = 20
    assert len(built) == 1


def stop_count(cfg):
    """Smallest exceedance count h whose p-value over all R draws is >= alpha."""
    h = 0
    while (((1 + h) / (cfg.R + 1)) if cfg.add_one else h / cfg.R) < cfg.alpha:
        h += 1
    return h


@pytest.mark.parametrize("m", [4, 5, 6, 8, 11, 16, 40, 100, 300])
def test_early_accept_keeps_every_decision(m):
    # Null blocks accept (most stop early), shifted ones reject; short blocks
    # are tie-heavy.  The early run must be the full run cut at the h-th
    # exceedance, or the full run itself.
    stopped = 0
    for seed in range(4):
        X = np.random.default_rng(seed).normal(size=(m, 3))
        X[m // 2 :] += 0.4 * seed
        G = prepare(X)[1]
        for add_one in (False, True):
            cfg = AmocConfig(R=199, seed=seed, add_one=add_one)
            full = permutation_test(G, cfg)
            early = permutation_test(G, cfg, stop_on_accept=True)
            assert early.reject == full.reject and early.tau_hat == full.tau_hat
            L = early.permutation_stats.size
            if L == cfg.R:
                assert early.p_value == full.p_value
                assert np.array_equal(early.permutation_stats, full.permutation_stats)
                continue
            stopped += 1
            h = stop_count(cfg)
            exceed = full.permutation_stats >= full.T_n if add_one else full.permutation_stats > full.T_n
            assert np.array_equal(early.permutation_stats, full.permutation_stats[:L])
            assert L == np.flatnonzero(exceed)[h - 1] + 1
            assert early.p_value == ((1 + h) / (L + 1) if add_one else h / L)
            assert early.p_value >= cfg.alpha and not early.reject
    assert stopped > 0


def test_a_test_that_cannot_reject_accepts_at_once():
    # With add_one at R = 19 the smallest p-value, 1/20, equals alpha: h = 0,
    # so an early-stopping test accepts at once, and a full run cannot reject
    # even when no draw reaches T.
    cfg = AmocConfig(R=19, add_one=True)
    assert _accept_count(cfg) == 0
    G = prepare(separated_pools(np.random.default_rng(0), (20, 20)))[1]
    early = permutation_test(G, cfg, stop_on_accept=True)
    assert early.p_value == 1.0 and early.permutation_stats.size == 0 and not early.reject
    full = permutation_test(G, cfg)
    assert full.p_value == 0.05 and full.permutation_stats.size == 19 and not full.reject


def test_a_test_with_h_zero_accepts_before_any_draw(monkeypatch):
    calls = []
    chunks, maxima = mmdseg.amoc.permutation_chunks, mmdseg.mmd.permuted_maxima
    monkeypatch.setattr(mmdseg.amoc, "permutation_chunks",
                        lambda *a: calls.append("chunks") or chunks(*a))
    monkeypatch.setattr(mmdseg.mmd, "permuted_maxima",
                        lambda *a: calls.append("maxima") or maxima(*a))
    G = prepare(separated_pools(np.random.default_rng(0), (20, 20)))[1]
    early = permutation_test(G, AmocConfig(R=19, add_one=True), stop_on_accept=True)
    assert calls == []
    assert early.p_value == 1.0 and early.permutation_stats.size == 0 and not early.reject
    permutation_test(G, AmocConfig(R=19, add_one=True))  # a full run still draws
    assert calls == ["chunks", "maxima"]


def test_chunk_ends_at_the_default_budget():
    for m in (4, 40, 300):
        assert _chunk_ends(199, 200, m) == [199]  # a full run: h = R + 1
        assert _chunk_ends(199, 10, m) == [20, 60, 140, 199]
    assert _chunk_ends(19, 0, 40) == [1, 3, 7, 15, 19]  # h = 0 still draws
    assert _chunk_ends(199, 200, 1500) == [69, 138, 199]  # 69 draws of 10 bytes x m


@given(
    R=st.integers(1, 3000),
    h=st.integers(0, 3001),
    m=st.integers(4, 70000),
    budget=st.sampled_from([1, 1000, 1 << 20]),
)
def test_chunk_ends_rise_to_R_in_chunks_within_the_budget(R, h, m, budget):
    h = min(h, R + 1)
    cell = np.dtype(np.intp).itemsize + np.min_scalar_type(m).itemsize  # a draw and its rank
    with patch.object(mmdseg.mmd, "_SCRATCH_BYTES", budget):  # read at call time
        ends = _chunk_ends(R, h, m)
    chunks = np.diff([0, *ends])
    assert ends[-1] == R and np.all(chunks > 0)
    assert np.all((chunks == 1) | (chunks * m * cell <= budget))
    assert chunks[0] == min(max(2 * h, 1), R, max(1, budget // (m * cell)))


@pytest.mark.xfail(
    strict=True,
    reason="stream keys are rounded to float64 when exactly one half is >= 2**63, "
    "so these seeds share draw 1, whose id is below 2**63; exact keys are ROADMAP item 1",
)
def test_distinct_seeds_give_distinct_permutation_streams():
    a = permutation_stream(9807252377232042867, 1).permutation(50)
    b = permutation_stream(9807252377232042866, 1).permutation(50)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("m", range(4, 17))
def test_pvalues_equal_gathered_route_on_tie_heavy_blocks(m):
    # With 2-observation sides a short block has few distinct splits, so many
    # draws tie T exactly (a third of them at m = 4); each must be counted as
    # the gathered per-draw route counts it.
    for seed in range(4):
        G = random_gram(seed, n=m, p=3)
        for add_one in (False, True):
            cfg = AmocConfig(R=49, seed=seed, add_one=add_one)
            assert permutation_test(G, cfg).p_value == gathered_p_value(G, cfg)


def test_size_is_close_to_nominal_for_exchangeable_data():
    # super-uniform p-values: empirical size within 2 binomial SEs of alpha
    cfg = AmocConfig(R=99, alpha=0.05)
    reps, rejections = 200, 0
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        X = rng.normal(size=(40, 4))
        G = prepare(X)[1]
        res = permutation_test(G, AmocConfig(R=99, alpha=0.05, seed=rep))
        rejections += res.reject
    rate = rejections / reps
    se = np.sqrt(cfg.alpha * (1 - cfg.alpha) / reps)
    assert abs(rate - cfg.alpha) <= 2 * se


def _mean_statistic(model_id, lengths, seeds):
    vals = []
    for seed in seeds:
        sample = generate(ModelSpec(model_id, lengths, seed=seed))
        G = prepare(sample.data)[1]
        vals.append(rho_curve(G, 0.05)[1])
    return np.array(vals)


def test_statistic_converges_to_positive_limit_under_alternative():
    # Under a fixed change the max statistic settles at a positive constant:
    # the gap to a large-n proxy of that limit shrinks (finite-sample bias
    # makes the approach from above, not a monotone climb), and the n = 400
    # values sit far above the null scale, which collapses toward zero.
    limit = _mean_statistic("1", (600, 600), range(100, 104)).mean()
    gap = {
        n: np.abs(_mean_statistic("1", (n // 2, n // 2), range(6)) - limit).mean()
        for n in (100, 400)
    }
    assert gap[400] < gap[100]
    null_scale = _mean_statistic("N3", (400,), range(6)).mean()
    alt_scale = _mean_statistic("1", (200, 200), range(6)).mean()
    assert alt_scale > 5 * null_scale


def test_detect_constant_segment_accepts():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 4))
    cfg = AmocConfig(R=99, seed=5)
    assert not permutation_test(prepare(X)[1], cfg).reject
    det = detect_u(X, cfg)
    assert det.segmentation.boundaries == ()
    assert [rec["op"] for rec in det.trace] == ["test"]


def test_detect_too_short_segment():
    G = random_gram(1, n=10)
    with pytest.raises(ConfigurationError, match="too short"):
        permutation_test(G[:3, :3], AmocConfig())
    assert not splittable(3, 0.05)
    det = detect_u(np.random.default_rng(1).normal(size=(3, 6)), AmocConfig())
    assert det.segmentation.boundaries == ()
    assert det.trace == [{"op": "skip", "block": [0, 3], "reason": "too_short"}]


def test_detect_reports_absolute_coordinates():
    rng = np.random.default_rng(8)
    X = np.vstack(
        [
            rng.normal(size=(30, 6)),
            separated_pools(np.random.default_rng(9), (20, 20), p=6, gap=6.0),
        ]
    )
    G = prepare(X)[1]
    res = permutation_test(G[30:70, 30:70], AmocConfig(R=99, seed=2))
    assert res.reject
    assert abs(30 + res.tau_hat - 50) <= 2
    # detect_u: the root splits at 30; the block [30, 70) then reports its
    # boundary in full-sequence coordinates
    Y = np.vstack([rng.normal(size=(30, 6)), rng.normal(12.0, size=(20, 6)),
                   rng.normal(13.5, size=(20, 6))])
    det = detect_u(Y, AmocConfig(R=99, seed=2))
    splits = {tuple(r["block"]): r["boundary"] for r in det.trace if r["op"] == "split"}
    assert abs(splits[(30, 70)] - 50) <= 2
    assert det.segmentation.boundaries == (30, splits[(30, 70)])
