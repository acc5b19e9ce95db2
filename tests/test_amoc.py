import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mmdseg.amoc
import mmdseg.mmd
from mmdseg import (
    AmocConfig,
    BenchmarkCell,
    detect_forward,
    detect_s,
    detect_ss,
    detect_u,
    generate,
    permutation_test,
    ModelSpec,
    Segmentation,
    match,
    oracle_curve,
    prepare,
    rho_curve,
)
from mmdseg.amoc import _accept_count, _chunk_ends
from mmdseg.mmd import masked_maxima, splittable
from mmdseg.simulate import POPULATIONS
from mmdseg.errors import ConfigurationError
from mmdseg.rng import (
    TAG_PERMUTATION,
    _fresh_state,
    _key,
    mix64,
    permutation_chunks,
    permutation_stream,
)

from reference import (
    gathered_permutation_maxima,
    gathered_permutation_test,
    naive_rho_values_blockwise,
    separated_pools,
    stop_count,
)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda v: AmocConfig(seed=v),
        lambda v: AmocConfig(R=v),
        lambda v: ModelSpec("8", (12, 12, 12), seed=v),
        lambda v: ModelSpec("8", (12, 12, 12), grid_size=v),
        lambda v: ModelSpec("8", (12, v, 12)),
        lambda v: BenchmarkCell(ModelSpec("8", (12, 12, 12)), "s", K=v),
        lambda v: BenchmarkCell(ModelSpec("8", (12, 12, 12)), "ss", K_l=v, K_u=30),
        lambda v: BenchmarkCell(ModelSpec("8", (12, 12, 12)), "ss", K_u=v),
        lambda v: BenchmarkCell(ModelSpec("8", (12, 12, 12)), "forward", K_l=v),
        lambda v: Segmentation(v, (7,)),
        lambda v: Segmentation(40, (7, v)),
    ],
)
def test_integer_settings_reject_what_int_would_truncate(build):
    # int() would run seed 1.9 as seed 1 and a segment length of 20.7 as 20,
    # and grid_size 2.5 would draw a 3-point grid; a budget of 2.5 failed
    # in range() mid-run; True ran as 1.  Segmentation(10, (2.5, 7.9)) held
    # (2, 7), and Segmentation(10.5, (2,)) a last block ending at 10.5.
    # numpy integers pass.
    for value in (20.7, 2.5, np.float64(3.0), "3", True, np.True_):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            build(value)
    assert build(np.int64(20)) == build(20)


def test_boundaries_and_pool_sizes_reject_what_int_would_truncate():
    # match([3], [2.9]) read 2.9 as 2 and matched, and oracle_curve read
    # pool sizes (2.9, 1.1) as (2, 1), then said they do not sum to n = 4.
    for value in (2.9, np.float64(3.0), "3", True, np.True_):
        with pytest.raises(ConfigurationError, match="boundary must be an integer"):
            match([3], [value])
        with pytest.raises(ConfigurationError, match="pool size must be an integer"):
            oracle_curve(np.eye(4), (value, 1))
    assert match([np.int64(3)], np.array([2])) and not match([3], [np.int64(1)])
    assert np.array_equal(oracle_curve(np.eye(4), (np.int64(3), 1)), oracle_curve(np.eye(4), (3, 1)))


def test_real_and_switch_settings_reject_other_types():
    # detect_s(X, 2.5) and its kin raised TypeError in range(); add_one="no"
    # ran the add-one p-value, delta="0.1" raised TypeError, and a bandwidth
    # of "0.5" ran as 0.5, and one of True as 1.0.  A model strength c of
    # "1" was stored as a string, True ran as 1.0, and "x" and None ended in
    # a bare ValueError and TypeError.
    X = np.random.default_rng(0).normal(size=(40, 3))
    cfg = AmocConfig(R=19)
    for run in (lambda: detect_s(X, 2.5), lambda: detect_ss(X, 0, 2.5, cfg),
                lambda: detect_forward(X, 1.5, cfg)):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            run()
    for value in ("0.1", None, [0.1], True, np.True_):
        for name in ("delta", "alpha"):
            with pytest.raises(ConfigurationError, match="must be a real number"):
                AmocConfig(**{name: value})
    for value in ("0.5", "abc", [0.5], True):
        with pytest.raises(ConfigurationError, match="must be a real number"):
            prepare(X, value)
    with pytest.raises(ConfigurationError, match="must be a real number"):
        detect_u(X, cfg, h=True)
    for value in ("1", True, "x", None):
        with pytest.raises(ConfigurationError, match="c must be a real number"):
            ModelSpec("M1", (20, 20), params={"c": value})
    assert ModelSpec("M1", (20, 20), params={"c": np.float64(1)}) == \
        ModelSpec("M1", (20, 20), params={"c": 1.0})
    for value in ("no", 0, None):
        with pytest.raises(ConfigurationError, match="must be a bool"):
            AmocConfig(add_one=value)
    assert AmocConfig(delta=np.float64(0.1), alpha=np.float32(0.25), add_one=np.True_) == \
        AmocConfig(delta=0.1, alpha=0.25, add_one=True)
    assert prepare(X, np.float64(0.5))[0] == prepare(X, 0.5)[0] == 0.5


def test_statistic_zero_on_constant_data():
    assert rho_curve(np.ones((30, 30)), 0.05) == (2, 0.0)  # smallest admissible split


def test_statistic_matches_exhaustive_evaluation():
    G = random_gram(3, n=20)
    argmax_t, max_value = rho_curve(G, 0.05)
    naive = naive_rho_values_blockwise(G)
    lo, hi = 2, 18  # the trim max(ceil(1), 2) = 2 off each end
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
        physical = rho_curve(prepare(X[perm], h)[1], 0.05)[1]
        assert masked_maxima(G, G, [perm], 0.05, 1.0)[0][0] == pytest.approx(physical, abs=1e-12)
        # the test's one value may be screened, but lies on the physical copy's side of T
        reused = permutation_test(G, AmocConfig(R=1, seed=seed))
        assert (reused.permutation_stats[0] > reused.T_n) == (physical > reused.T_n)


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


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=20))
def test_mix64_folds_a_uint64_array_as_each_element(rs):
    ids = mix64(TAG_PERMUTATION, np.array(rs, dtype=np.uint64))
    assert ids.dtype == np.uint64
    assert ids.tolist() == [mix64(TAG_PERMUTATION, r) for r in rs]


def test_a_chunk_past_draw_5000_equals_its_per_draw_streams():
    # Each chunk's ids start at its own first draw, not at draw 1.
    for seed in [0, 1, 2**63 - 1, 2**63, 9807252377232042866, 9807252377232042867,
                 *_drawn_seeds()]:
        per_draw = [permutation_stream(seed, r).permutation(4) for r in range(4991, 5011)]
        chunks = permutation_chunks(seed, 4, (4990, 5010))
        next(chunks)
        assert np.array_equal(next(chunks), per_draw), seed


def test_no_permutation_id_rounds_past_the_top_of_the_key():
    # An id in [2**64 - 1024, 2**64) beside a seed below 2**63 rounds to
    # 2**64, which the key's cast cannot hold.  No draw r <= 10**7 has one.
    for lo in range(0, 10**7, 10**6):
        ids = mix64(TAG_PERMUTATION, np.arange(lo + 1, lo + 10**6 + 1, dtype=np.uint64))
        assert ids.max() < 2**64 - 1024


def test_the_top_seeds_draw_as_their_per_draw_streams():
    # _drawn_seeds leaves these out: beside an id below 2**63 the seed rounds
    # to 2**64, and numpy warns on the cast, per draw for the per-draw
    # streams and once for a test's chunks.
    seed = 2**64 - 1
    for m in (5, 101):
        with pytest.warns(RuntimeWarning):
            per_draw = np.array([permutation_stream(seed, r).permutation(m) for r in range(1, 200)])
        with pytest.warns(RuntimeWarning) as cast:
            got = next(permutation_chunks(seed, m, (199,)))
        assert len(cast) == 1
        assert np.array_equal(got, per_draw)


def test_the_philox_reset_is_a_fresh_philox_in_plain_ints():
    # Field by field, so a numpy release that adds or changes a state field
    # fails here instead of silently changing every draw.
    def plain(state):
        return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}

    for key in ([0, 0], [1, 2**63], [2**64 - 1, 12345], _key(9807252377232042866, 5).tolist()):
        key = np.array(key, dtype=np.uint64)
        assert plain(_fresh_state(key)) == plain(np.random.Philox(key=key).state)
        used = np.random.Philox(key=(3, 4))
        used.random_raw(5)  # a mid-buffer state, as a shuffle leaves it
        used.state = _fresh_state(key)
        assert np.array_equal(np.random.Generator(used).permutation(50),
                              np.random.Generator(np.random.Philox(key=key)).permutation(50))


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


@pytest.mark.parametrize("m", [4, 5, 6, 8, 11, 16, 40, 100, 200, 300])
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


@pytest.mark.parametrize("add_one", [False, True])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2, 0.999])
def test_the_accept_count_is_the_stepping_definition(alpha, add_one):
    for R in (*range(1, 301), 10**6 + 1):
        cfg = AmocConfig(R=R, alpha=alpha, add_one=add_one)
        assert _accept_count(cfg) == stop_count(cfg), R


@pytest.mark.parametrize("add_one", [False, True])
@pytest.mark.parametrize("R", [19, 199, 10**8])
def test_the_accept_count_takes_constant_time(R, add_one, monkeypatch):
    # Stepping h up from 0 took 1.25 s at R = 10^8 before the first draw.
    calls, p_value = [], mmdseg.amoc._p_value
    monkeypatch.setattr(mmdseg.amoc, "_p_value", lambda *a: calls.append(a) or p_value(*a))
    _accept_count(AmocConfig(R=R, add_one=add_one))
    assert len(calls) <= 3


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
    chunks, maxima = mmdseg.amoc.permutation_chunks, mmdseg.mmd.masked_maxima
    monkeypatch.setattr(mmdseg.amoc, "permutation_chunks",
                        lambda *a: calls.append("chunks") or chunks(*a))
    monkeypatch.setattr(mmdseg.mmd, "masked_maxima",
                        lambda *a: calls.append("maxima") or maxima(*a))
    G = prepare(separated_pools(np.random.default_rng(0), (20, 20)))[1]
    early = permutation_test(G, AmocConfig(R=19, add_one=True), stop_on_accept=True)
    assert calls == []
    assert early.p_value == 1.0 and early.permutation_stats.size == 0 and not early.reject
    permutation_test(G, AmocConfig(R=19, add_one=True))  # a full run still draws
    assert calls == ["chunks", "maxima"]  # every draw lies far below T: none rechecked


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


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(["8", "2", "N1", "5"]),
    m=st.integers(4, 457),
    seed=st.integers(0, 2**32 - 1),
)
@example(model="8", m=256, seed=1)
@example(model="2", m=200, seed=0)
def test_the_float32_screen_is_certified_and_changes_no_count(model, m, seed):
    # Every block up to m = 457 that builds no bound is screened at the
    # default budget.  Each screened maximum lies within its band of the
    # gathered route's, and the test counts, stops and decides as the float64
    # route (no screen below 5 m^2 bytes) with no low-rank tier does.  The
    # default-budget side vouches for its Gram block, so it takes the tier's
    # route, with no float32 copy, where the bound builds, and the screen
    # where it does not; the gate reads only the block and T: the two
    # explicit examples call mmd.low_rank_bound in all four runs, where model
    # 2's builds K = 4 and model 8's finds no K under its budget (0.53 T) and
    # is screened; random ones rarely pass the gate.
    k = POPULATIONS[model]
    lengths = [m // k + (i < m % k) for i in range(k)]
    G = prepare(generate(ModelSpec(model, lengths, seed=seed)).data)[1]
    R = 49
    perms = next(permutation_chunks(seed, m, (R,)))
    screened, _, bands = masked_maxima(G, G.astype(np.float32), perms, 0.05, 1.0)
    assert np.all(np.abs(screened - gathered_permutation_maxima(G, perms, 0.05)) <= bands)
    for add_one in (False, True):
        cfg = AmocConfig(R=R, seed=seed, add_one=add_one)
        for stop in (False, True):
            got = permutation_test(G, cfg, stop_on_accept=stop, psd=True)
            with patch.object(mmdseg.mmd, "_SCRATCH_BYTES", 5 * m * m - 1):
                want = permutation_test(G, cfg, stop_on_accept=stop)
            assert (got.T_n, got.tau_hat) == (want.T_n, want.tau_hat)
            assert got.p_value == want.p_value and got.reject == want.reject
            assert got.permutation_stats.size == want.permutation_stats.size  # L
            exceed = np.greater_equal if add_one else np.greater
            assert np.array_equal(exceed(got.permutation_stats, got.T_n),
                                  exceed(want.permutation_stats, want.T_n))


def test_a_strong_split_decides_its_first_draws_with_the_low_rank_bound(monkeypatch):
    # The tier is built before the first draw, so a full test on a vouched
    # model-8 block sends none of its first 2h draws to the rank masks (a
    # gate on the first chunk's largest draw sent all 2h there).
    m, cfg = 300, AmocConfig(R=199)
    G = prepare(generate(ModelSpec("8", (100, 100, 100))).data)[1]
    masked, maxima = [], mmdseg.mmd.masked_maxima

    def counting(gram, sums, perms, *args):
        masked.extend(map(tuple, perms))
        return maxima(gram, sums, perms, *args)

    monkeypatch.setattr(mmdseg.mmd, "masked_maxima", counting)
    got = permutation_test(G, cfg, psd=True)
    first = next(permutation_chunks(cfg.seed, m, (2 * _accept_count(cfg),)))
    assert not {tuple(p) for p in first} & set(masked)
    want = gathered_permutation_test(G, cfg)
    assert got.p_value == want.p_value and got.reject == want.reject


def test_the_tiers_undecided_draws_are_rechecked_not_masked(monkeypatch):
    # A test with a bound takes no rank mask: every draw the tier leaves
    # undecided (here every third, its max q forced to +inf) is rechecked on
    # its reordered curve, with the gathered route's bits, and the test counts
    # and decides as the gathered route does, stopping early or not.
    cfg = AmocConfig(R=199)
    G = prepare(generate(ModelSpec("8", (100, 100, 100))).data)[1]
    bounded, maxima = mmdseg.mmd.low_rank_maxima, mmdseg.mmd.masked_maxima
    curve = mmdseg.mmd.rho_curve
    drawn, forced, masked, rechecked = [], [], [], []

    def undecided(W, perms, *args):
        q = bounded(W, perms, *args)
        for i, p in enumerate(perms):
            drawn.append(tuple(p))
            if len(drawn) % 3 == 0:
                q[i] = np.inf
                forced.append(tuple(p))
        return q

    def counting_masks(gram, sums, perms, *args):
        masked.extend(map(tuple, perms))
        return maxima(gram, sums, perms, *args)

    def counting_curve(gram, delta, order=None):
        if order is not None:
            rechecked.append(tuple(order))
        return curve(gram, delta, order)

    monkeypatch.setattr(mmdseg.mmd, "low_rank_maxima", undecided)
    monkeypatch.setattr(mmdseg.mmd, "masked_maxima", counting_masks)
    monkeypatch.setattr(mmdseg.mmd, "rho_curve", counting_curve)
    want = gathered_permutation_test(G, cfg)
    for stop in (False, True):
        for seen in (drawn, forced, masked, rechecked):
            seen.clear()
        got = permutation_test(G, cfg, stop_on_accept=stop, psd=True)
        assert masked == [] and len(drawn) == cfg.R
        assert rechecked == forced and len(forced) == cfg.R // 3
        assert (got.T_n, got.p_value, got.reject) == (want.T_n, want.p_value, want.reject)
        assert got.permutation_stats.size == want.permutation_stats.size == cfg.R
        assert np.array_equal(got.permutation_stats[2::3], want.permutation_stats[2::3])


@pytest.mark.parametrize("model", ["N1", "N2", "N3", "N4"])
def test_no_null_block_builds_the_low_rank_bound(model, monkeypatch):
    # On a null block T lies near the draws' mean, below the gate's
    # _MEAN_SHARE / _TIER_GATE mean draws, so an early-stopping test never
    # builds a bound (with no gate, a bound was built and failed on every
    # null block of m >= 150).
    calls = []
    monkeypatch.setattr(mmdseg.mmd, "low_rank_bound", lambda *a: calls.append(a))
    for m in (150, 225, 300):
        for seed in (0, 1):
            G = prepare(generate(ModelSpec(model, (m,), seed=seed)).data)[1]
            permutation_test(G, AmocConfig(seed=seed), stop_on_accept=True, psd=True)
    assert calls == []


def test_the_screen_rechecks_every_draw_the_float64_route_warns_on(monkeypatch):
    # Blocks with entries in [0, 1] that are not positive semidefinite: some
    # permuted curves dip below CLAMP_WARN_THRESHOLD, as the gathered route
    # shows.  The screen rechecks every such draw on its reordered curve
    # (rho_curve with the draw as order), and each rechecked draw whose curve
    # dips warns once, on the float64 route too.  The second block has a
    # strong split and an eigenvalue near -0.11 that the low-rank tier's
    # slack hides (K = 1 passes its gate), so the tier would decide draws
    # that dip, unwarned; no test on entries alone can see that, so the
    # tier runs only on blocks a caller vouches for (psd), and these get none.
    uniform = np.random.default_rng(0).uniform(size=(30, 30))
    uniform = (uniform + uniform.T) / 2
    np.fill_diagonal(uniform, 1.0)
    side = np.where(np.arange(200) < 100, 1.0, -1.0)
    N = np.random.default_rng(0).uniform(-0.01, 0.01, size=(200, 200))
    split = 0.5 + 0.4 * np.outer(side, side) + (N + N.T) / 2
    np.fill_diagonal(split, 0.9)
    cfg = AmocConfig(R=49)

    def clamp_warnings(f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = f()
        return out, sum("clamped" in str(w.message) for w in caught)

    for A in (uniform, split):
        m = A.shape[0]
        _, observed = clamp_warnings(lambda: rho_curve(A, cfg.delta))
        perms = next(permutation_chunks(cfg.seed, m, (cfg.R,)))
        dips = {tuple(p) for p in perms
                if clamp_warnings(lambda: gathered_permutation_maxima(A, [p], cfg.delta))[1]}
        assert 0 < len(dips) < cfg.R
        results = []
        for budget in (mmdseg.mmd._SCRATCH_BYTES, 5 * m * m - 1):  # screened; float64
            rechecked, curve = [], mmdseg.mmd.rho_curve

            def counting_curve(G, delta, order=None):
                if order is not None:
                    rechecked.append(tuple(order))
                return curve(G, delta, order)

            monkeypatch.setattr(mmdseg.mmd, "rho_curve", counting_curve)
            monkeypatch.setattr(mmdseg.mmd, "_SCRATCH_BYTES", budget)
            results.append(clamp_warnings(lambda: permutation_test(A, cfg)))
            monkeypatch.undo()
            assert dips <= set(rechecked)
            assert len(rechecked) == len(set(rechecked))  # each draw rechecked once
            assert results[-1][1] == observed + sum(p in dips for p in rechecked)  # warnings
        (got, _), (want, _) = results
        assert got.p_value == want.p_value and got.T_n == want.T_n > 0.0
        assert np.array_equal(got.permutation_stats > got.T_n, want.permutation_stats > want.T_n)


@pytest.mark.xfail(
    strict=True,
    reason="stream keys are rounded to float64 when exactly one half is >= 2**63, "
    "so these seeds share draw 1, whose id is below 2**63; exact keys are ROADMAP item 1",
)
def test_distinct_seeds_give_distinct_permutation_streams():
    a = permutation_stream(9807252377232042867, 1).permutation(50)
    b = permutation_stream(9807252377232042866, 1).permutation(50)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "m, scale",
    # explicit ids keep the unscaled blocks' names
    [pytest.param(m, s, id=f"{m}" if s == 1 else f"{m}-{s:g}")
     for s in (1, 1e4, 1e6) for m in range(4, 17)],
)
def test_pvalues_equal_gathered_route_on_tie_heavy_blocks(m, scale):
    # With 2-observation sides a short block has few distinct splits, so many
    # draws tie T exactly (a third of them at m = 4); each must be counted as
    # the gathered per-draw route counts it.  Scaled blocks skip the screen,
    # and the float64 route's margin must grow with their entries: an
    # absolute 1e-12 miscounted ties at 1e4 and 1e6.
    for seed in range(4):
        G = random_gram(seed, n=m, p=3) * scale
        for add_one in (False, True):
            cfg = AmocConfig(R=49, seed=seed, add_one=add_one)
            assert permutation_test(G, cfg).p_value == gathered_permutation_test(G, cfg).p_value


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
