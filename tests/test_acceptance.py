"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
Monte Carlo criteria use fixed seeds, so outcomes are reproducible bit for
bit.  Statistical gates encode the benchmark's target success rates.  A rate
estimated from N draws carries sampling error, so each one-sided rate clause
of criteria 6-9 is judged by `rate_clause` against a threshold two standard
errors below its gate; measured shortfalls are reported honestly rather than
hidden (see the verdict printed per criterion).
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mmdseg import (
    AmocConfig,
    BenchmarkCell,
    ModelSpec,
    generate,
    oracle_curve,
    prepare,
    rho_curve,
    rho_values,
    run_benchmark,
)
from mmdseg.benchmark import RATES, run_replication
from mmdseg.cli import main
from mmdseg.mmd import admissible_range, masked_maxima
from mmdseg.simulate import _bb_sample
from mmdseg.rng import derive_seed, stream

from reference import (
    cusum_oracle_match,
    labeled_curve,
    mixture_mmd,
    model1_shift_projection,
    naive_mmd_groups,
    naive_rho_values_blockwise,
    separated_pools,
    squared_l2_norm,
)

pytestmark = pytest.mark.acceptance  # `pytest -m "not acceptance"` runs the unit tier alone

SEED = 20260808
WORKERS = 2
Z = 2.0  # standard errors a rate may fall short of its gate


def report(cid, name, ok, detail):
    print(f"[criterion {cid:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def rate_clause(name, rate, gate, n, note=""):
    """(ok, text) for a success rate estimated from n draws against its gate.

    Passes when rate >= gate - Z * sqrt(gate (1 - gate) / n).  The standard
    error is taken at the gate, so the threshold is fixed before the run; a
    method whose true rate equals the gate fails about 2.3% of the time.  The
    threshold is rounded to 12 decimals because rates are multiples of 1/n
    and can sit exactly on it (0.9 - 2 * 0.03 evaluates to 0.8400000000000001).
    """
    se = math.sqrt(gate * (1.0 - gate) / n)
    threshold = round(gate - Z * se, 12)
    ok = rate >= threshold
    note = f"; {note}" if note else ""
    return ok, (
        f"{name}={rate:.3f} (N={n}, se={se:.3f}{note}) "
        f"{'>=' if ok else '<'} {threshold:.3f} = {gate:.2f} - {Z:g}se"
    )


def report_rates(cid, name, clauses):
    """Report a criterion made of rate clauses; it passes when all of them do."""
    return report(
        cid, name, all(ok for ok, _ in clauses), "; ".join(text for _, text in clauses)
    )


def harness_rates(cell, index, replications, seed):
    """Success rates of `cell` on the draws run_benchmark(seed=seed) gives its
    cell number `index`, so one cell can run more replications than another
    without moving the draws of either."""
    seeds = [derive_seed(seed, index, rep) for rep in range(replications)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        records = list(pool.map(run_replication, [cell] * replications, seeds, chunksize=4))
    return {key: float(np.mean([r[key] for r in records])) for key in RATES}


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    max_rho_err = 0.0
    max_oracle_err = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 61))
        X = rng.normal(size=(n, 6))
        G = prepare(X)[1]
        t_min, t_max = admissible_range(n, 0.05)
        window = rho_values(G)[t_min - 1 : t_max]
        naive = naive_rho_values_blockwise(G)[t_min - 1 : t_max]
        max_rho_err = max(max_rho_err, float(np.max(np.abs(window - naive))))
        cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, 5)), replace=False))
        sizes = np.diff([0, *cuts, n])  # 1-5 contiguous pools
        max_oracle_err = max(
            max_oracle_err,
            float(np.max(np.abs(oracle_curve(G, sizes) - labeled_curve(G, sizes)))),
        )
    elapsed = time.perf_counter() - t0
    ok = max_rho_err < 1e-9 and max_oracle_err < 1e-10 and elapsed < 10.0
    assert report(
        1,
        "oracle equivalence",
        ok,
        f"rho err {max_rho_err:.2e} < 1e-9, oracle err {max_oracle_err:.2e} < 1e-10, "
        f"{elapsed:.1f}s < 10s",
    )


def test_c02_single_boundary_curve_shape():
    rng = np.random.default_rng(SEED + 2)
    failures = 0
    for _ in range(50):
        n1 = int(rng.integers(2, 30))
        n2 = int(rng.integers(2, 30))
        X = separated_pools(rng, (n1, n2), p=5, gap=float(rng.uniform(0.5, 4.0)))
        G = prepare(X)[1]
        vals = oracle_curve(G, (n1, n2))
        rising = np.all(np.diff(vals[:n1]) >= -1e-12)
        falling = np.all(np.diff(vals[n1 - 1 :]) <= 1e-12)
        peak = int(np.argmax(vals)) + 1 == n1
        failures += not (rising and falling and peak)
    assert report(
        2,
        "labeled single-boundary curve shape",
        failures == 0,
        f"{50 - failures}/50 instances rise to the boundary, fall after, peak exactly there",
    )


def test_c03_two_boundary_convexity():
    rng = np.random.default_rng(SEED + 3)
    worst = np.inf
    for _ in range(50):
        n1, n2, n3 = (int(rng.integers(4, 20)) for _ in range(3))
        X = separated_pools(rng, (n1, n2, n3), p=5, gap=float(rng.uniform(0.5, 3.0)))
        G = prepare(X)[1]
        vals = oracle_curve(G, (n1, n2, n3))[n1 : n1 + n2]  # r = n1 + 1 .. n1 + n2
        if len(vals) >= 3:
            worst = min(worst, float(np.min(np.diff(vals, 2))))
    assert report(
        3,
        "labeled middle-branch convexity",
        worst >= -1e-9,
        f"min second difference {worst:.2e} >= -1e-9 over 50 instances",
    )


def test_c04_mixture_identity():
    rng = np.random.default_rng(SEED + 4)
    X = separated_pools(rng, (12, 17), p=6, gap=2.0)
    G = prepare(X)[1]
    pool_a, pool_b = range(12), range(12, 29)
    d = naive_mmd_groups(G, pool_a, pool_b)
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = mixture_mmd(G, pool_a, pool_b, alpha, beta)
            worst = max(worst, abs(got - (alpha - beta) ** 2 * d))
    assert report(
        4,
        "mixture identity on weight grid",
        worst < 1e-12,
        f"max |mixture - (a-b)^2 d| = {worst:.2e} < 1e-12",
    )


def test_c05_size_control_null_models():
    t0 = time.perf_counter()
    config = AmocConfig(delta=0.05, R=199, alpha=0.05)
    cells = [
        BenchmarkCell(model=ModelSpec(mid, (100,)), algorithm="u", config=config,
                      label=mid)
        for mid in ("N1", "N2", "N3", "N4")
    ]
    rows = run_benchmark(cells, replications=200, seed=SEED + 5, workers=WORKERS).to_rows()
    rates = {row["label"]: 1.0 - row["rate_k_correct"] for row in rows}
    elapsed = time.perf_counter() - t0
    ok = all(0.01 <= r <= 0.10 for r in rates.values())
    detail = ", ".join(f"{m}={r:.3f}" for m, r in rates.items())
    assert report(
        5,
        "size control on no-change models",
        ok,
        f"rejection rates [{detail}] all in [0.01, 0.10]; {elapsed / 60:.1f} min",
    )


def test_c06_power_on_covariance_change():
    config = AmocConfig(delta=0.05, R=199, alpha=0.05)
    cells = [
        BenchmarkCell(model=ModelSpec(mid, (150, 150)), algorithm="u", config=config,
                      label=mid)
        for mid in ("5", "6")
    ]
    rows = run_benchmark(cells, replications=100, seed=SEED + 6, workers=WORKERS).to_rows()
    clauses = []
    for ci, row in enumerate(rows):
        n = row["replications"]
        oracle = cusum_oracle_match(squared_l2_norm, row["model"], (150, 150), SEED + 6, ci, n)
        clauses += [
            rate_clause(f"model {row['label']}: P(K=1)", row["rate_k_correct"], 0.80, n),
            rate_clause("match", row["rate_match"], 0.80, n,
                        f"L2 oracle on same draws {oracle:.2f}"),
        ]
    assert report_rates(6, "unsupervised power on scale/eigenvalue change", clauses)


def test_c07_multiple_changepoints():
    config = AmocConfig(delta=0.05, R=199, alpha=0.05)
    cell = BenchmarkCell(
        model=ModelSpec("8", (100, 100, 100)), algorithm="u", config=config
    )
    row = run_benchmark([cell], replications=100, seed=SEED + 7, workers=WORKERS).to_rows()[0]
    n = row["replications"]
    assert report_rates(7, "unsupervised recovery of two boundaries", [
        rate_clause("P(K=2)", row["rate_k_correct"], 0.75, n),
        rate_clause("match", row["rate_match"], 0.75, n),
    ])


def test_c08_supervised_fidelity():
    cells = [
        BenchmarkCell(model=ModelSpec("1", (150, 150)), algorithm="s", K=1, label="m1-k1"),
        BenchmarkCell(model=ModelSpec("8", (100, 100, 100)), algorithm="s", K=1, label="m8-k1"),
        BenchmarkCell(model=ModelSpec("8", (100, 100, 100)), algorithm="s", K=3, label="m8-k3"),
    ]
    rows = {r["label"]: r for r in
            run_benchmark(cells, replications=100, seed=SEED + 8, workers=WORKERS).to_rows()}
    n = rows["m1-k1"]["replications"]
    oracle = cusum_oracle_match(model1_shift_projection, "1", (150, 150), SEED + 8, 0, n)
    assert report_rates(8, "supervised fidelity under exact/under/over budget", [
        rate_clause("model 1 K=1 match", rows["m1-k1"]["rate_match"], 0.95, n,
                    f"mean-shift projection oracle on same draws {oracle:.2f}"),
        rate_clause("model 8 K=1 subset", rows["m8-k1"]["rate_subset"], 0.95, n),
        rate_clause("model 8 K=3 superset", rows["m8-k3"]["rate_superset"], 0.95, n),
    ])


def test_c09_bounded_detection():
    config = AmocConfig(delta=0.05, R=199, alpha=0.05)
    m2_cell = BenchmarkCell(model=ModelSpec("2", (150, 150)), algorithm="ss", K_l=0, K_u=2,
                            config=config)
    m8_cell = BenchmarkCell(model=ModelSpec("8", (100, 100, 100)), algorithm="ss", K_l=1,
                            K_u=3, config=config)
    # Model 2 runs 400 draws, the fewest at which a true match rate of 0.85
    # fails in at least 85% of seeds (binomial: 33% at 100, 76% at 300, 85% at
    # 400).  Cell numbers 0 and 1 keep the draws of the joint two-cell run at
    # 100 replications: its first 100 model-2 draws and all model-8 draws.
    m2 = harness_rates(m2_cell, 0, 400, SEED + 9)
    m8 = harness_rates(m8_cell, 1, 100, SEED + 9)
    assert report_rates(9, "bounded detection with backward merging", [
        rate_clause("model 2 Ku=2: P(K=1)", m2["k_correct"], 0.90, 400),
        rate_clause("match", m2["match"], 0.90, 400),
        rate_clause("model 8 Kl=1 Ku=3: P(K=2)", m8["k_correct"], 0.85, 100),
    ])


def test_c10_determinism_and_permutation_reuse(tmp_path):
    data_path = tmp_path / "data.csv"
    assert main(["simulate", str(data_path), "--model", "8",
                 "--lengths", "50,50,50", "--seed", "11"]) == 0
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["detect-u", str(data_path), "-R", "49", "--seed", "21",
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]

    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 40))
        X = rng.normal(size=(n, 5))
        h, G = prepare(X)
        perm = rng.permutation(n)
        reused = masked_maxima(G, G, [perm], 0.05, 1.0)[0][0]
        physical = rho_curve(prepare(X[perm], h)[1], 0.05)[1]
        worst = max(worst, abs(reused - physical))
    ok = identical and worst < 1e-12
    assert report(
        10,
        "determinism and permutation reuse",
        ok,
        f"byte-identical JSON: {identical}; max reorder-vs-physical gap {worst:.2e} < 1e-12",
    )


def test_c11_generator_statistics():
    bridge = _bb_sample(stream(SEED), 10_000, 128, 0.0)
    var_mid = float(bridge[:, 63].var())
    bridge_ok = abs(var_mid - 0.25) <= 0.02

    # stated gate: 2000 draws per segment at the recorded seed (the per-seed
    # estimator has sd ~ 0.13, so the +-0.3 band passes ~83% of seeds; the
    # across-seed mean below pins the generator property itself)
    probes = (12, 40, 63, 90, 120)
    sample = generate(ModelSpec("5", (2000, 2000), seed=SEED))
    pre, post = sample.data[:2000], sample.data[2000:]
    ratios = [float(post[:, j].var() / pre[:, j].var()) for j in probes]
    ratio_ok = all(abs(r - 3.0) <= 0.3 for r in ratios)

    per_seed = []
    for seed in range(10):
        s = generate(ModelSpec("5", (2000, 2000), seed=seed))
        a, b = s.data[:2000], s.data[2000:]
        per_seed.append([float(b[:, j].var() / a[:, j].var()) for j in probes])
    mean_ratios = np.mean(per_seed, axis=0)
    unbiased_ok = bool(np.all(np.abs(mean_ratios - 3.0) <= 0.15))

    ok = bridge_ok and ratio_ok and unbiased_ok
    assert report(
        11,
        "generator statistics",
        ok,
        f"bridge var(0.5)={var_mid:.4f} within 0.25+-0.02; "
        f"variance ratios {[round(r, 2) for r in ratios]} within 3+-10%; "
        f"10-seed means {np.round(mean_ratios, 2).tolist()} within 3+-5%",
    )
