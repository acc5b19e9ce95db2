import numpy as np
import pytest

from mmdseg import ModelSpec, generate, grid
from mmdseg.errors import ConfigurationError
from mmdseg.rng import stream
from mmdseg.simulate import MODEL_IDS, _basis, _bb_sample, _kl_sample, _theta


def test_grid_is_right_closed():
    t = grid(128)
    assert t[0] == pytest.approx(1 / 128)
    assert t[-1] == 1.0
    assert len(t) == 128


def test_model_spec_validation():
    with pytest.raises(ConfigurationError):
        ModelSpec("N9", (100,))
    with pytest.raises(ConfigurationError):
        ModelSpec("8", (100, 100))  # needs three segments
    with pytest.raises(ConfigurationError):
        ModelSpec("1", (100, 0))
    with pytest.raises(ConfigurationError):
        ModelSpec("M1", (50, 50))  # c required
    with pytest.raises(ConfigurationError):
        ModelSpec("M2", (50, 50), params={"c": 0.0})
    with pytest.raises(ConfigurationError):
        ModelSpec("1", (50, 50), params={"c": 1.0})  # unknown param
    for model, c in [("M1", np.inf), ("M1", np.nan), ("M2", np.inf), ("M2", np.nan)]:
        with pytest.raises(ConfigurationError, match="finite"):
            ModelSpec(model, (50, 50), params={"c": c})


def test_generate_is_deterministic():
    spec = ModelSpec("11", (40, 40, 40), seed=99)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.data, b.data)
    assert a.truth == b.truth
    c = generate(ModelSpec("11", (40, 40, 40), seed=100))
    assert not np.array_equal(a.data, c.data)


def test_truth_bookkeeping():
    sample = generate(ModelSpec("8", (100, 100, 100), seed=0))
    assert sample.truth.boundaries == (100, 200)
    assert sample.data.shape == (300, 128)
    null = generate(ModelSpec("N3", (100,), seed=0))
    assert null.truth.boundaries == ()


def test_every_model_generates():
    for mid in MODEL_IDS:
        k = {"N1": 1, "N2": 1, "N3": 1, "N4": 1}.get(mid)
        lengths = (30,) if k else ((20, 20, 20) if mid in "89" or mid in ("10", "11", "12") else (25, 25))
        params = {"c": 1.5} if mid in ("M1", "M2") else {}
        sample = generate(ModelSpec(mid, lengths, seed=1, params=params))
        assert sample.data.shape == (sum(lengths), 128)
        assert np.isfinite(sample.data).all()


def test_bridge_pins_to_zero_at_one():
    assert np.all(_bb_sample(stream(7), 20, 128, 0.0)[:, -1] == 0.0)


def test_bridge_variance_at_midpoint():
    draws = _bb_sample(stream(11), 10_000, 128, 0.0)
    assert draws[:, 63].var() == pytest.approx(0.25, abs=0.02)
    assert np.all(draws[:, -1] == 0.0)


def test_kl_curve_zero_eigenvalues_returns_mean():
    t = grid(16)
    basis = _basis("sine", 5, 16)
    mean = 2.0 * t
    curves = _kl_sample(stream(3), 4, basis, np.zeros(5), "gaussian", mean)
    assert np.array_equal(curves, np.tile(mean, (4, 1)))


def test_n4_variance_matches_truncated_series():
    basis = _basis("sine", 40, 128)
    theta = _theta("invsq", 40)
    draws = _kl_sample(stream(21), 10_000, basis, theta, "gaussian", 0.0)
    j = np.arange(1, 41)
    expected = np.sum(j**-2.0 * 2 * np.sin(j * np.pi * 0.5) ** 2)
    assert draws[:, 63].var() == pytest.approx(expected, rel=0.05)


def test_scaled_t3_noise_has_unit_variance():
    w = stream(31).standard_t(3, size=100_000) / np.sqrt(3.0)
    assert w.var() == pytest.approx(1.0, abs=0.05)


def test_segment_means_match_specification():
    # empirical mean curves stay within 3 standard errors of the stated means
    t = grid(128)
    probes = [12, 40, 63, 90, 120]
    cases = {
        "1": [2.0 * t, 6.0 * t * (1.0 - t)],
        "9": [np.zeros(128), t, np.zeros(128)],
        "4": [np.zeros(128), np.sin(t)],
    }
    for mid, means in cases.items():
        lengths = (2000,) * len(means)
        sample = generate(ModelSpec(mid, lengths, seed=5))
        for k, mu in enumerate(means):
            block = sample.data[2000 * k : 2000 * (k + 1)]
            se = block.std(axis=0, ddof=1) / np.sqrt(2000)
            for j in probes:
                assert abs(block[:, j].mean() - mu[j]) < 3.5 * se[j]


def test_scale_change_variance_ratio():
    sample = generate(ModelSpec("5", (2000, 2000), seed=8))
    pre, post = sample.data[:2000], sample.data[2000:]
    for j in [12, 40, 63, 90, 120]:
        ratio = post[:, j].var() / pre[:, j].var()
        assert ratio == pytest.approx(3.0, rel=0.10)


def test_m1_zero_strength_reduces_to_bridge_null():
    m1 = generate(ModelSpec("M1", (50, 50), seed=42, params={"c": 0.0}))
    assert np.all(m1.data[:, -1] == 0.0)  # every curve is a pinned bridge
    pre, post = m1.data[:50], m1.data[50:]
    # no mean shift at c = 0
    assert abs(pre[:, 63].mean() - post[:, 63].mean()) < 0.3
