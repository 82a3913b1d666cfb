"""Accuracy scores of the eval path and the Gaussian Frechet distance."""

import math

import numpy as np
import pytest
import scipy.linalg

from cgru import pipeline
from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides, validate
from cgru.errors import ConfigError, ShapeMismatch
from cgru.metrics import (FeatureStats, feature_stats, frechet_distance,
                          matrix_sqrt_psd)


def fd_oracle(m1, c1, m2, c2):
    """Independent evaluation: ||dm||^2 + tr(c1 + c2 - 2 (c1 c2)^(1/2)),
    with the product root computed by scipy on the symmetrized product."""
    dm = np.asarray(m1) - np.asarray(m2)
    covmean = scipy.linalg.sqrtm(np.asarray(c1) @ np.asarray(c2))
    covmean = np.real(covmean)
    return float(dm @ dm + np.trace(c1 + c2 - 2.0 * covmean))


def random_spd(rng, d=2):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.3 * np.eye(d)


def score_labels(monkeypatch, overrides, labels, n_forget, n_retain_each):
    """Run the eval path with a classifier that returns the given labels,
    forget-class rows first and then n_retain_each of each retained class."""
    cfg = apply_overrides(RunConfig(), [
        "diffusion.T=3", "eps_net.hidden=4", "eps_net.t_embed_dim=2",
        *overrides])
    monkeypatch.setattr(pipeline, "classifier_predict",
                        lambda clf, x0: np.asarray(labels))
    reference = rngmod.stream(0, rngmod.PHASE_DIAG, 91).standard_normal((8, 2))
    return pipeline._eval_model(cfg, pipeline._build_model(cfg), None,
                                pipeline.schedule(cfg), n_forget,
                                n_retain_each, "monitor eval",
                                retain_reference=reference)


def test_unlearning_accuracy_counts_escapes(monkeypatch):
    # five forget-class (0) samples, then one of each retained class 1-3
    labels = [0, 0, 1, 2, 3, 1, 2, 3]
    report = score_labels(monkeypatch, ["data.n_classes=4",
                                        "reward.target_class=0"],
                          labels, n_forget=5, n_retain_each=1)
    assert math.isclose(report.ua, 3 / 5)
    with pytest.raises(ConfigError, match="eval.forget_samples"):
        validate(apply_overrides(RunConfig(), ["eval.forget_samples=0"]))


def test_retain_accuracy_averages_over_classes(monkeypatch):
    # forget class 0; class 1 gets both right, class 2 gets 1 of 2 right
    labels = [0, 1, 1, 2, 0]
    report = score_labels(monkeypatch, ["data.n_classes=3",
                                        "reward.target_class=0"],
                          labels, n_forget=1, n_retain_each=2)
    assert report.per_class_acc == {1: 1.0, 2: 0.5}
    assert math.isclose(report.ira, (1.0 + 0.5) / 2)
    # unequal class sizes: each class's rate is over its own samples
    accs = pipeline._per_class_accuracy(np.array([1, 1, 2, 2, 2, 2]),
                                        np.array([1, 1, 2, 0, 0, 0]))
    assert accs == {1: 1.0, 2: 0.25}
    with pytest.raises(ConfigError, match="data.n_classes"):
        validate(apply_overrides(RunConfig(), ["data.n_classes=1",
                                               "reward.target_class=0"]))


def test_feature_stats_match_numpy_conventions():
    X = rngmod.stream(0, rngmod.PHASE_DIAG, 70).standard_normal((40, 3))
    st = feature_stats(X)
    assert np.allclose(st.mean, X.mean(axis=0))
    assert np.allclose(st.cov, np.cov(X, rowvar=False, ddof=1))
    assert st.n == 40
    with pytest.raises(ValueError):
        feature_stats(X[:1])


def test_matrix_sqrt_psd_squares_back():
    rng = rngmod.stream(1, rngmod.PHASE_DIAG, 71)
    for d in (1, 2, 5):
        M = random_spd(rng, d)
        R = matrix_sqrt_psd(M)
        assert np.allclose(R @ R, M, atol=1e-10)
        assert np.allclose(R, R.T)
        want = np.real(scipy.linalg.sqrtm(M))
        assert np.allclose(R, want, atol=1e-8)
    with pytest.raises(ValueError):
        matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        matrix_sqrt_psd(np.zeros((2, 3)))


def test_frechet_self_distance_is_zero():
    X = rngmod.stream(2, rngmod.PHASE_DIAG, 72).standard_normal((500, 2))
    st = feature_stats(X)
    assert frechet_distance(st, st) < 1e-6


def test_frechet_unit_mean_shift_1d():
    a = FeatureStats(mean=np.array([0.0]), cov=np.array([[1.0]]), n=10)
    b = FeatureStats(mean=np.array([1.0]), cov=np.array([[1.0]]), n=10)
    assert abs(frechet_distance(a, b) - 1.0) < 1e-5
    # closed form in 1-D: (m1-m2)^2 + (s1-s2)^2
    c = FeatureStats(mean=np.array([0.5]), cov=np.array([[4.0]]), n=10)
    want = 0.25 + (2.0 - 1.0) ** 2
    assert abs(frechet_distance(a, c) - want) < 1e-4


def test_frechet_matches_scipy_oracle_on_random_spd():
    rng = rngmod.stream(3, rngmod.PHASE_DIAG, 73)
    for _ in range(20):
        m1, m2 = rng.standard_normal(2), rng.standard_normal(2)
        c1, c2 = random_spd(rng), random_spd(rng)
        got = frechet_distance(FeatureStats(m1, c1, 10),
                               FeatureStats(m2, c2, 10))
        want = fd_oracle(m1, c1, m2, c2)
        assert abs(got - want) < 1e-4 * max(1.0, abs(want))


def test_frechet_rejects_dimension_mismatch():
    a = FeatureStats(np.zeros(2), np.eye(2), 5)
    b = FeatureStats(np.zeros(3), np.eye(3), 5)
    with pytest.raises(ShapeMismatch):
        frechet_distance(a, b)


def test_frechet_symmetry_and_positivity():
    rng = rngmod.stream(4, rngmod.PHASE_DIAG, 74)
    a = feature_stats(rng.standard_normal((200, 2)))
    b = feature_stats(rng.standard_normal((200, 2)) * 2.0 + 1.0)
    ab, ba = frechet_distance(a, b), frechet_distance(b, a)
    assert math.isclose(ab, ba, rel_tol=1e-9)
    assert ab > 0.0
