"""Reward functions and the reward classifier."""

import functools
import math

import numpy as np
import pytest

from cgru import rng as rngmod
from cgru.diffusion import make_schedule, mode_centers, sample_dataset, sample_trajectories, build_eps_net
from cgru.errors import ShapeMismatch
from cgru.nets import Act, Dense, Network, forward
from cgru.rewards import (assign_rewards, build_classifier_net,
                          classifier_accuracy, classifier_predict,
                          classifier_reward,
                          mode_distance_reward,
                          train_classifier)


def uniform_classifier(K=8):
    """Zero-weight softmax net: every class gets probability 1/K."""
    net = Network([Dense(2, K), Act("softmax")])
    net.params["0.w"][...] = np.zeros((2, K))
    net.params["0.b"][...] = np.zeros(K)
    return net


def test_classifier_reward_uniform_probabilities_pinned():
    net = uniform_classifier(8)
    # p(target) = 1/8 exactly, so reward = 10 * (1 - 1/8) = 8.75
    (r,) = classifier_reward(net, np.array([[0.3, -2.0]]), target_class=0,
                             scale=10.0)
    assert math.isclose(r, 8.75, rel_tol=1e-12)
    batch = classifier_reward(net, np.zeros((4, 2)), target_class=5, scale=4.0)
    assert np.allclose(batch, 4.0 * (1 - 0.125))


def test_classifier_reward_matches_probs():
    net = build_classifier_net(2, 8, 16, rng=rngmod.stream(0, rngmod.PHASE_INIT, 2))
    X = rngmod.stream(1, rngmod.PHASE_DIAG, 5).standard_normal((6, 2))
    probs = forward(net, X)
    r = classifier_reward(net, X, target_class=3, scale=10.0)
    assert np.allclose(r, 10.0 * (1.0 - probs[:, 3]), rtol=1e-12)
    with pytest.raises(ValueError):
        classifier_reward(net, X, target_class=8, scale=10.0)


def test_mode_distance_reward_pinned():
    center = np.array([4.0, 0.0])
    (r,) = mode_distance_reward(center[None], center, 10.0)
    assert math.isclose(r, 10.0)
    # one unit away: 10 * exp(-1)
    (r,) = mode_distance_reward(np.array([[5.0, 0.0]]), center, 10.0)
    assert math.isclose(r, 10.0 * math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(r, 3.6787944117144233, rel_tol=1e-12)
    batch = mode_distance_reward(np.array([[4.0, 1.0], [4.0, 2.0]]), center, 1.0)
    assert np.allclose(batch, [math.exp(-1.0), math.exp(-4.0)])
    with pytest.raises(ShapeMismatch):
        mode_distance_reward(np.zeros((1, 3)), center)


def test_reward_functions_refuse_a_non_positive_scale():
    x0 = np.zeros((2, 2))
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale must be positive"):
            classifier_reward(uniform_classifier(), x0, target_class=0,
                              scale=scale)
        with pytest.raises(ValueError, match="scale must be positive"):
            mode_distance_reward(x0, (0.0, 0.0), scale)


def test_assign_rewards_fills_trajectories():
    model = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=8)
    sched = make_schedule(8, 1e-4, 0.02)
    rollouts = sample_trajectories(model, [0, 2], sched, 3, rngmod.PHASE_DIAG)
    assign_rewards(rollouts, functools.partial(
        mode_distance_reward, center=(0.0, 0.0), scale=2.0))
    assert rollouts.rewards.shape == (2,)
    for x0, r in zip(rollouts.x0, rollouts.rewards):
        want = 2.0 * math.exp(-float(x0 @ x0))
        assert math.isclose(r, want, rel_tol=1e-12)


def test_train_classifier_separates_modes():
    X, y = sample_dataset(1600, rngmod.stream(3, rngmod.PHASE_DATASET),
                          n_classes=8, radius=4.0, stddev=0.3)
    net, history = train_classifier(X[:1200], y[:1200], 8,
                                    rngmod.stream(3, rngmod.PHASE_CLASSIFIER),
                                    hidden=32, steps=800, batch=64, lr=2e-3)
    assert len(history) == 800
    assert history[-1] < history[0]
    acc = classifier_accuracy(net, X[1200:], y[1200:])
    assert acc >= 0.95
    preds = classifier_predict(net, X[1200:])
    assert preds.shape == (400,)
    assert np.array_equal(np.unique(preds), np.unique(np.concatenate([preds, y[1200:]])))
