"""Estimators: unbiasedness on the closed-form probe, the degeneracy
identity, importance weighting, baselines, and the update loop."""

import math

import numpy as np
import pytest

from cgru import rng as rngmod
from cgru.diffusion import build_eps_net, make_schedule, sample_trajectories
from cgru.nets import adam_init, flatten
from cgru.policy_grad import (EstimatorConfig, GradientEstimate,
                              _importance_weights, baseline_term_estimate,
                              cgru_gradient, clip_to_norm, compute_advantages,
                              ddpo_gradient, gradient_variance,
                              optimal_baseline_probe, per_sample_scores,
                              policy_update_epoch, state_values)
from cgru.rewards import RewardSpec, assign_rewards
from cgru.toy import (build_toy, sample_toy_trajectories,
                      toy_analytic_gradient, toy_mean_reward)

RAW = EstimatorConfig(grad_max_norm=1e18)    # effectively unclipped


def desk_setup(T=8, K=4, n=6, seed=13):
    model = build_eps_net(2, K, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(seed, rngmod.PHASE_INIT), T=T)
    sched = make_schedule(T, 1e-4, 0.02)
    rollouts = sample_trajectories(model, np.arange(n) % K, sched, seed,
                                   rngmod.PHASE_DIAG, first_index=500)
    spec = RewardSpec("mode_distance", center=(0.0, 0.0), scale=10.0)
    assign_rewards(rollouts, spec)
    return model, sched, rollouts


def test_importance_weights_values_and_clamp():
    cfg = EstimatorConfig()
    w, n_clipped = _importance_weights(np.array([-1.0, -1.1, -2.0, 0.0]),
                                       np.full(4, -1.0), cfg)
    assert w[0] == 1.0
    assert math.isclose(w[1], math.exp(-0.1), rel_tol=1e-12)
    assert math.isclose(w[1], 0.9048374180359595, rel_tol=1e-12)
    assert w[2] == 0.8 and w[3] == 1.2
    assert n_clipped == 2


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(clip_low=1.1)
    with pytest.raises(ValueError):
        EstimatorConfig(clip_high=0.9)
    with pytest.raises(ValueError):
        EstimatorConfig(grad_max_norm=0.0)


def test_clip_to_norm():
    v = np.array([3.0, 4.0])
    assert np.allclose(clip_to_norm(v, 10.0), v)
    clipped = clip_to_norm(v, 1.0)
    assert math.isclose(np.linalg.norm(clipped), 1.0)
    assert np.allclose(clipped, v / 5.0)


def test_terminal_reward_estimator_unbiased_on_probe():
    policy, sched = build_toy(0.5)
    n = 4000
    trajs = sample_toy_trajectories(policy, sched, n, seed=21)
    scores = per_sample_scores(trajs, policy, sched)
    r = trajs.rewards
    per_traj = scores * r[:, None]
    mean = per_traj.mean(axis=0)
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - toy_analytic_gradient()) <= 3 * se)
    # the batched estimator agrees with the per-trajectory mean
    est = ddpo_gradient(trajs, policy, sched, RAW)
    assert np.allclose(est.grad, mean, rtol=1e-10)
    assert est.n_traj == n


def test_advantage_estimator_unbiased_on_probe():
    policy, sched = build_toy(0.5)
    n = 4000
    trajs = sample_toy_trajectories(policy, sched, n, seed=22)
    baseline = toy_mean_reward(0.5)
    est = cgru_gradient(trajs, policy, lambda x, c, t: baseline, RAW, sched)
    scores = per_sample_scores(trajs, policy, sched)
    per_traj = scores * (trajs.rewards - baseline)[:, None]
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(est.grad - toy_analytic_gradient()) <= 3 * se)


def test_degeneracy_zero_critic_reduces_to_terminal_reward():
    # identical on-policy trajectories, critic fixed at zero: the
    # advantage estimator IS the terminal-reward estimator
    model, sched, trajs = desk_setup()
    a = cgru_gradient(trajs, model, lambda x, c, t: 0.0, RAW, sched)
    b = ddpo_gradient(trajs, model, sched, RAW)
    denom = max(np.linalg.norm(b.grad), 1e-300)
    assert np.linalg.norm(a.grad - b.grad) / denom < 1e-12


def test_zero_rewards_give_zero_gradient():
    model, sched, trajs = desk_setup()
    trajs.rewards = np.zeros(len(trajs))
    est = ddpo_gradient(trajs, model, sched, RAW)
    assert np.linalg.norm(est.grad) < 1e-12


def test_state_values_accepts_critic_callable_and_none():
    x = np.zeros((3, 2))
    vals = state_values(lambda xx, c, t: 7.0, x, [0, 1, 2], 4)
    assert np.allclose(vals, 7.0)
    assert np.allclose(state_values(None, x, [0, 1, 2], 4), 0.0)


def test_compute_advantages_is_reward_minus_value():
    model, sched, trajs = desk_setup()
    compute_advantages(trajs, lambda x, c, t: 0.25 * t + c)
    for i in range(len(trajs)):
        want = [trajs.rewards[i] - 0.25 * t - trajs.class_ids[i]
                for t in range(1, sched.T + 1)]
        assert np.allclose(trajs.advantages[i], want, rtol=1e-12)
    trajs.rewards = None
    with pytest.raises(ValueError):
        compute_advantages(trajs, None)


def test_baseline_term_mean_shrinks_with_sample_size():
    policy, sched = build_toy(0.5)
    trajs = sample_toy_trajectories(policy, sched, 8000, seed=23)
    critic = lambda x, c, t: toy_mean_reward(0.5)
    small = np.linalg.norm(baseline_term_estimate(trajs[:200], policy, critic, sched))
    large = np.linalg.norm(baseline_term_estimate(trajs, policy, critic, sched))
    assert large < small
    # zero-expectation term: at n=8000 the norm should be well under the
    # per-sample scale (|baseline| * typical score magnitude ~ 1)
    assert large < 0.1


def test_optimal_baseline_probe_orders_variance():
    policy, sched = build_toy(0.5)
    trajs = sample_toy_trajectories(policy, sched, 4000, seed=24)
    er = toy_mean_reward(0.5)
    pairs = optimal_baseline_probe(policy, sched, trajs, [er - 1, er, er + 1])
    assert [b for b, _ in pairs] == [er - 1, er, er + 1]
    variances = [v for _, v in pairs]
    assert variances[1] == min(variances)


def test_gradient_variance_oracle():
    a = GradientEstimate(grad=np.array([1.0, 3.0]), estimator="x", n_traj=1)
    b = GradientEstimate(grad=np.array([3.0, 7.0]), estimator="x", n_traj=1)
    # per-coordinate unbiased variances are 2 and 8; their mean is 5
    assert math.isclose(gradient_variance([a, b]), 5.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        gradient_variance([a])


def test_policy_update_epoch_moves_params_deterministically():
    model, sched, trajs = desk_setup()
    opt = adam_init(model.net, lr=1e-3)
    before = flatten(model.net, model.net.params).copy()
    stats = policy_update_epoch(model, trajs, lambda x, c, t: 0.0,
                                EstimatorConfig(), sched, opt,
                                rngmod.stream(0, rngmod.PHASE_POLICY, 2),
                                grad_accum=2)
    after = flatten(model.net, model.net.params)
    assert not np.allclose(before, after)
    assert stats["updates"] == math.ceil(sched.T / 2)
    assert stats["clip_count"] >= 0
    assert not stats["stale_buffer"]

    # identical inputs and rng stream reproduce identical parameters
    model2, sched2, trajs2 = desk_setup()
    opt2 = adam_init(model2.net, lr=1e-3)
    policy_update_epoch(model2, trajs2, lambda x, c, t: 0.0,
                        EstimatorConfig(), sched2, opt2,
                        rngmod.stream(0, rngmod.PHASE_POLICY, 2),
                        grad_accum=2)
    assert np.array_equal(after, flatten(model2.net, model2.net.params))


def test_policy_update_epoch_flags_stale_buffer():
    model, sched, trajs = desk_setup()
    opt = adam_init(model.net, lr=5e-2)     # big steps push ratios to clamp
    rng = rngmod.stream(0, rngmod.PHASE_POLICY, 3)
    stats = None
    for _ in range(4):
        stats = policy_update_epoch(model, trajs, lambda x, c, t: 0.0,
                                    EstimatorConfig(), sched, opt, rng)
    assert stats["clip_count"] > 0
    assert stats["stale_buffer"]


def test_per_sample_scores_match_batched_estimator():
    model, sched, trajs = desk_setup(n=5)
    scores = per_sample_scores(trajs, model, sched)
    manual = (scores * trajs.rewards[:, None]).mean(axis=0)
    est = ddpo_gradient(trajs, model, sched, RAW)
    assert np.allclose(est.grad, manual, rtol=1e-10)
