"""One-step linear-Gaussian probe: closed-form policy moments and gradient.

With beta = 1/2 and the weight pinned at sqrt(2), the marginal of the
terminal sample is exactly N(-bias, 1/2), so every statistic below has a
pencil-and-paper value.
"""

import math

import numpy as np
import pytest

from cgru.policy_grad import EstimatorConfig, cgru_gradient, ddpo_gradient
from cgru.toy import (TOY_BETA, build_toy, sample_toy_trajectories,
                      toy_analytic_gradient, toy_mean_reward, toy_rewards)

RAW = EstimatorConfig(grad_max_norm=1e18)


def test_schedule_is_single_step():
    _, sched = build_toy()
    assert sched.T == 1
    assert sched.betas[0] == TOY_BETA
    assert sched.sigmas[0] == pytest.approx(math.sqrt(TOY_BETA))


@pytest.mark.parametrize("bias", [0.0, 0.5, -1.25])
def test_terminal_marginal_matches_closed_form(bias):
    policy, sched = build_toy(bias)
    trajs = sample_toy_trajectories(policy, sched, 40_000, seed=5)
    x0 = trajs.x0[:, 0]
    # mean -bias, variance 1/2; allow 5 standard errors
    se_mean = math.sqrt(0.5 / x0.size)
    assert abs(x0.mean() - (-bias)) < 5 * se_mean
    se_var = math.sqrt(2.0 / (x0.size - 1)) * 0.5
    assert abs(x0.var(ddof=1) - 0.5) < 5 * se_var


def test_rewards_are_terminal_coordinate():
    policy, sched = build_toy(0.5)
    trajs = sample_toy_trajectories(policy, sched, 8, seed=3)
    assert np.array_equal(trajs.rewards, trajs.x0[:, 0])
    # toy_rewards is idempotent
    again = toy_rewards(trajs)
    assert np.array_equal(again.rewards, trajs.x0[:, 0])


def test_mean_reward_closed_form():
    assert toy_mean_reward(0.5) == -0.5
    assert toy_mean_reward(-2.0) == 2.0
    policy, sched = build_toy(1.0)
    trajs = sample_toy_trajectories(policy, sched, 40_000, seed=7)
    r = trajs.rewards
    assert abs(r.mean() - toy_mean_reward(1.0)) < 5 * math.sqrt(0.5 / r.size)


def test_analytic_gradient_is_parameter_free():
    assert np.array_equal(toy_analytic_gradient(), [0.0, -1.0])


@pytest.mark.parametrize("bias", [0.0, 1.0])
def test_estimators_recover_analytic_gradient(bias):
    policy, sched = build_toy(bias)
    trajs = sample_toy_trajectories(policy, sched, 20_000, seed=11)
    est_d = ddpo_gradient(trajs, policy, sched, RAW)
    est_c = cgru_gradient(trajs, policy,
                          np.full((len(trajs), 1), toy_mean_reward(bias)),
                          RAW, sched)
    truth = toy_analytic_gradient()
    # loose 3-sigma band from the empirical per-trajectory score spread
    for est in (est_d, est_c):
        assert np.allclose(est, truth, atol=0.15), (bias, est)


def test_theta_is_weight_then_bias():
    policy, _ = build_toy(0.25)
    assert policy.net.theta == pytest.approx([math.sqrt(2.0), 0.25])
