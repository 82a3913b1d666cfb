"""Estimators: unbiasedness on the closed-form probe, the degeneracy
identity, importance weighting, baselines, and the update loop."""

import functools
import math
import os

import numpy as np
import pytest

from cgru import nets, policy_grad
from cgru import rng as rngmod
from cgru.diffusion import build_eps_net, make_schedule, sample_trajectories
from cgru.errors import ShapeMismatch
from cgru.nets import adam_init, adam_step
from cgru.policy_grad import (EstimatorConfig, _importance_weights,
                              baseline_term_estimate, cgru_gradient,
                              clip_to_norm, ddpo_gradient,
                              gradient_variance, group_estimates,
                              optimal_baseline_probe,
                              per_sample_scores, policy_update_epoch)
from cgru.rewards import assign_rewards, mode_distance_reward
from cgru.toy import (build_toy, sample_toy_trajectories,
                      toy_analytic_gradient, toy_mean_reward)

from conftest import float64_eps_twin

RAW = EstimatorConfig(grad_max_norm=1e18)    # effectively unclipped


def desk_setup(T=8, K=4, n=6, seed=13, float64=False):
    """A small denoiser, its schedule and n rewarded rollouts of it; with
    float64, the denoiser is its float64 twin, for checks of the walk's
    algebra at float64 rounding."""
    model = build_eps_net(2, K, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(seed, rngmod.PHASE_INIT), T=T)
    if float64:
        model = float64_eps_twin(model)
    sched = make_schedule(T, 1e-4, 0.02)
    rollouts = sample_trajectories(model, np.arange(n) % K, sched, seed,
                                   rngmod.PHASE_DIAG, first_index=500)
    assign_rewards(rollouts, functools.partial(
        mode_distance_reward, center=(0.0, 0.0), scale=10.0))
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
    assert np.allclose(est, mean, rtol=1e-10)


def test_advantage_estimator_unbiased_on_probe():
    policy, sched = build_toy(0.5)
    n = 4000
    trajs = sample_toy_trajectories(policy, sched, n, seed=22)
    baseline = toy_mean_reward(0.5)
    est = cgru_gradient(trajs, policy, np.full((n, 1), baseline), RAW, sched)
    scores = per_sample_scores(trajs, policy, sched)
    per_traj = scores * (trajs.rewards - baseline)[:, None]
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(est - toy_analytic_gradient()) <= 3 * se)


def test_degeneracy_zero_critic_reduces_to_terminal_reward():
    # identical on-policy trajectories, critic fixed at zero: the
    # advantage estimator IS the terminal-reward estimator
    model, sched, trajs = desk_setup()
    a = cgru_gradient(trajs, model, np.zeros((len(trajs), sched.T)), RAW,
                      sched)
    b = ddpo_gradient(trajs, model, sched, RAW)
    denom = max(np.linalg.norm(b), 1e-300)
    assert np.linalg.norm(a - b) / denom < 1e-12


def test_zero_rewards_give_zero_gradient():
    model, sched, trajs = desk_setup()
    trajs.rewards = np.zeros(len(trajs))
    est = ddpo_gradient(trajs, model, sched, RAW)
    assert np.linalg.norm(est) < 1e-12


def test_advantage_estimator_is_terminal_reward_minus_baseline_term():
    # on-policy the ratios are 1, so weighting by r - V splits into the
    # terminal-reward estimate minus the baseline term of V
    model, sched, trajs = desk_setup(float64=True)
    values = 0.25 * np.arange(1, sched.T + 1) + trajs.class_ids[:, None]
    got = cgru_gradient(trajs, model, values, RAW, sched)
    want = ddpo_gradient(trajs, model, sched, RAW) \
        - baseline_term_estimate(trajs, model, values, sched)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12
    # no baseline is the zero matrix
    none = cgru_gradient(trajs, model, None, RAW, sched)
    zero = cgru_gradient(trajs, model, np.zeros_like(values), RAW, sched)
    assert np.array_equal(none, zero)
    with pytest.raises(ShapeMismatch):
        cgru_gradient(trajs, model, values[:, :1], RAW, sched)
    trajs.rewards = None
    with pytest.raises(ValueError):
        cgru_gradient(trajs, model, values, RAW, sched)


def test_baseline_term_mean_shrinks_with_sample_size():
    policy, sched = build_toy(0.5)
    trajs = sample_toy_trajectories(policy, sched, 8000, seed=23)
    values = np.full((len(trajs), sched.T), toy_mean_reward(0.5))
    small = np.linalg.norm(baseline_term_estimate(trajs[:200], policy,
                                                  values[:200], sched))
    large = np.linalg.norm(baseline_term_estimate(trajs, policy, values, sched))
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
    a = np.array([1.0, 3.0])
    b = np.array([3.0, 7.0])
    # per-coordinate unbiased variances are 2 and 8; their mean is 5
    assert math.isclose(gradient_variance(np.stack([a, b])), 5.0,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        gradient_variance(a[None])
    # an index that picks one row leaves no variance either
    with pytest.raises(ValueError, match="k >= 2"):
        gradient_variance(np.stack([a, b]), np.array([1]))


_W = policy_grad._VARIANCE_COLUMNS


# block - 1, block and 3 * block + 5 columns end in a short, a full and a
# 5-column block; block + 1 would end in a lone column, whose rows numpy
# sums pairwise rather than in row order, so it joins the block before it
@pytest.mark.parametrize("P", [1, _W - 1, _W, _W + 1, 3 * _W + 5])
@pytest.mark.parametrize("k", [2, 4, 20, 40])
def test_blocked_gradient_variance_has_the_whole_array_bits(P, k):
    r = rngmod.stream(5, rngmod.PHASE_DIAG, P + k)
    # magnitudes spread over many octaves, so any reordered sum shows
    est = r.standard_normal((k, P)) * np.exp(3.0 * r.standard_normal((k, P)))
    # only the last column varies, so the mean carries its variance's bits
    last = est.copy()
    last[:, :-1] = 1.0
    # no index, a bootstrap resample of k rows and a shorter repeating draw
    for idx in (None, r.integers(0, k, k), np.repeat(r.integers(0, k, 2), 2)):
        for e in (est, last):
            want = (e if idx is None else e[idx]).var(axis=0, ddof=1).mean()
            assert gradient_variance(e, idx) == want


def test_policy_update_epoch_moves_params_deterministically():
    model, sched, trajs = desk_setup()
    opt = adam_init(model.net, lr=1e-3)
    before = model.net.theta.copy()
    stats = policy_update_epoch(model, trajs, np.zeros((len(trajs), sched.T)),
                                EstimatorConfig(), sched, opt,
                                rngmod.stream(0, rngmod.PHASE_POLICY, 2),
                                grad_accum=2)
    after = model.net.theta
    assert not np.allclose(before, after)
    assert stats["updates"] == math.ceil(sched.T / 2)
    assert stats["clip_count"] >= 0
    assert not stats["stale_buffer"]

    # identical inputs and rng stream reproduce identical parameters
    model2, sched2, trajs2 = desk_setup()
    opt2 = adam_init(model2.net, lr=1e-3)
    policy_update_epoch(model2, trajs2, np.zeros((len(trajs2), sched2.T)),
                        EstimatorConfig(), sched2, opt2,
                        rngmod.stream(0, rngmod.PHASE_POLICY, 2),
                        grad_accum=2)
    assert np.array_equal(after, model2.net.theta)


def test_single_update_epoch_is_an_adam_step_on_cgru_gradient():
    # with grad_accum >= T one epoch is one update on the cgru estimate
    model, sched, trajs = desk_setup()
    noise = rngmod.stream(5, rngmod.PHASE_DIAG, 0)
    trajs.logp = trajs.logp + 0.2 * noise.standard_normal(trajs.logp.shape)
    values = 0.1 * np.arange(1, sched.T + 1) + trajs.class_ids[:, None]
    cfg = EstimatorConfig(clip_low=0.9, clip_high=1.1, grad_max_norm=1e18)
    est = cgru_gradient(trajs, model, values, cfg, sched)
    _, (clip_count,) = group_estimates(trajs, model, values, cfg, sched,
                                       ["cgru"])
    assert clip_count > 0
    want = model.net.theta.copy()
    adam_step(adam_init(model.net, lr=1e-3), want, -est)

    # the epoch's walk is group_estimates over the order the epoch draws
    order = rngmod.stream(0, rngmod.PHASE_POLICY, 4).permutation(
        np.arange(1, sched.T + 1)).tolist()
    walk, _ = group_estimates(trajs, model, values, cfg, sched, ["cgru"],
                              steps=order)
    exact = model.net.theta.copy()
    adam_step(adam_init(model.net, lr=1e-3), exact,
              -clip_to_norm(walk[0, 0], cfg.grad_max_norm))

    stats = policy_update_epoch(model, trajs, values, cfg, sched,
                                adam_init(model.net, lr=1e-3),
                                rngmod.stream(0, rngmod.PHASE_POLICY, 4),
                                grad_accum=sched.T)
    assert stats["updates"] == 1
    assert np.array_equal(model.net.theta, exact)
    # the epoch sums steps in shuffled order, cgru_gradient in T..1 order
    assert math.isclose(stats["grad_norm_mean"], np.linalg.norm(est),
                        rel_tol=1e-12)
    assert stats["clip_count"] == clip_count
    assert np.allclose(model.net.theta, want, rtol=1e-12, atol=0)


def test_policy_update_epoch_rejects_before_filling_advantages():
    model, sched, trajs = desk_setup()
    opt = adam_init(model.net, lr=1e-3)
    with pytest.raises(ValueError, match="grad_accum"):
        policy_update_epoch(model, trajs, None,
                            EstimatorConfig(), sched, opt,
                            rngmod.stream(0, rngmod.PHASE_POLICY, 2),
                            grad_accum=0)


def test_policy_update_epoch_flags_stale_buffer():
    model, sched, trajs = desk_setup()
    opt = adam_init(model.net, lr=5e-2)     # big steps push ratios to clamp
    rng = rngmod.stream(0, rngmod.PHASE_POLICY, 3)
    stats = None
    for _ in range(4):
        stats = policy_update_epoch(model, trajs, None,
                                    EstimatorConfig(), sched, opt, rng)
    assert stats["clip_count"] > 0
    assert stats["stale_buffer"]


def test_per_sample_scores_match_batched_estimator():
    model, sched, trajs = desk_setup(n=5, float64=True)
    scores = per_sample_scores(trajs, model, sched)
    manual = (scores * trajs.rewards[:, None]).mean(axis=0)
    est = ddpo_gradient(trajs, model, sched, RAW)
    assert np.allclose(est, manual, rtol=1e-10)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("n,cuts", [
    (16, [4, 8, 12]),         # equal groups: one batched product per weight
    (1200, [100, 1000]),      # the prefix cuts of diag unbiasedness
    (600, [100, 300]),        # groups that cross the 256-row shard bounds
])
def test_grouped_walk_equals_separate_sub_batch_walks(n, cuts):
    model, sched, trajs = desk_setup(n=n, float64=True)
    values = 0.1 * np.arange(1, sched.T + 1) + trajs.class_ids[:, None]
    noise = rngmod.stream(6, rngmod.PHASE_DIAG, 0)
    trajs.logp = trajs.logp + 0.05 * noise.standard_normal(trajs.logp.shape)
    cfg = EstimatorConfig(clip_low=0.95, clip_high=1.05)
    kinds = ["baseline", "cgru", "ddpo"]
    means, clips = group_estimates(trajs, model, values, cfg, sched, kinds,
                                   cuts)
    bounds = [0, *cuts, n]
    assert means.shape[:2] == (3, len(bounds) - 1)
    want_clips = [0, 0, 0]
    for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        solo, solo_clips = group_estimates(trajs[a:b], model, values[a:b],
                                           cfg, sched, kinds)
        for k in range(3):
            assert _rel(means[k, g], solo[k, 0]) < 1e-12, (k, g)
        want_clips = [x + y for x, y in zip(want_clips, solo_clips)]
    assert clips == want_clips and clips[1] > 0
    # the one-group walk of the thin wrappers is the size-weighted sum
    sizes = np.diff(bounds)[:, None]
    assert _rel(baseline_term_estimate(trajs, model, values, sched),
                (means[0] * sizes).sum(axis=0) / n) < 1e-12
    assert _rel(ddpo_gradient(trajs, model, sched, RAW),
                (means[2] * sizes).sum(axis=0) / n) < 1e-12


def test_grouped_walk_does_not_depend_on_worker_count(monkeypatch):
    # three shards over one, two and three processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    model, sched, trajs = desk_setup(n=600)
    values = 0.1 * np.arange(1, sched.T + 1) + trajs.class_ids[:, None]
    out = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CGRU_THREADS", threads)
        out.append(group_estimates(trajs, model, values, EstimatorConfig(),
                                   sched, ["baseline", "cgru"], [100, 300]))
    for est, clips in out[1:]:
        assert est.tobytes() == out[0][0].tobytes()
        assert clips == out[0][1]


def test_per_sample_scores_do_not_depend_on_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    policy, sched = build_toy(0.5)
    trajs = sample_toy_trajectories(policy, sched, 1000, seed=3)
    out = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CGRU_THREADS", threads)
        out.append(per_sample_scores(trajs, policy, sched).tobytes())
    assert out[1] == out[0] and out[2] == out[0]


def test_group_cuts_must_rise_inside_the_batch(monkeypatch):
    model, sched, trajs = desk_setup(n=6)
    runs = []
    run = nets._run
    monkeypatch.setattr(nets, "_run",
                        lambda *args, **kw: runs.append(1) or run(*args, **kw))
    for cuts in ([0, 3], [3, 6], [4, 2], [3, 3]):
        with pytest.raises(ValueError, match="cuts"):
            group_estimates(trajs, model, None, RAW, sched, ["ddpo"], cuts)
    # every other input is refused before the walk's first forward pass too
    values = np.zeros((len(trajs), sched.T))
    with pytest.raises(ValueError, match="known kinds are"):
        group_estimates(trajs, model, values, RAW, sched, ["cgru", "rloo"])
    for kind in ("cgru", "baseline"):
        with pytest.raises(ShapeMismatch):
            group_estimates(trajs, model, values[:, 1:], RAW, sched,
                            ["score", kind])
    with pytest.raises(ShapeMismatch):
        group_estimates(trajs, model, None, RAW, sched, ["baseline"])
    trajs.rewards = None
    for kind in ("cgru", "ddpo"):
        with pytest.raises(ValueError, match="no rewards"):
            group_estimates(trajs, model, values, RAW, sched, ["score", kind])
    assert runs == []


def test_an_empty_batch_is_an_error():
    model, sched, trajs = desk_setup(n=4)
    empty = trajs[:0]
    values = np.zeros((0, sched.T))
    with pytest.raises(ValueError, match="empty batch"):
        group_estimates(empty, model, values, RAW, sched, ["cgru", "ddpo"])
    with pytest.raises(ValueError, match="empty batch"):
        per_sample_scores(empty, model, sched)


def test_per_sample_scores_equal_the_per_row_loop():
    model, sched, trajs = desk_setup(n=7, float64=True)
    scores = per_sample_scores(trajs, model, sched)
    ones = np.ones((1, sched.T))
    for i in range(len(trajs)):
        row = baseline_term_estimate(trajs[i:i + 1], model, ones, sched)
        assert _rel(scores[i], row) < 1e-12
