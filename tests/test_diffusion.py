"""Schedule math, forward/reverse process identities, dataset geometry."""

import functools
import math
import os

import numpy as np
import pytest
import scipy.stats

from cgru import policy_grad
from cgru import rng as rngmod
from cgru.diffusion import (build_eps_net, ddpm_train_step, gaussian_logprob,
                            make_schedule, mode_centers, one_hot, q_sample,
                            reverse_mean, rollout_from, sample_dataset,
                            sample_trajectories, schedule_from_betas)
from cgru.errors import ScheduleError, ShapeMismatch
from cgru.nets import adam_init, backward, forward
from cgru.policy_grad import EstimatorConfig, group_estimates
from cgru.rewards import assign_rewards, mode_distance_reward

from conftest import float64_eps_twin


def default_sched():
    return make_schedule(50, 1e-4, 0.02)


def tiny_model(T=10, K=4):
    return build_eps_net(2, K, hidden=16, t_embed_dim=8,
                         rng=rngmod.stream(0, rngmod.PHASE_INIT), T=T)


def test_schedule_endpoints_and_shape():
    sched = default_sched()
    assert sched.T == 50
    assert sched.betas[0] == 1e-4
    assert sched.betas[-1] == 0.02
    # linear spacing
    diffs = np.diff(sched.betas)
    assert np.allclose(diffs, diffs[0])


def test_schedule_identities():
    sched = default_sched()
    assert np.allclose(sched.alphas, 1.0 - sched.betas)
    assert np.allclose(sched.alpha_bars, np.cumprod(1.0 - sched.betas))
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert 0.0 < sched.alpha_bars[-1] < 1.0
    # fixed-variance reverse kernel: sigma_t^2 = beta_t
    assert np.allclose(sched.sigmas, np.sqrt(sched.betas))


def test_schedule_rejects_degenerate():
    with pytest.raises(ScheduleError):
        make_schedule(0, 1e-4, 0.02)
    with pytest.raises(ScheduleError):
        make_schedule(10, 0.0, 0.02)
    with pytest.raises(ScheduleError):
        make_schedule(10, 1e-4, 1.0)
    with pytest.raises(ScheduleError):
        schedule_from_betas([])
    with pytest.raises(ScheduleError, match="alpha_bar_1"):
        make_schedule(10, 1e-300, 1e-300)


def test_q_sample_matches_iterated_one_step_corruption():
    # The closed form sqrt(abar_t) x0 + sqrt(1-abar_t) eps must agree in
    # distribution with composing the one-step kernels
    # x_t = sqrt(1-beta_t) x_{t-1} + sqrt(beta_t) xi_t. With a shared
    # elementwise-normal source both give Gaussians with identical mean
    # sqrt(abar_t) x0 and variance 1-abar_t, checked here by moments.
    T = 200
    sched = make_schedule(T, 1e-4, 0.02)
    x0 = np.array([1.5, -0.5])
    n = 20000
    rng = rngmod.stream(11, rngmod.PHASE_DIAG, 50)
    for t in (1, 60, 200):
        eps = rng.standard_normal((n, 2))
        direct = q_sample(np.tile(x0, (n, 1)), t, eps, sched)

        chain = np.tile(x0, (n, 1))
        for s in range(1, t + 1):
            xi = rng.standard_normal((n, 2))
            chain = np.sqrt(1.0 - sched.beta(s)) * chain \
                + np.sqrt(sched.beta(s)) * xi

        want_mean = np.sqrt(sched.alpha_bar(t)) * x0
        want_var = 1.0 - sched.alpha_bar(t)
        for sample in (direct, chain):
            se_mean = np.sqrt(want_var / n)
            assert np.all(np.abs(sample.mean(0) - want_mean) < 5 * se_mean)
            # chi-square-ish tolerance for the variance
            assert np.all(np.abs(sample.var(0) - want_var)
                          < 5 * want_var * np.sqrt(2.0 / n))


def test_q_sample_validates():
    sched = default_sched()
    with pytest.raises(ScheduleError):
        q_sample(np.zeros(2), 0, np.zeros(2), sched)
    with pytest.raises(ScheduleError):
        q_sample(np.zeros(2), 51, np.zeros(2), sched)
    with pytest.raises(ShapeMismatch):
        q_sample(np.zeros(2), 1, np.zeros(3), sched)


def test_gaussian_logprob_pinned_and_scipy():
    # standard normal at the origin: -0.5 log(2 pi) per dimension
    (lp,) = gaussian_logprob(np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    assert math.isclose(lp, -0.9189385332046727, rel_tol=1e-12)
    (lp,) = gaussian_logprob(np.zeros((1, 3)), np.zeros((1, 3)), 1.0)
    assert math.isclose(lp, 3 * -0.9189385332046727, rel_tol=1e-12)

    rng = rngmod.stream(2, rngmod.PHASE_DIAG, 9)
    x = rng.standard_normal(4)
    mu = rng.standard_normal(4)
    sigma = 0.37
    want = scipy.stats.norm.logpdf(x, loc=mu, scale=sigma).sum()
    (lp,) = gaussian_logprob(x[None], mu[None], sigma)
    assert math.isclose(lp, want, rel_tol=1e-12)

    batch = rng.standard_normal((5, 4))
    mus = rng.standard_normal((5, 4))
    got = gaussian_logprob(batch, mus, sigma)
    want = scipy.stats.norm.logpdf(batch, loc=mus, scale=sigma).sum(axis=1)
    assert np.allclose(got, want, rtol=1e-12)

    with pytest.raises(ValueError):
        gaussian_logprob(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
    with pytest.raises(ShapeMismatch):
        gaussian_logprob(np.zeros(2), np.zeros(2), 1.0)


def test_mode_centers_geometry():
    centers = mode_centers(8, 4.0)
    assert centers.shape == (8, 2)
    assert np.allclose(np.linalg.norm(centers, axis=1), 4.0)
    assert np.allclose(centers[0], [4.0, 0.0])
    assert np.allclose(centers[2], [0.0, 4.0], atol=1e-12)
    assert np.allclose(centers[4], [-4.0, 0.0], atol=1e-12)
    # evenly spaced angles
    ang = np.arctan2(centers[:, 1], centers[:, 0])
    assert np.allclose(np.diff(np.unwrap(ang)), 2 * np.pi / 8)


def test_sample_dataset_geometry_and_labels():
    X, y = sample_dataset(4000, rngmod.stream(1, rngmod.PHASE_DATASET),
                          n_classes=8, radius=4.0, stddev=0.3)
    assert X.shape == (4000, 2) and y.shape == (4000,)
    centers = mode_centers(8, 4.0)
    for k in range(8):
        pts = X[y == k]
        assert len(pts) > 300           # roughly balanced multinomial draw
        d = np.linalg.norm(pts - centers[k], axis=1)
        assert d.mean() < 4 * 0.3       # points hug their own mode
        assert np.abs(pts.std(axis=0) - 0.3).max() < 0.05


def test_one_hot():
    v = one_hot([0, 2], 4)
    assert np.array_equal(v, [[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        one_hot([4], 4)
    with pytest.raises(ValueError):
        one_hot([-1], 4)


def test_eps_inputs_are_x_then_the_step_embedding_then_the_class():
    # the bits of the concatenation in the net's dtype, for a scalar step
    # of either integer type and for one step per row; an x of the wrong
    # width is refused
    model = tiny_model(T=6, K=3)
    r = rngmod.stream(0, rngmod.PHASE_DIAG, 41)
    x = r.standard_normal((4, 2))
    onehot = one_hot([0, 2, 1, 0], 3)
    for t in (3, np.int64(6), np.array([1, 6, 0, 2])):
        emb = np.broadcast_to(model.t_table[t], (4, 8))
        want = np.concatenate([x, emb, onehot],
                              axis=1).astype(model.net.theta.dtype)
        assert model.inputs(x, t, onehot).tobytes() == want.tobytes()
    for bad in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2)):
        with pytest.raises(ShapeMismatch, match="x shape"):
            model.inputs(bad, 3, onehot)
    with pytest.raises(ShapeMismatch, match="onehot"):
        model.inputs(x, 3, onehot[:3])
    for bad_t in (7, -1, np.int64(7)):
        with pytest.raises(ValueError, match="timestep"):
            model.inputs(x, bad_t, onehot)


def test_float32_eps_net_matches_its_float64_twin(monkeypatch):
    # the default-sized denoiser against its float64 twin, as test_critic
    # holds the critic: float32 rounding in three layers measured 2 and 4
    # float32 epsilons of the largest forward and backward entry, and 3 in
    # the walk below, so 64 eps is the bound
    model = build_eps_net(2, 8, rng=rngmod.stream(0, rngmod.PHASE_INIT), T=50)
    twin = float64_eps_twin(model)
    assert model.net.theta.dtype == np.float32
    tol = 64 * np.finfo(np.float32).eps
    rng = rngmod.stream(0, rngmod.PHASE_DIAG, 42)
    n = 256
    inputs = model.inputs(rng.standard_normal((n, 2)), rng.integers(1, 51, n),
                          one_hot(rng.integers(0, 8, n), 8))
    w = rng.standard_normal((n, 2))
    results = []
    for net in (model.net, twin.net):
        tape = []
        out = forward(net, inputs, tape=tape)
        grads = backward(net, w, tape)
        assert out.dtype == grads.dtype == net.theta.dtype
        results.append((out, grads))
    (out32, g32), (out64, g64) = results
    assert np.abs(out32 - out64).max() <= tol * np.abs(out64).max()
    assert np.abs(g32 - g64).max() <= tol * np.abs(g64).max()
    assert model.eps(inputs[:, :2], 7, inputs[:, -8:]).dtype == np.float64

    # one two-kind walk of a 16-row rollout of the float32 model, on it
    # and on the twin; on the rollout's own rows the float32 walk's
    # recomputed log-probs are the rollout's, bit for bit, so every
    # likelihood ratio is exactly 1 (AC3's zero gap rests on this)
    sched = default_sched()
    rollouts = sample_trajectories(model, np.arange(16) % 8, sched, 0,
                                   rngmod.PHASE_DIAG, first_index=43)
    assign_rewards(rollouts, functools.partial(
        mode_distance_reward, center=(0.0, 0.0), scale=10.0))
    values = 0.1 * np.arange(1, 51) + rollouts.class_ids[:, None]
    pairs = []
    weigh = policy_grad._importance_weights

    def recording(logp_new, logp_old, cfg):
        pairs.append((logp_new, logp_old))
        return weigh(logp_new, logp_old, cfg)

    monkeypatch.setattr(policy_grad, "_importance_weights", recording)
    walks = [group_estimates(rollouts, m, values, EstimatorConfig(), sched,
                             ["cgru", "ddpo"]) for m in (model, twin)]
    assert len(pairs) == 2 * 50
    for logp_new, logp_old in pairs[:50]:
        assert logp_new.tobytes() == logp_old.tobytes()
    (est32, clips32), (est64, clips64) = walks
    assert est32.dtype == np.float64 and clips32 == clips64 == [0, 0]
    for k in range(2):
        assert np.abs(est32[k] - est64[k]).max() \
            <= tol * np.abs(est64[k]).max(), k


def test_trajectory_logp_matches_manual_recomputation():
    # stored behavior log-probs must equal the Gaussian density of each
    # recorded transition under the recorded previous latent
    model = tiny_model()
    sched = make_schedule(10, 1e-4, 0.02)
    rollouts = sample_trajectories(model, [1, 3], sched, seed=9,
                                   phase=rngmod.PHASE_DIAG, first_index=40)
    for i in range(len(rollouts)):
        onehot = one_hot(rollouts.class_ids[i:i + 1], 4)
        for t in range(1, sched.T + 1):
            x_t = rollouts.latents[i, sched.T - t][None, :]
            x_prev = rollouts.latents[i, sched.T - t + 1][None, :]
            mu = reverse_mean(model, x_t, t, onehot, sched)
            (lp,) = gaussian_logprob(x_prev, mu, sched.sigma(t))
            assert math.isclose(lp, rollouts.logp[i, t - 1], rel_tol=1e-10), t


def test_trajectory_shapes_and_x0():
    model = tiny_model()
    sched = make_schedule(10, 1e-4, 0.02)
    rollouts = sample_trajectories(model, [0, 2, 0], sched, 1,
                                   rngmod.PHASE_DIAG)
    assert len(rollouts) == 3
    assert rollouts.latents.shape == (3, 11, 2)
    assert rollouts.logp.shape == (3, 10)
    assert rollouts.T == 10
    assert rollouts.rewards is None
    assert np.array_equal(rollouts.x0, rollouts.latents[:, -1])
    # a slice is a sub-batch carrying whatever has been assigned
    rollouts.rewards = np.array([1.0, 2.0, 3.0])
    tail = rollouts[1:]
    assert len(tail) == 2 and tail.T == 10
    assert np.array_equal(tail.class_ids, [2, 0])
    assert np.array_equal(tail.latents, rollouts.latents[1:])
    assert np.array_equal(tail.rewards, [2.0, 3.0])
    with pytest.raises(ValueError):
        sample_trajectories(model, [4], sched, 1, rngmod.PHASE_DIAG)


@pytest.mark.parametrize("threads", ["2", "3"])
def test_rollouts_do_not_depend_on_worker_count(monkeypatch, threads):
    # three shards; a forked worker's rows reach the caller only through
    # the fold, so a lost row would leave np.empty's garbage behind
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    model = tiny_model()
    sched = make_schedule(10, 1e-4, 0.02)
    out = []
    for n_workers in ("1", threads):
        monkeypatch.setenv("CGRU_THREADS", n_workers)
        rollouts = sample_trajectories(model, np.arange(600) % 4, sched, 5,
                                       rngmod.PHASE_DIAG)
        out.append((rollouts.latents.tobytes(), rollouts.logp.tobytes()))
    assert out[1] == out[0]


def test_rollout_from_is_deterministic_and_respects_start():
    model = tiny_model()
    sched = make_schedule(10, 1e-4, 0.02)
    x_t = np.array([0.7, -0.2])
    a = rollout_from(model, 2, sched, x_t, t_start=6, seed=3,
                     phase=rngmod.PHASE_DIAG, n=5, first_index=60)
    b = rollout_from(model, 2, sched, x_t, t_start=6, seed=3,
                     phase=rngmod.PHASE_DIAG, n=5, first_index=60)
    assert np.array_equal(a, b)
    assert a.shape == (5, 2)
    c = rollout_from(model, 2, sched, x_t, t_start=6, seed=3,
                     phase=rngmod.PHASE_DIAG, n=5, first_index=65)
    assert not np.array_equal(a, c)


def test_ddpm_train_step_moves_loss_down():
    model = tiny_model(T=20)
    sched = make_schedule(20, 1e-4, 0.02)
    X, y = sample_dataset(800, rngmod.stream(4, rngmod.PHASE_DATASET),
                          n_classes=4, radius=4.0, stddev=0.3)
    opt = adam_init(model.net, lr=2e-3)
    rng = rngmod.stream(4, rngmod.PHASE_PRETRAIN)
    losses = []
    for step in range(400):
        idx = rng.integers(0, len(X), 64)
        losses.append(ddpm_train_step(model, X[idx], y[idx], sched, rng, opt))
    # the eps-prediction loss has a high irreducible floor; a clear
    # sustained decrease is what training should show at this budget
    assert np.mean(losses[-50:]) < 0.85 * np.mean(losses[:50])

