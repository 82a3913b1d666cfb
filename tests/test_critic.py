"""Value-net conditioning, buffer construction, training, and the
timestep-ablation machinery."""

import dataclasses
import functools
import os

import numpy as np
import pytest

from cgru import diag, pipeline
from cgru import rng as rngmod
from cgru.critic import (Critic, CriticBuffer, ablation_compare, build_critic,
                         build_critic_buffer, critic_mse, critic_train,
                         critic_values, value_matrix)
from cgru.diffusion import (build_eps_net, make_schedule, one_hot,
                            sample_trajectories)
from cgru.nets import backward, forward
from cgru.rewards import assign_rewards, mode_distance_reward

from conftest import float64_twin, tiny_config


def small_critic(T=10, K=4, idx=1):
    return build_critic(2, K, T, hidden=16, t_embed_dim=8,
                        rng=rngmod.stream(0, rngmod.PHASE_INIT, idx))


def synthetic_buffer(fn, n=600, T=10, K=4, seed=5):
    """Buffer whose targets come from a known function of (x, class, t)."""
    rng = rngmod.stream(seed, rngmod.PHASE_DIAG, 30)
    rows = []
    for _ in range(n):
        x = rng.standard_normal(2)
        k = int(rng.integers(0, K))
        t = int(rng.integers(1, T + 1))
        rows.append((x, k, t, fn(x, k, t)))
    xs, ks, ts, rs = zip(*rows)
    return CriticBuffer(x=np.stack(xs), class_ids=np.array(ks),
                        ts=np.array(ts), r=np.array(rs, dtype=np.float64))


def test_blind_critic_ignores_timestep():
    # the blind arm fits and scores every row at t = 0, so reordering the
    # buffer's timesteps moves the aware critic's error but not the blind one's
    buf = synthetic_buffer(lambda x, k, t: float(t), n=200)
    reordered = dataclasses.replace(buf, ts=buf.ts[::-1].copy())
    kw = dict(seed=0, first_index=0, T=10, n_classes=4, hidden=16,
              t_embed_dim=8, epochs=2)
    aware, blind = ablation_compare(buf, **kw)
    aware_reordered, blind_reordered = ablation_compare(reordered, **kw)
    assert blind_reordered == blind
    assert aware_reordered != aware


def test_float32_critic_matches_its_float64_twin():
    # the same weights and inputs through the float32 critic and through
    # its float64 twin; float32 rounding (eps 1.2e-7) in three layers
    # measured about 3e-7 of the largest entry, so 64 eps is the bound
    critic = build_critic(2, 8, 50, rng=rngmod.stream(0, rngmod.PHASE_INIT, 1))
    twin = float64_twin(critic.net)
    assert critic.net.theta.dtype == np.float32
    rng = rngmod.stream(0, rngmod.PHASE_DIAG, 40)
    n = 256
    inputs = critic.inputs(rng.standard_normal((n, 2)),
                           one_hot(rng.integers(0, 8, n), 8))
    cond = critic.t_table[rng.integers(1, 51, n)]
    w = rng.standard_normal((n, 1))
    tol = 64 * np.finfo(np.float32).eps
    results = []
    for net in (critic.net, twin):
        tape = []
        out = forward(net, inputs, cond, tape)
        grads = backward(net, w, tape)
        assert out.dtype == grads.dtype == net.theta.dtype
        results.append((out, grads))
    (out32, g32), (out64, g64) = results
    assert np.abs(out32 - out64).max() <= tol * np.abs(out64).max()
    assert np.abs(g32 - g64).max() <= tol * np.abs(g64).max()


def test_value_matrix_matches_single_state_critic_values():
    # at float64, so that stacking is held to 1e-12 and not to float32's
    # rounding; the float32 critic's stacks are compared bit for bit below
    small = small_critic()
    critic = Critic(float64_twin(small.net), T=10, n_classes=4, t_embed_dim=8)
    model = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=10)
    sched = make_schedule(10, 1e-4, 0.02)
    rollouts = sample_trajectories(model, [0, 1, 3], sched, 2,
                                   rngmod.PHASE_DIAG, first_index=31)
    values = value_matrix(critic, rollouts)
    assert values.shape == (3, 10) and values.dtype == np.float64
    for i, k in enumerate((0, 1, 3)):
        for t in range(1, 11):
            x_t = rollouts.latents[i, 10 - t][None, :]
            (one,) = critic_values(critic, x_t, one_hot([k], 4), t)
            assert np.isclose(values[i, t - 1], one, rtol=1e-12, atol=0), (i, t)
    with pytest.raises(ValueError):
        critic_values(critic, rollouts.latents[0, :1], one_hot([0], 4), 11)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_value_matrix_has_the_bits_of_per_trajectory_calls(monkeypatch,
                                                           threads):
    # 600 trajectories make 38 critic stacks, the last one short; at two or
    # three processes the sampler forks, and the value pass runs in the caller
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setenv("CGRU_THREADS", threads)
    T, K = 50, 8
    critic = build_critic(2, K, T, rng=rngmod.stream(0, rngmod.PHASE_INIT, 1))
    model = build_eps_net(2, K, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=T)
    rollouts = sample_trajectories(model, np.arange(600) % K,
                                   make_schedule(T, 1e-4, 0.02), 4,
                                   rngmod.PHASE_DIAG)
    values = value_matrix(critic, rollouts)
    assert critic.net.theta.dtype == np.float32 and values.dtype == np.float64
    ts = np.arange(T, 0, -1)
    for i, c in enumerate(rollouts.class_ids):
        want = critic_values(critic, rollouts.latents[i, :T],
                             one_hot(np.full(T, c), K), ts)
        assert np.array_equal(values[i, ts - 1], want), i


def buffer_setup():
    model = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=10)
    sched = make_schedule(10, 1e-4, 0.02)
    reward = functools.partial(mode_distance_reward, center=(0.0, 0.0),
                               scale=10.0)
    return model, sched, reward


def test_build_critic_buffer_covers_every_timestep():
    model, sched, reward = buffer_setup()
    class_ids = [0, 0, 2]
    buf = build_critic_buffer(model, class_ids, reward, sched, seed=7)
    assert len(buf) == len(class_ids) * 10
    # the buffer is shuffled, but grouping by the (continuous, hence
    # unique per trajectory) terminal reward recovers each rollout: every
    # timestep appears once per trajectory with a single class id
    rewards = np.unique(buf.r)
    assert len(rewards) == len(class_ids)
    for r in rewards:
        group = buf.r == r
        assert sorted(buf.ts[group]) == list(range(1, 11))
        assert len(np.unique(buf.class_ids[group])) == 1
    assert sorted(buf.class_ids[buf.ts == 1]) == [0, 0, 2]
    # identical build is identically ordered, fresh first_index reshuffles
    again = build_critic_buffer(model, class_ids, reward, sched, seed=7)
    assert np.array_equal(buf.ts, again.ts)
    assert np.array_equal(buf.x, again.x)
    moved = build_critic_buffer(model, class_ids, reward, sched, seed=7,
                                first_index=50)
    assert not np.array_equal(buf.x, moved.x)


def test_build_critic_buffer_row_order():
    # row k holds x_t of trajectory i at step t, where (i, t - 1) is the
    # divmod by T of the k-th entry of the shuffle stream's permutation,
    # which sits just past the rollouts' own noise streams
    model, sched, reward = buffer_setup()
    class_ids = np.array([1, 3, 0, 2])
    n, T = len(class_ids), sched.T
    buf = build_critic_buffer(model, class_ids, reward, sched, seed=7,
                              first_index=20)
    rollouts = sample_trajectories(model, class_ids, sched, 7,
                                   rngmod.PHASE_CRITIC_BUFFER, first_index=20)
    assign_rewards(rollouts, reward)
    shuffle = rngmod.stream(7, rngmod.PHASE_CRITIC_BUFFER, 20 + n)
    perm = shuffle.permutation(n * T)
    for k, flat in enumerate(perm):
        i, t = int(flat) // T, int(flat) % T + 1
        assert np.array_equal(buf.x[k], rollouts.latents[i, T - t]), k
        assert buf.ts[k] == t
        assert buf.class_ids[k] == class_ids[i]
        assert buf.r[k] == rollouts.rewards[i]


def test_critic_train_fits_known_function():
    # target depends on x only; a few epochs should cut the error a lot
    buf = synthetic_buffer(lambda x, k, t: 3.0 * x[0], n=800)
    critic = small_critic()
    before = critic_mse(critic, buf)
    losses = critic_train(critic, buf, epochs=30, batch_size=64,
                          rng=rngmod.stream(1, rngmod.PHASE_CRITIC_TRAIN),
                          lr=3e-3)
    after = critic_mse(critic, buf)
    assert len(losses) == 30
    assert after < 0.2 * before
    assert losses[-1] < losses[0]


def test_critic_train_validates():
    critic = small_critic()
    with pytest.raises(ValueError):
        critic_train(critic, [], epochs=1, batch_size=8,
                     rng=rngmod.stream(0, rngmod.PHASE_CRITIC_TRAIN))
    buf = synthetic_buffer(lambda x, k, t: 1.0, n=8)
    with pytest.raises(ValueError):
        critic_train(critic, buf, epochs=0, batch_size=8,
                     rng=rngmod.stream(0, rngmod.PHASE_CRITIC_TRAIN))


def test_ablation_timestep_signal_separates_models():
    # reward is a pure function of t, so the blind critic can only learn
    # the average while the aware one can match it exactly
    buf = synthetic_buffer(lambda x, k, t: float(t), n=1200, T=10)
    aware_mse, blind_mse = ablation_compare(buf, seed=0, first_index=0,
                                            T=10, n_classes=4, hidden=16,
                                            t_embed_dim=8, epochs=30,
                                            batch_size=64, lr=3e-3)
    assert aware_mse < blind_mse
    # the blind model's floor is the variance of t over the buffer,
    # around 8.25 for uniform t in 1..10
    assert blind_mse > 4.0
    assert aware_mse < 2.0


def test_ablation_streams_lie_in_their_block_and_follow_the_seed(
        tmp_path, monkeypatch):
    # every stream diag ablation keys lies in its own index block, and a
    # run at another seed draws other streams
    real, keys = rngmod.stream, {}
    for seed in (0, 1):
        cfg = tiny_config(tmp_path / str(seed), [
            f"seed={seed}", "diffusion.T=5", "eps_net.hidden=16",
            "critic.hidden=16"])
        # each seed's member holds a buffer's 257 streams and, from + 500,
        # the fit's 3; the block's one span runs to the last fit's end
        ablation = rngmod.BLOCKS["ablation"]
        block = [range(lo + offset, lo + offset + n)
                 for lo in range(ablation.first, ablation.first
                                 + ablation.count * ablation.stride,
                                 ablation.stride)
                 for offset, n in ((0, 257), (500, 3))]
        assert rngmod.windows(cfg, ["ablation"]) == [
            (rngmod.PHASE_DIAG, ablation.first, block[-1].stop, "ablation")]
        model = pipeline._build_model(cfg)      # untrained: keys only
        drawn = keys[seed] = []

        def spy(*key):
            drawn.append(key)
            return real(*key)

        with monkeypatch.context() as mp:
            mp.setattr(diag, "load", lambda cfg, name: model)
            mp.setattr(rngmod, "stream", spy)
            diag.diag_ablation(cfg)
        assert drawn, seed
        for key in drawn:
            assert key[1] == rngmod.PHASE_DIAG, key
            assert any(key[2] in span for span in block), key
    assert not set(keys[0]) & set(keys[1])


def test_ablation_needs_timestep_spread():
    buf = synthetic_buffer(lambda x, k, t: 1.0, n=50)
    single_t = buf[buf.ts == buf.ts[0]]
    with pytest.raises(ValueError):
        ablation_compare(single_t, seed=0, first_index=0, T=10,
                         n_classes=4)
