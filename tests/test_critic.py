"""Value-net conditioning, buffer construction, training, and the
timestep-ablation machinery."""

import numpy as np
import pytest

from cgru import rng as rngmod
from cgru.critic import (CriticBuffer, ablation_compare, build_critic,
                         build_critic_buffer, critic_mse, critic_train,
                         critic_values)
from cgru.diffusion import (build_eps_net, make_schedule, one_hot,
                            sample_trajectories)
from cgru.policy_grad import state_values
from cgru.rewards import RewardSpec, assign_rewards


def small_critic(T=10, K=4, aware=True, idx=1):
    return build_critic(2, K, T, hidden=16, t_embed_dim=8,
                        rng=rngmod.stream(0, rngmod.PHASE_INIT, idx),
                        timestep_aware=aware)


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
    aware = small_critic(aware=True)
    blind = small_critic(aware=False)
    x = np.array([[0.5, -0.5]])
    onehot = one_hot([1], 4)
    aware_vals = {t: critic_values(aware, x, onehot, t)[0] for t in (1, 5, 10)}
    blind_vals = {t: critic_values(blind, x, onehot, t)[0] for t in (1, 5, 10)}
    assert len({round(v, 12) for v in blind_vals.values()}) == 1
    assert len({round(v, 12) for v in aware_vals.values()}) == 3


def test_state_values_matches_batched_critic_values():
    critic = small_critic()
    x = rngmod.stream(2, rngmod.PHASE_DIAG, 31).standard_normal((3, 2))
    onehot = one_hot([0, 1, 3], 4)
    batch = critic_values(critic, x, onehot, 4)
    for i, k in enumerate((0, 1, 3)):
        (one,) = state_values(critic, x[i], k, 4)
        assert np.isclose(one, batch[i])
    with pytest.raises(ValueError):
        state_values(critic, x[0], 0, 11)


def buffer_setup():
    model = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=10)
    sched = make_schedule(10, 1e-4, 0.02)
    spec = RewardSpec("mode_distance", center=(0.0, 0.0), scale=10.0)
    return model, sched, spec


def test_build_critic_buffer_covers_every_timestep():
    model, sched, spec = buffer_setup()
    class_ids = [0, 0, 2]
    buf = build_critic_buffer(model, class_ids, spec, None, sched, seed=7)
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
    again = build_critic_buffer(model, class_ids, spec, None, sched, seed=7)
    assert np.array_equal(buf.ts, again.ts)
    assert np.array_equal(buf.x, again.x)
    moved = build_critic_buffer(model, class_ids, spec, None, sched, seed=7,
                                first_index=50)
    assert not np.array_equal(buf.x, moved.x)


def test_build_critic_buffer_row_order():
    # row k holds x_t of trajectory i at step t, where (i, t - 1) is the
    # divmod by T of the k-th entry of the shuffle stream's permutation,
    # which sits just past the rollouts' own noise streams
    model, sched, spec = buffer_setup()
    class_ids = np.array([1, 3, 0, 2])
    n, T = len(class_ids), sched.T
    buf = build_critic_buffer(model, class_ids, spec, None, sched, seed=7,
                              first_index=20)
    rollouts = sample_trajectories(model, class_ids, sched, 7,
                                   rngmod.PHASE_CRITIC_BUFFER, first_index=20)
    assign_rewards(rollouts, spec)
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
    aware_mse, blind_mse = ablation_compare(buf, seed=0, T=10, n_classes=4,
                                            hidden=16, t_embed_dim=8,
                                            epochs=30, batch_size=64, lr=3e-3)
    assert aware_mse < blind_mse
    # the blind model's floor is the variance of t over the buffer,
    # around 8.25 for uniform t in 1..10
    assert blind_mse > 4.0
    assert aware_mse < 2.0


def test_ablation_needs_timestep_spread():
    buf = synthetic_buffer(lambda x, k, t: 1.0, n=50)
    single_t = buf[buf.ts == buf.ts[0]]
    with pytest.raises(ValueError):
        ablation_compare(single_t, seed=0, T=10, n_classes=4)
