"""Peak allocations of the batch passes that hold per-row data.

tracemalloc sees numpy's data buffers, so the peak it reports during a
call bounds every array the call builds, its result included.
"""

import tracemalloc

import numpy as np

from cgru import rng as rngmod
from cgru.critic import CriticBuffer, build_critic, critic_train
from cgru.diffusion import build_eps_net, make_schedule, sample_trajectories


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_critic_train_builds_no_per_row_film_table(monkeypatch):
    # an (n, t_embed_dim) array of film rows alone would reach the bound;
    # the rows come from the (T + 1)-row t_table one minibatch at a time
    monkeypatch.setenv("CGRU_THREADS", "1")
    n, T, K, t_embed_dim = 20_000, 50, 8, 32
    r = rngmod.stream(2, rngmod.PHASE_DIAG, 40)
    buffer = CriticBuffer(x=r.standard_normal((n, 2)),
                          class_ids=r.integers(0, K, n),
                          ts=r.integers(1, T + 1, n), r=r.standard_normal(n))
    critic = build_critic(2, K, T, t_embed_dim=t_embed_dim,
                          rng=rngmod.stream(2, rngmod.PHASE_INIT, 1))
    peak, _ = _peak_bytes(lambda: critic_train(
        critic, buffer, epochs=1, batch_size=256,
        rng=rngmod.stream(2, rngmod.PHASE_CRITIC_TRAIN)))
    assert peak < n * t_embed_dim * 8, peak


def test_sample_trajectories_writes_rollouts_in_place(monkeypatch):
    # each shard draws and walks its own slice of the returned arrays: no
    # per-shard parts, no concatenated copy, no reversed logp copy
    monkeypatch.setenv("CGRU_THREADS", "1")
    T, K = 50, 4
    model = build_eps_net(2, K, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=T)
    n = 2 * rngmod.SHARD + 1
    peak, ro = _peak_bytes(lambda: sample_trajectories(
        model, np.arange(n) % K, make_schedule(T, 1e-4, 0.02), 3,
        rngmod.PHASE_DIAG))
    assert peak < 1.5 * (ro.latents.nbytes + ro.logp.nbytes), peak
