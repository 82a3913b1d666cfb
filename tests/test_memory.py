"""Peak allocations of the batch passes that hold per-row data, and the
page faults of the score walk's temporaries.

tracemalloc sees numpy's data buffers, so the peak it reports during a
call bounds every array the call builds, its result included. Each call
runs with BLAS at one thread, as every command runs: two forked workers
each on a BLAS thread per core oversubscribe a 2-core machine, and made
the two-worker cases about five times slower.
"""

import ctypes
import os
import subprocess
import sys
import tracemalloc

import numpy as np

import pytest

from cgru import procs
from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides
from cgru.critic import CriticBuffer, build_critic, critic_train
from cgru.diag import norm_sweep
from cgru.diffusion import (Rollouts, build_eps_net, make_schedule,
                            sample_trajectories)
from cgru.nets import forward
from cgru.policy_grad import EstimatorConfig, group_estimates
from cgru.rewards import build_classifier_net


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        with procs.blas_pinned():
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_score_walk_peak_does_not_grow_with_rows(monkeypatch, threads):
    # the walk of diag unbiasedness (baseline and cgru terms, the default
    # denoiser) holds O(workers) shard partials and per-shard coefficient
    # and one-hot blocks, so 16x the rows must not move its peak much
    monkeypatch.setenv("CGRU_THREADS", threads)
    T, K = 10, 8
    model = build_eps_net(2, K, rng=rngmod.stream(0, rngmod.PHASE_INIT), T=T)
    sched = make_schedule(T, 1e-4, 0.02)
    peaks = []
    for n in (2 * rngmod.SHARD, 32 * rngmod.SHARD):
        r = rngmod.stream(1, rngmod.PHASE_DIAG, n)
        rollouts = Rollouts(np.arange(n) % K, r.standard_normal((n, T + 1, 2)),
                            r.standard_normal((n, T)))
        rollouts.rewards = r.standard_normal(n)
        values = r.standard_normal((n, T))
        peak, _ = _peak_bytes(lambda: group_estimates(
            rollouts, model, values, EstimatorConfig(), sched,
            ["baseline", "cgru"]))
        peaks.append(peak)
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("threads", ["1", "2"])
def test_streamed_sweep_peak_does_not_grow_with_rows(monkeypatch, tmp_path,
                                                     threads):
    # each shard of the unbiasedness sweep samples, rewards and values its
    # own rows, so no per-row array of the batch exists: 16x the rows, 2
    # shards against 32, must not move its peak much
    monkeypatch.setenv("CGRU_THREADS", threads)
    T, K = 5, 8
    cfg = apply_overrides(RunConfig(), [f"diffusion.T={T}",
                                        f"out_dir={tmp_path}"])
    model = build_eps_net(2, K, rng=rngmod.stream(0, rngmod.PHASE_INIT), T=T)
    critic = build_critic(2, K, T, rng=rngmod.stream(0, rngmod.PHASE_INIT, 1))
    clf = build_classifier_net(2, K, 64, rngmod.stream(0, rngmod.PHASE_INIT, 2))
    peaks = []
    for n in (2 * rngmod.SHARD, 32 * rngmod.SHARD):
        peak, _ = _peak_bytes(lambda: norm_sweep(cfg, model, critic, clf,
                                                 (100, n)))
        peaks.append(peak)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_untaped_classifier_forward_keeps_two_hidden_arrays():
    # each dense layer builds its output in one array, adding its bias in
    # place, so a hidden layer holds its input and its output, not a third
    # temporary
    n, hidden = 10_000, 64
    net = build_classifier_net(2, 8, hidden,
                               rngmod.stream(0, rngmod.PHASE_INIT, 2))
    x = rngmod.stream(0, rngmod.PHASE_DIAG, 3).standard_normal((n, 2))
    peak, _ = _peak_bytes(lambda: forward(net, x))
    assert peak < 2.5 * n * hidden * 8, peak


_PADDED_SWEEP = """
import resource, sys
from cgru import pipeline
from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides
from cgru.critic import build_critic
from cgru.diag import norm_sweep
from cgru.diffusion import build_eps_net
from cgru.rewards import build_classifier_net

T, K = 5, 8
cfg = apply_overrides(RunConfig(), [f"diffusion.T={T}",
                                    f"out_dir={sys.argv[1]}"])
model = build_eps_net(2, K, rng=rngmod.stream(0, rngmod.PHASE_INIT), T=T)
critic = build_critic(2, K, T, rng=rngmod.stream(0, rngmod.PHASE_INIT, 1))
clf = build_classifier_net(2, K, 64, rngmod.stream(0, rngmod.PHASE_INIT, 2))

@pipeline.locked_run
def faults(cfg):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    norm_sweep(cfg, model, critic, clf, (100, 8 * rngmod.SHARD))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults(cfg))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the heap pad is glibc's mallopt")
def test_padded_heap_keeps_the_walk_from_refaulting(tmp_path):
    # the walk's (256, 128) float64 temporaries are 256 KiB each; with the
    # heap top padded on entry to a command their pages stay mapped, so 8
    # shards of a fresh process's sweep fault about 1,200 pages, against
    # about 13,800 when glibc trims them after every free
    src = os.path.dirname(os.path.dirname(rngmod.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PADDED_SWEEP, str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": src, "CGRU_THREADS": "1"},
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 4_000, out.stdout
