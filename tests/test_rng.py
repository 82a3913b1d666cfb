"""Counter-based stream identities and worker-count invariance."""

import sys
import threading
import time

import numpy as np
import pytest

from cgru import rng as rngmod
from cgru.diffusion import build_eps_net, make_schedule, sample_trajectories
from cgru.errors import ConfigError, Divergence


def test_same_triple_reproduces_draws():
    a = rngmod.stream(42, rngmod.PHASE_POLICY, 17).standard_normal(8)
    b = rngmod.stream(42, rngmod.PHASE_POLICY, 17).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_triples_differ():
    base = rngmod.stream(42, rngmod.PHASE_POLICY, 17).standard_normal(8)
    for seed, phase, idx in [(43, rngmod.PHASE_POLICY, 17),
                             (42, rngmod.PHASE_EVAL, 17),
                             (42, rngmod.PHASE_POLICY, 18)]:
        other = rngmod.stream(seed, phase, idx).standard_normal(8)
        assert not np.array_equal(base, other)


def test_stream_rejects_out_of_range():
    with pytest.raises(ValueError):
        rngmod.stream(0, 300)
    with pytest.raises(ValueError):
        rngmod.stream(0, rngmod.PHASE_POLICY, -1)
    with pytest.raises(ValueError):
        rngmod.stream(0, rngmod.PHASE_POLICY, 1 << 60)


def test_rekeyed_streams_draw_what_fresh_streams_draw():
    top = (1 << 56) - 1
    indices = [0, 1, 2, 17, 1999, top - 1, top]
    gens = rngmod.streams(42, rngmod.PHASE_POLICY, indices)
    for idx, gen in zip(indices, gens):
        fresh = rngmod.stream(42, rngmod.PHASE_POLICY, idx)
        # mixed draws leave a half-used buffer and a cached 32-bit word
        # behind; the next index must start clean anyway
        assert np.array_equal(gen.standard_normal((51, 2)),
                              fresh.standard_normal((51, 2)))
        assert np.array_equal(gen.integers(0, 1000, 3),
                              fresh.integers(0, 1000, 3))
        assert gen.random() == fresh.random()
    with pytest.raises(ValueError):
        next(rngmod.streams(0, rngmod.PHASE_POLICY, [top + 1]))


def test_shard_ranges_partition_exactly():
    for n in (0, 1, 7, 256, 1000):
        for chunk in (1, 3, 256):
            spans = rngmod.shard_ranges(n, chunk)
            covered = [i for lo, hi in spans for i in range(lo, hi)]
            assert covered == list(range(n))
            assert all(hi - lo <= chunk for lo, hi in spans)


def test_shard_ranges_do_not_depend_on_worker_count():
    # the shard layout is a constant of the algorithm; only concurrency
    # may change with the worker count
    out1 = rngmod.run_sharded(lambda lo, hi: (lo, hi), 600, workers=1)
    out4 = rngmod.run_sharded(lambda lo, hi: (lo, hi), 600, workers=4)
    assert out1 == out4 == rngmod.shard_ranges(600)


def test_run_sharded_threads_keep_callers_errstate():
    with np.errstate(over="ignore", invalid="ignore"):
        modes = rngmod.run_sharded(lambda lo, hi: np.geterr(), 600, workers=2)
    assert len(modes) == 3
    assert all(m["over"] == "ignore" and m["invalid"] == "ignore"
               for m in modes)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fold_takes_shards_in_order_and_bounds_the_ones_ahead(workers):
    # a slow fold lets the workers run ahead; no shard may start more than
    # 2 * workers shards past the last one folded
    n = 40 * rngmod.SHARD
    folded, lags = [], []
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            lags.append(lo // rngmod.SHARD - len(folded))
        return lo, hi

    def fold(result):
        time.sleep(0.001)
        folded.append(result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert rngmod.run_sharded(fn, n, workers, fold=fold) == []
    finally:
        sys.setswitchinterval(interval)
    assert folded == rngmod.shard_ranges(n)
    assert len(lags) == 40 and max(lags) <= 2 * workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_shard_stops_the_pass(workers):
    err = Divergence("unlearn_cgru iteration 7: non-finite values")
    started, folded = [], []
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            started.append(lo)
        if lo == rngmod.SHARD:
            raise err
        time.sleep(0.01)
        return lo

    with pytest.raises(Divergence) as info:
        rngmod.run_sharded(fn, 40 * rngmod.SHARD, workers, fold=folded.append)
    assert info.value is err
    assert folded == [0]
    assert len(started) <= 2 * workers + 1, started


def test_n_workers_env(monkeypatch):
    monkeypatch.delenv("CGRU_THREADS", raising=False)
    assert rngmod.n_workers() == 1
    monkeypatch.setenv("CGRU_THREADS", "4")
    assert rngmod.n_workers() == 4
    monkeypatch.setenv("CGRU_THREADS", "0")
    assert rngmod.n_workers() == 1
    monkeypatch.setenv("CGRU_THREADS", "lots")
    with pytest.raises(ConfigError):
        rngmod.n_workers()


def test_trajectories_invariant_to_worker_count(monkeypatch):
    model = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=10)
    sched = make_schedule(10, 1e-4, 0.02)
    class_ids = np.arange(9) % 4

    def rollouts():
        return sample_trajectories(model, class_ids, sched, seed=5,
                                   phase=rngmod.PHASE_DIAG, first_index=3)

    monkeypatch.setenv("CGRU_THREADS", "1")
    single = rollouts()
    monkeypatch.setenv("CGRU_THREADS", "3")
    pooled = rollouts()
    assert np.array_equal(single.latents, pooled.latents)
    assert np.array_equal(single.logp, pooled.logp)


def test_trajectory_streams_keyed_by_absolute_index():
    # a trajectory's noise comes from stream(seed, phase, first_index + i),
    # so the same absolute index reproduces the same path no matter what
    # else is in the batch (up to last-ulp kernel differences between
    # batch shapes)
    model = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT), T=10)
    sched = make_schedule(10, 1e-4, 0.02)
    class_ids = [1, 1, 1]
    batch = sample_trajectories(model, class_ids, sched, 5, rngmod.PHASE_DIAG,
                                first_index=100)
    solo = sample_trajectories(model, class_ids[1:2], sched, 5,
                               rngmod.PHASE_DIAG, first_index=101)
    assert np.allclose(batch.latents[1], solo.latents[0], rtol=0, atol=1e-9)
    # different absolute index means different noise entirely
    other = sample_trajectories(model, class_ids[1:2], sched, 5,
                                rngmod.PHASE_DIAG, first_index=102)
    assert not np.allclose(batch.latents[1], other.latents[0], atol=1e-3)


def test_blas_pinned_sets_one_thread_and_restores_the_count(monkeypatch):
    lib = rngmod._openblas()
    if lib is None:
        pytest.skip("numpy ships no scipy-openblas library here")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        with rngmod.blas_pinned() as blas:
            assert lib.scipy_openblas_get_num_threads64_() == 1
            assert blas["pinned"] and blas["threads"] == 1
            assert blas["name"] and blas["version"]
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    # another BLAS build: the block runs unpinned and the record says so
    monkeypatch.setattr(rngmod, "_openblas", lambda: None)
    with rngmod.blas_pinned() as blas:
        assert not blas["pinned"] and blas["threads"] is None
