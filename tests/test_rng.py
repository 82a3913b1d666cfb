"""Counter-based stream identities and worker-count invariance."""

import contextlib
import errno
import mmap
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from cgru import procs
from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides
from cgru.diffusion import build_eps_net, make_schedule, sample_trajectories
from cgru.errors import CgruError, ConfigError, Divergence, PhaseFailure

from conftest import ProcessLog, assert_reaped, count_forks, float64_eps_twin


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
    # a seed outside 64 bits would alias one inside
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            rngmod.stream(seed, rngmod.PHASE_POLICY)
        with pytest.raises(ValueError, match="seed"):
            next(rngmod.streams(seed, rngmod.PHASE_POLICY, [0]))
    rngmod.stream((1 << 64) - 1, rngmod.PHASE_POLICY)


def test_block_check_does_not_grow_with_the_iteration_count():
    # each block is one span, whatever its member count
    cfg = apply_overrides(RunConfig(), [f"policy.iterations={10 ** 6}"])
    spans = rngmod.windows(cfg, rngmod.BLOCKS)
    assert len(spans) <= len(rngmod.BLOCKS)
    assert rngmod.overlap(spans) is None
    for command in (None, "diag_unbiasedness", "diag_variance",
                    "diag_ablation", "diag_baseline_optimum"):
        rngmod.check_blocks(cfg, command)


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


def test_shard_ranges_do_not_depend_on_worker_count(monkeypatch):
    # the shard layout is a constant of the algorithm; only concurrency
    # may change with the worker count
    monkeypatch.setenv("CGRU_THREADS", "1")
    out1 = rngmod.run_sharded(lambda lo, hi: (lo, hi), 600)
    monkeypatch.setenv("CGRU_THREADS", "4")
    out4 = rngmod.run_sharded(lambda lo, hi: (lo, hi), 600)
    assert out1 == out4 == rngmod.shard_ranges(600)


def test_run_sharded_threads_keep_callers_errstate(monkeypatch):
    monkeypatch.setenv("CGRU_THREADS", "2")
    with np.errstate(over="ignore", invalid="ignore"):
        modes = rngmod.run_sharded(lambda lo, hi: np.geterr(), 600)
    assert len(modes) == 3
    assert all(m["over"] == "ignore" and m["invalid"] == "ignore"
               for m in modes)


def _cores(monkeypatch, n):
    """Let passes use n processes, whatever this machine's affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _workers(monkeypatch, n):
    """Let passes use n processes: n cores and CGRU_THREADS=n."""
    _cores(monkeypatch, n)
    monkeypatch.setenv("CGRU_THREADS", str(n))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fold_takes_shards_in_order_and_bounds_the_ones_ahead(
        workers, tmp_path, monkeypatch):
    # a slow fold lets the workers run ahead; no shard may start more than
    # 2 * workers shards past the last one folded. Shards run in forked
    # workers, so each logs (pid, shard, shards folded) to a file, and the
    # fold keeps its count in shared memory
    _workers(monkeypatch, workers)
    n = 40 * rngmod.SHARD
    log = ProcessLog(tmp_path / "started")
    count = np.frombuffer(mmap.mmap(-1, 8), np.int64)
    folded = []

    def fn(lo, hi):
        log.append(os.getpid(), lo // rngmod.SHARD, count[0])
        return lo, hi

    def fold(result):
        time.sleep(0.001)
        folded.append(result)
        count[0] = len(folded)

    assert rngmod.run_sharded(fn, n, fold=fold) == []
    assert folded == rngmod.shard_ranges(n)
    started = log.rows()
    assert sorted(shard for _, shard, _ in started) == list(range(40))
    assert max(shard - done for _, shard, done in started) <= 2 * workers
    assert len({pid for pid, _, _ in started}) == workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_shard_stops_the_pass(workers, tmp_path, monkeypatch):
    _workers(monkeypatch, workers)
    err = Divergence("unlearn_cgru iteration 7: non-finite values")
    log = ProcessLog(tmp_path / "started")
    folded = []

    def fn(lo, hi):
        log.append(os.getpid(), lo)
        if lo == rngmod.SHARD:
            raise err
        time.sleep(0.01)
        return lo

    with pytest.raises(Divergence) as info:
        rngmod.run_sharded(fn, 40 * rngmod.SHARD, fold=folded.append)
    # shard 1 ran in a worker at two or more: a copy crossed the pipe
    assert type(info.value) is Divergence and info.value.args == err.args
    assert folded == [0]
    started = log.rows()
    assert len(started) <= 2 * workers + 1, started
    for pid in {pid for pid, _ in started} - {os.getpid()}:
        assert_reaped(pid)


@pytest.mark.parametrize("cores,forks", [(64, 2), (2, 1), (1, 0)])
def test_a_pass_forks_no_more_workers_than_shards_or_cores(monkeypatch, cores,
                                                           forks):
    # CGRU_THREADS far above both caps: three shards fork at most two
    # workers beside the caller, and the usable cores cap them too
    monkeypatch.setenv("CGRU_THREADS", "1000")
    _cores(monkeypatch, cores)
    pids = count_forks(monkeypatch)
    n = 3 * rngmod.SHARD
    assert rngmod.run_sharded(lambda lo, hi: (lo, hi), n) == \
        rngmod.shard_ranges(n)
    assert len(pids) == forks
    for pid in pids:
        assert_reaped(pid)


def test_a_pass_nested_in_a_shard_runs_serially(monkeypatch):
    _workers(monkeypatch, 2)

    def outer(lo, hi):
        inner = rngmod.run_sharded(lambda a, b: os.getpid(), 3 * rngmod.SHARD)
        return os.getpid(), inner

    runs = rngmod.run_sharded(outer, 2 * rngmod.SHARD)
    assert len({pid for pid, _ in runs}) == 2
    for pid, inner in runs:
        assert inner == [pid] * 3


def test_a_killed_worker_is_a_named_phase_failure(monkeypatch):
    _workers(monkeypatch, 2)
    caller = os.getpid()
    pids = count_forks(monkeypatch)

    def fn(lo, hi):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return lo

    with pytest.raises(PhaseFailure, match="shard worker 1 was killed by "
                                           "SIGKILL before it sent shard 1"):
        rngmod.run_sharded(fn, 4 * rngmod.SHARD)
    assert len(pids) == 1
    assert_reaped(pids[0])


def test_an_exception_that_cannot_be_pickled_is_named(monkeypatch):
    _workers(monkeypatch, 2)

    class Local(Exception):     # a local class does not pickle
        pass

    def fn(lo, hi):
        if lo:
            raise Local("shard", lo)
        return lo

    with pytest.raises(CgruError) as info:
        rngmod.run_sharded(fn, 2 * rngmod.SHARD)
    assert type(info.value) is CgruError
    assert str(info.value) == ("shard worker 1 raised Local('shard', 256), "
                               "which cannot be pickled")


@contextlib.contextmanager
def _child(name, fn):
    """A `_Child` of fn for the block, closed after it, which must end
    within 60 s rather than hang on a pipe."""
    def hung(signum, frame):
        raise TimeoutError(f"{name} hung")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    child = procs._Child(name, fn)
    try:
        yield child
    finally:
        child.close()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_a_child_serves_requests_and_results_larger_than_a_pipe(
        monkeypatch):
    # each request and each result is larger than a pipe's buffer, and
    # the child serves one request after another until it is closed
    pids = count_forks(monkeypatch)
    with _child("the echo child", lambda blob, k: blob * k) as child:
        for k in (1, 2):
            blob = os.urandom(1 << 20)
            child.send(blob, k)
            assert child.receive("its echo") == blob * k
    assert len(pids) == 1
    assert_reaped(pids[0])


def test_a_child_names_itself_in_what_it_raises(monkeypatch):
    pids = count_forks(monkeypatch)

    def fn(x):
        raise Divergence("non-finite values", x)

    with _child("the raising child", fn) as child:
        child.send(3)
        with pytest.raises(Divergence) as info:
            child.receive("its result")
    assert info.value.args == ("non-finite values", 3)
    if sys.version_info >= (3, 11):
        assert info.value.__notes__[0].startswith(
            "raised in the raising child at:\n")
    assert_reaped(pids[0])


def test_a_send_to_a_killed_child_is_its_named_phase_failure(monkeypatch):
    pids = count_forks(monkeypatch)
    with _child("the killed child", lambda blob: blob) as child:
        os.kill(child.pid, signal.SIGKILL)
        # it has ended, unreaped: its end of the request pipe is closed
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        child.send(os.urandom(1 << 20))
        with pytest.raises(PhaseFailure, match="the killed child was killed "
                           "by SIGKILL before it sent its echo"):
            child.receive("its echo")
    assert_reaped(pids[0])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
def test_a_failed_fork_leaks_no_fd(monkeypatch):
    # a fork refused for want of processes or memory raises as it came,
    # and the worker's request and result pipes are closed before it does
    _workers(monkeypatch, 2)

    def refused():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with pytest.raises(OSError) as info:
            rngmod.run_sharded(lambda lo, hi: lo, 2 * rngmod.SHARD)
        assert info.value.errno == errno.EAGAIN
    assert len(os.listdir("/proc/self/fd")) == before
    assert not procs._caller_fds


_INTERRUPTED_PASS = """
import os, signal, sys, time
from cgru import rng

# Ctrl-C as at a terminal: a background job starts with SIGINT ignored
signal.signal(signal.SIGINT, signal.default_int_handler)
os.sched_getaffinity = lambda pid: {0, 1}

def shard(lo, hi):
    if lo:
        with open(sys.argv[1] + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(60)

rng.run_sharded(shard, 2 * rng.SHARD)
"""


def test_ctrl_c_in_a_pass_prints_one_traceback_and_leaves_no_worker(tmp_path):
    # SIGINT to the process group reaches the caller, busy with shard 0,
    # and the worker, busy with shard 1: the worker ends quietly, the
    # caller reaps it and reports
    src = os.path.dirname(os.path.dirname(rngmod.__file__))
    pid_file = tmp_path / "worker.pid"
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTED_PASS, str(pid_file)],
        env={**os.environ, "PYTHONPATH": src, "CGRU_THREADS": "2"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        worker = int(pid_file.read_text())
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0
    assert err.count("Traceback (most recent call last)") == 1, err
    assert err.rstrip().endswith("KeyboardInterrupt"), err
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)


_KILLED_CALLER = """
import os, signal, sys, time
from cgru import rng

os.sched_getaffinity = lambda pid: {0, 1}
caller = os.getpid()

def pids():
    with open(sys.argv[1]) as fh:
        return fh.read().split()

def sleeping(pid):
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "S"

def shard(lo, hi):
    if os.getpid() != caller:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{os.getpid()}\\n")
    elif lo == 2:
        # the worker has sent shards 1, 3 and 5 and waits for its request
        # for shard 7
        while len(pids()) < 3 or not sleeping(pids()[0]):
            time.sleep(0.01)
        os.kill(caller, signal.SIGKILL)
    return lo

rng.run_sharded(shard, 20, fold=lambda part: None, chunk=1)
"""


def _gone(pid) -> bool:
    """Whether pid has exited: no such process, or a zombie no one reaps."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_worker_whose_caller_is_killed_exits(tmp_path):
    # the caller dies in its shard 2 while its worker waits for a request:
    # no other process holds the worker's request pipe open, so the worker
    # reads EOF there and exits. Its pid comes through a file, and its
    # stderr goes to one, so an orphan holds no pipe of this test's
    src = os.path.dirname(os.path.dirname(rngmod.__file__))
    pid_file, err = tmp_path / "worker.pids", tmp_path / "stderr"
    with open(err, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_CALLER, str(pid_file)],
            env={**os.environ, "PYTHONPATH": src, "CGRU_THREADS": "2"},
            stderr=fh)
    try:
        assert proc.wait(timeout=60) == -signal.SIGKILL, err.read_text()
        workers = set(pid_file.read_text().split())
        assert len(workers) == 1
        deadline = time.monotonic() + 5
        while not all(map(_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, workers))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in set(pid_file.read_text().split()) if pid_file.exists() \
                else ():
            if not _gone(pid):
                os.kill(int(pid), signal.SIGKILL)


def test_n_workers_env(monkeypatch):
    monkeypatch.delenv("CGRU_THREADS", raising=False)
    assert procs.n_workers() == 1
    monkeypatch.setenv("CGRU_THREADS", "4")
    assert procs.n_workers() == 4
    monkeypatch.setenv("CGRU_THREADS", "0")
    assert procs.n_workers() == 1
    monkeypatch.setenv("CGRU_THREADS", "lots")
    with pytest.raises(ConfigError):
        procs.n_workers()


def test_trajectory_streams_keyed_by_absolute_index():
    # a trajectory's noise comes from stream(seed, phase, first_index + i),
    # so the same absolute index reproduces the same path no matter what
    # else is in the batch (up to last-ulp kernel differences between
    # batch shapes); on the float64 twin, since a one-ulp difference in a
    # float32 eps would move the latents by more than the tolerance
    model = float64_eps_twin(build_eps_net(
        2, 4, hidden=16, t_embed_dim=8,
        rng=rngmod.stream(0, rngmod.PHASE_INIT), T=10))
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
    lib = procs._openblas()
    if lib is None:
        pytest.skip("numpy ships no scipy-openblas library here")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        with procs.blas_pinned() as blas:
            assert lib.scipy_openblas_get_num_threads64_() == 1
            assert blas["pinned"] and blas["threads"] == 1
            assert blas["name"] and blas["version"]
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    # another BLAS build: the block runs unpinned and the record says so
    monkeypatch.setattr(procs, "_openblas", lambda: None)
    with procs.blas_pinned() as blas:
        assert not blas["pinned"] and blas["threads"] is None
