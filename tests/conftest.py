import contextlib
import fcntl
import os
import time

import pytest

from cgru import pipeline
from cgru.config import RunConfig, apply_overrides
from cgru.diag import (diag_ablation, diag_baseline_optimum,
                       diag_unbiasedness, diag_variance)
from cgru.nets import Network

# Small budgets that still exercise every phase: the classifier separates
# the (well-spread) modes easily, the pretrain gate is set low enough to
# pass within budget, and the policy loop runs long enough to hit the
# critic-refresh branch.
TINY_OVERRIDES = [
    "data.n_samples=600", "data.holdout=100",
    "classifier.steps=400", "classifier.target_acc=0.8",
    "pretrain.max_steps=400", "pretrain.eval_every=200",
    "pretrain.target_acc=0.05", "pretrain.eval_per_class=20",
    "critic.n_traj=32", "critic.epochs=2",
    "policy.iterations=3", "policy.n_traj=8", "policy.refresh_every=2",
    "policy.refresh_traj=16", "policy.refresh_epochs=1",
    "policy.eval_forget=20", "policy.eval_per_class=5",
    "eval.forget_samples=40", "eval.retain_per_class=10",
]


def tiny_config(out_dir, extra=()):
    cfg = apply_overrides(RunConfig(), TINY_OVERRIDES + list(extra))
    return apply_overrides(cfg, [f"out_dir={out_dir}"])


def default_config(out_dir):
    return apply_overrides(RunConfig(), [f"out_dir={out_dir}"])


# the diag checks whose CSVs are pinned, by name: each writes
# diag_<name>.csv into the run directory
DIAGS = {"unbiasedness": diag_unbiasedness, "variance": diag_variance,
         "baseline_optimum": diag_baseline_optimum, "ablation": diag_ablation}


def diag_at_one_thread(name, cfg):
    """diag `name` at CGRU_THREADS=1: its info, the bytes of its CSV and
    its elapsed seconds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CGRU_THREADS", "1")
        start = time.monotonic()
        res = DIAGS[name](cfg)
        seconds = time.monotonic() - start
    with open(res["paths"][f"diag_{name}"], "rb") as fh:
        csv = fh.read()
    return {"info": res["info"], "csv": csv, "seconds": seconds}


def float64_twin(net):
    """A float64 network with net's architecture and its weights, widened
    exactly: the oracle for checks of a float32 network."""
    twin = Network(net.arch)
    twin.theta[:] = net.theta
    return twin


class ProcessLog:
    """Rows of ints appended from any process to one file. The rows of one
    call are one O_APPEND write, which lands whole, so the rows of forked
    shard workers and phase or monitor children reach the test beside the
    caller's."""

    def __init__(self, path):
        self.path = path

    def append(self, *fields) -> None:
        self.extend([fields])

    def extend(self, rows) -> None:
        text = "".join(" ".join(str(int(f)) for f in fields) + "\n"
                       for fields in rows)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, text.encode())
        finally:
            os.close(fd)

    def rows(self) -> list:
        with open(self.path) as fh:
            return [tuple(map(int, line.split())) for line in fh]


def count_forks(monkeypatch):
    """The pids of the children os.fork starts from now on, in order."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def flock_held(path, content=""):
    """Hold `path` by a flock of an open file that reads `content`."""
    with open(path, "w") as fh:
        fh.write(content)
        fh.flush()
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


@pytest.fixture
def tiny_cfg(tmp_path):
    return tiny_config(tmp_path / "run")


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """One completed tiny-budget pipeline run, shared read-mostly."""
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = tiny_config(out)
    manifest = pipeline.run_full(cfg)
    return cfg, manifest


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """One completed pipeline run at the default config, shared read-mostly;
    its phase timings count toward the end-to-end budget of AC8."""
    cfg = default_config(tmp_path_factory.mktemp("acceptance") / "run")
    manifest = pipeline.run_full(cfg)
    return cfg, manifest


@pytest.fixture(scope="session")
def unbiasedness_sweep(full_run):
    """diag unbiasedness on the default run, run once."""
    return diag_at_one_thread("unbiasedness", full_run[0])


@pytest.fixture(scope="session")
def diag_runs(full_run):
    """Every other diag check on the default run, each run once, by name."""
    return {name: diag_at_one_thread(name, full_run[0])
            for name in DIAGS if name != "unbiasedness"}
