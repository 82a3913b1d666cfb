"""Phase orchestration: artifacts, gates, locking, and determinism."""

import bisect
import csv
import dataclasses
import fcntl
import functools
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from cgru import critic as critic_mod
from cgru import diag, diffusion, nets, pipeline, procs
from cgru import rng as rngmod
from cgru.checkpoint import load_tensors, save_tensors
from cgru.config import (RunConfig, apply_overrides, config_hash,
                         parse_config)
from cgru.diffusion import build_eps_net, make_schedule, sample_trajectories
from cgru.policy_grad import cgru_gradient, ddpo_gradient, gradient_variance
from cgru.rewards import assign_rewards, mode_distance_reward
from cgru.errors import (CgruError, CheckpointError, LockError, MissingArtifact,
                         PhaseFailure)
from cgru.metrics import feature_stats, frechet_distance

from conftest import (DIAGS, TINY_OVERRIDES, ProcessLog, assert_reaped,
                      count_forks, default_config, flock_held, tiny_config)


def _digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_full_run_writes_manifest_and_artifacts(tiny_run):
    cfg, manifest = tiny_run
    assert set(manifest.phases) == {
        "classifier", "pretrain", "critic", "unlearn_cgru", "unlearn_ddpo",
        "eval_cgru", "eval_ddpo"}
    assert all(rec["status"] == "ok" for rec in manifest.phases.values())
    assert manifest.config_hash == config_hash(cfg)
    for name, rec in manifest.artifacts.items():
        assert os.path.exists(rec["path"]), name
        assert _digest(rec["path"]) == rec["sha256"], name
    on_disk = json.load(open(os.path.join(cfg.out_dir, "manifest.json")))
    assert on_disk["config_hash"] == manifest.config_hash
    # the lock file stays, free and naming no one
    with open(os.path.join(cfg.out_dir, ".lock"), "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert fh.read() == b""


def test_manifest_names_the_config_that_made_it(tiny_run):
    cfg, _ = tiny_run
    with open(os.path.join(cfg.out_dir, "manifest.json")) as fh:
        on_disk = json.load(fh)
    lines = on_disk["config"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == on_disk["config_hash"]
    back = parse_config("\n".join(lines))
    assert dataclasses.replace(back, out_dir=cfg.out_dir) == cfg


def test_full_run_is_byte_deterministic_across_dirs(tiny_run, tmp_path):
    cfg1, _ = tiny_run
    cfg2 = tiny_config(tmp_path / "again")
    pipeline.run_full(cfg2)
    names = [n for n in sorted(os.listdir(cfg1.out_dir))
             if n != "manifest.json" and not n.startswith("diag")]
    assert "eps_unlearned_cgru.ckpt" in names and "eval_cgru.csv" in names
    for name in names:
        a = os.path.join(cfg1.out_dir, name)
        b = os.path.join(cfg2.out_dir, name)
        assert _digest(a) == _digest(b), name


def test_zero_iterations_is_identity(tiny_run, tmp_path):
    cfg, _ = tiny_run
    out = tmp_path / "zero"
    out.mkdir()
    for name in ("classifier.ckpt", "eps_base.ckpt", "critic.ckpt"):
        (out / name).write_bytes(open(os.path.join(cfg.out_dir, name), "rb").read())
    zcfg = apply_overrides(tiny_config(out), ["policy.iterations=0"])
    result = pipeline.run_unlearn(zcfg, "cgru")
    assert result["info"]["iterations"] == 0
    # the tensors match bit for bit; the provenance headers differ
    _, base = load_tensors(out / "eps_base.ckpt")
    _, unlearned = load_tensors(out / "eps_unlearned_cgru.ckpt")
    assert base.keys() == unlearned.keys()
    assert all(np.array_equal(base[k], unlearned[k]) for k in base)
    # the log exists with its header only
    diag = (out / "policy_diag_cgru.csv").read_text().strip().splitlines()
    assert diag == ["run_id,iteration,estimator,n_traj,grad_norm,"
                    "grad_variance,clip_count,ua,ira,fd,mean_reward"]


def _named(pid):
    return f"pid {pid} on host {platform.node()}"


def test_lock_blocks_concurrent_use(tiny_run):
    cfg, _ = tiny_run
    lock = os.path.join(cfg.out_dir, ".lock")
    # a second open of the lock file is refused, even in the holding process
    with procs._locked(cfg.out_dir):
        with pytest.raises(LockError, match=re.escape(
                f"lock {lock} is held by {_named(os.getpid())}; ")):
            pipeline.run_eval(cfg, "base")
    # released lock lets the phase run again
    assert pipeline.run_eval(cfg, "base")["info"]["report"].ua >= 0.0


def test_full_run_manifest_keeps_phase_info(tiny_run):
    cfg, _ = tiny_run
    phases = json.load(open(os.path.join(cfg.out_dir, "manifest.json")))["phases"]
    info = {name: rec["info"] for name, rec in phases.items()}
    assert info["classifier"]["holdout_accuracy"] >= cfg.classifier.target_acc
    # the forked classifier's own peak, and how long pretrain waited for it
    assert info["classifier"]["peak_rss_mb"] > 0.0
    assert info["pretrain"]["wait_s"] >= 0.0
    assert 0 < info["pretrain"]["steps"] <= cfg.pretrain.max_steps
    assert set(info["pretrain"]["per_class_acc"]) == {
        str(k) for k in range(cfg.data.n_classes)}
    assert info["critic"]["buffer_size"] == cfg.critic.n_traj * cfg.diffusion.T
    assert info["critic"]["final_loss"] > 0.0
    # the forked critic's own peak, and how long the ddpo arm waited for it
    assert info["critic"]["peak_rss_mb"] > 0.0
    assert info["critic"]["wait_s"] >= 0.0
    blas = json.load(open(os.path.join(cfg.out_dir, "manifest.json")))["blas"]
    assert set(blas) == {"name", "version", "threads", "pinned"}
    if blas["pinned"]:
        assert blas["threads"] == 1
    for method in ("cgru", "ddpo"):
        arm = info[f"unlearn_{method}"]
        assert arm["iterations"] == cfg.policy.iterations
        assert 0 <= arm["stale_iterations"] <= cfg.policy.iterations
        # update stats: total Adam steps, run means of the per-epoch figures
        assert arm["updates"] == (cfg.policy.iterations
                                  * math.ceil(cfg.diffusion.T / cfg.policy.grad_accum))
        assert 0.0 <= arm["clip_fraction"] <= 1.0
        assert 0.0 < arm["grad_norm_mean"] <= cfg.estimator.grad_max_norm * (1 + 1e-12)
        # the final figures are the log's last row
        with open(os.path.join(cfg.out_dir, f"policy_diag_{method}.csv"),
                  newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        for key in ("ua", "ira", "fd", "mean_reward"):
            assert isinstance(arm[f"final_{key}"], float), key
            assert arm[f"final_{key}"] == float(last[key]), key
        # monitoring's cost beside the update's; not compared at this size
        assert arm["monitor_every"] == pipeline._MONITOR_EVERY
        assert arm["update_s"] >= 0.0 and arm["monitor_s"] >= 0.0
        # a tiny arm monitors only its last iteration, here: no child
        assert arm["monitor_child_s"] == 0.0
        report = info[f"eval_{method}"]["report"]
        assert set(report) == {"ua", "ira", "fd", "per_class_acc"}
        assert "summary" not in info[f"eval_{method}"]


class _Unprintable:
    def __str__(self):
        raise RuntimeError("unprintable value")


def test_failed_writes_leave_the_previous_file(tiny_cfg):
    """Each output writer fails partway: the old bytes stay, no .tmp is left."""
    out = tiny_cfg.out_dir
    os.makedirs(out)
    manifest = pipeline.RunManifest(config_hash="h", phases={
        "classifier": {"status": "ok", "info": {"bad": object()}}})
    writes = {
        "rows.csv": lambda p: pipeline.write_csv(
            p, ["step", "loss"], [(1, 0.5), (2, _Unprintable())]),
        "net.ckpt": lambda p: save_tensors(
            p, {"w": np.ones(3), "b": "not a tensor"}),
        "manifest.json": lambda p: pipeline._write_manifest(tiny_cfg, manifest),
    }
    for name, write in writes.items():
        path = os.path.join(out, name)
        with open(path, "wb") as fh:
            fh.write(b"previous bytes\n")
        with pytest.raises((RuntimeError, TypeError, ValueError)):
            write(path)
        with open(path, "rb") as fh:
            assert fh.read() == b"previous bytes\n", name
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")], name


def _reaped_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


# takes the lock of directory argv[1], says so on stdout, then either
# kills itself or holds the lock until its stdin closes
_HOLDER = """
import os, signal, sys
from cgru import procs
with procs._locked(sys.argv[1]):
    print("held", flush=True)
    if sys.argv[2] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    sys.stdin.read()
"""


def _holder(out_dir, then):
    """A child process that holds out_dir's lock, returned once it does;
    `then` is "kill" or "hold"."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen([sys.executable, "-c", _HOLDER, str(out_dir),
                              then], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, env=env)
    assert child.stdout.readline() == "held\n"
    return child


def test_stale_lock_of_a_gone_process_is_reclaimed(tiny_run, capsys):
    # a holder killed with SIGKILL leaves its name in the file, no lock
    cfg, _ = tiny_run
    lock = os.path.join(cfg.out_dir, ".lock")
    child = _holder(cfg.out_dir, "kill")
    child.communicate(timeout=30)
    assert child.returncode == -signal.SIGKILL
    assert open(lock).read() == _named(child.pid) + "\n"
    assert pipeline.run_eval(cfg, "base")["info"]["report"].ua >= 0.0
    assert capsys.readouterr().err == ""
    assert open(lock).read() == ""


@pytest.mark.parametrize("content", [
    "{live} {host}\n",                  # the old format, naming this process
    "{gone} another-host.invalid\n",    # the old format, another host
    "{host}\n",                         # no pid
])
def test_lock_that_is_not_provably_stale_blocks(tmp_path, capsys, content):
    # while held, the lock blocks whatever its file says; once free, it is
    # taken whatever its file says
    out_dir = str(tmp_path / "run")
    os.makedirs(out_dir)
    lock = os.path.join(out_dir, ".lock")
    text = content.format(live=os.getpid(), gone=_reaped_pid(),
                          host=platform.node())
    with flock_held(lock, text):
        with pytest.raises(LockError, match=re.escape(
                f"lock {lock} is held by {text.strip()}; ")):
            with procs._locked(out_dir):
                pass
    assert open(lock).read() == text
    with procs._locked(out_dir):
        assert open(lock).read() == _named(os.getpid()) + "\n"
    assert capsys.readouterr().err == ""


def test_two_reclaimers_of_one_stale_lock_admit_one(tmp_path):
    # two threads claim a free lock at once; the winner holds it until the
    # loser has been refused
    out_dir = str(tmp_path / "race")
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, ".lock"), "w") as fh:
        fh.write(f"{_reaped_pid()} {platform.node()}\n")
    start, refused = threading.Barrier(2), threading.Event()
    outcomes = []

    def claim():
        start.wait()
        try:
            with procs._locked(out_dir):
                outcomes.append("in")
                refused.wait(30)
        except LockError:
            outcomes.append("blocked")
            refused.set()

    claimants = [threading.Thread(target=claim) for _ in range(2)]
    for t in claimants:
        t.start()
    for t in claimants:
        t.join(60)
    assert sorted(outcomes) == ["blocked", "in"]


def test_lock_names_its_owner(tmp_path):
    # every run_* entry point and diagnostic is a locked_run
    read_lock = pipeline.locked_run(
        lambda cfg: open(os.path.join(cfg.out_dir, ".lock")).read())
    cfg = tiny_config(tmp_path / "owner")
    assert read_lock(cfg) == _named(os.getpid()) + "\n"
    # a holder in another process is named by its own pid
    child = _holder(cfg.out_dir, "hold")
    try:
        with pytest.raises(LockError, match=re.escape(
                f"is held by {_named(child.pid)}; ")):
            read_lock(cfg)
    finally:
        child.communicate(timeout=30)
    assert read_lock(cfg) == _named(os.getpid()) + "\n"


@pytest.mark.parametrize("method", ["cgru", "ddpo"])
@pytest.mark.parametrize("n", [16, 10, 6])
def test_diag_gradients_walk_once_per_step(monkeypatch, method, n):
    # four sub-batches of n // 4 rows: 16 rows split evenly, while 10 and
    # 6 leave two remainder rows that count toward the full batch only,
    # not a fifth or sixth sub-batch
    K, T = 4, 6
    model = build_eps_net(2, K, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(2, rngmod.PHASE_INIT), T=T)
    sched = make_schedule(T, 1e-4, 0.02)
    rollouts = sample_trajectories(model, np.arange(n) % K, sched, 2,
                                   rngmod.PHASE_DIAG, first_index=40)
    assign_rewards(rollouts, functools.partial(
        mode_distance_reward, center=(0.0, 0.0), scale=10.0))
    values = 0.3 * np.arange(1, T + 1) + rollouts.class_ids[:, None] \
        if method == "cgru" else None
    cfg = RunConfig()

    walks = []
    run = nets._run

    def counting_run(net, *args, **kwargs):
        walks.append(net)
        return run(net, *args, **kwargs)

    monkeypatch.setattr(nets, "_run", counting_run)
    norm, var = pipeline._diag_gradients(rollouts, model, values, cfg, sched,
                                         method)
    assert len(walks) == T and all(w is model.net for w in walks)
    monkeypatch.setattr(nets, "_run", run)

    def estimate(rows):
        if method == "cgru":
            return cgru_gradient(rollouts[rows], model, values[rows],
                                 cfg.estimator, sched)
        return ddpo_gradient(rollouts[rows], model, sched, cfg.estimator)

    size = n // 4
    want_norm = np.linalg.norm(estimate(slice(None)))
    want_var = gradient_variance(np.stack(
        [estimate(slice(i, i + size)) for i in range(0, 4 * size, size)]))
    assert norm == pytest.approx(want_norm, rel=1e-12)
    assert var == pytest.approx(want_var, rel=1e-12)


def _spy_keys(monkeypatch, path):
    """A function that lists (phase, index, owner) of every stream
    rng.stream and rng.streams key from now on, in this process and the
    children it forks (through a ProcessLog at `path`), where owner is the
    (block, member) of the drawing process's last rng.key call: the block
    the drawing site named."""
    log, owner = ProcessLog(path), [None]
    names = list(rngmod.BLOCKS)
    key, stream, streams = rngmod.key, rngmod.stream, rngmod.streams

    def record(phase, indices):
        name, member = owner[0] or (None, 0)
        block = -1 if name is None else names.index(name)
        log.extend((phase, i, block, member) for i in indices)

    def spy_key(name, member=0):
        owner[0] = (name, member)
        return key(name, member)

    def spy_stream(seed, phase, index=0):
        record(phase, [index])
        return stream(seed, phase, index)

    def spy_streams(seed, phase, indices):
        indices = list(indices)
        record(phase, indices)
        return streams(seed, phase, indices)

    def drawn():
        return [(phase, index, None if block < 0 else (names[block], member))
                for phase, index, block, member in log.rows()]

    monkeypatch.setattr(rngmod, "key", spy_key)
    monkeypatch.setattr(rngmod, "stream", spy_stream)
    monkeypatch.setattr(rngmod, "streams", spy_streams)
    return drawn


def _tiny_phases(request, tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    drawn = _spy_keys(monkeypatch, tmp_path / "keys")
    pipeline._classifier_phase(cfg)
    pipeline._pretrain_phase(cfg)
    pipeline._critic_phase(cfg)
    for method in ("ddpo", "cgru"):
        pipeline._unlearn_phase(cfg, method)
        pipeline._eval_phase(cfg, method)
    pipeline._eval_phase(cfg, "base")
    return cfg, None, drawn()


def _default_critic_and_cgru_arm(request, tmp_path, monkeypatch):
    full_cfg, _ = request.getfixturevalue("full_run")
    cfg = default_config(tmp_path)
    for name in ("classifier", "eps_base"):
        shutil.copy(pipeline.out_path(full_cfg, f"{name}.ckpt"), tmp_path)
    # a fit or an update draws from a stream opened before it and none of
    # its own, and the gradient diagnostics draw none; skipping them saves
    # most of the time
    monkeypatch.setattr(pipeline, "critic_train", lambda *args, **kw: [0.0])
    monkeypatch.setattr(pipeline, "_diag_gradients", lambda *args: (1.0, 1.0))
    monkeypatch.setattr(pipeline, "policy_update_epoch", lambda *args, **kw: {
        "clip_count": 0, "clip_fraction": 0.0, "stale_buffer": False,
        "updates": 1, "grad_norm_mean": 1.0})
    # the monitor evals of iterations 5, 10, ..., 45 draw in forked children
    spied = _spy_keys(monkeypatch, tmp_path / "keys")
    pipeline._critic_phase(cfg)
    pipeline._unlearn_phase(cfg, "cgru")
    # the unlearn monitor draws 240 of the monitor eval block's 800 rows;
    # the pretrain gate, checked once after one step here, draws them all
    gate_cfg = apply_overrides(cfg, ["pretrain.max_steps=1"])
    with pytest.raises(PhaseFailure, match="gate"):
        pipeline._pretrain_phase(gate_cfg)
    drawn = spied()
    # a refresh buffer at iterations 3, 6, ..., 48
    refreshes = {owner for *_, owner in drawn
                 if owner and owner[0] == "refresh buffer"}
    assert sorted(m for _, m in refreshes) == list(range(3, 50, 3))
    # the ten monitor evals, nine of them drawn in children, and the gate's
    monitor_rows = (cfg.policy.eval_forget
                    + (cfg.data.n_classes - 1) * cfg.policy.eval_per_class)
    evals = [owner for *_, owner in drawn if owner == ("monitor eval", 0)]
    assert len(evals) == 10 * monitor_rows + (
        cfg.data.n_classes * cfg.pretrain.eval_per_class)
    return cfg, None, drawn


def _sweep_rows(n, model, rows, *args, cuts=()):
    """The streamed sweep's walk without its score pass: each shard's rows
    are made, and every estimate is ones."""
    for lo, hi in rngmod.shard_ranges(n):
        rows(lo, hi)
    return np.ones((2, len(cuts) + 1, model.net.theta.size)), None


def _diag_check(name, stubs=()):
    """Diag check `name` on a copy of the tiny run's networks, with the
    work that draws no stream replaced by `stubs`' (module, attribute,
    stand-in)."""
    def run(request, tmp_path, monkeypatch):
        tiny_cfg, _ = request.getfixturevalue("tiny_run")
        for net in ("classifier", "eps_base", "critic"):
            shutil.copy(pipeline.out_path(tiny_cfg, f"{net}.ckpt"), tmp_path)
        for module, attr, stand_in in stubs:
            monkeypatch.setattr(module, attr, stand_in)
        cfg = tiny_config(tmp_path)
        drawn = _spy_keys(monkeypatch, tmp_path / "keys")
        DIAGS[name](cfg)
        return cfg, DIAGS[name].__name__, drawn()
    return run


_SPY_CASES = {
    "tiny-phases": _tiny_phases,
    "default-critic-and-cgru-arm": _default_critic_and_cgru_arm,
    "diag-unbiasedness": _diag_check("unbiasedness", [
        (diag, "group_estimates", _sweep_rows),
        (diag, "value_matrix", lambda critic, rollouts: None),
        (diffusion, "_rollout", lambda *args: None)]),
    "diag-variance": _diag_check("variance"),
    "diag-ablation": _diag_check("ablation", [
        (critic_mod, "critic_train", lambda *args, **kw: [0.0])]),
    "diag-baseline-optimum": _diag_check("baseline_optimum"),
}


@pytest.mark.parametrize("case", list(_SPY_CASES))
def test_every_stream_key_lies_in_the_block_its_site_names(
        case, request, tmp_path, monkeypatch):
    # every key a case draws lies in exactly one declared block, which is
    # the block its site named and one of every command or of the diag
    # check that ran, inside the member its site named; so no key is drawn
    # under two blocks. Each member drawn reaches its last declared key,
    # so no block is declared larger than its site draws.
    monkeypatch.setenv("CGRU_THREADS", "1")     # every shard in this process
    cfg, command, drawn = _SPY_CASES[case](request, tmp_path, monkeypatch)
    spans = rngmod.windows(cfg, rngmod.BLOCKS)
    assert rngmod.overlap(spans) is None
    starts = [span[:2] for span in spans]
    assert drawn
    top, last = {}, {}
    for phase, index, owner in drawn:
        assert owner, (phase, index)
        name, m = owner
        block = rngmod.BLOCKS[name]
        lo = block.first + m * block.stride
        size = rngmod._value(block.rows, cfg) + block.extra
        assert (block.phase == phase and lo <= index < lo + size
                and 0 <= m < rngmod._value(block.count, cfg)), (
            phase, index, owner)
        span = spans[bisect.bisect_right(starts, (phase, index)) - 1]
        assert (span[0] == phase and span[1] <= index < span[2]
                and span[3] == name), (phase, index, owner, span)
        assert block.command in (None, command), owner
        top[owner] = max(top.get(owner, index), index)
        last[owner] = lo + size - 1
    assert top == last


def test_missing_artifacts_are_named(tmp_path):
    cfg = tiny_config(tmp_path / "fresh")
    with pytest.raises(MissingArtifact, match="classifier.ckpt"):
        pipeline.run_pretrain(cfg)
    pipeline.run_classifier(cfg)
    with pytest.raises(MissingArtifact, match="eps_base.ckpt"):
        pipeline.run_unlearn(cfg, "ddpo")
    pipeline.run_pretrain(cfg)
    with pytest.raises(MissingArtifact, match="critic.ckpt"):
        pipeline.run_unlearn(cfg, "cgru")
    # ddpo does not need the critic
    result = pipeline.run_unlearn(cfg, "ddpo")
    assert result["info"]["iterations"] == cfg.policy.iterations


def test_unmet_gates_raise_phase_failure(tmp_path):
    cfg = tiny_config(tmp_path / "gates",
                      extra=["classifier.steps=5", "classifier.target_acc=0.99"])
    with pytest.raises(PhaseFailure, match="accuracy"):
        pipeline.run_classifier(cfg)

    cfg2 = tiny_config(tmp_path / "gates2",
                       extra=["pretrain.max_steps=20", "pretrain.eval_every=20",
                              "pretrain.target_acc=0.99"])
    pipeline.run_classifier(cfg2)
    with pytest.raises(PhaseFailure, match="class 0"):
        pipeline.run_pretrain(cfg2)


def test_pretrain_gate_draws_the_fixed_eval_streams(tmp_path, monkeypatch):
    # a gate check at step 50 must not draw the final eval's streams
    cfg = tiny_config(tmp_path / "gate", extra=["pretrain.max_steps=50",
                                               "pretrain.eval_every=50"])
    drawn = []

    class Drawn(Exception):
        pass

    def spy(model, class_ids, sched, seed, phase, first_index=0):
        drawn.append((phase, range(first_index, first_index + len(class_ids))))
        raise Drawn

    monkeypatch.setattr(pipeline, "sample_trajectories", spy)
    with pytest.raises(Drawn):
        pipeline._pretrain_phase(cfg, classifier=lambda: None)
    _, first = rngmod.key("final eval")
    final = range(first, first + cfg.eval.forget_samples
                  + (cfg.data.n_classes - 1) * cfg.eval.retain_per_class)
    assert [phase for phase, _ in drawn] == [rngmod.PHASE_EVAL]
    assert not set(drawn[0][1]) & set(final)


def test_failed_phase_error_is_in_the_manifest(tmp_path):
    cfg = tiny_config(tmp_path / "fails",
                      extra=["classifier.steps=5", "classifier.target_acc=0.99"])
    with pytest.raises(PhaseFailure):
        pipeline.run_full(cfg)
    phases = json.load(open(os.path.join(cfg.out_dir, "manifest.json")))["phases"]
    assert list(phases) == ["classifier"]
    assert phases["classifier"]["status"] == "failed"
    assert phases["classifier"]["error"].startswith("PhaseFailure: ")
    assert "accuracy" in phases["classifier"]["error"]


def _artifact_digests(out_dir):
    return {n: _digest(os.path.join(out_dir, n)) for n in os.listdir(out_dir)
            if n.endswith((".ckpt", ".csv"))}


def test_full_run_has_the_bytes_of_the_phases_run_one_by_one(tiny_run,
                                                              tmp_path):
    # the forked critic and the ddpo-first schedule leave what the seven
    # standalone phases leave in the sequential order
    cfg, manifest = tiny_run
    one_by_one = tiny_config(tmp_path / "one_by_one")
    pipeline.run_classifier(one_by_one)
    pipeline.run_pretrain(one_by_one)
    pipeline.run_critic(one_by_one)
    for method in ("cgru", "ddpo"):
        pipeline.run_unlearn(one_by_one, method)
    for method in ("cgru", "ddpo"):
        pipeline.run_eval(one_by_one, method)
    want = _artifact_digests(one_by_one.out_dir)
    assert len(want) == len(manifest.artifacts) == 14
    got = _artifact_digests(cfg.out_dir)
    assert {n: got.get(n) for n in want} == want


_TINY_RUN = """
import sys
from cgru import pipeline
from conftest import tiny_config
pipeline.run_full(tiny_config(sys.argv[1]))
"""


def test_full_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the run pins BLAS to one thread itself; before it did, four files
    # differed between these two environments
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, tests])
    digests = []
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-c", _TINY_RUN, str(out)],
                       env={**env, **extra}, check=True, timeout=300)
        digests.append(_artifact_digests(out))
    assert len(digests[0]) == 14
    assert digests[0] == digests[1]


def _phases(cfg):
    with open(os.path.join(cfg.out_dir, "manifest.json")) as fh:
        return json.load(fh)["phases"]


def test_critic_failure_leaves_the_ddpo_arm_running(tmp_path, monkeypatch,
                                                    capsys):
    from cgru.cli import main

    def failing_critic(cfg):
        raise PhaseFailure("critic fit failed")

    # the forked child inherits the patched function
    monkeypatch.setattr(pipeline, "_critic_phase", failing_critic)
    pids = count_forks(monkeypatch)
    out = tmp_path / "run"
    sets = [a for kv in TINY_OVERRIDES for a in ("--set", kv)]
    assert main(["full", *sets, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: critic fit failed\n"
    phases = _phases(tiny_config(out))
    assert set(phases) == {"classifier", "pretrain", "critic", "unlearn_ddpo",
                           "eval_ddpo"}
    assert phases["critic"]["status"] == "failed"
    assert phases["critic"]["error"] == "PhaseFailure: critic fit failed"
    for name in ("classifier", "pretrain", "unlearn_ddpo", "eval_ddpo"):
        assert phases[name]["status"] == "ok", name
    assert not os.path.exists(out / "eps_unlearned_cgru.ckpt")
    assert len(pids) == 2       # the classifier's child, then the critic's
    for pid in pids:
        assert_reaped(pid)


def test_critic_child_killed_is_a_named_phase_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_critic_phase",
                        lambda cfg: os.kill(os.getpid(), signal.SIGKILL))
    pids = count_forks(monkeypatch)
    cfg = tiny_config(tmp_path / "killed")
    with pytest.raises(PhaseFailure, match="killed by SIGKILL"):
        pipeline.run_full(cfg)
    phases = _phases(cfg)
    assert phases["critic"]["status"] == "failed"
    assert "SIGKILL" in phases["critic"]["error"]
    assert phases["eval_ddpo"]["status"] == "ok"
    assert len(pids) == 2       # the classifier's child, then the critic's
    for pid in pids:
        assert_reaped(pid)
    # the lock is free, and the file names no one
    with procs._locked(cfg.out_dir):
        pass
    assert open(os.path.join(cfg.out_dir, ".lock")).read() == ""


def test_monitor_child_killed_is_a_named_phase_failure(tiny_run, tmp_path,
                                                      monkeypatch):
    # iteration 5's monitor child dies before it sends its row; the arm
    # reports it when it collects the row, at iteration 6
    out = tmp_path / "killed"
    shutil.copytree(tiny_run[0].out_dir, out)
    parent, eval_model = os.getpid(), pipeline._eval_model

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return eval_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_eval_model", killed)
    pids = count_forks(monkeypatch)
    with pytest.raises(PhaseFailure, match=re.escape(
            "the monitor child of unlearn ddpo, iteration 5 was killed by "
            "SIGKILL before it sent its monitor row")):
        pipeline.run_unlearn(tiny_config(out, ["policy.iterations=6"]), "ddpo")
    assert len(pids) == 1
    assert_reaped(pids[0])
    with procs._locked(str(out)):
        pass


def test_a_phase_exception_that_cannot_be_pickled_keeps_its_message(
        monkeypatch):
    class Local(Exception):     # a local class does not pickle
        pass

    def phase(cfg):
        raise Local("critic fit failed", cfg)

    pids = count_forks(monkeypatch)
    with procs._forked(phase, 7) as join:
        failed, seconds, peak_mb, wait_s = join()
    assert type(failed) is CgruError
    assert str(failed) == ("the child process of this phase raised "
                           "Local('critic fit failed', 7), which cannot be "
                           "pickled")
    assert seconds >= 0.0 and peak_mb > 0 and wait_s >= 0.0
    assert join() == (failed, seconds, peak_mb, wait_s)
    assert len(pids) == 1
    assert_reaped(pids[0])


@pytest.mark.parametrize("critic_fails", [False, True])
def test_ddpo_failure_still_reaps_and_records_the_critic(tiny_run, tmp_path,
                                                         monkeypatch,
                                                         critic_fails):
    unlearn = pipeline._unlearn_phase

    def failing_ddpo(cfg, method="cgru"):
        if method == "ddpo":
            raise PhaseFailure("ddpo arm failed")
        return unlearn(cfg, method)

    def failing_critic(cfg):
        raise PhaseFailure("critic fit failed")

    monkeypatch.setattr(pipeline, "_unlearn_phase", failing_ddpo)
    if critic_fails:
        monkeypatch.setattr(pipeline, "_critic_phase", failing_critic)
    pids = count_forks(monkeypatch)
    cfg = tiny_config(tmp_path / "ddpo_fails")
    # the first failure in phase order is raised: the critic before ddpo
    with pytest.raises(PhaseFailure, match="critic fit failed" if critic_fails
                       else "ddpo arm failed"):
        pipeline.run_full(cfg)
    phases = _phases(cfg)
    assert set(phases) == {"classifier", "pretrain", "critic", "unlearn_ddpo"}
    assert phases["unlearn_ddpo"]["error"] == "PhaseFailure: ddpo arm failed"
    assert len(pids) == 2       # the classifier's child, then the critic's
    for pid in pids:
        assert_reaped(pid)
    if critic_fails:
        assert phases["critic"]["status"] == "failed"
    else:
        assert phases["critic"]["status"] == "ok"
        assert phases["critic"]["info"]["wait_s"] >= 0.0
        name = "critic.ckpt"
        assert _digest(os.path.join(cfg.out_dir, name)) == _digest(
            os.path.join(tiny_run[0].out_dir, name))


def test_interrupt_while_waiting_for_the_critic_kills_and_reaps_it(
        tmp_path, monkeypatch):
    def stub(cfg, method=None):
        return {"paths": {}, "info": {}}

    def failing_ddpo(cfg, method):
        raise PhaseFailure("ddpo arm failed")

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    for name in ("_classifier_phase", "_pretrain_phase"):
        monkeypatch.setattr(pipeline, name, stub)
    monkeypatch.setattr(pipeline, "_critic_phase", lambda cfg: time.sleep(30))
    monkeypatch.setattr(pipeline, "_unlearn_phase", failing_ddpo)
    receive = procs._Child.receive

    def interrupted_receive(child, what):
        # the interrupt lands while run_full waits for the critic child,
        # the second one it forks
        if len(pids) == 2:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
        return receive(child, what)

    monkeypatch.setattr(procs._Child, "receive", interrupted_receive)
    pids = count_forks(monkeypatch)
    cfg = tiny_config(tmp_path / "interrupted")
    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_full(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert len(pids) == 2       # the classifier's child, then the critic's
    for pid in pids:
        assert_reaped(pid)
    with procs._locked(cfg.out_dir):
        pass


def test_classifier_child_killed_is_a_named_phase_failure(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(pipeline, "_classifier_phase",
                        lambda cfg: os.kill(os.getpid(), signal.SIGKILL))
    pids = count_forks(monkeypatch)
    cfg = tiny_config(tmp_path / "killed")
    with pytest.raises(PhaseFailure, match="killed by SIGKILL"):
        pipeline.run_full(cfg)
    phases = _phases(cfg)
    assert list(phases) == ["classifier"]
    assert phases["classifier"]["status"] == "failed"
    assert "SIGKILL" in phases["classifier"]["error"]
    assert not os.path.exists(os.path.join(cfg.out_dir, "eps_base.ckpt"))
    assert len(pids) == 1
    assert_reaped(pids[0])
    with procs._locked(cfg.out_dir):
        pass
    assert (tmp_path / "killed" / ".lock").read_text() == ""


def test_interrupt_while_pretrain_waits_kills_and_reaps_the_classifier(
        tmp_path, monkeypatch):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_classifier_phase",
                        lambda cfg: time.sleep(30))
    sample, receive = pipeline.sample_trajectories, procs._Child.receive
    samples, joins = [], []

    def counted_sample(*args, **kwargs):
        samples.append(args[4])
        return sample(*args, **kwargs)

    def interrupted_receive(child, what):
        # pretrain asks for the classifier once it has drawn its first gate
        # check's samples; the interrupt lands while it waits for the child
        joins.append(list(samples))
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        return receive(child, what)

    monkeypatch.setattr(pipeline, "sample_trajectories", counted_sample)
    monkeypatch.setattr(procs._Child, "receive", interrupted_receive)
    pids = count_forks(monkeypatch)
    cfg = tiny_config(tmp_path / "interrupted")
    old = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_full(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 20    # the child was not waited out
    assert joins == [[rngmod.PHASE_EVAL]]
    assert len(pids) == 1
    assert_reaped(pids[0])
    assert not os.path.exists(os.path.join(cfg.out_dir, "eps_base.ckpt"))
    with procs._locked(cfg.out_dir):
        pass


_INTERRUPTED_RUN = """
import os, signal, sys, time
from cgru import pipeline
from conftest import tiny_config

# Ctrl-C as at a terminal: a background job starts with SIGINT ignored
signal.signal(signal.SIGINT, signal.default_int_handler)

def stub(cfg, *args):
    return {"paths": {}, "info": {}}

def critic(cfg):
    with open(sys.argv[2] + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(sys.argv[2] + ".tmp", sys.argv[2])
    time.sleep(60)

pipeline._classifier_phase = pipeline._pretrain_phase = stub
pipeline._unlearn_phase = pipeline._eval_phase = stub
pipeline._critic_phase = critic
pipeline.run_full(tiny_config(sys.argv[1]))
"""

# the ddpo arm on a copy of a finished run: iteration 5's monitor child
# sleeps while the arm trains on to iteration 10, where it writes the
# child's pid and waits for its row
_INTERRUPTED_ARM = """
import os, signal, sys, time
from cgru import pipeline, procs
from conftest import tiny_config

signal.signal(signal.SIGINT, signal.default_int_handler)
parent, eval_model = os.getpid(), pipeline._eval_model
receive = procs._Child.receive

def monitor_eval(*args, **kwargs):
    if os.getpid() != parent:
        time.sleep(60)
    return eval_model(*args, **kwargs)

def waiting_receive(child, what):
    with open(sys.argv[2] + ".tmp", "w") as fh:
        fh.write(str(child.pid))
    os.replace(sys.argv[2] + ".tmp", sys.argv[2])
    return receive(child, what)

pipeline._eval_model = monitor_eval
procs._Child.receive = waiting_receive
pipeline.run_unlearn(tiny_config(sys.argv[1], ["policy.iterations=10"]),
                     "ddpo")
"""


def _interrupt_at_child(script, run_dir, pid_file):
    """Run `script` on run_dir in a new session, wait until it has written
    its child's pid to pid_file, then send SIGINT to the whole group, as a
    terminal's Ctrl-C does: the child ends quietly, and the parent must
    report one traceback and reap it."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(run_dir), str(pid_file)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
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
        os.kill(child, 0)


def test_ctrl_c_prints_one_traceback_and_leaves_no_child(tmp_path):
    # SIGINT to the process group reaches the parent and the critic child
    # at once: the child ends quietly, the parent reports and reaps it
    _interrupt_at_child(_INTERRUPTED_RUN, tmp_path / "run",
                        tmp_path / "critic.pid")


def test_ctrl_c_during_an_arm_leaves_no_monitor_child(tiny_run, tmp_path):
    shutil.copytree(tiny_run[0].out_dir, tmp_path / "run")
    _interrupt_at_child(_INTERRUPTED_ARM, tmp_path / "run",
                        tmp_path / "monitor.pid")


def test_corrupt_checkpoint_is_reported_with_filename(tiny_run, tmp_path):
    cfg, _ = tiny_run
    out = tmp_path / "corrupt"
    out.mkdir()
    for name in ("classifier.ckpt", "eps_base.ckpt", "critic.ckpt"):
        (out / name).write_bytes(open(os.path.join(cfg.out_dir, name), "rb").read())
    blob = (out / "eps_base.ckpt").read_bytes()
    (out / "eps_base.ckpt").write_bytes(blob[: len(blob) - 100])
    ccfg = tiny_config(out)
    with pytest.raises(CheckpointError, match="eps_base.ckpt"):
        pipeline.run_unlearn(ccfg, "cgru")


def test_version_1_checkpoint_is_refused(tiny_run, tmp_path):
    cfg, _ = tiny_run
    out = tmp_path / "v1"
    out.mkdir()
    # the version 1 layout: no provenance between the version and the
    # count, and no trailing digest
    blob = open(os.path.join(cfg.out_dir, "classifier.ckpt"), "rb").read()
    (head_len,) = struct.unpack("<I", blob[8:12])
    (out / "classifier.ckpt").write_bytes(
        b"CGRU" + struct.pack("<I", 1) + blob[12 + head_len:-32])
    with pytest.raises(CheckpointError, match=re.escape(
            f"{out / 'classifier.ckpt'}: unsupported format version 1")) as exc:
        pipeline.run_pretrain(tiny_config(out))
    assert "rerun the phase that writes it" in str(exc.value)


def test_a_flipped_payload_bit_is_refused(tiny_run, tmp_path):
    cfg, _ = tiny_run
    out = tmp_path / "flip"
    out.mkdir()
    path = out / "classifier.ckpt"
    blob = open(os.path.join(cfg.out_dir, "classifier.ckpt"), "rb").read()
    # the lowest mantissa bit of the payload's last float64
    flipped = bytearray(blob)
    flipped[-40] ^= 1
    path.write_bytes(flipped)
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: contents do not match their sha256 digest")):
        pipeline.load(tiny_config(out), "classifier")
    # with its digest recomputed the flip is a valid file of another
    # network, which is what a reader without the digest loaded
    body = bytes(flipped[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    other = pipeline.load(tiny_config(out), "classifier")
    assert not np.array_equal(other.theta,
                              pipeline.load(cfg, "classifier").theta)
    # version 2, the layout before the digest, is refused like version 1
    path.write_bytes(b"CGRU" + struct.pack("<I", 2) + blob[8:-32])
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: unsupported format version 2")):
        pipeline.load(tiny_config(out), "classifier")


def test_eval_csv_schema_and_run_id(tiny_run):
    cfg, _ = tiny_run
    lines = open(os.path.join(cfg.out_dir, "eval_cgru.csv")).read().splitlines()
    assert lines[0] == "run_id,method,epoch,ua,ira,fd"
    run_id, method, epoch, ua, ira, fd = lines[1].split(",")
    assert run_id == config_hash(cfg)[:12]
    assert method == "cgru"
    assert int(epoch) == cfg.policy.iterations
    for v in (ua, ira):
        assert 0.0 <= float(v) <= 1.0
    assert float(fd) >= 0.0


def test_policy_diag_csv_schema(tiny_run):
    # one row per monitored iteration: diagnostics, eval and reward
    cfg, _ = tiny_run
    monitored = pipeline._monitored_iterations(cfg.policy.iterations)
    for method in ("cgru", "ddpo"):
        path = os.path.join(cfg.out_dir, f"policy_diag_{method}.csv")
        lines = open(path).read().splitlines()
        assert lines[0] == ("run_id,iteration,estimator,n_traj,grad_norm,"
                            "grad_variance,clip_count,ua,ira,fd,mean_reward")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[1]) for r in rows] == monitored
        for row in rows:
            assert row[0] == config_hash(cfg)[:12]
            assert row[2] == method
            assert int(row[3]) == cfg.policy.n_traj
            assert float(row[4]) > 0.0
            assert int(row[6]) >= 0
            assert np.isfinite(float(row[10]))


def test_eval_history_rows_per_iteration(tiny_run):
    # the eval history is the log's ua, ira and fd columns, one row per
    # monitored iteration; no separate eval_history_*.csv is written
    cfg, _ = tiny_run
    monitored = pipeline._monitored_iterations(cfg.policy.iterations)
    for method in ("cgru", "ddpo"):
        path = os.path.join(cfg.out_dir, f"policy_diag_{method}.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iteration"]) for r in rows] == monitored
        for row in rows:
            ua, ira, fd = (float(row[k]) for k in ("ua", "ira", "fd"))
            assert 0.0 <= ua <= 1.0 and 0.0 <= ira <= 1.0
            assert fd >= 0.0
    assert not [n for n in os.listdir(cfg.out_dir)
                if n.startswith("eval_history")]


def test_dataset_csv_roundtrip(tiny_run):
    cfg, _ = tiny_run
    lines = open(os.path.join(cfg.out_dir, "dataset.csv")).read().splitlines()
    assert lines[0] == "x0,x1,class"
    cells = [ln.split(",") for ln in lines[1:]]
    X, y = pipeline._dataset(cfg)
    assert np.array_equal(np.array([[float(a), float(b)] for a, b, _ in cells]),
                          X)
    assert [c for _, _, c in cells] == [str(k) for k in y.tolist()]


def test_monitored_iterations_are_every_fifth_and_the_last():
    assert pipeline._monitored_iterations(50) == list(range(5, 51, 5))
    assert pipeline._monitored_iterations(12) == [5, 10, 12]
    assert pipeline._monitored_iterations(3) == [3]
    assert pipeline._monitored_iterations(0) == []


def test_monitor_cadence_does_not_steer_training(tiny_run, tmp_path,
                                                 monkeypatch):
    cfg, _ = tiny_run
    monitored = pipeline._monitored_iterations(cfg.policy.iterations)
    monkeypatch.setattr(pipeline, "_MONITOR_EVERY", 1)
    every = tiny_config(tmp_path / "every")
    pipeline.run_full(every)
    ckpts = sorted(n for n in os.listdir(cfg.out_dir) if n.endswith(".ckpt"))
    assert len(ckpts) == len(pipeline._NETWORKS)
    for name in ckpts + ["eval_cgru.csv", "eval_ddpo.csv"]:
        assert (_digest(os.path.join(cfg.out_dir, name))
                == _digest(os.path.join(every.out_dir, name))), name
    # the sparse run's rows are the monitor-every-iteration run's, thinned
    for method in ("cgru", "ddpo"):
        name = f"policy_diag_{method}.csv"
        rows = open(os.path.join(cfg.out_dir, name)).read().splitlines()
        all_rows = open(os.path.join(every.out_dir, name)).read().splitlines()
        its = [int(r.split(",")[1]) for r in all_rows[1:]]
        assert its == list(range(1, cfg.policy.iterations + 1)), name
        assert rows == all_rows[:1] + [r for r, it in zip(all_rows[1:], its)
                                       if it in monitored], name


def test_report_aggregates_both_methods(tiny_run):
    cfg, _ = tiny_run
    result = pipeline.run_report(cfg)
    lines = open(result["paths"]["report"]).read().splitlines()
    assert lines[0] == "run_id,method,iterations,ua,ira,fd,mean_reward"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["cgru", "ddpo"]
    curves = open(result["paths"]["report_curves"]).read().splitlines()
    assert curves[0] == "method,iteration,mean_reward,grad_norm,grad_variance,ua,ira,fd"
    monitored = pipeline._monitored_iterations(cfg.policy.iterations)
    assert len(curves) == 1 + 2 * len(monitored)
    assert "cgru" in result["info"]["summary"]


def test_report_missing_history_names_file(tmp_path):
    cfg = tiny_config(tmp_path / "noreport")
    with pytest.raises(MissingArtifact, match="policy_diag_cgru.csv"):
        pipeline.run_report(cfg)


def test_eval_base_scores_pretrained_model(tiny_run):
    cfg, _ = tiny_run
    result = pipeline.run_eval(cfg, "base")
    report = result["info"]["report"]
    assert set(report.per_class_acc) == set(range(1, cfg.data.n_classes))
    lines = open(result["paths"]["eval_base"]).read().splitlines()
    assert lines[1].split(",")[1] == "base"
    assert lines[1].split(",")[2] == "0"


def test_eval_scores_one_label_vector(monkeypatch):
    cfg = apply_overrides(RunConfig(), [
        "data.n_classes=4", "reward.target_class=1", "diffusion.T=5",
        "eps_net.hidden=8", "eps_net.t_embed_dim=4"])
    # 4 forget-class samples, then 2 of each retained class 0, 2, 3
    labels = np.array([1, 3, 1, 1, 0, 0, 2, 0, 3, 1])
    seen = []

    def stub_predict(clf, x0):
        seen.append(x0)
        return labels

    monkeypatch.setattr(pipeline, "classifier_predict", stub_predict)
    reference = rngmod.stream(0, rngmod.PHASE_DIAG, 90).standard_normal((20, 2))
    report = pipeline._eval_model(cfg, pipeline._build_model(cfg), None,
                                  pipeline.schedule(cfg), 4, 2, "monitor eval",
                                  retain_reference=reference)
    assert [len(x0) for x0 in seen] == [10]
    assert report.ua == 1 / 4
    assert report.per_class_acc == {0: 1.0, 2: 0.5, 3: 0.5}
    assert math.isclose(report.ira, (1.0 + 0.5 + 0.5) / 3)
    assert report.fd == frechet_distance(feature_stats(reference),
                                         feature_stats(seen[0][4:]))
    # the pretrain gate's form: every class present
    assert pipeline._per_class_accuracy(
        np.repeat(np.arange(4), 2), np.array([0, 1, 1, 1, 2, 2, 0, 3])) == {
            0: 0.5, 1: 1.0, 2: 1.0, 3: 0.5}


def test_unknown_method_rejected(tiny_run):
    cfg, _ = tiny_run
    with pytest.raises(ValueError, match="unknown method"):
        pipeline.run_unlearn(cfg, "ppo")
    with pytest.raises(ValueError, match="unknown method"):
        pipeline.run_eval(cfg, "other")
