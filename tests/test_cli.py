"""Command line interface: exit codes, artifact messages, diag outputs."""

import hashlib
import math
import os
import platform
import shutil
import warnings

import pytest

from cgru import critic as critic_mod
from cgru import diag as diag_mod
from cgru import pipeline, procs
from cgru import rng as rngmod
from cgru.cli import build_parser, main
from cgru.config import apply_overrides, config_hash, save_config
from cgru.errors import Divergence

from conftest import (ProcessLog, TINY_OVERRIDES, assert_reaped, count_forks,
                      flock_held, tiny_config)


def _args(out_dir, *rest):
    sets = []
    for kv in TINY_OVERRIDES:
        sets += ["--set", kv]
    return list(rest) + sets + ["--out", str(out_dir)]


SUBCOMMANDS = ["pretrain", "classifier", "critic", "unlearn", "eval", "diag",
               "full", "report"]


@pytest.mark.parametrize("cmd", [[]] + [[c] for c in SUBCOMMANDS])
def test_help_exits_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(cmd + ["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_full_run_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_args(out, "full")) == 0
    printed = capsys.readouterr().out
    assert "manifest.json" in printed
    assert "unlearn_cgru" in printed and "ok" in printed
    assert os.path.exists(out / "eps_unlearned_cgru.ckpt")
    assert main(_args(out, "report")) == 0
    printed = capsys.readouterr().out
    assert "report.csv" in printed and "cgru" in printed


def test_phase_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(_args(out, "eval", "--method", "base")) == 1
    assert "classifier.ckpt" in capsys.readouterr().err


def test_unlearn_without_critic_exits_one(tmp_path, capsys):
    out = tmp_path / "nocritic"
    assert main(_args(out, "classifier")) == 0
    assert main(_args(out, "pretrain")) == 0
    capsys.readouterr()
    assert main(_args(out, "unlearn", "--method", "cgru")) == 1
    assert "critic.ckpt" in capsys.readouterr().err


# with 600 trajectories the sampler runs three shards on two threads
@pytest.mark.parametrize("threads,n_traj", [("1", 8), ("2", 600)])
def test_diverging_run_exits_one(tiny_run, tmp_path, capsys, monkeypatch,
                                 threads, n_traj):
    cfg, _ = tiny_run
    out = tmp_path / "diverge"
    shutil.copytree(cfg.out_dir, out)
    monkeypatch.setenv("CGRU_THREADS", threads)
    # outside pytest a warning would print to stderr ahead of the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_args(out, "unlearn", "--set", "policy.lr=1e300",
                          "--set", f"policy.n_traj={n_traj}")) == 1
    assert not caught
    err = capsys.readouterr().err
    # the policy step at lr=1e300 breaks the first iteration's next walk
    assert err.startswith("error: unlearn cgru, iteration 1: non-finite")
    assert "Traceback" not in err


def test_a_monitor_child_divergence_names_its_own_iteration(
        tiny_run, tmp_path, capsys, monkeypatch):
    # iteration 5's diagnostics run in a forked child while training goes
    # on; its Divergence is collected at iteration 7, the last monitored
    # one, after that iteration's update, and still names iteration 5
    cfg, _ = tiny_run
    out = tmp_path / "monitor"
    shutil.copytree(cfg.out_dir, out)
    parent, diag_gradients = os.getpid(), pipeline._diag_gradients
    update, updates = pipeline.policy_update_epoch, []

    def diverging(*args):
        if os.getpid() != parent:
            raise Divergence("non-finite values in network output")
        return diag_gradients(*args)

    def counted(*args, **kwargs):
        updates.append(len(updates) + 1)
        return update(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_diag_gradients", diverging)
    monkeypatch.setattr(pipeline, "policy_update_epoch", counted)
    pids = count_forks(monkeypatch)
    assert main(_args(out, "unlearn") + ["--set", "policy.iterations=7"]) == 1
    assert capsys.readouterr().err == (
        "error: unlearn cgru, iteration 5: non-finite values in network "
        "output\n")
    assert updates == list(range(1, 8))
    assert len(pids) == 1
    assert_reaped(pids[0])


def _digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("cmd", [["unlearn"], ["eval", "--method", "base"],
                                 ["diag", "variance"]])
def test_checkpoints_of_another_config_are_refused(tiny_run, tmp_path, capsys,
                                                   cmd):
    cfg, _ = tiny_run
    out = tmp_path / "copied"
    shutil.copytree(cfg.out_dir, out)
    before = _digests(out)
    assert main(_args(out, *cmd, "--set", "seed=7",
                      "--set", "diffusion.T=20")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'classifier.ckpt'} was written "
                          "under another config: ")
    assert "seed (0 -> 7)" in err and "Traceback" not in err
    assert _digests(out) == before
    # out_dir is in no section, so the copied run loads under its own config
    if cmd[0] == "eval":
        assert main(_args(out, *cmd)) == 0


def test_unlearned_checkpoint_of_another_policy_is_refused(tiny_run, tmp_path,
                                                          capsys):
    cfg, _ = tiny_run
    out = tmp_path / "copied"
    shutil.copytree(cfg.out_dir, out)
    before = _digests(out)
    assert main(_args(out, "eval", "--method", "cgru",
                      "--set", "policy.lr=1e-4")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'eps_unlearned_cgru.ckpt'} was "
                          "written under another config: policy.lr (3e-05 "
                          "-> 0.0001)")
    assert _digests(out) == before


def test_report_refuses_histories_of_another_config(tiny_run, tmp_path,
                                                    capsys):
    cfg, _ = tiny_run
    out = tmp_path / "copied"
    shutil.copytree(cfg.out_dir, out)
    before = _digests(out)
    assert main(_args(out, "report", "--set", "seed=7")) == 1
    err = capsys.readouterr().err
    seed7 = config_hash(apply_overrides(cfg, ["seed=7"]))[:12]
    diag = out / "policy_diag_cgru.csv"
    assert err.startswith(f"error: {diag} holds run_id "
                          f"{config_hash(cfg)[:12]}, not this config's {seed7}")
    assert _digests(out) == before


def test_report_refuses_policy_diagnostics_of_another_config(tiny_run,
                                                             tmp_path, capsys):
    cfg, _ = tiny_run
    out = tmp_path / "copied"
    shutil.copytree(cfg.out_dir, out)
    # this config's cgru log beside another config's ddpo log: each arm's
    # log is checked, not only the first one read
    seed7 = config_hash(apply_overrides(cfg, ["seed=7"]))[:12]
    cgru = out / "policy_diag_cgru.csv"
    cgru.write_text(cgru.read_text().replace(config_hash(cfg)[:12], seed7))
    before = _digests(out)
    assert main(_args(out, "report", "--set", "seed=7")) == 1
    err = capsys.readouterr().err
    diag = out / "policy_diag_ddpo.csv"
    assert err.startswith(f"error: {diag} holds run_id "
                          f"{config_hash(cfg)[:12]}, not this config's {seed7}")
    assert _digests(out) == before
    # a file written before the run_id column existed is refused, not a
    # traceback
    _rewrite(diag, lambda k, cells: cells[1:])
    assert main(_args(out, "report", "--set", "seed=7")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {diag} has columns iteration,")
    assert "Traceback" not in err


def _rewrite(path, edit):
    """Replace each line's comma-separated cells by edit(line_no, cells)."""
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(edit(k, ln.split(","))) + "\n"
                            for k, ln in enumerate(lines)))


@pytest.mark.parametrize("edit,error", [
    # the layout whose ua, ira and fd lived in eval_history_*.csv: same
    # config, same run_id, no eval columns
    (lambda k, cells: cells[:7] + cells[10:], "has columns run_id,iteration,"
     "estimator,n_traj,grad_norm,grad_variance,clip_count,mean_reward, not"),
    # a log whose first row was cut short
    (lambda k, cells: cells[:5] if k == 1 else cells,
     "row 1 does not have the 11 cells of its header"),
])
def test_report_refuses_a_log_it_cannot_read(tiny_run, tmp_path, capsys, edit,
                                             error):
    cfg, _ = tiny_run
    out = tmp_path / "copied"
    shutil.copytree(cfg.out_dir, out)
    diag = out / "policy_diag_ddpo.csv"
    _rewrite(diag, edit)
    before = _digests(out)
    assert main(_args(out, "report")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {diag} {error}")
    assert "rerun unlearn --method ddpo" in err and "Traceback" not in err
    assert _digests(out) == before


def test_unusable_output_directory_exits_two(tmp_path, capsys):
    # a regular file where the directory should be, and an empty path
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("kept\n")
    for args, named in ((["--out", str(not_a_dir)], str(not_a_dir)),
                        (["--set", "out_dir="], "''")):
        assert main(["classifier", *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: cannot use output directory "), err
        assert named in err and "Traceback" not in err
    assert not_a_dir.read_text() == "kept\n"


@pytest.mark.parametrize("command", [["full"], ["diag", "variance"]])
def test_malformed_worker_count_exits_two_before_any_work(tmp_path, capsys,
                                                          monkeypatch,
                                                          command):
    monkeypatch.setenv("CGRU_THREADS", "lots")
    out = tmp_path / "run"
    assert main([*command, *_args(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: CGRU_THREADS must be an integer, got 'lots'\n"
    assert not out.exists()


def test_bad_override_exits_two(tmp_path, capsys):
    assert main(["full", "--set", "policy.lr=banana", "--out", str(tmp_path)]) == 2
    assert "policy.lr" in capsys.readouterr().err
    # a key that does not exist, or no longer does
    for key in ("no.such.key", "policy.inner_epochs", "reward.kind"):
        assert main(["full", "--set", f"{key}=1", "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err
    # a config file that is missing or not UTF-8 text
    not_utf8 = tmp_path / "bom.cfg"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "no" / "such.cfg", not_utf8):
        assert main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, err
        assert "Traceback" not in err


def test_invalid_config_value_exits_two(tmp_path, capsys):
    cases = [
        # each parses, then fails validation
        ("full", ["diffusion.T=0"], "diffusion.T"),
        ("classifier", ["data.n_classes=1"], "data.n_classes"),
        # one retained class with one eval sample: no covariance to fit
        ("classifier", ["data.n_classes=2", "eval.retain_per_class=1"],
         "eval.retain_per_class"),
        ("classifier", ["data.n_classes=2", "policy.eval_per_class=1"],
         "policy.eval_per_class"),
        ("classifier", ["data.stddev=0"], "data.stddev"),
        # every alpha_bar rounds to 1: no reverse step could run
        ("full", ["diffusion.beta_start=1e-300", "diffusion.beta_end=1e-300"],
         "degenerate schedule"),
        # each fails as the override builds the estimator section
        ("unlearn", ["estimator.clip_low=2"], "clip_low"),
        ("unlearn", ["estimator.grad_max_norm=0"], "grad_max_norm"),
    ]
    for cmd, sets, key in cases:
        args = [cmd, "--out", str(tmp_path)]
        for kv in sets:
            args += ["--set", kv]
        assert main(args) == 2, sets
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, sets
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, key, at, block", [
    # diag variance keys batch b at its block's start + b * 1000
    (["diag", "variance"], "policy.n_traj", 1000, 1000),
    # the unlearn arms key iteration i at (i + 1) * 10,000; where the key
    # is in bounds, full's classifier fails its gate at once
    (["unlearn"], "policy.n_traj", 10_000, 10_000),
    (["full", "--set", "classifier.steps=1", "--set", "pretrain.max_steps=1"],
     "policy.n_traj", 10_000, 10_000),
    # a buffer's trajectories and then its shuffle stream: the critic
    # phase's stay below its class ids at 10**6, and a refresh's fill one
    # block of 100,000
    (["critic"], "critic.n_traj", 999_999, 999_999),
    (["unlearn"], "policy.refresh_traj", 99_999, 99_999),
    # the gate's 8 classes and the monitor's 100 forget rows plus 7
    # classes start at 0 and stay below the final eval's 500,000
    (["pretrain"], "pretrain.eval_per_class", 62_500, 500_000),
    (["unlearn"], "policy.eval_per_class", 71_414, 500_000),
    (["unlearn"], "policy.eval_forget", 500_000 - 7 * 20, 500_000),
], ids=["diag-variance", "unlearn", "full", "critic", "refresh", "gate",
        "monitor-per-class", "monitor-forget"])
def test_overlapping_stream_blocks_exit_two(tmp_path, capsys, argv, key, at,
                                           block):
    out = tmp_path / "run"
    args = [*argv, "--out", str(out), "--set"]
    assert main(args + [f"{key}={at + 1}"]) == 2
    err = capsys.readouterr().err
    # the message names the rows, which hold the key, then their block
    rows_named = err.split(" = ")[0]
    assert rows_named.startswith("error: ") and key in rows_named, err
    assert f"is above {block}:" in err, err
    # refused before the lock: no artifact read, no directory made
    assert not out.exists()
    # a full block is allowed: the command goes on, and fails for want of
    # artifacts or a classifier
    assert main(args + [f"{key}={at}"]) == 1
    assert key not in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    out = tmp_path / "fromfile"
    cfg = tiny_config(out)
    cfg_path = tmp_path / "tiny.cfg"
    save_config(str(cfg_path), cfg)
    assert main(["classifier", "--config", str(cfg_path)]) == 0
    assert os.path.exists(out / "classifier.ckpt")


def test_method_choices_enforced(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["unlearn", "--method", "trpo"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def diag_dir(tiny_run, tmp_path_factory):
    # a copy of the session's tiny run: the diagnostics write into it
    out = tmp_path_factory.mktemp("cli_diag") / "run"
    shutil.copytree(tiny_run[0].out_dir, out)
    return out


def test_diag_baseline_optimum(diag_dir, capsys):
    assert main(_args(diag_dir, "diag", "baseline-optimum")) == 0
    capsys.readouterr()
    lines = open(diag_dir / "diag_baseline_optimum.csv").read().splitlines()
    assert lines[0] == "baseline,variance"
    assert len(lines) == 4


def test_diag_variance(diag_dir, capsys):
    assert main(_args(diag_dir, "diag", "variance")) == 0
    capsys.readouterr()
    lines = open(diag_dir / "diag_variance.csv").read().splitlines()
    assert lines[0] == "estimator,n_batches,batch_size,variance"
    assert sorted(ln.split(",")[0] for ln in lines[1:]) == ["cgru", "ddpo"]


def test_diag_unbiasedness(full_run, unbiasedness_sweep, capsys, monkeypatch,
                           tmp_path):
    # the sweep is streamed: each 256-row shard of the walk samples its
    # rollouts and runs its own critic pass, in which each forward takes a
    # stack of trajectories whose states share the film rows of steps
    # T..1, gathered from the critic's t_table. The shards run in the
    # shard workers too, so passes and stacks are counted through files
    passes = ProcessLog(tmp_path / "passes")
    stacks = ProcessLog(tmp_path / "stacks")
    values, forward = diag_mod.value_matrix, critic_mod.forward

    def counting_values(critic, rollouts):
        passes.append(rollouts.T)
        return values(critic, rollouts)

    def counting_forward(net, x, cond=None, tape=None, rows=None):
        stacks.append(x.shape[0] if x.ndim == 3 else 1, len(cond), *rows)
        return forward(net, x, cond, tape, rows)

    monkeypatch.setattr(diag_mod, "value_matrix", counting_values)
    monkeypatch.setattr(critic_mod, "forward", counting_forward)
    monkeypatch.setenv("CGRU_THREADS", "2")
    cfg, _ = full_run
    assert main(["diag", "unbiasedness", "--out", cfg.out_dir]) == 0
    capsys.readouterr()
    with open(os.path.join(cfg.out_dir, "diag_unbiasedness.csv"), "rb") as fh:
        data = fh.read()
    lines = data.decode().splitlines()
    assert lines[0] == "N,B_norm,grad_norm,ratio"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [100, 1000, 10000]
    # one critic pass of T-row conditioning per shard; their stacks of
    # T-state trajectories cover the 10,000 rollouts' states once, shared
    # by the prefixes
    T = cfg.diffusion.T
    assert passes.rows() == [(T,)] * math.ceil(10_000 / rngmod.SHARD)
    assert sum(n for n, *_ in stacks.rows()) == 10_000
    assert {tuple(rows) for _, *rows in stacks.rows()} == {
        (T + 1, *range(T, 0, -1))}
    # the sharded walk reduces in shard order: two workers give the bytes
    # of the fixture's one-worker sweep
    assert data == unbiasedness_sweep["csv"]


@pytest.mark.parametrize("threads", ["2", "3"])
def test_diag_variance_bytes_do_not_depend_on_the_worker_count(
        full_run, diag_runs, monkeypatch, threads):
    # its 20 batches run as shards of one pass, here over two or three
    # processes; the fixture ran them at one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setenv("CGRU_THREADS", threads)
    cfg, _ = full_run
    assert main(["diag", "variance", "--out", cfg.out_dir]) == 0
    with open(os.path.join(cfg.out_dir, "diag_variance.csv"), "rb") as fh:
        assert fh.read() == diag_runs["variance"]["csv"]


def test_diag_ablation(diag_dir, capsys):
    assert main(_args(diag_dir, "diag", "ablation")) == 0
    capsys.readouterr()
    lines = open(diag_dir / "diag_ablation.csv").read().splitlines()
    assert lines[0] == "model_kind,held_out_mse,seed"
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert kinds == {"timestep_aware", "timestep_blind"}
    assert len(lines) == 1 + 2 * 5


def test_lock_reported_as_failure(diag_dir, capsys):
    lock = diag_dir / ".lock"
    for holder, named in [
            (procs._locked(str(diag_dir)),
             f"pid {os.getpid()} on host {platform.node()}"),
            (flock_held(lock), "an unnamed holder")]:
        with holder:
            assert main(_args(diag_dir, "eval", "--method", "base")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: lock {lock} is held by {named}; ")
        assert "delete" not in err
