"""Command line interface: exit codes, artifact messages, diag outputs."""

import os
import shutil
import warnings

import pytest

from cgru.cli import build_parser, main
from cgru.config import save_config

from conftest import TINY_OVERRIDES, tiny_config


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
    assert err.startswith("error:")
    assert "non-finite" in err
    assert "Traceback" not in err


def test_bad_override_exits_two(tmp_path, capsys):
    assert main(["full", "--set", "policy.lr=banana", "--out", str(tmp_path)]) == 2
    assert "policy.lr" in capsys.readouterr().err
    assert main(["full", "--set", "no.such.key=1", "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_config_value_exits_two(tmp_path, capsys):
    assert main(["full", "--set", "diffusion.n_steps=0",
                 "--out", str(tmp_path)]) == 2
    assert "n_steps" in capsys.readouterr().err


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
def diag_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_diag") / "run"
    rc = main(_args(out, "full"))
    assert rc == 0
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


def test_diag_unbiasedness(diag_dir, capsys):
    assert main(_args(diag_dir, "diag", "unbiasedness")) == 0
    capsys.readouterr()
    lines = open(diag_dir / "diag_unbiasedness.csv").read().splitlines()
    assert lines[0] == "N,B_norm,grad_norm,ratio"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [100, 1000, 10000]


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
    open(lock, "w").close()
    try:
        assert main(_args(diag_dir, "eval", "--method", "base")) == 1
        assert "lock" in capsys.readouterr().err
    finally:
        os.unlink(lock)
