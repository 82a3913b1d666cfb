"""Config round-trips, dotted-key overrides, validation, and hashing."""

import dataclasses
import re

import pytest

from cgru.config import (RunConfig, apply_overrides, config_hash, load_config,
                         parse_config, render_config, save_config, validate)
from cgru.errors import ConfigError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert validate(cfg) is cfg
    assert cfg.diffusion.T == 50
    assert cfg.data.n_classes == 8
    assert cfg.reward.target_class == 0
    # int fields that are not counts may be 0
    validate(apply_overrides(cfg, ["policy.iterations=0"]))


def test_render_parse_roundtrip():
    cfg = apply_overrides(RunConfig(), ["policy.lr=0.0003", "seed=9",
                                        "out_dir=runs/elsewhere"])
    text = render_config(cfg)
    back = parse_config(text)
    assert back == cfg
    # rendering is stable
    assert render_config(back) == text


def test_parse_skips_blanks_and_comments():
    cfg = parse_config("# a comment\n\nseed = 4\n  # another\npolicy.lr = 1e-4\n")
    assert cfg.seed == 4
    assert cfg.policy.lr == 1e-4


def test_parse_refuses_a_key_set_twice():
    with pytest.raises(ConfigError, match="line 3: policy.lr is already set "
                                          "on line 1"):
        parse_config("policy.lr = 1e-4\nseed = 2\n policy.lr = 3e-5\n")
    # an override still replaces a value from the file
    cfg = apply_overrides(parse_config("policy.lr = 1e-4\n"),
                          ["policy.lr=3e-5"])
    assert cfg.policy.lr == 3e-5


def test_override_type_conversions():
    cfg = apply_overrides(RunConfig(), [
        "policy.iterations=7",
        "policy.lr=2.5e-4",
        "out_dir=/somewhere/else",
    ])
    assert cfg.policy.iterations == 7
    assert isinstance(cfg.policy.iterations, int)
    assert cfg.policy.lr == 2.5e-4
    assert cfg.out_dir == "/somewhere/else"
    # original untouched (dataclass replace semantics)
    assert RunConfig().policy.iterations == 50


def test_override_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(RunConfig(), ["policy.does_not_exist=1"])
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(RunConfig(), ["bogus_section.lr=1"])


def test_override_rejects_bad_value_naming_key():
    with pytest.raises(ConfigError, match="policy.iterations"):
        apply_overrides(RunConfig(), ["policy.iterations=banana"])
    with pytest.raises(ConfigError, match="policy.lr"):
        apply_overrides(RunConfig(), ["policy.lr=fast"])
    with pytest.raises(ConfigError, match="="):
        apply_overrides(RunConfig(), ["policy.iterations"])


def test_validate_catches_bad_ranges():
    bad = [
        ["diffusion.T=0"],
        ["diffusion.beta_start=0.0"],
        ["diffusion.beta_end=1.5"],
        ["reward.target_class=8"],
        ["reward.forget_fraction=1.5"],
        ["reward.scale=-1"],
        ["data.holdout=8000"],
        ["policy.lr=0"],
        ["policy.lr_decay_frac=0"],
        ["pretrain.target_acc=0"],
        ["eps_net.t_embed_dim=7"],
        # every float key must be finite
        ["policy.lr=nan"],
        ["critic.lr=inf"],
        ["classifier.lr=nan"],
        ["reward.scale=inf"],
        ["estimator.grad_max_norm=inf"],
        ["data.stddev=0"],
        ["data.radius=-1"],
        # the stream key holds 64 bits of seed: these would alias seeds
        # 0 and 2**64 - 1
        ["seed=18446744073709551616"],
        ["seed=-1"],
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            validate(apply_overrides(RunConfig(), overrides))


COUNT_KEYS = [
    "data.n_samples", "data.n_classes", "data.holdout", "diffusion.T",
    "eps_net.hidden", "eps_net.t_embed_dim",
    "classifier.hidden", "classifier.steps", "classifier.batch_size",
    "pretrain.max_steps", "pretrain.eval_every", "pretrain.batch_size",
    "pretrain.eval_per_class",
    "critic.hidden", "critic.t_embed_dim", "critic.n_traj", "critic.epochs",
    "critic.batch_size",
    "policy.n_traj", "policy.grad_accum", "policy.refresh_every",
    "policy.refresh_traj",
    "policy.refresh_epochs", "policy.eval_forget", "policy.eval_per_class",
    "eval.forget_samples", "eval.retain_per_class",
]


@pytest.mark.parametrize("key", COUNT_KEYS)
def test_every_count_must_be_positive(key):
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(key)} must be >= 1, got 0$"):
        validate(apply_overrides(RunConfig(), [f"{key}=0"]))


def test_save_load_roundtrip(tmp_path):
    cfg = apply_overrides(RunConfig(), ["seed=11", "policy.n_traj=4"])
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    loaded = load_config(path)
    assert loaded == cfg
    tweaked = load_config(path, overrides=["seed=12"])
    assert tweaked.seed == 12
    assert tweaked == dataclasses.replace(cfg, seed=12)


def test_load_config_validates(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("diffusion.T = 0\n")
    with pytest.raises(ConfigError, match="diffusion.T"):
        load_config(path)


def test_config_hash_ignores_out_dir_only():
    base = RunConfig()
    assert config_hash(base) == config_hash(
        apply_overrides(base, ["out_dir=/tmp/elsewhere"]))
    assert len(config_hash(base)) == 64
    assert int(config_hash(base), 16) >= 0
    for override in ("seed=1", "policy.lr=1e-5", "reward.target_class=3"):
        assert config_hash(apply_overrides(base, [override])) != config_hash(base)


def test_default_config_hash_is_pinned():
    # the run_id column of every eval CSV is this hash's prefix, and AC10
    # compares those files byte for byte: a key or default change must
    # update this pin and declare the run_id move
    assert config_hash(RunConfig()) == (
        "fb089e0c2d48a211b5a14f494b9a24705d95d25252f4f21159b1efa6c29979fa")
