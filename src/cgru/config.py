"""Run configuration for the full pipeline.

A RunConfig is a tree of small dataclasses, one per phase. On disk it is a
flat text file of dotted keys ("policy.iterations = 50"), which is also the
syntax the CLI's --set overrides use. config_hash() gives a content hash
that is stable under reordering of lines in the file and ignores the output
directory, so two runs of the same experiment in different places share a
run id. config_lines() renders chosen sections the same way; checkpoints
store those lines as their provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass, field

from .checkpoint import replacing
from .diffusion import make_schedule
from .errors import ConfigError, ScheduleError
from .policy_grad import EstimatorConfig


@dataclass
class DataConfig:
    n_samples: int = 8000
    n_classes: int = 8
    radius: float = 4.0
    stddev: float = 0.3
    holdout: int = 1000


@dataclass
class DiffusionConfig:
    T: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.02


@dataclass
class EpsNetConfig:
    hidden: int = 128
    t_embed_dim: int = 32


@dataclass
class ClassifierConfig:
    hidden: int = 64
    steps: int = 3000
    batch_size: int = 128
    lr: float = 1e-3
    target_acc: float = 0.95


@dataclass
class PretrainConfig:
    max_steps: int = 4000
    eval_every: int = 500
    batch_size: int = 128
    lr: float = 1e-3
    target_acc: float = 0.9
    eval_per_class: int = 100


@dataclass
class RewardConfig:
    target_class: int = 0
    scale: float = 10.0
    forget_fraction: float = 0.5


@dataclass
class CriticConfig:
    hidden: int = 64
    t_embed_dim: int = 32
    n_traj: int = 1024
    epochs: int = 8
    batch_size: int = 256
    lr: float = 3e-3


@dataclass
class PolicyConfig:
    iterations: int = 50
    n_traj: int = 16
    grad_accum: int = 2
    lr: float = 3e-5
    # linear decay to lr*lr_end_frac over the first lr_decay_frac of the run;
    # freezing the step size once unlearning has converged is what keeps the
    # retain classes intact through the full budget
    lr_end_frac: float = 0.1
    lr_decay_frac: float = 0.7
    # the cgru arm re-fits its critic on trajectories from the current policy
    # every refresh_every iterations; one >= iterations keeps the phase-2
    # critic fixed throughout. One pass suffices: each refresh warm-starts
    # the critic it already has on 256 x 50 = 12,800 fresh rows, and over
    # seeds 0-19 one epoch kept the arm's UA, IRA and FD where four did at
    # a quarter of the fit cost (SEEDS_42.csv)
    refresh_every: int = 3
    refresh_traj: int = 256
    refresh_epochs: int = 1
    eval_forget: int = 100
    eval_per_class: int = 20


@dataclass
class EvalConfig:
    forget_samples: int = 200
    retain_per_class: int = 100


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    data: DataConfig = field(default_factory=DataConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    eps_net: EpsNetConfig = field(default_factory=EpsNetConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    critic: CriticConfig = field(default_factory=CriticConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


# every other int field is a count and must be >= 1; every float field
# must be finite
_NOT_COUNTS = {"seed", "reward.target_class", "policy.iterations"}


def validate(cfg: RunConfig) -> RunConfig:
    flat = dict(_walk(cfg))
    for key, val in flat.items():
        typ = _leaf_type(key)
        if key not in _NOT_COUNTS and typ is int and val < 1:
            raise ConfigError(f"{key} must be >= 1, got {val}")
        if typ is float and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    if flat["policy.iterations"] < 0:
        raise ConfigError("policy.iterations must be >= 0")
    # the stream key holds 64 bits of seed: any other seed would alias one
    if not 0 <= cfg.seed < 1 << 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {cfg.seed}")
    for key in ("data.radius", "data.stddev", "reward.scale", "classifier.lr",
                "pretrain.lr", "critic.lr", "policy.lr"):
        if flat[key] <= 0:
            raise ConfigError(f"{key} must be > 0")
    for key in ("policy.lr_decay_frac", "policy.lr_end_frac",
                "pretrain.target_acc", "classifier.target_acc"):
        if not 0 < flat[key] <= 1:
            raise ConfigError(f"{key} must lie in (0, 1]")
    try:
        make_schedule(cfg.diffusion.T, cfg.diffusion.beta_start,
                      cfg.diffusion.beta_end)
    except ScheduleError as exc:
        raise ConfigError(f"diffusion schedule: {exc}") from None
    if cfg.data.n_classes < 2:
        raise ConfigError("data.n_classes must be >= 2: one class is "
                          "forgotten and at least one retained")
    # the Frechet distance fits a covariance to the retained samples
    for key in ("eval.retain_per_class", "policy.eval_per_class"):
        n_retained = (cfg.data.n_classes - 1) * flat[key]
        if n_retained < 2:
            raise ConfigError(f"{key} = {flat[key]} leaves {n_retained} "
                              "retained eval sample; need at least 2")
    if not 0 <= cfg.reward.target_class < cfg.data.n_classes:
        raise ConfigError(
            f"reward.target_class {cfg.reward.target_class} out of range "
            f"for {cfg.data.n_classes} classes")
    if not 0.0 <= cfg.reward.forget_fraction <= 1.0:
        raise ConfigError("reward.forget_fraction must lie in [0, 1]")
    if cfg.data.holdout >= cfg.data.n_samples:
        raise ConfigError("data.holdout must be smaller than data.n_samples")
    if cfg.eps_net.t_embed_dim % 2 or cfg.critic.t_embed_dim % 2:
        raise ConfigError("timestep embedding dims must be even")
    return cfg


def _walk(cfg: RunConfig):
    """Yield (dotted_key, value) for every leaf field."""
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if dataclasses.is_dataclass(val):
            for sub in dataclasses.fields(val):
                yield f"{f.name}.{sub.name}", getattr(val, sub.name)
        else:
            yield f.name, val


def render_value(v) -> str:
    """The text of one value in config lines and CSV cells: the repr of a
    plain float (never np.float64(...)), str of anything else."""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _parse_value(text: str, typ: type, key: str):
    text = text.strip()
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
        if typ is str:
            return text
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as {typ.__name__} for key {key}")
    raise ConfigError(f"unsupported field type {typ} for key {key}")


def _leaf_types() -> tuple:
    """The annotated type of every dotted leaf key, and the section names."""
    types, sections = {}, set()
    for name, typ in typing.get_type_hints(RunConfig).items():
        if not dataclasses.is_dataclass(typ):
            types[name] = typ
            continue
        sections.add(name)
        for sub, sub_typ in typing.get_type_hints(typ).items():
            types[f"{name}.{sub}"] = sub_typ
    return types, sections


_LEAF_TYPES, _SECTIONS = _leaf_types()


def _leaf_type(key: str) -> type:
    """Resolve the annotated type of a dotted key, or raise ConfigError."""
    if key in _SECTIONS:
        raise ConfigError(f"{key!r} is a section, not a value")
    if key not in _LEAF_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    return _LEAF_TYPES[key]


def _set_key(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    typ = _leaf_type(key)
    value = _parse_value(raw, typ, key)
    parts = key.split(".")
    if len(parts) == 1:
        return dataclasses.replace(cfg, **{key: value})
    section = getattr(cfg, parts[0])
    new_section = dataclasses.replace(section, **{parts[1]: value})
    return dataclasses.replace(cfg, **{parts[0]: new_section})


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply "dotted.key=value" strings in order; returns a new RunConfig."""
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form key=value")
        key, _, raw = ov.partition("=")
        cfg = _set_key(cfg, key.strip(), raw)
    return cfg


def render_config(cfg: RunConfig) -> str:
    """File-format rendering, grouped by section in declaration order."""
    lines = []
    prev_section = None
    for key, val in _walk(cfg):
        section = key.split(".")[0] if "." in key else None
        if section != prev_section and lines:
            lines.append("")
        prev_section = section
        lines.append(f"{key} = {render_value(val)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """The config a file's lines set, each key at most once."""
    cfg, seen = RunConfig(), {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} is already set on line "
                              f"{seen[key]}")
        seen[key] = lineno
        cfg = _set_key(cfg, key, raw)
    return cfg


def load_config(path: str, overrides=()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = apply_overrides(parse_config(text), overrides)
    return validate(cfg)


def save_config(path: str, cfg: RunConfig) -> None:
    with replacing(path, encoding="utf-8") as fh:
        fh.write(render_config(cfg))


def config_lines(cfg: RunConfig, sections) -> list:
    """Sorted "key = value" lines of the leaf fields under `sections`, top-
    level field names such as "seed" or "diffusion"."""
    return sorted(f"{k} = {render_value(v)}" for k, v in _walk(cfg)
                  if k.split(".")[0] in sections)


# every top-level field but out_dir: the experiment, not where it ran
EXPERIMENT = tuple(f.name for f in dataclasses.fields(RunConfig)
                   if f.name != "out_dir")


def config_hash(cfg: RunConfig) -> str:
    """sha256 over config_lines(cfg, EXPERIMENT), joined by newlines.

    Sorting makes the hash independent of file layout; excluding out_dir
    makes it a hash of the experiment rather than of where it ran.
    """
    return hashlib.sha256("\n".join(config_lines(cfg, EXPERIMENT))
                          .encode("utf-8")).hexdigest()
