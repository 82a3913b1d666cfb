"""Command-line front end: every pipeline phase and diagnostic is a
subcommand, configured through --config files plus dotted --set overrides.

Exit codes: 0 success, 1 phase failure (missing artifact, unmet gate,
lock contention, bad checkpoint), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import pipeline
from . import rng as rngmod
from .config import RunConfig, apply_overrides, load_config, validate
from .critic import ablation_compare, build_critic_buffer
from .diffusion import mode_centers, sample_trajectories
from .errors import CgruError, ConfigError
from .pipeline import (_load_base_model, _load_classifier, _load_critic,
                       _locked, _mixture_class_ids, _path, _reward_spec,
                       _schedule, _write_csv)
from .policy_grad import (baseline_term_estimate, cgru_gradient,
                          compute_advantages, ddpo_gradient,
                          gradient_variance, optimal_baseline_probe,
                          per_sample_scores)
from .rewards import RewardSpec, assign_rewards
from .toy import (build_toy, sample_toy_trajectories, toy_analytic_gradient,
                  toy_mean_reward)

# stream-index blocks inside PHASE_DIAG, so diagnostics never share noise
# draws with each other or with training phases
_IDX_UNBIAS_SWEEP = 1_000_000
_IDX_VARIANCE = 2_000_000
_IDX_ABLATION = 3_000_000
_IDX_BASELINE = 100_000
_IDX_DIAG_CTX = 999_999
_IDX_DIAG_BOOT = 999_998


def diag_unbiasedness(cfg: RunConfig) -> dict:
    """Mean-of-estimator checks on the one-step probe plus the baseline-term
    norm sweep on the trained model.

    The probe has a closed-form gradient, so both estimators' batch means
    must land within 3 standard errors of it. On the trained model the
    advantage's baseline term has expectation zero; its norm relative to
    the gradient estimate should shrink as trajectories accumulate.
    """
    policy, toy_sched = build_toy(0.5)
    n_toy = 20_000
    toy = sample_toy_trajectories(policy, toy_sched, n_toy, cfg.seed)
    scores = per_sample_scores(toy, policy, toy_sched)
    r = toy.rewards
    truth = toy_analytic_gradient()
    toy_checks = {}
    for name, baseline in (("terminal_reward", 0.0),
                           ("advantage", toy_mean_reward(0.5))):
        per_traj = scores * (r - baseline)[:, None]
        mean = per_traj.mean(axis=0)
        se = per_traj.std(axis=0, ddof=1) / np.sqrt(n_toy)
        dev = np.abs(mean - truth)
        toy_checks[name] = {
            "estimate": mean.tolist(),
            "max_dev_in_se": float((dev / se).max()),
            "within_3se": bool((dev <= 3.0 * se).all()),
        }

    clf = _load_classifier(cfg)
    model = _load_base_model(cfg)
    critic = _load_critic(cfg)
    sched = _schedule(cfg)
    spec = _reward_spec(cfg)
    sizes = (100, 1000, 10_000)
    rollouts = sample_trajectories(
        model, np.full(sizes[-1], cfg.reward.target_class), sched, cfg.seed,
        rngmod.PHASE_DIAG, first_index=_IDX_UNBIAS_SWEEP)
    assign_rewards(rollouts, spec, clf)
    # advantages are filled once for the whole batch; the prefixes reuse them
    compute_advantages(rollouts, critic)
    rows = []
    for n in sizes:
        prefix = rollouts[:n]
        b_norm = float(np.linalg.norm(
            baseline_term_estimate(prefix, model, critic, sched)))
        g_norm = float(np.linalg.norm(
            cgru_gradient(prefix, model, critic, cfg.estimator, sched).grad))
        rows.append((n, b_norm, g_norm, b_norm / g_norm))

    path = _path(cfg, "diag_unbiasedness.csv")
    _write_csv(path, ["N", "B_norm", "grad_norm", "ratio"], rows)
    lines = ["== unbiasedness =="]
    for name, chk in toy_checks.items():
        lines.append(f"  probe {name}: estimate "
                     f"({chk['estimate'][0]:+.4f}, {chk['estimate'][1]:+.4f}) "
                     f"vs truth (+0.0000, -1.0000), "
                     f"max deviation {chk['max_dev_in_se']:.2f} SE")
    for n, b, g, ratio in rows:
        lines.append(f"  N={n:<6d} |B|={b:.6f} |g|={g:.6f} ratio={ratio:.4f}")
    return {"paths": {"diag_unbiasedness": path},
            "info": {"toy": toy_checks, "sweep": rows,
                     "summary": "\n".join(lines)}}


def diag_variance(cfg: RunConfig, n_batches: int = 20,
                  n_bootstrap: int = 20) -> dict:
    """Paired per-component variance of the two estimators.

    Each batch of trajectories is scored by both estimators, so the
    comparison is on identical data; bootstrap resampling over batches
    counts how often the advantage estimator's variance is lower.
    """
    clf = _load_classifier(cfg)
    model = _load_base_model(cfg)
    critic = _load_critic(cfg)
    sched = _schedule(cfg)
    spec = _reward_spec(cfg)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_DIAG_CTX)
    ests = {"cgru": [], "ddpo": []}
    for b in range(n_batches):
        class_ids = _mixture_class_ids(cfg, cfg.policy.n_traj, ctx_rng)
        rollouts = sample_trajectories(model, class_ids, sched, cfg.seed,
                                       rngmod.PHASE_DIAG,
                                       first_index=_IDX_VARIANCE + b * 1000)
        assign_rewards(rollouts, spec, clf)
        ests["cgru"].append(cgru_gradient(rollouts, model, critic,
                                          cfg.estimator, sched))
        ests["ddpo"].append(ddpo_gradient(rollouts, model, sched,
                                          cfg.estimator))
    var = {m: gradient_variance(e) for m, e in ests.items()}

    boot_rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_DIAG_BOOT)
    wins = 0
    for _ in range(n_bootstrap):
        idx = boot_rng.integers(0, n_batches, n_batches)
        vc = gradient_variance([ests["cgru"][i] for i in idx])
        vd = gradient_variance([ests["ddpo"][i] for i in idx])
        wins += int(vc < vd)

    path = _path(cfg, "diag_variance.csv")
    _write_csv(path, ["estimator", "n_batches", "batch_size", "variance"],
               [(m, n_batches, cfg.policy.n_traj, var[m])
                for m in ("cgru", "ddpo")])
    ratio = var["ddpo"] / var["cgru"]
    summary = ("== gradient variance ==\n"
               f"  cgru {var['cgru']:.3e}  ddpo {var['ddpo']:.3e}  "
               f"ratio ddpo/cgru {ratio:.2f}\n"
               f"  bootstrap wins {wins}/{n_bootstrap}")
    return {"paths": {"diag_variance": path},
            "info": {"variance": var, "ratio": ratio, "wins": wins,
                     "n_bootstrap": n_bootstrap, "summary": summary}}


def diag_ablation(cfg: RunConfig, n_seeds: int = 5,
                  buffer_traj: int = 256) -> dict:
    """Timestep-aware vs timestep-blind critic fits on matched buffers.

    Uses the distance-to-mode reward on forget-class rollouts: its value
    depends on where a trajectory actually lands, so the target genuinely
    varies with t and timestep conditioning has signal to pick up.
    """
    model = _load_base_model(cfg)
    sched = _schedule(cfg)
    K = cfg.data.n_classes
    target = cfg.reward.target_class
    spec = RewardSpec("mode_distance",
                      center=tuple(mode_centers(K, cfg.data.radius)[target]),
                      scale=cfg.reward.scale)
    class_ids = np.full(buffer_traj, target)
    rows = []
    for s in range(n_seeds):
        buffer = build_critic_buffer(model, class_ids, spec, None, sched,
                                     cfg.seed, phase=rngmod.PHASE_DIAG,
                                     first_index=_IDX_ABLATION + s * 1000)
        aware, blind = ablation_compare(buffer, seed=s, T=cfg.diffusion.T,
                                        n_classes=K,
                                        hidden=cfg.critic.hidden,
                                        t_embed_dim=cfg.critic.t_embed_dim)
        rows.append(("timestep_aware", aware, s))
        rows.append(("timestep_blind", blind, s))

    path = _path(cfg, "diag_ablation.csv")
    _write_csv(path, ["model_kind", "held_out_mse", "seed"], rows)
    aware_wins = sum(rows[2 * i][1] < rows[2 * i + 1][1]
                     for i in range(n_seeds))
    lines = ["== critic timestep ablation =="]
    for i in range(n_seeds):
        lines.append(f"  seed {i}: aware {rows[2*i][1]:.4f}  "
                     f"blind {rows[2*i+1][1]:.4f}")
    lines.append(f"  aware wins {aware_wins}/{n_seeds}")
    return {"paths": {"diag_ablation": path},
            "info": {"rows": rows, "aware_wins": aware_wins,
                     "n_seeds": n_seeds, "summary": "\n".join(lines)}}


def diag_baseline_optimum(cfg: RunConfig, n_traj: int = 10_000) -> dict:
    """Estimator variance on the probe at baselines around E[r].

    The variance-minimizing constant baseline for the one-step probe is
    the mean reward itself, so the middle row should come out lowest.
    """
    bias = 0.5
    policy, sched = build_toy(bias)
    rollouts = sample_toy_trajectories(policy, sched, n_traj, cfg.seed,
                                       first_index=_IDX_BASELINE)
    er = toy_mean_reward(bias)
    pairs = optimal_baseline_probe(policy, sched, rollouts,
                                   [er - 1.0, er, er + 1.0])
    path = _path(cfg, "diag_baseline_optimum.csv")
    _write_csv(path, ["baseline", "variance"], pairs)
    best = min(pairs, key=lambda p: p[1])[0]
    lines = ["== baseline optimum =="]
    for b, v in pairs:
        marker = "  <- E[r]" if b == er else ""
        lines.append(f"  baseline {b:+.2f}: variance {v:.6f}{marker}")
    lines.append(f"  lowest at {best:+.2f} (mean reward {er:+.2f})")
    return {"paths": {"diag_baseline_optimum": path},
            "info": {"pairs": pairs, "best": best, "mean_reward": er,
                     "summary": "\n".join(lines)}}


_DIAG_FNS = {
    "unbiasedness": diag_unbiasedness,
    "variance": diag_variance,
    "ablation": diag_ablation,
    "baseline-optimum": diag_baseline_optimum,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH",
                    help="config file of dotted key = value lines")
    sp.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE", help="override one config key; "
                    "repeatable")
    sp.add_argument("--out", metavar="DIR",
                    help="output directory (shorthand for --set out_dir=DIR)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cgru",
        description="Critic-guided unlearning experiments on a 2-D "
                    "conditional diffusion model.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    helps = {
        "classifier": "fit the reward classifier on the mixture dataset",
        "pretrain": "train the conditional denoiser by standard DDPM",
        "critic": "fit the per-timestep value critic on base-model rollouts",
        "full": "run every phase, both methods, and write a manifest",
        "report": "aggregate a finished run's CSVs into summary tables",
    }
    for name in ("classifier", "pretrain", "critic", "full", "report"):
        _add_common(sub.add_parser(name, help=helps[name]))

    up = sub.add_parser("unlearn", help="fine-tune away the forget class")
    _add_common(up)
    up.add_argument("--method", choices=("cgru", "ddpo"), default="cgru",
                    help="advantage estimator (cgru) or terminal-reward "
                    "baseline (ddpo)")

    ep = sub.add_parser("eval", help="score a checkpoint on the eval protocol")
    _add_common(ep)
    ep.add_argument("--method", choices=("cgru", "ddpo", "base"),
                    default="cgru", help="which checkpoint to score")

    dp = sub.add_parser("diag", help="estimator and critic diagnostics")
    dsub = dp.add_subparsers(dest="which", required=True, metavar="CHECK")
    diag_helps = {
        "variance": "paired gradient variance of both estimators",
        "unbiasedness": "probe-gradient and baseline-term checks",
        "ablation": "timestep-aware vs timestep-blind critic fits",
        "baseline-optimum": "variance around the optimal constant baseline",
    }
    for which in ("variance", "unbiasedness", "ablation", "baseline-optimum"):
        _add_common(dsub.add_parser(which, help=diag_helps[which]))
    return p


def _resolve_config(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config, args.overrides)
    else:
        cfg = apply_overrides(RunConfig(), args.overrides)
    if args.out:
        cfg = apply_overrides(cfg, [f"out_dir={args.out}"])
    validate(cfg)
    return cfg


def _dispatch(args, cfg: RunConfig) -> dict:
    if args.command == "classifier":
        return pipeline.run_classifier(cfg)
    if args.command == "pretrain":
        return pipeline.run_pretrain(cfg)
    if args.command == "critic":
        return pipeline.run_critic(cfg)
    if args.command == "unlearn":
        return pipeline.run_unlearn(cfg, args.method)
    if args.command == "eval":
        return pipeline.run_eval(cfg, args.method)
    if args.command == "report":
        return pipeline.run_report(cfg)
    if args.command == "full":
        manifest = pipeline.run_full(cfg)
        lines = ["== full run =="]
        for name, rec in manifest.phases.items():
            lines.append(f"  {name:14s} {rec['status']:6s} {rec['seconds']:.1f}s")
        return {"paths": {"manifest": _path(cfg, "manifest.json")},
                "info": {"summary": "\n".join(lines)}}
    if args.command == "diag":
        with _locked(cfg.out_dir):
            return _DIAG_FNS[args.which](cfg)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # keep numpy warnings, shard threads' too, from burying Divergence
        with np.errstate(over="ignore", invalid="ignore"):
            result = _dispatch(args, _resolve_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CgruError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in sorted(result.get("paths", {})):
        print(f"wrote {result['paths'][name]}")
    info = result.get("info", {})
    if "summary" in info:
        print(info["summary"])
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
