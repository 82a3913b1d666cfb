"""Command-line front end: every pipeline phase and diagnostic is a
subcommand, configured through --config files plus dotted --set overrides.

Exit codes: 0 success, 1 phase failure (missing artifact, unmet gate,
lock contention, bad checkpoint or one written under another config),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import pipeline
from .config import RunConfig, apply_overrides, load_config
from .diag import (diag_ablation, diag_baseline_optimum, diag_unbiasedness,
                   diag_variance)
from .errors import CgruError, ConfigError


def _full(cfg: RunConfig, args) -> dict:
    manifest = pipeline.run_full(cfg)
    lines = ["== full run =="]
    for name, rec in manifest.phases.items():
        lines.append(f"  {name:14s} {rec['status']:6s} {rec['seconds']:.1f}s")
    return {"paths": {"manifest": pipeline.out_path(cfg, "manifest.json")},
            "info": {"summary": "\n".join(lines)}}


# command: (help, handler(cfg, args)), in the order --help lists them
_COMMANDS = {
    "classifier": ("fit the reward classifier on the mixture dataset",
                   lambda cfg, args: pipeline.run_classifier(cfg)),
    "pretrain": ("train the conditional denoiser by standard DDPM",
                 lambda cfg, args: pipeline.run_pretrain(cfg)),
    "critic": ("fit the per-timestep value critic on base-model rollouts",
               lambda cfg, args: pipeline.run_critic(cfg)),
    "full": ("run every phase, both methods, and write a manifest", _full),
    "report": ("aggregate a finished run's CSVs into summary tables",
               lambda cfg, args: pipeline.run_report(cfg)),
    "unlearn": ("fine-tune away the forget class",
                lambda cfg, args: pipeline.run_unlearn(cfg, args.method)),
    "eval": ("score a checkpoint on the eval protocol",
             lambda cfg, args: pipeline.run_eval(cfg, args.method)),
    "diag": ("estimator and critic diagnostics",
             lambda cfg, args: _DIAGS[args.which][1](cfg)),
}
# the --method option of the commands that take one
_METHODS = {
    "unlearn": dict(choices=("cgru", "ddpo"), help="advantage estimator "
                    "(cgru) or terminal-reward baseline (ddpo)"),
    "eval": dict(choices=("cgru", "ddpo", "base"),
                 help="which checkpoint to score"),
}
_DIAGS = {
    "variance": ("paired gradient variance of both estimators",
                 diag_variance),
    "unbiasedness": ("probe-gradient and baseline-term checks",
                     diag_unbiasedness),
    "ablation": ("timestep-aware vs timestep-blind critic fits",
                 diag_ablation),
    "baseline-optimum": ("variance around the optimal constant baseline",
                         diag_baseline_optimum),
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
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "diag":
            checks = sp.add_subparsers(dest="which", required=True,
                                       metavar="CHECK")
            for which, (check_help, _) in _DIAGS.items():
                _add_common(checks.add_parser(which, help=check_help))
            continue
        _add_common(sp)
        if name in _METHODS:
            sp.add_argument("--method", default="cgru", **_METHODS[name])
    return p


def _resolve_config(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config, args.overrides)
    else:
        cfg = apply_overrides(RunConfig(), args.overrides)
    if args.out:
        cfg = apply_overrides(cfg, [f"out_dir={args.out}"])
    return cfg       # each command validates it


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # keep numpy warnings, forked workers' too, from burying Divergence
        with np.errstate(over="ignore", invalid="ignore"):
            result = _COMMANDS[args.command][1](_resolve_config(args), args)
    except KeyboardInterrupt as exc:
        # a Ctrl-C that lands while an exception is being handled would
        # print that exception's traceback above its own
        exc.__suppress_context__ = True
        raise
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
