"""The traced layer boundaries and the per-layer metrics they yield.

Each target names a public function of a module under src/cgru, the span
name its calls are recorded under, and the counts taken from its arguments
or its result. `per_layer_metrics` turns the tracer's aggregates into the
metric names that BENCHMARK.json lists under `per_layer`.
"""

from __future__ import annotations

from tracer import Patch, Tracer, sharded_wrapper, span_wrapper

ESTIMATORS = ("cgru_gradient", "ddpo_gradient", "baseline_term_estimate",
              "per_sample_scores", "gradient_variance")
PIPELINE_PHASES = ("classifier", "pretrain", "critic", "unlearn_cgru",
                   "unlearn_ddpo", "eval_cgru", "eval_ddpo")
DIAGS = ("diag_unbiasedness", "diag_variance")


def _arg(args, kwargs, index, key, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _size(x) -> int:
    """Leading dimension of a batch: rows of an array, items of a list."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) >= 2 else 1
    return len(x)


def _phase_tags() -> dict:
    from cgru import rng
    return {rng.PHASE_POLICY: "policy", rng.PHASE_EVAL: "eval",
            rng.PHASE_CRITIC_BUFFER: "critic_buffer", rng.PHASE_DIAG: "diag"}


def install(tracer: Tracer) -> Patch:
    """Wrap every traced boundary; the caller must restore() the Patch."""
    tags = _phase_tags()
    patch = Patch()

    def rows(args, kwargs, result):
        return {"rows": _size(_arg(args, kwargs, 1, "x"))}

    def sample_name(args, kwargs):
        tag = tags.get(_arg(args, kwargs, 4, "phase"), "other")
        return f"diffusion.sample_trajectories.{tag}"

    def rollouts(args, kwargs, result):
        n = len(_arg(args, kwargs, 1, "ctxs"))
        return {"traj": n, "traj_steps": n * _arg(args, kwargs, 2, "sched").T}

    def buffer_samples(args, kwargs, result):
        return {"samples": len(result)}

    def sample_epochs(args, kwargs, result):
        return {"sample_epochs": len(_arg(args, kwargs, 1, "buffer"))
                * _arg(args, kwargs, 2, "epochs")}

    def update_stats(args, kwargs, result):
        return {"updates": result["updates"],
                "clip_fraction_sum": result["clip_fraction"],
                "grad_norm_mean_sum": result["grad_norm_mean"]}

    def first_len(args, kwargs, result):
        return {"traj": len(args[0]) if args else len(next(iter(kwargs.values())))}

    plain = [("nets", "adam_step"), ("diffusion", "ddpm_train_step"),
             ("rng", "stream"), ("rewards", "train_classifier"),
             ("metrics", "frechet_distance"), ("checkpoint", "save_network"),
             ("checkpoint", "load_network")]
    for mod, fn in plain:
        patch.replace(f"cgru.{mod}", fn, span_wrapper(tracer, f"{mod}.{fn}"))
    for fn in ("forward", "backward"):
        patch.replace("cgru.nets", fn, span_wrapper(tracer, f"nets.{fn}", rows))
    patch.replace("cgru.diffusion", "sample_trajectories",
                  span_wrapper(tracer, sample_name, rollouts))
    patch.replace("cgru.rng", "run_sharded",
                  sharded_wrapper(tracer, "rng.run_sharded"))
    patch.replace("cgru.critic", "build_critic_buffer",
                  span_wrapper(tracer, "critic.build_critic_buffer",
                               buffer_samples))
    patch.replace("cgru.critic", "critic_train",
                  span_wrapper(tracer, "critic.critic_train", sample_epochs))
    patch.replace("cgru.policy_grad", "policy_update_epoch",
                  span_wrapper(tracer, "policy_grad.policy_update_epoch",
                               update_stats))
    for fn in ESTIMATORS:
        patch.replace("cgru.policy_grad", fn,
                      span_wrapper(tracer, f"policy_grad.{fn}", first_len))
    patch.replace("cgru.rewards", "assign_rewards",
                  span_wrapper(tracer, "rewards.assign_rewards", first_len))
    return patch


def per_layer_metrics(names: list, stats: dict, phase_s: dict,
                      diag_s: dict) -> dict:
    """Values of the named per-layer metrics from tracer stats plus phase
    and diag times; `trace.*` names are left to the caller.

    A name is `<span>.<key>`, where key is a counter the span recorded or a
    rate derived from them. Counters absent from a workload read 0. Rates
    are per unit of work over the span's inclusive time.
    """
    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    out = {}
    for name in names:
        if name.startswith("pipeline.phase."):
            out[name] = phase_s.get(name[len("pipeline.phase."):-len(".s")], 0.0)
        elif name.startswith("cli."):
            out[name] = diag_s.get(name[len("cli."):-len(".s")], 0.0)
        elif name.startswith("trace."):
            continue
        else:
            span, key = name.rsplit(".", 1)
            if key == "us_per_traj_step":
                steps = get(span, "traj_steps")
                out[name] = 1e6 * get(span, "incl_s") / steps if steps else 0.0
            elif key == "us_per_sample_epoch":
                n = get(span, "sample_epochs")
                out[name] = 1e6 * get(span, "incl_s") / n if n else 0.0
            elif key in ("clip_fraction", "grad_norm_mean"):
                calls = get(span, "calls")
                out[name] = get(span, f"{key}_sum") / calls if calls else 0.0
            else:
                out[name] = get(span, key)
    return out
