"""Estimator and critic diagnostics, one function per `cgru diag` check.

All but baseline-optimum read the run's networks through `pipeline.load`.
Each writes one CSV into the run directory and holds its lock meanwhile.
"""

from __future__ import annotations

import functools

import numpy as np

from . import rng as rngmod
from .config import RunConfig
from .critic import ablation_compare, build_critic_buffer, value_matrix
from .diffusion import mode_centers, sample_trajectories
from .pipeline import (load, locked_run, mixture_class_ids, out_path,
                       reward_fn, schedule, write_csv)
from .policy_grad import (clip_to_norm, gradient_variance, group_estimates,
                          optimal_baseline_probe, per_sample_scores)
from .rewards import assign_rewards, mode_distance_reward
from .toy import (build_toy, sample_toy_trajectories, toy_analytic_gradient,
                  toy_mean_reward)

_VARIANCE_BOOTSTRAP = 20
_ABLATION_TRAJ = 256
_SWEEP_SIZES = (100, 1000, rngmod.BLOCKS["sweep"].rows)


def norm_sweep(cfg: RunConfig, model, critic, clf,
               sizes=_SWEEP_SIZES) -> list:
    """(N, |B|, |g|, |B| / |g|) at each prefix size N of one streamed
    batch of sizes[-1] forget-class rollouts of the trained model: B is
    the baseline term's mean over the first N rollouts, g the clipped
    cgru estimate's.

    The batch is one walk of group_estimates grouped at the prefix sizes,
    and each 256-row shard of it samples its own rollouts (rows lo..hi-1
    of stream block "sweep"), assigns their rewards and runs their critic
    pass. So only shard-sized arrays and the walk's (2, groups, P)
    partials exist, at any sizes[-1]; a prefix's estimate is its
    cumulative group sum over N.
    """
    sched, reward = schedule(cfg), reward_fn(cfg, clf)
    phase, first = rngmod.key("sweep")

    def rows(lo, hi):
        rollouts = sample_trajectories(
            model, np.full(hi - lo, cfg.reward.target_class), sched,
            cfg.seed, phase, first + lo)
        assign_rewards(rollouts, reward)
        return rollouts, value_matrix(critic, rollouts)

    means, _ = group_estimates(sizes[-1], model, rows, cfg.estimator, sched,
                               ["baseline", "cgru"], cuts=sizes[:-1])
    counts = np.diff((0, *sizes))
    prefix_sums = np.cumsum(means * counts[:, None], axis=1)
    out = []
    for j, n in enumerate(sizes):
        b_norm = float(np.linalg.norm(prefix_sums[0, j] / n))
        g_norm = float(np.linalg.norm(clip_to_norm(
            prefix_sums[1, j] / n, cfg.estimator.grad_max_norm)))
        out.append((n, b_norm, g_norm, b_norm / g_norm))
    return out


@locked_run
def diag_unbiasedness(cfg: RunConfig) -> dict:
    """Mean-of-estimator checks on the one-step probe plus the baseline-term
    norm sweep on the trained model.

    The probe has a closed-form gradient, so both estimators' batch means
    must land within 3 standard errors of it. On the trained model the
    advantage's baseline term has expectation zero; its norm relative to
    the gradient estimate should shrink as trajectories accumulate. The
    sweep (norm_sweep) streams its rollouts through the walk: each
    256-row shard samples, rewards and values its own rows.
    """
    policy, toy_sched = build_toy(0.5)
    n_toy = rngmod.BLOCKS["probe"].rows
    toy = sample_toy_trajectories(policy, toy_sched, n_toy, cfg.seed,
                                  rngmod.key("probe")[1])
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

    clf, model, critic = (load(cfg, name)
                          for name in ("classifier", "eps_base", "critic"))
    rows = norm_sweep(cfg, model, critic, clf)

    path = write_csv(out_path(cfg, "diag_unbiasedness.csv"),
                     ["N", "B_norm", "grad_norm", "ratio"], rows)
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


@locked_run
def diag_variance(cfg: RunConfig) -> dict:
    """Paired per-component variance of the two estimators.

    Each batch of trajectories is scored by both estimators, so the
    comparison is on identical data; bootstrap resampling over batches
    counts how often the advantage estimator's variance is lower. The
    batches run as shards of one rng.run_sharded pass, one batch each.

    The (2, batches, P) table ests is the one P-sized array held. Both
    main variances and every resample's are reduced from it in column
    blocks by gradient_variance, a resample passing its batch index, so
    no (batches, P) copy or deviation array is built; a column's
    variance does not depend on its block, so the bits are those of the
    whole-table reduction.
    """
    clf, model, critic = (load(cfg, name)
                          for name in ("classifier", "eps_base", "critic"))
    sched, reward = schedule(cfg), reward_fn(cfg, clf)
    n_batches = rngmod.BLOCKS["variance batch"].count
    ctx_rng = rngmod.stream(cfg.seed, *rngmod.key("variance class ids"))
    # every batch's class ids, drawn in batch order before any batch runs
    class_ids = [mixture_class_ids(cfg, cfg.policy.n_traj, ctx_rng)
                 for _ in range(n_batches)]
    methods = ("cgru", "ddpo")
    # ests[k, b]: method k's clipped estimate on batch b
    ests = np.empty((len(methods), n_batches, model.net.theta.size))

    def batch(b, _):
        rollouts = sample_trajectories(model, class_ids[b], sched, cfg.seed,
                                       *rngmod.key("variance batch", b))
        assign_rewards(rollouts, reward)
        # both estimators from one walk over the batch
        means, _ = group_estimates(
            rollouts, model, value_matrix(critic, rollouts), cfg.estimator,
            sched, methods)
        return b, [clip_to_norm(mean, cfg.estimator.grad_max_norm)
                   for mean in means[:, 0]]

    def fold(part):
        b, clipped = part
        ests[:, b] = clipped

    rngmod.run_sharded(batch, n_batches, fold=fold, chunk=1)
    var = {m: gradient_variance(ests[k]) for k, m in enumerate(methods)}

    boot_rng = rngmod.stream(cfg.seed, *rngmod.key("variance bootstrap"))
    wins = 0
    for _ in range(_VARIANCE_BOOTSTRAP):
        idx = boot_rng.integers(0, n_batches, n_batches)
        vc, vd = (gradient_variance(e, idx) for e in ests)
        wins += int(vc < vd)

    path = write_csv(out_path(cfg, "diag_variance.csv"),
                     ["estimator", "n_batches", "batch_size", "variance"],
                     [(m, n_batches, cfg.policy.n_traj, var[m])
                      for m in methods])
    ratio = var["ddpo"] / var["cgru"]
    summary = ("== gradient variance ==\n"
               f"  cgru {var['cgru']:.3e}  ddpo {var['ddpo']:.3e}  "
               f"ratio ddpo/cgru {ratio:.2f}\n"
               f"  bootstrap wins {wins}/{_VARIANCE_BOOTSTRAP}")
    return {"paths": {"diag_variance": path},
            "info": {"variance": var, "ratio": ratio, "wins": wins,
                     "n_bootstrap": _VARIANCE_BOOTSTRAP, "summary": summary}}


@locked_run
def diag_ablation(cfg: RunConfig) -> dict:
    """Timestep-aware vs timestep-blind critic fits on matched buffers.

    Uses the distance-to-mode reward on forget-class rollouts: its value
    depends on where a trajectory actually lands, so the target genuinely
    varies with t and timestep conditioning has signal to pick up.
    """
    model, sched = load(cfg, "eps_base"), schedule(cfg)
    K = cfg.data.n_classes
    target = cfg.reward.target_class
    reward = functools.partial(mode_distance_reward,
                               center=mode_centers(K, cfg.data.radius)[target],
                               scale=cfg.reward.scale)
    class_ids = np.full(_ABLATION_TRAJ, target)
    n_seeds = rngmod.BLOCKS["ablation"].count
    rows = []
    for s in range(n_seeds):
        phase, start = rngmod.key("ablation", s)
        buffer = build_critic_buffer(model, class_ids, reward, sched,
                                     cfg.seed, phase, start)
        aware, blind = ablation_compare(
            buffer, cfg.seed, start + 500,
            T=cfg.diffusion.T, n_classes=K, hidden=cfg.critic.hidden,
            t_embed_dim=cfg.critic.t_embed_dim)
        rows.append(("timestep_aware", aware, s))
        rows.append(("timestep_blind", blind, s))

    path = write_csv(out_path(cfg, "diag_ablation.csv"),
                     ["model_kind", "held_out_mse", "seed"], rows)
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


@locked_run
def diag_baseline_optimum(cfg: RunConfig) -> dict:
    """Estimator variance on the probe at baselines around E[r].

    The variance-minimizing constant baseline for the one-step probe is
    the mean reward itself, so the middle row should come out lowest.
    """
    bias = 0.5
    policy, sched = build_toy(bias)
    rollouts = sample_toy_trajectories(
        policy, sched, rngmod.BLOCKS["baseline probe"].rows, cfg.seed,
        rngmod.key("baseline probe")[1])
    er = toy_mean_reward(bias)
    pairs = optimal_baseline_probe(policy, sched, rollouts,
                                   [er - 1.0, er, er + 1.0])
    path = write_csv(out_path(cfg, "diag_baseline_optimum.csv"),
                     ["baseline", "variance"], pairs)
    best = min(pairs, key=lambda p: p[1])[0]
    lines = ["== baseline optimum =="]
    for b, v in pairs:
        marker = "  <- E[r]" if b == er else ""
        lines.append(f"  baseline {b:+.2f}: variance {v:.6f}{marker}")
    lines.append(f"  lowest at {best:+.2f} (mean reward {er:+.2f})")
    return {"paths": {"diag_baseline_optimum": path},
            "info": {"pairs": pairs, "best": best, "mean_reward": er,
                     "summary": "\n".join(lines)}}
