"""End-to-end orchestration of the unlearning experiment.

Phases run in dependency order: classifier -> pretrain -> critic ->
unlearn (one run per method) -> eval. `run_full` fits the classifier in
a forked child while it pretrains, up to pretrain's first gate check,
and the critic in another while it runs the ddpo arm, which needs no
critic. Each unlearn arm monitors in one forked worker beside its
training. Every phase reads only declared checkpoint artifacts plus the
config, re-derives its random streams from the master seed, and writes
its outputs under cfg.out_dir, so reruns with an identical config are
byte-identical. A kernel lock on one file serializes runs that share an
output directory (`procs._locked`).

Networks are read and written only through `load` and `_save`, which
record and check the config sections each network depends on.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import os
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import procs
from . import rng as rngmod
from .checkpoint import load_network, replacing, save_network
from .config import (EXPERIMENT, RunConfig, config_hash, config_lines,
                     render_value, validate)
from .critic import (Critic, build_critic, build_critic_buffer, critic_train,
                     value_matrix)
from .diffusion import (build_eps_net, ddpm_train_step, make_schedule,
                        sample_dataset, sample_trajectories)
from .errors import Divergence, MissingArtifact, PhaseFailure
from .metrics import EvalReport, feature_stats, frechet_distance
from .nets import adam_init
from .policy_grad import (clip_to_norm, gradient_variance, group_estimates,
                          policy_update_epoch)
from .rewards import (assign_rewards, build_classifier_net,
                      classifier_accuracy, classifier_predict,
                      classifier_reward, train_classifier)

# the unlearn loop's gradient diagnostics and eval run on every fifth
# iteration and the last; a constant, not a config key, so that the cadence
# moves neither run_id nor any training stream
_MONITOR_EVERY = 5
# one row per monitored unlearn iteration: gradient diagnostics, eval, reward
_MONITOR_HEADER = ["run_id", "iteration", "estimator", "n_traj", "grad_norm",
                   "grad_variance", "clip_count", "ua", "ira", "fd",
                   "mean_reward"]


@dataclass
class RunManifest:
    config_hash: str
    config: list = field(default_factory=list)     # the lines hashed
    blas: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    def record_phase(self, name: str, status: str, seconds: float,
                     error: str | None = None, info: dict | None = None) -> None:
        self.phases[name] = {"status": status, "seconds": round(seconds, 3)}
        if error is not None:
            self.phases[name]["error"] = error
        if info is not None:
            # the summary is the CLI's text rendering of the same values
            self.phases[name]["info"] = {k: v for k, v in info.items()
                                         if k != "summary"}

    def record_artifacts(self, paths: dict) -> None:
        for name, path in paths.items():
            self.artifacts[name] = {"path": path, "sha256": _sha256(path)}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path: str, header: list, rows: Iterable) -> str:
    with replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(render_value(v) for v in row) + "\n")
    return path


def out_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifact(f"required artifact missing: {path}")
    return path


def _dataset(cfg: RunConfig):
    rng = rngmod.stream(cfg.seed, *rngmod.key("dataset"))
    return sample_dataset(cfg.data.n_samples, rng,
                          n_classes=cfg.data.n_classes,
                          radius=cfg.data.radius, stddev=cfg.data.stddev)


def schedule(cfg: RunConfig):
    return make_schedule(cfg.diffusion.T, cfg.diffusion.beta_start,
                         cfg.diffusion.beta_end)


def reward_fn(cfg: RunConfig, clf):
    """The run's reward, x0 -> scale * (1 - p(target | x0)) under clf."""
    return functools.partial(classifier_reward, clf,
                             target_class=cfg.reward.target_class,
                             scale=cfg.reward.scale)


def _build_classifier(cfg: RunConfig):
    return build_classifier_net(
        2, cfg.data.n_classes, cfg.classifier.hidden,
        rng=rngmod.stream(cfg.seed, *rngmod.key("classifier init")))


def _build_model(cfg: RunConfig):
    return build_eps_net(2, cfg.data.n_classes, hidden=cfg.eps_net.hidden,
                         t_embed_dim=cfg.eps_net.t_embed_dim,
                         rng=rngmod.stream(cfg.seed, *rngmod.key("eps init")),
                         T=cfg.diffusion.T)


def _build_critic(cfg: RunConfig) -> Critic:
    return build_critic(2, cfg.data.n_classes, cfg.diffusion.T,
                        hidden=cfg.critic.hidden,
                        t_embed_dim=cfg.critic.t_embed_dim,
                        rng=rngmod.stream(cfg.seed, *rngmod.key("critic init")))


_CLASSIFIER = ("seed", "data", "classifier")
_BASE = _CLASSIFIER + ("diffusion", "eps_net", "pretrain")
_CRITIC = _BASE + ("reward", "critic")

# network: (builder, config sections whose values determine it); each is
# stored as <name>.ckpt in the run directory
_NETWORKS = {
    "classifier": (_build_classifier, _CLASSIFIER),
    "eps_base": (_build_model, _BASE),
    "critic": (_build_critic, _CRITIC),
    "eps_unlearned_ddpo": (_build_model, _BASE + ("reward", "policy",
                                                  "estimator")),
    "eps_unlearned_cgru": (_build_model, _CRITIC + ("policy", "estimator")),
}


def load(cfg: RunConfig, name: str):
    """Network `name` of the run directory, as its builder returns it.

    Raises MissingArtifact if the checkpoint is absent and CheckpointError
    if it was written under other values of the sections `name` depends on.
    """
    build, sections = _NETWORKS[name]
    path = _require(out_path(cfg, f"{name}.ckpt"))
    model = build(cfg)
    # an EpsModel or Critic wraps its Network; the classifier is one
    load_network(path, getattr(model, "net", model),
                 config_lines(cfg, sections))
    return model


def _save(cfg: RunConfig, name: str, net) -> str:
    path = out_path(cfg, f"{name}.ckpt")
    save_network(path, net, config_lines(cfg, _NETWORKS[name][1]))
    return path


def mixture_class_ids(cfg: RunConfig, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw n class ids: the forget class with prob forget_fraction, else
    uniform over the remaining classes."""
    K = cfg.data.n_classes
    target = cfg.reward.target_class
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        if rng.random() < cfg.reward.forget_fraction:
            out[i] = target
        else:
            off = int(rng.integers(0, K - 1))
            out[i] = off if off < target else off + 1
    return out


def _per_class_accuracy(class_ids: np.ndarray, labels: np.ndarray) -> dict:
    """For each class present, the fraction of its samples labeled as it."""
    return {int(k): float((labels[class_ids == k] == k).mean())
            for k in np.unique(class_ids)}


def _eval_model(cfg: RunConfig, model, clf, sched, n_forget: int,
                n_retain_each: int, block: str,
                retain_reference: np.ndarray) -> EvalReport:
    """Score n_forget forget-class samples and n_retain_each of each
    retained class, all classified in one call, from stream block `block`.

    retain_reference holds real data points from the retained classes; the
    Frechet distance compares the generated retain samples against it.
    """
    target = cfg.reward.target_class
    retain = [k for k in range(cfg.data.n_classes) if k != target]
    class_ids = np.concatenate([np.full(n_forget, target, dtype=np.int64),
                                np.repeat(retain, n_retain_each)])
    x0 = sample_trajectories(model, class_ids, sched, cfg.seed,
                             *rngmod.key(block)).x0
    labels = classifier_predict(clf, x0)
    per_class = _per_class_accuracy(class_ids[n_forget:], labels[n_forget:])
    fd = frechet_distance(feature_stats(retain_reference),
                          feature_stats(x0[n_forget:]))
    return EvalReport(ua=float((labels[:n_forget] != target).mean()),
                      ira=float(np.mean(list(per_class.values()))), fd=fd,
                      per_class_acc=per_class)


def _retain_reference(cfg: RunConfig, X: np.ndarray, y: np.ndarray):
    return X[y != cfg.reward.target_class]


# ---------------------------------------------------------------------------
# phases


def _classifier_phase(cfg: RunConfig) -> dict:
    X, y = _dataset(cfg)
    split = cfg.data.n_samples - cfg.data.holdout
    net, history = train_classifier(
        X[:split], y[:split], cfg.data.n_classes,
        rngmod.stream(cfg.seed, *rngmod.key("classifier fit")),
        hidden=cfg.classifier.hidden, steps=cfg.classifier.steps,
        batch=cfg.classifier.batch_size, lr=cfg.classifier.lr)
    acc = classifier_accuracy(net, X[split:], y[split:])
    if acc < cfg.classifier.target_acc:
        raise PhaseFailure(
            f"classifier holdout accuracy {acc:.4f} is below the "
            f"{cfg.classifier.target_acc} gate")
    paths = {
        "classifier": _save(cfg, "classifier", net),
        "classifier_loss": write_csv(
            out_path(cfg, "classifier_loss.csv"), ["step", "loss"],
            [(i + 1, float(l)) for i, l in enumerate(history)]),
        "dataset": write_csv(out_path(cfg, "dataset.csv"),
                             ["x0", "x1", "class"],
                             ((float(a), float(b), int(c))
                              for (a, b), c in zip(X, y))),
    }
    return {"paths": paths, "info": {"holdout_accuracy": acc}}


def _pretrain_phase(cfg: RunConfig, classifier=None) -> dict:
    """Train the denoiser until every class passes the classifier's gate.

    Without `classifier` the classifier is loaded before the first step;
    `run_full` passes a callable that returns it instead, which is called
    at the first gate check, once that check's samples are drawn.
    """
    clf = load(cfg, "classifier") if classifier is None else None
    X, y = _dataset(cfg)
    split = cfg.data.n_samples - cfg.data.holdout
    sched = schedule(cfg)
    model = _build_model(cfg)
    opt = adam_init(model.net, lr=cfg.pretrain.lr)
    rng = rngmod.stream(cfg.seed, *rngmod.key("pretrain"))

    loss_rows = []
    acc_rows = []
    accs = {}
    for step in range(1, cfg.pretrain.max_steps + 1):
        idx = rng.integers(0, split, cfg.pretrain.batch_size)
        loss = ddpm_train_step(model, X[idx], y[idx], sched, rng, opt)
        loss_rows.append((step, float(loss)))
        if step % cfg.pretrain.eval_every == 0 or step == cfg.pretrain.max_steps:
            class_ids = np.repeat(np.arange(cfg.data.n_classes),
                                  cfg.pretrain.eval_per_class)
            x0 = sample_trajectories(model, class_ids, sched, cfg.seed,
                                     *rngmod.key("monitor eval")).x0
            if clf is None:
                clf = classifier()
            accs = _per_class_accuracy(class_ids, classifier_predict(clf, x0))
            acc_rows.append((step, *[accs[k] for k in sorted(accs)]))
            if min(accs.values()) >= cfg.pretrain.target_acc:
                break
    else:
        detail = ", ".join(f"class {k}: {v:.3f}" for k, v in sorted(accs.items()))
        raise PhaseFailure(
            f"pretrain budget of {cfg.pretrain.max_steps} steps exhausted "
            f"below the {cfg.pretrain.target_acc} per-class gate ({detail})")

    paths = {
        "eps_base": _save(cfg, "eps_base", model.net),
        "pretrain_loss": write_csv(out_path(cfg, "pretrain_loss.csv"),
                                   ["step", "loss"], loss_rows),
        "pretrain_acc": write_csv(
            out_path(cfg, "pretrain_acc.csv"),
            ["step"] + [f"class_{k}" for k in range(cfg.data.n_classes)],
            acc_rows),
    }
    return {"paths": paths,
            "info": {"steps": step, "per_class_acc": accs}}


def _critic_phase(cfg: RunConfig) -> dict:
    clf, model = load(cfg, "classifier"), load(cfg, "eps_base")
    sched = schedule(cfg)
    ctx_rng = rngmod.stream(cfg.seed, *rngmod.key("critic class ids"))
    class_ids = mixture_class_ids(cfg, cfg.critic.n_traj, ctx_rng)
    buffer = build_critic_buffer(model, class_ids, reward_fn(cfg, clf),
                                 sched, cfg.seed, *rngmod.key("critic buffer"))
    critic = _build_critic(cfg)
    losses = critic_train(critic, buffer, epochs=cfg.critic.epochs,
                          batch_size=cfg.critic.batch_size,
                          rng=rngmod.stream(cfg.seed, *rngmod.key("critic fit")),
                          lr=cfg.critic.lr)
    paths = {
        "critic": _save(cfg, "critic", critic.net),
        "critic_loss": write_csv(
            out_path(cfg, "critic_loss.csv"), ["epoch", "loss"],
            [(i + 1, float(l)) for i, l in enumerate(losses)]),
    }
    return {"paths": paths,
            "info": {"buffer_size": len(buffer), "final_loss": losses[-1]}}


def _policy_lr(cfg: RunConfig, it: int) -> float:
    span = cfg.policy.lr_decay_frac * max(1, cfg.policy.iterations)
    frac = min(1.0, it / span)
    return cfg.policy.lr * (1.0 + (cfg.policy.lr_end_frac - 1.0) * frac)


def _monitored_iterations(iterations: int) -> list:
    """The 1-based unlearn iterations that run the diagnostics and eval:
    every _MONITOR_EVERY-th one and the last."""
    return [it for it in range(1, iterations + 1)
            if it % _MONITOR_EVERY == 0 or it == iterations]


@contextmanager
def _clock(seconds: dict, key: str):
    """Add the wall-clock seconds of the block to seconds[key]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[key] += time.perf_counter() - start


def _diag_gradients(rollouts, model, values, cfg, sched, method):
    """Full-batch gradient norm plus sub-batch variance, both on-policy,
    from one walk grouped into four equal sub-batches of n // 4 rows (n
    of one row when n < 4). Remainder rows count toward the full batch
    only; cgru weights by the batch's (n, T) value matrix."""
    n = len(rollouts)
    size = max(1, n // 4)
    n_sub = min(4, n // size)
    cuts = [k * size for k in range(1, n_sub + 1) if k * size < n]
    means, _ = group_estimates(rollouts, model, values, cfg.estimator, sched,
                               [method], cuts)
    sizes = np.diff([0, *cuts, n])
    max_norm = cfg.estimator.grad_max_norm
    full = clip_to_norm((means[0] * sizes[:, None]).sum(axis=0) / n, max_norm)
    subs = np.stack([clip_to_norm(g, max_norm) for g in means[0, :n_sub]])
    var = gradient_variance(subs) if n_sub >= 2 else float("nan")
    return float(np.linalg.norm(full)), var


@contextmanager
def _at_iteration(method: str, it: int):
    """Name the arm and 1-based iteration in a Divergence of the block."""
    try:
        yield
    except Divergence as exc:
        raise Divergence(f"unlearn {method}, iteration {it}: {exc}") from exc


def _unlearn_phase(cfg: RunConfig, method: str = "cgru") -> dict:
    """One unlearn arm. A monitored iteration's diagnostics walk the
    pre-update model on the iteration's rollouts and values, and its eval
    samples the post-update model. Both run beside the next iterations in
    the arm's monitor worker, forked when the arm starts, which is sent
    the iteration's theta before and after its update with its rollouts
    and values. This process collects the row at the next monitored
    iteration, after the last one, or as soon as training fails, so a
    monitor failure is raised before any later one, naming its own
    iteration. `monitor_s` is this process's seconds on monitoring,
    `monitor_child_s` the worker's own, summed over its rows."""
    if method not in ("cgru", "ddpo"):
        raise ValueError(f"unknown method {method!r}")
    clf, model = load(cfg, "classifier"), load(cfg, "eps_base")
    critic = load(cfg, "critic") if method == "cgru" else None
    sched, reward = schedule(cfg), reward_fn(cfg, clf)

    X, y = _dataset(cfg)
    retain_ref = _retain_reference(cfg, X, y)
    run_id = config_hash(cfg)[:12]
    opt = adam_init(model.net, lr=cfg.policy.lr)
    # a refresh's fit draws from its own stream, so the refresh epochs
    # cannot move a later refresh's class ids
    ctx_rng, order_rng, refresh_ids_rng, refresh_fit_rng = (
        rngmod.stream(cfg.seed, *rngmod.key(name)) for name in (
            "policy class ids", "policy order", "refresh class ids",
            "refresh fits"))

    # monitoring reads the model and draws only from the eval streams, so
    # the cadence cannot change what training computes
    monitored = _monitored_iterations(cfg.policy.iterations)
    seconds = {"update_s": 0.0, "monitor_s": 0.0, "monitor_child_s": 0.0}
    rows = []
    epoch_stats = []    # each iteration's policy_update_epoch, for the info

    def observe(before, after, rollouts, values):   # in the worker
        start = time.perf_counter()
        model.net.theta[:] = after
        report = _eval_model(cfg, model, clf, sched, cfg.policy.eval_forget,
                             cfg.policy.eval_per_class, "monitor eval",
                             retain_reference=retain_ref)
        model.net.theta[:] = before
        grads = _diag_gradients(rollouts, model, values, cfg, sched, method)
        return grads, report, time.perf_counter() - start

    pending = None      # (iteration, clip count, reward) of the owed row

    def collect() -> None:
        """Log the pending monitor row, or raise the worker's failure."""
        nonlocal pending
        if pending is None:
            return
        it, clip_count, mean_reward = pending
        pending = None
        with _at_iteration(method, it), _clock(seconds, "monitor_s"):
            grads, report, worker_s = worker.receive(
                f"its row of iteration {it}")
        seconds["monitor_child_s"] += worker_s
        rows.append((run_id, it, method, cfg.policy.n_traj, *grads,
                     clip_count, report.ua, report.ira, report.fd,
                     mean_reward))

    @contextmanager
    def iteration(it: int):
        """Iteration `it`'s own work. If it fails, the pending row is
        collected first: a failure there, an earlier iteration's, wins."""
        try:
            with _at_iteration(method, it):
                yield
        except Exception:
            collect()
            raise

    worker = procs._Child(f"the monitor worker of unlearn {method}", observe)
    try:
        for it in range(cfg.policy.iterations):
            monitor = it + 1 in monitored
            with iteration(it + 1):
                opt.lr = _policy_lr(cfg, it)
                if (method == "cgru" and it > 0
                        and it % cfg.policy.refresh_every == 0):
                    refresh_ids = mixture_class_ids(
                        cfg, cfg.policy.refresh_traj, refresh_ids_rng)
                    buf = build_critic_buffer(
                        model, refresh_ids, reward, sched, cfg.seed,
                        *rngmod.key("refresh buffer", it))
                    critic_train(critic, buf,
                                 epochs=cfg.policy.refresh_epochs,
                                 batch_size=cfg.critic.batch_size,
                                 rng=refresh_fit_rng, lr=cfg.critic.lr)

                class_ids = mixture_class_ids(cfg, cfg.policy.n_traj, ctx_rng)
                rollouts = sample_trajectories(
                    model, class_ids, sched, cfg.seed,
                    *rngmod.key("policy rollouts", it))
                assign_rewards(rollouts, reward)
                mean_reward = float(np.mean(rollouts.rewards))
                values = (value_matrix(critic, rollouts)
                          if method == "cgru" else None)
                if monitor:     # on-policy: the walk sees this model
                    with _clock(seconds, "monitor_s"):
                        before = model.net.theta.copy()

                with _clock(seconds, "update_s"):
                    stats = policy_update_epoch(
                        model, rollouts, values, cfg.estimator, sched, opt,
                        order_rng, grad_accum=cfg.policy.grad_accum)
                epoch_stats.append(stats)
            if monitor:
                collect()
                with _clock(seconds, "monitor_s"):
                    worker.send(before, model.net.theta, rollouts, values)
                pending = (it + 1, stats["clip_count"], mean_reward)
        collect()
    finally:
        worker.close()

    paths = {
        f"eps_unlearned_{method}": _save(cfg, f"eps_unlearned_{method}",
                                         model.net),
        f"policy_diag_{method}": write_csv(
            out_path(cfg, f"policy_diag_{method}.csv"), _MONITOR_HEADER,
            rows),
    }
    # wall-clock figures go to the manifest only, never to a .ckpt or .csv
    info = {"iterations": cfg.policy.iterations,
            "stale_iterations": sum(e["stale_buffer"] for e in epoch_stats),
            "updates": sum(e["updates"] for e in epoch_stats),
            "monitor_every": _MONITOR_EVERY,
            **{k: round(v, 3) for k, v in seconds.items()}}
    if rows:
        last = dict(zip(_MONITOR_HEADER, rows[-1]))
        info.update({f"final_{k}": last[k]
                     for k in ("ua", "ira", "fd", "mean_reward")})
        for key in ("clip_fraction", "grad_norm_mean"):     # run means
            info[key] = float(np.mean([e[key] for e in epoch_stats]))
    return {"paths": paths, "info": info}


def _eval_phase(cfg: RunConfig, method: str = "cgru") -> dict:
    if method not in ("cgru", "ddpo", "base"):
        raise ValueError(f"unknown method {method!r}")
    clf = load(cfg, "classifier")
    base = method == "base"
    model = load(cfg, "eps_base" if base else f"eps_unlearned_{method}")
    epoch = 0 if base else cfg.policy.iterations

    X, y = _dataset(cfg)
    report = _eval_model(cfg, model, clf, schedule(cfg),
                         cfg.eval.forget_samples, cfg.eval.retain_per_class,
                         "final eval",
                         retain_reference=_retain_reference(cfg, X, y))
    run_id = config_hash(cfg)[:12]
    path = out_path(cfg, f"eval_{method}.csv")
    write_csv(path, ["run_id", "method", "epoch", "ua", "ira", "fd"],
              [(run_id, method, epoch, report.ua, report.ira, report.fd)])
    return {"paths": {f"eval_{method}": path},
            "info": {"report": report, "summary": format_eval_report(
                method, report)}}


def format_eval_report(method: str, report: EvalReport) -> str:
    lines = [
        f"== eval [{method}] ==",
        f"  unlearning accuracy (UA): {report.ua:.4f}",
        f"  retain accuracy (IRA):    {report.ira:.4f}",
        f"  Frechet distance:         {report.fd:.6f}",
    ]
    for k in sorted(report.per_class_acc):
        lines.append(f"  class {k} accuracy:         {report.per_class_acc[k]:.4f}")
    return "\n".join(lines)


def _report_phase(cfg: RunConfig) -> dict:
    """Aggregate both methods' monitoring logs into summary tables.

    report.csv holds each method's last logged row; report_curves.csv
    holds every logged row for external plotting. Metric values pass
    through as the source strings, so reruns are byte-stable.
    A log whose header is not the current one, with a row that does not
    fit that header, or whose run_id is not this config's, raises
    PhaseFailure.
    """
    run_id = config_hash(cfg)[:12]
    curve_cols = ["iteration", "mean_reward", "grad_norm", "grad_variance",
                  "ua", "ira", "fd"]
    final_rows = []
    curve_rows = []
    for method in ("cgru", "ddpo"):
        path = out_path(cfg, f"policy_diag_{method}.csv")
        with open(_require(path), newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        rerun = f"rerun unlearn --method {method} under this config"
        if reader.fieldnames != _MONITOR_HEADER:
            raise PhaseFailure(f"{path} has columns "
                               f"{','.join(reader.fieldnames or [])}, not "
                               f"{','.join(_MONITOR_HEADER)}; {rerun}")
        # DictReader keys a short row's missing cells, and the extra cells
        # of a long one, by None
        ragged = [k for k, r in enumerate(rows, 1)
                  if None in r or None in r.values()]
        if ragged:
            raise PhaseFailure(f"{path} row {ragged[0]} does not have the "
                               f"{len(_MONITOR_HEADER)} cells of its header; "
                               f"{rerun}")
        if not rows:
            raise PhaseFailure(f"no logged iterations in {path}; "
                               "the unlearn phase has not produced metrics")
        other = sorted({r["run_id"] for r in rows} - {run_id})
        if other:
            raise PhaseFailure(f"{path} holds run_id {', '.join(other)}, "
                               f"not this config's {run_id}; {rerun}")
        curve_rows += [(method, *[r[k] for k in curve_cols]) for r in rows]
        final_rows.append((run_id, method, *[rows[-1][k] for k in (
            "iteration", "ua", "ira", "fd", "mean_reward")]))

    paths = {
        "report": write_csv(out_path(cfg, "report.csv"),
                            ["run_id", "method", "iterations", "ua", "ira",
                             "fd", "mean_reward"], final_rows),
        "report_curves": write_csv(out_path(cfg, "report_curves.csv"),
                                   ["method", *curve_cols], curve_rows),
    }

    lines = ["== final metrics ==",
             f"{'method':8s} {'ua':>8s} {'ira':>8s} {'fd':>12s} {'reward':>8s}"]
    for _, method, _, ua, ira, fd, reward in final_rows:
        lines.append(f"{method:8s} {float(ua):8.4f} {float(ira):8.4f} "
                     f"{float(fd):12.6f} {float(reward):8.4f}")
    return {"paths": paths, "info": {"summary": "\n".join(lines)}}


def locked_run(fn):
    """`fn(cfg, ...)` run on a validated cfg and CGRU_THREADS, holding
    cfg.out_dir's lock, with BLAS pinned to one thread
    (`procs.blas_pinned`) and the process's heap top padded
    (`procs.keep_heap_top`). Every command first refuses a config under
    which the stream blocks it checks would collide (`rng.check_blocks`)."""
    @functools.wraps(fn)
    def run(cfg: RunConfig, *args, **kwargs):
        validate(cfg)
        rngmod.check_blocks(cfg, fn.__name__)
        procs.n_workers()       # before the output directory is made
        with procs._locked(cfg.out_dir), procs.blas_pinned():
            procs.keep_heap_top()
            return fn(cfg, *args, **kwargs)
    return run


run_classifier = locked_run(_classifier_phase)
run_pretrain = locked_run(_pretrain_phase)
run_critic = locked_run(_critic_phase)
run_unlearn = locked_run(_unlearn_phase)
run_eval = locked_run(_eval_phase)
run_report = locked_run(_report_phase)


# run_full's phases, in the order it reports failures
_FULL_PHASES = ("classifier", "pretrain", "critic", "unlearn_cgru",
                "unlearn_ddpo", "eval_cgru", "eval_ddpo")


@locked_run
def run_full(cfg: RunConfig) -> RunManifest:
    """All phases; the manifest records the config lines, BLAS, artifacts,
    timings, each finished phase's info (gates, steps, buffer sizes, final
    metrics) and a failing phase's error as "<ExceptionType>: <message>".

    The classifier is fit in a forked child while this process pretrains,
    which needs the classifier only at its first gate check; there it
    waits for the child and loads its checkpoint. A failed classifier
    stops pretraining there, and only the classifier is recorded. After
    pretrain the critic phase runs in a second forked child while this
    process runs the ddpo arm (unlearn, then eval), which does not need
    the critic; then the cgru arm runs, if no phase has failed. A
    critic failure leaves the ddpo arm running, and a ddpo failure still
    waits for the critic. Every phase that ran is recorded, and the first
    failure in _FULL_PHASES order is raised. Each forked phase's info
    adds `peak_rss_mb`, its child's own peak; the critic's and pretrain's
    add `wait_s`, how long this process waited for the critic after its
    ddpo arm and for the classifier.
    """
    with procs.blas_pinned() as blas:   # the record of locked_run's pin
        manifest = RunManifest(config_hash=config_hash(cfg),
                               config=config_lines(cfg, EXPERIMENT), blas=blas)
    errors = {}

    def record(name, result, seconds, info=None):
        if isinstance(result, Exception):
            errors[name] = result
            manifest.record_phase(name, "failed", seconds,
                                  f"{type(result).__name__}: {result}")
            return False
        manifest.record_phase(name, "ok", seconds, info={**result["info"],
                                                         **(info or {})})
        manifest.record_artifacts(result["paths"])
        return True

    def run(name, phase, *args):
        return record(name, *procs.attempt(phase, cfg, *args))

    # phase functions are looked up as they run: a replaced one takes effect
    with procs._forked(_classifier_phase, cfg) as join:
        def classifier():
            fitted = join()[0]
            if isinstance(fitted, Exception):
                raise fitted    # ends pretrain, which is then not recorded
            return load(cfg, "classifier")

        pretrained, pretrain_s = procs.attempt(_pretrain_phase, cfg,
                                               classifier)
        fitted, seconds, peak_mb, wait_s = join()
    if (record("classifier", fitted, seconds, {"peak_rss_mb": peak_mb})
            and record("pretrain", pretrained, pretrain_s,
                       {"wait_s": wait_s})):
        with procs._forked(_critic_phase, cfg) as join:
            if run("unlearn_ddpo", _unlearn_phase, "ddpo"):
                run("eval_ddpo", _eval_phase, "ddpo")
            fitted, seconds, peak_mb, wait_s = join()
        record("critic", fitted, seconds,
               {"wait_s": wait_s, "peak_rss_mb": peak_mb})
        if not errors and run("unlearn_cgru", _unlearn_phase, "cgru"):
            run("eval_cgru", _eval_phase, "cgru")
    _write_manifest(cfg, manifest)
    if errors:
        raise errors[next(name for name in _FULL_PHASES if name in errors)]
    return manifest


def _write_manifest(cfg: RunConfig, manifest: RunManifest) -> None:
    with replacing(out_path(cfg, "manifest.json"), encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
