"""End-to-end orchestration of the unlearning experiment.

Phases run in dependency order: classifier -> pretrain -> critic ->
unlearn (one run per method) -> eval. Every phase reads only declared
checkpoint artifacts plus the config, re-derives its random streams from
the master seed, and writes its outputs under cfg.out_dir, so reruns with
an identical config are byte-identical. A lock file serializes runs that
share an output directory.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .checkpoint import load_network, save_network
from .config import RunConfig, config_hash, validate
from .critic import Critic, build_critic, build_critic_buffer, critic_train
from .diffusion import (build_eps_net, ddpm_train_step, dump_dataset_csv,
                        make_schedule, mode_centers, sample_dataset,
                        sample_trajectories)
from .errors import MissingArtifact, PhaseFailure
from .metrics import (EvalReport, feature_stats, frechet_distance,
                      retain_accuracy, unlearning_accuracy)
from .nets import adam_init
from .policy_grad import (cgru_gradient, ddpo_gradient, gradient_variance,
                          policy_update_epoch)
from .rewards import (RewardSpec, assign_rewards, build_classifier_net,
                      classifier_accuracy, classifier_predict,
                      penultimate_features, train_classifier)

# eval rollouts draw from fixed stream indexes so the same noise is reused
# at every logging point; training streams stay clear of these ranges
_EVAL_FINAL_INDEX = 500_000
_POLICY_TRAJ_STRIDE = 10_000
_REFRESH_TRAJ_STRIDE = 100_000


@dataclass
class RunManifest:
    config_hash: str
    phases: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    def record_phase(self, name: str, status: str, seconds: float) -> None:
        self.phases[name] = {"status": status, "seconds": round(seconds, 3)}

    def record_artifacts(self, paths: dict) -> None:
        for name, path in paths.items():
            self.artifacts[name] = {"path": path, "sha256": _sha256(path)}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def _locked(out_dir: str):
    from .errors import LockError
    os.makedirs(out_dir, exist_ok=True)
    lock_path = os.path.join(out_dir, ".lock")
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(
            f"lock file exists: {lock_path}; another run may be using this "
            "directory (delete the file if it is stale)")
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        os.unlink(lock_path)


def _fmt(v) -> str:
    # plain-float repr: numpy scalars would render as np.float64(...)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifact(f"required artifact missing: {path}")
    return path


def _dataset(cfg: RunConfig):
    rng = rngmod.stream(cfg.seed, rngmod.PHASE_DATASET)
    return sample_dataset(cfg.data.n_samples, rng,
                          n_classes=cfg.data.n_classes,
                          radius=cfg.data.radius, stddev=cfg.data.stddev)


def _schedule(cfg: RunConfig):
    return make_schedule(cfg.diffusion.T, cfg.diffusion.beta_start,
                         cfg.diffusion.beta_end)


def _reward_spec(cfg: RunConfig) -> RewardSpec:
    if cfg.reward.kind == "mode_distance":
        center = mode_centers(cfg.data.n_classes,
                              cfg.data.radius)[cfg.reward.target_class]
        return RewardSpec("mode_distance", center=tuple(center),
                          scale=cfg.reward.scale)
    return RewardSpec("classifier_complement",
                      target_class=cfg.reward.target_class,
                      scale=cfg.reward.scale)


def _load_classifier(cfg: RunConfig):
    net = build_classifier_net(2, cfg.data.n_classes, cfg.classifier.hidden,
                               rng=rngmod.stream(cfg.seed, rngmod.PHASE_INIT, 2))
    load_network(_require(_path(cfg, "classifier.ckpt")), net)
    return net


def _build_model(cfg: RunConfig):
    return build_eps_net(2, cfg.data.n_classes, hidden=cfg.eps_net.hidden,
                         t_embed_dim=cfg.eps_net.t_embed_dim,
                         rng=rngmod.stream(cfg.seed, rngmod.PHASE_INIT),
                         T=cfg.diffusion.T)


def _load_base_model(cfg: RunConfig):
    model = _build_model(cfg)
    load_network(_require(_path(cfg, "eps_base.ckpt")), model.net)
    return model


def _build_critic(cfg: RunConfig) -> Critic:
    return build_critic(2, cfg.data.n_classes, cfg.diffusion.T,
                        hidden=cfg.critic.hidden,
                        t_embed_dim=cfg.critic.t_embed_dim,
                        rng=rngmod.stream(cfg.seed, rngmod.PHASE_INIT, 1))


def _load_critic(cfg: RunConfig) -> Critic:
    critic = _build_critic(cfg)
    load_network(_require(_path(cfg, "critic.ckpt")), critic.net)
    return critic


def _mixture_class_ids(cfg: RunConfig, n: int,
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


def _eval_class_ids(cfg: RunConfig, n_forget: int,
                    n_retain_each: int) -> np.ndarray:
    """n_forget forget-class ids, then n_retain_each of each retained class."""
    K = cfg.data.n_classes
    target = cfg.reward.target_class
    retain = [k for k in range(K) if k != target]
    return np.concatenate([np.full(n_forget, target, dtype=np.int64),
                           np.repeat(retain, n_retain_each)])


def _eval_model(cfg: RunConfig, model, clf, sched, n_forget: int,
                n_retain_each: int, first_index: int,
                retain_reference: np.ndarray) -> EvalReport:
    """Generate the eval protocol's samples and score them.

    retain_reference holds real data points from the retained classes; the
    Frechet distance compares generated retain-context samples against it,
    in raw coordinates or classifier features per cfg.eval.
    """
    K = cfg.data.n_classes
    target = cfg.reward.target_class
    class_ids = _eval_class_ids(cfg, n_forget, n_retain_each)
    x0 = sample_trajectories(model, class_ids, sched, cfg.seed,
                             rngmod.PHASE_EVAL, first_index=first_index).x0
    predict = lambda s: classifier_predict(clf, s)

    forget_samples = x0[:n_forget]
    ua = unlearning_accuracy(forget_samples, predict, target)

    by_class = {}
    per_class = {}
    off = n_forget
    for k in range(K):
        if k == target:
            continue
        block = x0[off:off + n_retain_each]
        by_class[k] = block
        per_class[k] = float((classifier_predict(clf, block) == k).mean())
        off += n_retain_each
    ira = retain_accuracy(by_class, predict)

    gen_retain = x0[n_forget:]
    if cfg.eval.use_penultimate_features:
        real_feats = penultimate_features(clf, retain_reference)
        gen_feats = penultimate_features(clf, gen_retain)
    else:
        real_feats, gen_feats = retain_reference, gen_retain
    fd = frechet_distance(feature_stats(real_feats), feature_stats(gen_feats))
    return EvalReport(ua=ua, ira=ira, fd=fd, per_class_acc=per_class)


def _retain_reference(cfg: RunConfig, X: np.ndarray, y: np.ndarray):
    return X[y != cfg.reward.target_class]


def _conditional_accuracy(cfg: RunConfig, model, clf, sched, n_per_class: int,
                          first_index: int) -> dict:
    """Per-class accuracy of the classifier on conditional samples."""
    K = cfg.data.n_classes
    x0 = sample_trajectories(model, np.repeat(np.arange(K), n_per_class),
                             sched, cfg.seed, rngmod.PHASE_EVAL,
                             first_index=first_index).x0
    pred = classifier_predict(clf, x0)
    return {k: float((pred[k * n_per_class:(k + 1) * n_per_class] == k).mean())
            for k in range(K)}


# ---------------------------------------------------------------------------
# phases


def _classifier_phase(cfg: RunConfig) -> dict:
    X, y = _dataset(cfg)
    split = cfg.data.n_samples - cfg.data.holdout
    net, history = train_classifier(
        X[:split], y[:split], cfg.data.n_classes,
        rngmod.stream(cfg.seed, rngmod.PHASE_CLASSIFIER),
        hidden=cfg.classifier.hidden, steps=cfg.classifier.steps,
        batch=cfg.classifier.batch_size, lr=cfg.classifier.lr)
    acc = classifier_accuracy(net, X[split:], y[split:])
    if acc < cfg.classifier.target_acc:
        raise PhaseFailure(
            f"classifier holdout accuracy {acc:.4f} is below the "
            f"{cfg.classifier.target_acc} gate")
    paths = {
        "dataset": _path(cfg, "dataset.csv"),
        "classifier": _path(cfg, "classifier.ckpt"),
        "classifier_loss": _path(cfg, "classifier_loss.csv"),
    }
    dump_dataset_csv(paths["dataset"], X, y)
    save_network(paths["classifier"], net)
    _write_csv(paths["classifier_loss"], ["step", "loss"],
               [(i + 1, float(l)) for i, l in enumerate(history)])
    return {"paths": paths, "info": {"holdout_accuracy": acc}}


def _pretrain_phase(cfg: RunConfig) -> dict:
    clf = _load_classifier(cfg)
    X, y = _dataset(cfg)
    split = cfg.data.n_samples - cfg.data.holdout
    sched = _schedule(cfg)
    model = _build_model(cfg)
    opt = adam_init(model.net, lr=cfg.pretrain.lr)
    rng = rngmod.stream(cfg.seed, rngmod.PHASE_PRETRAIN)

    loss_rows = []
    acc_rows = []
    accs = {}
    met_gate = False
    steps_run = 0
    for step in range(1, cfg.pretrain.max_steps + 1):
        idx = rng.integers(0, split, cfg.pretrain.batch_size)
        loss = ddpm_train_step(model, X[idx], y[idx], sched, rng, opt)
        loss_rows.append((step, float(loss)))
        steps_run = step
        if step % cfg.pretrain.eval_every == 0 or step == cfg.pretrain.max_steps:
            accs = _conditional_accuracy(cfg, model, clf, sched,
                                         cfg.pretrain.eval_per_class,
                                         first_index=step * 10_000)
            acc_rows.append((step, *[accs[k] for k in sorted(accs)]))
            if min(accs.values()) >= cfg.pretrain.target_acc:
                met_gate = True
                break
    if not met_gate:
        detail = ", ".join(f"class {k}: {v:.3f}" for k, v in sorted(accs.items()))
        raise PhaseFailure(
            f"pretrain budget of {cfg.pretrain.max_steps} steps exhausted "
            f"below the {cfg.pretrain.target_acc} per-class gate ({detail})")

    paths = {
        "eps_base": _path(cfg, "eps_base.ckpt"),
        "pretrain_loss": _path(cfg, "pretrain_loss.csv"),
        "pretrain_acc": _path(cfg, "pretrain_acc.csv"),
    }
    save_network(paths["eps_base"], model.net)
    _write_csv(paths["pretrain_loss"], ["step", "loss"], loss_rows)
    _write_csv(paths["pretrain_acc"],
               ["step"] + [f"class_{k}" for k in range(cfg.data.n_classes)],
               acc_rows)
    return {"paths": paths,
            "info": {"steps": steps_run, "per_class_acc": accs}}


def _critic_phase(cfg: RunConfig) -> dict:
    clf = _load_classifier(cfg)
    model = _load_base_model(cfg)
    sched = _schedule(cfg)
    spec = _reward_spec(cfg)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_CRITIC_BUFFER, 10**6)
    class_ids = _mixture_class_ids(cfg, cfg.critic.n_traj, ctx_rng)
    buffer = build_critic_buffer(model, class_ids, spec, clf, sched, cfg.seed)
    critic = _build_critic(cfg)
    losses = critic_train(critic, buffer, epochs=cfg.critic.epochs,
                          batch_size=cfg.critic.batch_size,
                          rng=rngmod.stream(cfg.seed, rngmod.PHASE_CRITIC_TRAIN),
                          lr=cfg.critic.lr)
    paths = {
        "critic": _path(cfg, "critic.ckpt"),
        "critic_loss": _path(cfg, "critic_loss.csv"),
    }
    save_network(paths["critic"], critic.net)
    _write_csv(paths["critic_loss"], ["epoch", "loss"],
               [(i + 1, float(l)) for i, l in enumerate(losses)])
    return {"paths": paths,
            "info": {"buffer_size": len(buffer), "final_loss": losses[-1]}}


def _policy_lr(cfg: RunConfig, it: int) -> float:
    span = cfg.policy.lr_decay_frac * max(1, cfg.policy.iterations)
    frac = min(1.0, it / span)
    return cfg.policy.lr * (1.0 + (cfg.policy.lr_end_frac - 1.0) * frac)


def _diag_gradients(rollouts, model, critic, cfg, sched, method):
    """Full-batch gradient norm plus subgroup variance, both on-policy. For
    cgru the full-batch estimate fills the advantages the slices reuse."""
    def estimate(subset):
        if method == "cgru":
            return cgru_gradient(subset, model, critic, cfg.estimator, sched)
        return ddpo_gradient(subset, model, sched, cfg.estimator)

    full = estimate(rollouts)
    n = len(rollouts)
    group = max(1, n // 4)
    estimates = [estimate(rollouts[i:i + group])
                 for i in range(0, n - group + 1, group)]
    var = gradient_variance(estimates) if len(estimates) >= 2 else float("nan")
    return float(np.linalg.norm(full.grad)), var


def _unlearn_phase(cfg: RunConfig, method: str) -> dict:
    if method not in ("cgru", "ddpo"):
        raise ValueError(f"unknown method {method!r}")
    clf = _load_classifier(cfg)
    model = _load_base_model(cfg)
    sched = _schedule(cfg)
    spec = _reward_spec(cfg)
    critic = _load_critic(cfg) if method == "cgru" else None

    X, y = _dataset(cfg)
    retain_ref = _retain_reference(cfg, X, y)
    run_id = config_hash(cfg)[:12]
    opt = adam_init(model.net, lr=cfg.policy.lr)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_POLICY, 1)
    order_rng = rngmod.stream(cfg.seed, rngmod.PHASE_POLICY, 2)
    refresh_rng = rngmod.stream(cfg.seed, rngmod.PHASE_POLICY, 3)

    diag_rows = []
    eval_rows = []
    stale_iterations = 0
    report = None
    for it in range(cfg.policy.iterations):
        opt.lr = _policy_lr(cfg, it)
        if (method == "cgru" and cfg.policy.refresh_every > 0 and it > 0
                and it % cfg.policy.refresh_every == 0):
            refresh_ids = _mixture_class_ids(cfg, cfg.policy.refresh_traj,
                                             refresh_rng)
            buf = build_critic_buffer(
                model, refresh_ids, spec, clf, sched, cfg.seed,
                first_index=(it + 1) * _REFRESH_TRAJ_STRIDE)
            critic_train(critic, buf, epochs=cfg.policy.refresh_epochs,
                         batch_size=cfg.critic.batch_size, rng=refresh_rng,
                         lr=cfg.critic.lr)

        class_ids = _mixture_class_ids(cfg, cfg.policy.n_traj, ctx_rng)
        rollouts = sample_trajectories(
            model, class_ids, sched, cfg.seed, rngmod.PHASE_POLICY,
            first_index=(it + 1) * _POLICY_TRAJ_STRIDE)
        assign_rewards(rollouts, spec, clf)
        mean_reward = float(np.mean(rollouts.rewards))
        grad_norm, grad_var = _diag_gradients(rollouts, model, critic, cfg,
                                              sched, method)

        clip_count = 0
        for _ in range(cfg.policy.inner_epochs):
            stats = policy_update_epoch(model, rollouts, critic, cfg.estimator,
                                        sched, opt, order_rng,
                                        grad_accum=cfg.policy.grad_accum)
            clip_count += stats["clip_count"]
            if stats["stale_buffer"]:
                stale_iterations += 1

        report = _eval_model(cfg, model, clf, sched, cfg.policy.eval_forget,
                             cfg.policy.eval_per_class, first_index=0,
                             retain_reference=retain_ref)
        diag_rows.append((it + 1, method, cfg.policy.n_traj, grad_norm,
                          grad_var, clip_count, mean_reward))
        eval_rows.append((run_id, method, it + 1, report.ua, report.ira,
                          report.fd))

    paths = {
        f"eps_unlearned_{method}": _path(cfg, f"eps_unlearned_{method}.ckpt"),
        f"policy_diag_{method}": _path(cfg, f"policy_diag_{method}.csv"),
        f"eval_history_{method}": _path(cfg, f"eval_history_{method}.csv"),
    }
    save_network(paths[f"eps_unlearned_{method}"], model.net)
    _write_csv(paths[f"policy_diag_{method}"],
               ["iteration", "estimator", "n_traj", "grad_norm",
                "grad_variance", "clip_count", "mean_reward"], diag_rows)
    _write_csv(paths[f"eval_history_{method}"],
               ["run_id", "method", "epoch", "ua", "ira", "fd"], eval_rows)
    info = {"iterations": cfg.policy.iterations,
            "stale_iterations": stale_iterations}
    if eval_rows:
        info.update(final_ua=report.ua, final_ira=report.ira,
                    final_fd=report.fd, final_mean_reward=diag_rows[-1][-1])
    return {"paths": paths, "info": info}


def _eval_phase(cfg: RunConfig, method: str) -> dict:
    if method not in ("cgru", "ddpo", "base"):
        raise ValueError(f"unknown method {method!r}")
    clf = _load_classifier(cfg)
    sched = _schedule(cfg)
    model = _build_model(cfg)
    if method == "base":
        ckpt = _path(cfg, "eps_base.ckpt")
        epoch = 0
    else:
        ckpt = _path(cfg, f"eps_unlearned_{method}.ckpt")
        epoch = cfg.policy.iterations
    load_network(_require(ckpt), model.net)

    X, y = _dataset(cfg)
    report = _eval_model(cfg, model, clf, sched, cfg.eval.forget_samples,
                         cfg.eval.retain_per_class,
                         first_index=_EVAL_FINAL_INDEX,
                         retain_reference=_retain_reference(cfg, X, y))
    run_id = config_hash(cfg)[:12]
    path = _path(cfg, f"eval_{method}.csv")
    _write_csv(path, ["run_id", "method", "epoch", "ua", "ira", "fd"],
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


def _read_csv_rows(path: str) -> list:
    with open(_require(path), newline="") as fh:
        return list(csv.DictReader(fh))


def _report_phase(cfg: RunConfig) -> dict:
    """Aggregate both methods' per-iteration CSVs into summary tables.

    report.csv holds one final-metrics row per method; report_curves.csv
    holds the merged per-iteration curves for external plotting. Metric
    values pass through as the source strings, so reruns are byte-stable.
    """
    final_rows = []
    curve_rows = []
    for method in ("cgru", "ddpo"):
        hist_path = _path(cfg, f"eval_history_{method}.csv")
        diag_path = _path(cfg, f"policy_diag_{method}.csv")
        hist = _read_csv_rows(hist_path)
        diag = _read_csv_rows(diag_path)
        if not hist or not diag:
            raise PhaseFailure(f"no logged iterations in {hist_path}; "
                               "the unlearn phase has not produced metrics")
        by_iter = {row["iteration"]: row for row in diag}
        for h in hist:
            d = by_iter.get(h["epoch"], {})
            curve_rows.append((method, h["epoch"], d.get("mean_reward", ""),
                               d.get("grad_norm", ""),
                               d.get("grad_variance", ""), h["ua"], h["ira"],
                               h["fd"]))
        last_h, last_d = hist[-1], diag[-1]
        final_rows.append((last_h["run_id"], method, last_h["epoch"],
                           last_h["ua"], last_h["ira"], last_h["fd"],
                           last_d["mean_reward"]))

    paths = {
        "report": _path(cfg, "report.csv"),
        "report_curves": _path(cfg, "report_curves.csv"),
    }
    _write_csv(paths["report"],
               ["run_id", "method", "iterations", "ua", "ira", "fd",
                "mean_reward"], final_rows)
    _write_csv(paths["report_curves"],
               ["method", "iteration", "mean_reward", "grad_norm",
                "grad_variance", "ua", "ira", "fd"], curve_rows)

    lines = ["== final metrics ==",
             f"{'method':8s} {'ua':>8s} {'ira':>8s} {'fd':>12s} {'reward':>8s}"]
    for _, method, _, ua, ira, fd, reward in final_rows:
        lines.append(f"{method:8s} {float(ua):8.4f} {float(ira):8.4f} "
                     f"{float(fd):12.6f} {float(reward):8.4f}")
    return {"paths": paths, "info": {"summary": "\n".join(lines)}}


def run_classifier(cfg: RunConfig) -> dict:
    validate(cfg)
    with _locked(cfg.out_dir):
        return _classifier_phase(cfg)


def run_pretrain(cfg: RunConfig) -> dict:
    validate(cfg)
    with _locked(cfg.out_dir):
        return _pretrain_phase(cfg)


def run_critic(cfg: RunConfig) -> dict:
    validate(cfg)
    with _locked(cfg.out_dir):
        return _critic_phase(cfg)


def run_unlearn(cfg: RunConfig, method: str = "cgru") -> dict:
    validate(cfg)
    with _locked(cfg.out_dir):
        return _unlearn_phase(cfg, method)


def run_eval(cfg: RunConfig, method: str = "cgru") -> dict:
    validate(cfg)
    with _locked(cfg.out_dir):
        return _eval_phase(cfg, method)


def run_report(cfg: RunConfig) -> dict:
    validate(cfg)
    with _locked(cfg.out_dir):
        return _report_phase(cfg)


_FULL_PHASES = (
    ("classifier", _classifier_phase),
    ("pretrain", _pretrain_phase),
    ("critic", _critic_phase),
    ("unlearn_cgru", lambda cfg: _unlearn_phase(cfg, "cgru")),
    ("unlearn_ddpo", lambda cfg: _unlearn_phase(cfg, "ddpo")),
    ("eval_cgru", lambda cfg: _eval_phase(cfg, "cgru")),
    ("eval_ddpo", lambda cfg: _eval_phase(cfg, "ddpo")),
)


def run_full(cfg: RunConfig) -> RunManifest:
    """All phases in order; the manifest records artifacts and timings."""
    validate(cfg)
    manifest = RunManifest(config_hash=config_hash(cfg))
    with _locked(cfg.out_dir):
        for name, phase in _FULL_PHASES:
            start = time.perf_counter()
            try:
                result = phase(cfg)
            except Exception:
                manifest.record_phase(name, "failed",
                                      time.perf_counter() - start)
                _write_manifest(cfg, manifest)
                raise
            manifest.record_phase(name, "ok", time.perf_counter() - start)
            manifest.record_artifacts(result["paths"])
        _write_manifest(cfg, manifest)
    return manifest


def _write_manifest(cfg: RunConfig, manifest: RunManifest) -> None:
    with open(_path(cfg, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
