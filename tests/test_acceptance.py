"""Acceptance checks for the full system at the default configuration.

Each test covers one release criterion, prints a single summary line, and
enforces the criterion's tolerance and compute budget. The module fixture
performs one complete pipeline run (pretraining, critic fit, both
unlearning arms, evaluation); its cost is charged to the end-to-end
budget through the manifest phase timings.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from cgru import pipeline
from cgru import rng as rngmod
from cgru.cli import (diag_ablation, diag_baseline_optimum, diag_unbiasedness,
                      diag_variance)
from cgru.config import RunConfig, apply_overrides
from cgru.diffusion import mode_centers, rollout_from, sample_trajectories
from cgru.metrics import FeatureStats, feature_stats, frechet_distance
from cgru.nets import backward, forward
from cgru.policy_grad import (EstimatorConfig, cgru_gradient, ddpo_gradient,
                              per_sample_scores, state_values)
from cgru.rewards import (RewardSpec, assign_rewards, build_classifier_net,
                          reward_values)
from cgru.toy import (build_toy, sample_toy_trajectories,
                      toy_analytic_gradient)

from conftest import tiny_config

RAW = EstimatorConfig(grad_max_norm=1e18)

# PHASE_DIAG stream indices reserved for these checks; disjoint from the
# blocks the diag subcommands use.
_IDX_DEGEN = 7_000_000
_IDX_PROBE = 8_000_000
_IDX_PROBE_MC = 8_100_000


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run"
    cfg = apply_overrides(RunConfig(), [f"out_dir={out}"])
    manifest = pipeline.run_full(cfg)
    return cfg, manifest


def _central_diff(fn, params, name, idx, h):
    orig = params[name].flat[idx]
    params[name].flat[idx] = orig + h
    hi = fn()
    params[name].flat[idx] = orig - h
    lo = fn()
    params[name].flat[idx] = orig
    return (hi - lo) / (2.0 * h)


def _probe_net(net, loss_fn, grads, rng, n_probes=20):
    """Max relative FD error over sampled parameter coordinates."""
    coords = [(name, i) for name, g in grads.items()
              for i in range(g.size) if abs(g.flat[i]) > 1e-4]
    picks = rng.choice(len(coords), size=n_probes, replace=False)
    worst = 0.0
    for k in picks:
        name, idx = coords[int(k)]
        h = 1e-5 * max(1.0, abs(float(net.params[name].flat[idx])))
        fd = _central_diff(loss_fn, net.params, name, idx, h)
        ana = grads[name].flat[idx]
        rel = abs(ana - fd) / max(abs(ana), abs(fd))
        worst = max(worst, rel)
    return worst


def test_01_backward_matches_finite_differences():
    start = time.monotonic()
    cfg = RunConfig()
    rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, 6_000_000)
    worst = {}

    model = pipeline._build_model(cfg)
    x = rng.standard_normal((4, 2))
    onehot = np.eye(cfg.data.n_classes)[[0, 3, 5, 7]]
    v = rng.standard_normal((4, 2))
    grads = model.eps_backward(x, 17, onehot, v)
    worst["eps"] = _probe_net(
        model.net, lambda: float((model.eps(x, 17, onehot) * v).sum()),
        grads, rng)

    critic = pipeline._build_critic(cfg)
    xc = rng.standard_normal((4, 2))
    ts = np.array([1, 10, 25, 50])
    w = rng.standard_normal((4, 1))
    inp, cond = critic.inputs(xc, onehot), critic.cond(ts, 4)
    cgrads, _ = backward(critic.net, inp, cond, w)
    worst["critic"] = _probe_net(
        critic.net, lambda: float((forward(critic.net, inp, cond) * w).sum()),
        cgrads, rng)

    clf = build_classifier_net(2, cfg.data.n_classes, cfg.classifier.hidden,
                               rngmod.stream(cfg.seed, rngmod.PHASE_INIT, 2))
    Xc = rng.standard_normal((4, 2))
    u = rng.standard_normal((4, cfg.data.n_classes))
    kgrads, _ = backward(clf, Xc, None, u)
    worst["classifier"] = _probe_net(
        clf, lambda: float((forward(clf, Xc) * u).sum()), kgrads, rng)

    elapsed = time.monotonic() - start
    top = max(worst.values())
    print(f"AC1 backward vs finite differences: max rel err {top:.2e} "
          f"over 20 probes per net ({elapsed:.1f}s)")
    assert top < 1e-4, worst
    assert elapsed < 10.0


def test_02_estimators_are_unbiased(full_run):
    start = time.monotonic()
    cfg, _ = full_run
    policy, toy_sched = build_toy(0.5)
    trajs = sample_toy_trajectories(policy, toy_sched, 10_000, cfg.seed)
    scores = per_sample_scores(trajs, policy, toy_sched)
    r = trajs.rewards
    truth = toy_analytic_gradient()
    worst_se = 0.0
    for b in (0.0, 0.5, 1.0):
        per_traj = scores * (r - b)[:, None]
        mean = per_traj.mean(axis=0)
        se = per_traj.std(axis=0, ddof=1) / math.sqrt(len(trajs))
        devs = np.abs(mean - truth) / se
        worst_se = max(worst_se, float(devs.max()))
        assert (devs <= 3.0).all(), (b, mean, se)

    sweep = diag_unbiasedness(cfg)
    for chk in sweep["info"]["toy"].values():
        assert chk["within_3se"]
    rows = sweep["info"]["sweep"]
    ratios = [row[3] for row in rows]
    assert ratios[0] > ratios[1] > ratios[2]
    elapsed = time.monotonic() - start
    print(f"AC2 unbiasedness: toy max dev {worst_se:.2f} SE (<= 3), "
          f"baseline-term ratio {ratios[-1]:.4f} at N=10000 (< 0.05) "
          f"({elapsed:.1f}s)")
    assert ratios[-1] < 0.05
    assert elapsed < 120.0


def test_03_zero_critic_reduces_to_terminal_reward():
    cfg = RunConfig()
    model = pipeline._build_model(cfg)
    sched = pipeline._schedule(cfg)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_DEGEN)
    class_ids = pipeline._mixture_class_ids(cfg, 16, ctx_rng)
    trajs = sample_trajectories(model, class_ids, sched, cfg.seed,
                                rngmod.PHASE_DIAG, first_index=_IDX_DEGEN)
    center = mode_centers(cfg.data.n_classes, cfg.data.radius)[0]
    assign_rewards(trajs, RewardSpec("mode_distance", center=tuple(center),
                                     scale=cfg.reward.scale))
    g_c = cgru_gradient(trajs, model, lambda x, c, t: 0.0, RAW, sched).grad
    g_d = ddpo_gradient(trajs, model, sched, RAW).grad
    rel = float(np.linalg.norm(g_c - g_d) / np.linalg.norm(g_d))
    print(f"AC3 zero-critic degeneracy: relative gap {rel:.2e} (< 1e-12)")
    assert rel < 1e-12


def test_04_advantage_estimator_has_lower_variance(full_run):
    start = time.monotonic()
    cfg, _ = full_run
    res = diag_variance(cfg, n_batches=20, n_bootstrap=20)
    wins = res["info"]["wins"]
    elapsed = time.monotonic() - start
    print(f"AC4 variance: cgru wins {wins}/20 bootstrap comparisons "
          f"(>= 18), ddpo/cgru variance ratio {res['info']['ratio']:.2f} "
          f"({elapsed:.1f}s)")
    assert wins >= 18
    assert elapsed < 600.0


def test_05_variance_minimized_at_mean_reward(tmp_path):
    start = time.monotonic()
    cfg = apply_overrides(RunConfig(), [f"out_dir={tmp_path}"])
    res = diag_baseline_optimum(cfg, n_traj=10_000)
    pairs = res["info"]["pairs"]
    mid = pairs[1][1]
    elapsed = time.monotonic() - start
    print(f"AC5 baseline optimum: variance {pairs[0][1]:.3f} / {mid:.3f} / "
          f"{pairs[2][1]:.3f} at E[r]-1 / E[r] / E[r]+1 ({elapsed:.1f}s)")
    assert res["info"]["best"] == res["info"]["mean_reward"]
    assert mid < pairs[0][1] and mid < pairs[2][1]
    assert elapsed < 60.0


def test_06_critic_tracks_monte_carlo_values(full_run):
    start = time.monotonic()
    cfg, _ = full_run
    model = pipeline._load_base_model(cfg)
    critic = pipeline._load_critic(cfg)
    clf = pipeline._load_classifier(cfg)
    spec = pipeline._reward_spec(cfg)
    sched = pipeline._schedule(cfg)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_PROBE)
    n_probes = 50
    class_ids = pipeline._mixture_class_ids(cfg, n_probes, ctx_rng)
    probes = sample_trajectories(model, class_ids, sched, cfg.seed,
                                 rngmod.PHASE_DIAG, first_index=_IDX_PROBE)
    errs = []
    for i, c in enumerate(class_ids):
        t = i % sched.T + 1          # each timestep probed exactly once
        x_t = probes.latents[i, sched.T - t]
        (v,) = state_values(critic, x_t, c, t)
        x0s = rollout_from(model, c, sched, x_t, t, cfg.seed,
                           rngmod.PHASE_DIAG, n=1000,
                           first_index=_IDX_PROBE_MC + i * 1000)
        mc = float(reward_values(spec, x0s, clf).mean())
        errs.append(abs(v - mc))
    errs = np.array(errs)
    hits = int((errs <= 0.5).sum())
    elapsed = time.monotonic() - start
    print(f"AC6 critic accuracy: {hits}/{n_probes} probes within 0.5 of the "
          f"1000-rollout value (>= 40), max err {errs.max():.3f} "
          f"({elapsed:.1f}s)")
    assert hits >= int(0.8 * n_probes)
    assert elapsed < 900.0


def test_07_timestep_conditioning_helps_critic(full_run):
    start = time.monotonic()
    cfg, _ = full_run
    res = diag_ablation(cfg, n_seeds=5)
    wins = res["info"]["aware_wins"]
    elapsed = time.monotonic() - start
    print(f"AC7 critic ablation: timestep-aware beats timestep-blind on "
          f"{wins}/5 seeds (need 5/5) ({elapsed:.1f}s)")
    assert wins == 5
    assert elapsed < 600.0


def test_08_unlearning_outperforms_terminal_reward_arm(full_run):
    cfg, manifest = full_run
    lines = open(os.path.join(cfg.out_dir, "eval_cgru.csv")).read().splitlines()
    _, _, _, ua, ira, _ = lines[1].split(",")
    ua, ira = float(ua), float(ira)

    finals = {}
    for method in ("cgru", "ddpo"):
        path = os.path.join(cfg.out_dir, f"policy_diag_{method}.csv")
        last = open(path).read().splitlines()[-1].split(",")
        finals[method] = float(last[-1])
    total = sum(rec["seconds"] for rec in manifest.phases.values())
    print(f"AC8 end to end: UA {ua:.3f} (>= 0.90), IRA {ira:.3f} (>= 0.70), "
          f"final reward cgru {finals['cgru']:.2f} > ddpo "
          f"{finals['ddpo']:.2f}, pipeline {total:.0f}s (< 1800)")
    assert ua >= 0.90
    assert ira >= 0.70
    assert finals["ddpo"] < finals["cgru"]
    assert total < 1800.0


def test_09_frechet_distance_numerics():
    rng = np.random.default_rng(12345)
    X = rng.standard_normal((500, 8))
    s = feature_stats(X)
    self_fd = frechet_distance(s, s)
    assert self_fd < 1e-6

    a = FeatureStats(mean=np.array([0.0]), cov=np.array([[1.0]]), n=100)
    b = FeatureStats(mean=np.array([1.0]), cov=np.array([[1.0]]), n=100)
    unit_fd = frechet_distance(a, b)
    assert abs(unit_fd - 1.0) < 1e-5

    def oracle(s1, s2, eps=1e-6):
        d = len(s1.mean)
        c1 = s1.cov + eps * np.eye(d)
        c2 = s2.cov + eps * np.eye(d)

        def eig_sqrt(M):
            vals, vecs = scipy.linalg.eigh(M)
            return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

        sr = eig_sqrt(c1)
        inner = sr @ c2 @ sr
        tr = float(np.trace(eig_sqrt(0.5 * (inner + inner.T))))
        diff = s1.mean - s2.mean
        return float(diff @ diff) + float(
            np.trace(s1.cov) + np.trace(s2.cov)) - 2.0 * tr

    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 9))
        stats = []
        for _ in range(2):
            A = rng.standard_normal((d, d))
            stats.append(FeatureStats(mean=rng.standard_normal(d),
                                      cov=A @ A.T + 0.5 * np.eye(d), n=100))
        got = frechet_distance(stats[0], stats[1])
        want = oracle(stats[0], stats[1])
        worst = max(worst, abs(got - want))
    print(f"AC9 distance numerics: self {self_fd:.1e} (< 1e-6), unit shift "
          f"|fd-1| {abs(unit_fd - 1.0):.1e} (< 1e-5), oracle gap {worst:.1e} "
          f"(< 1e-8)")
    assert worst < 1e-8


def test_10_repeat_runs_are_byte_identical(tmp_path):
    runs = []
    for tag in ("first", "second"):
        cfg = tiny_config(tmp_path / tag)
        pipeline.run_full(cfg)
        runs.append(cfg.out_dir)
    names = sorted(n for n in os.listdir(runs[0])
                   if n.endswith((".ckpt", ".csv")))
    assert names == sorted(n for n in os.listdir(runs[1])
                           if n.endswith((".ckpt", ".csv")))
    assert any(n.endswith(".ckpt") for n in names)
    diffs = [n for n in names
             if open(os.path.join(runs[0], n), "rb").read() !=
             open(os.path.join(runs[1], n), "rb").read()]
    print(f"AC10 repeatability: {len(names)} checkpoints and CSV logs "
          f"byte-identical across two runs (diffs: {diffs})")
    assert not diffs
