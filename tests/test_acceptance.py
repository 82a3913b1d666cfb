"""Acceptance checks for the full system at the default configuration.

Each test covers one release criterion, prints a single summary line, and
enforces the criterion's tolerance and compute budget. The session
fixture full_run (conftest.py) performs one complete pipeline run
(pretraining, critic fit, both unlearning arms, evaluation); its cost is
charged to the end-to-end budget through the manifest phase timings.
The diag checks behind AC2, AC4, AC5 and AC7 run once each, on that run,
in the unbiasedness_sweep and diag_runs fixtures, and each test charges
its check's seconds to its own budget.
"""

import functools
import math
import os
import time

import numpy as np
import scipy.linalg

from cgru import pipeline
from cgru import rng as rngmod
from cgru.config import RunConfig
from cgru.critic import critic_values
from cgru.diffusion import (mode_centers, one_hot, rollout_from,
                            sample_trajectories)
from cgru.metrics import FeatureStats, feature_stats, frechet_distance
from cgru.nets import Network, backward, forward
from cgru.policy_grad import (EstimatorConfig, cgru_gradient, ddpo_gradient,
                              per_sample_scores)
from cgru.rewards import (assign_rewards, build_classifier_net,
                          mode_distance_reward)
from cgru.toy import (build_toy, sample_toy_trajectories,
                      toy_analytic_gradient)

from conftest import float64_eps_twin, float64_twin, tiny_config

RAW = EstimatorConfig(grad_max_norm=1e18)

# PHASE_DIAG stream indices reserved for these checks, each rollout batch
# from its index on and its class ids from the stream just before it;
# disjoint from each other and from rng.BLOCKS (the last test below)
_IDX_FINITE_DIFF = 6_000_000
_IDX_DEGEN = 7_000_000
_IDX_PROBE = 8_000_000
_IDX_PROBE_MC = 8_100_000
_N_DEGEN = 16
_N_PROBES = 50
_N_MC = 1000


def _central_diff(fn, theta, j, h):
    orig = theta[j]
    theta[j] = orig + h
    hi = fn()
    theta[j] = orig - h
    lo = fn()
    theta[j] = orig
    return (hi - lo) / (2.0 * h)


def _probe_net(net, loss_fn, grads, rng, n_probes=20):
    """Max relative FD error over sampled coordinates of theta; grads is
    backward's (1, P) result. Candidates are listed layer by layer from the
    output back, w before b, so the seeded draw picks the same probes as
    when gradients came back per name in backward's order."""
    index = Network(net.arch)           # theta positions, viewed by name
    index.theta[:] = np.arange(net.theta.size)
    names = sorted(index.params, key=lambda name: -int(name.split(".")[0]))
    order = np.concatenate([index.params[n].ravel() for n in names]).astype(int)
    coords = order[np.abs(grads[0, order]) > 1e-4]
    picks = rng.choice(len(coords), size=n_probes, replace=False)
    worst = 0.0
    for k in picks:
        j = coords[int(k)]
        h = 1e-5 * max(1.0, abs(float(net.theta[j])))
        fd = _central_diff(loss_fn, net.theta, j, h)
        ana = grads[0, j]
        rel = abs(ana - fd) / max(abs(ana), abs(fd))
        worst = max(worst, rel)
    return worst


def test_01_backward_matches_finite_differences():
    start = time.monotonic()
    cfg = RunConfig()
    rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_FINITE_DIFF)
    worst = {}

    # the denoiser and the critic compute in float32; finite differences
    # probe float64 twins of their weights, whose forward and backward the
    # float32 ones are checked against in test_diffusion and test_critic
    model = float64_eps_twin(pipeline._build_model(cfg))
    x = rng.standard_normal((4, 2))
    onehot = np.eye(cfg.data.n_classes)[[0, 3, 5, 7]]
    v = rng.standard_normal((4, 2))
    tape = []
    model.eps(x, 17, onehot, tape)
    grads = backward(model.net, v, tape)
    worst["eps"] = _probe_net(
        model.net, lambda: float((model.eps(x, 17, onehot) * v).sum()),
        grads, rng)

    critic = pipeline._build_critic(cfg)
    twin = float64_twin(critic.net)
    xc = rng.standard_normal((4, 2))
    ts = np.array([1, 10, 25, 50])
    w = rng.standard_normal((4, 1))
    inp, cond = critic.inputs(xc, onehot), critic.t_table[ts]
    tape = []
    forward(twin, inp, cond, tape)
    cgrads = backward(twin, w, tape)
    worst["critic"] = _probe_net(
        twin, lambda: float((forward(twin, inp, cond) * w).sum()),
        cgrads, rng)

    clf = build_classifier_net(2, cfg.data.n_classes, cfg.classifier.hidden,
                               rngmod.stream(cfg.seed, rngmod.PHASE_INIT, 2))
    Xc = rng.standard_normal((4, 2))
    u = rng.standard_normal((4, cfg.data.n_classes))
    tape = []
    forward(clf, Xc, tape=tape)
    kgrads = backward(clf, u, tape)
    worst["classifier"] = _probe_net(
        clf, lambda: float((forward(clf, Xc) * u).sum()), kgrads, rng)

    elapsed = time.monotonic() - start
    top = max(worst.values())
    print(f"AC1 backward vs finite differences: max rel err {top:.2e} "
          f"over 20 probes per net ({elapsed:.1f}s)")
    assert top < 1e-4, worst
    assert elapsed < 10.0


def test_02_estimators_are_unbiased(full_run, unbiasedness_sweep):
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

    # the diag unbiasedness sweep ran in the fixture; its time counts here
    sweep = unbiasedness_sweep["info"]
    for chk in sweep["toy"].values():
        assert chk["within_3se"]
    rows = sweep["sweep"]
    ratios = [row[3] for row in rows]
    assert ratios[0] > ratios[1] > ratios[2]
    elapsed = time.monotonic() - start + unbiasedness_sweep["seconds"]
    print(f"AC2 unbiasedness: toy max dev {worst_se:.2f} SE (<= 3), "
          f"baseline-term ratio {ratios[-1]:.4f} at N=10000 (< 0.05) "
          f"({elapsed:.1f}s)")
    assert ratios[-1] < 0.05
    assert elapsed < 120.0


def test_03_zero_critic_reduces_to_terminal_reward():
    cfg = RunConfig()
    model = pipeline._build_model(cfg)
    sched = pipeline.schedule(cfg)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_DEGEN - 1)
    class_ids = pipeline.mixture_class_ids(cfg, _N_DEGEN, ctx_rng)
    trajs = sample_trajectories(model, class_ids, sched, cfg.seed,
                                rngmod.PHASE_DIAG, first_index=_IDX_DEGEN)
    center = mode_centers(cfg.data.n_classes, cfg.data.radius)[0]
    assign_rewards(trajs, functools.partial(mode_distance_reward,
                                            center=center,
                                            scale=cfg.reward.scale))
    g_c = cgru_gradient(trajs, model, np.zeros((_N_DEGEN, sched.T)), RAW,
                        sched)
    g_d = ddpo_gradient(trajs, model, sched, RAW)
    rel = float(np.linalg.norm(g_c - g_d) / np.linalg.norm(g_d))
    print(f"AC3 zero-critic degeneracy: relative gap {rel:.2e} (< 1e-12)")
    assert rel < 1e-12


def test_04_advantage_estimator_has_lower_variance(diag_runs):
    res = diag_runs["variance"]
    wins = res["info"]["wins"]
    elapsed = res["seconds"]
    print(f"AC4 variance: cgru wins {wins}/20 bootstrap comparisons "
          f"(>= 18), ddpo/cgru variance ratio {res['info']['ratio']:.2f} "
          f"({elapsed:.1f}s)")
    assert wins >= 18
    assert elapsed < 600.0


def test_05_variance_minimized_at_mean_reward(diag_runs):
    res = diag_runs["baseline_optimum"]
    pairs = res["info"]["pairs"]
    mid = pairs[1][1]
    elapsed = res["seconds"]
    print(f"AC5 baseline optimum: variance {pairs[0][1]:.3f} / {mid:.3f} / "
          f"{pairs[2][1]:.3f} at E[r]-1 / E[r] / E[r]+1 ({elapsed:.1f}s)")
    assert res["info"]["best"] == res["info"]["mean_reward"]
    assert mid < pairs[0][1] and mid < pairs[2][1]
    assert elapsed < 60.0


def test_06_critic_tracks_monte_carlo_values(full_run):
    start = time.monotonic()
    cfg, _ = full_run
    model = pipeline.load(cfg, "eps_base")
    critic = pipeline.load(cfg, "critic")
    clf = pipeline.load(cfg, "classifier")
    reward = pipeline.reward_fn(cfg, clf)
    sched = pipeline.schedule(cfg)
    ctx_rng = rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, _IDX_PROBE - 1)
    class_ids = pipeline.mixture_class_ids(cfg, _N_PROBES, ctx_rng)
    probes = sample_trajectories(model, class_ids, sched, cfg.seed,
                                 rngmod.PHASE_DIAG, first_index=_IDX_PROBE)
    errs = []
    for i, c in enumerate(class_ids):
        t = i % sched.T + 1          # each timestep probed exactly once
        x_t = probes.latents[i, sched.T - t]
        (v,) = critic_values(critic, x_t[None], one_hot([c], critic.n_classes),
                             t)
        x0s = rollout_from(model, c, sched, x_t, t, cfg.seed,
                           rngmod.PHASE_DIAG, n=_N_MC,
                           first_index=_IDX_PROBE_MC + i * _N_MC)
        mc = float(reward(x0s).mean())
        errs.append(abs(v - mc))
    errs = np.array(errs)
    hits = int((errs <= 0.5).sum())
    elapsed = time.monotonic() - start
    print(f"AC6 critic accuracy: {hits}/{_N_PROBES} probes within 0.5 of "
          f"the {_N_MC}-rollout value (>= 40), max err {errs.max():.3f} "
          f"({elapsed:.1f}s)")
    assert hits >= int(0.8 * _N_PROBES)
    assert elapsed < 900.0


def test_07_timestep_conditioning_helps_critic(diag_runs):
    res = diag_runs["ablation"]
    wins = res["info"]["aware_wins"]
    elapsed = res["seconds"]
    mse = {kind: [m for k, m, _ in res["info"]["rows"] if k == kind]
           for kind in ("timestep_aware", "timestep_blind")}
    print(f"AC7 critic ablation: timestep-aware beats timestep-blind on "
          f"{wins}/5 seeds (need 5/5), held-out MSE aware "
          f"{min(mse['timestep_aware']):.2f}-{max(mse['timestep_aware']):.2f} "
          f"vs blind {min(mse['timestep_blind']):.2f}-"
          f"{max(mse['timestep_blind']):.2f} ({elapsed:.1f}s)")
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
    # print only: the cgru arm's worst retained class, and the ddpo arm's UA
    cgru, ddpo = (manifest.phases[f"eval_{m}"]["info"]["report"]
                  for m in ("cgru", "ddpo"))
    worst = min(cgru.per_class_acc, key=cgru.per_class_acc.get)
    print(f"AC8 end to end: UA {ua:.3f} (>= 0.90), IRA {ira:.3f} (>= 0.70; "
          f"worst retained class {worst}: {cgru.per_class_acc[worst]:.3f}), "
          f"ddpo UA {ddpo.ua:.3f}, final reward cgru {finals['cgru']:.2f} > "
          f"ddpo {finals['ddpo']:.2f}, pipeline {total:.0f}s (< 1800)")
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


def test_reserved_diag_streams_are_disjoint_from_the_declared_blocks():
    # AC1's stream, AC3's and AC6's class ids and rollouts, and AC6's
    # Monte-Carlo batches, against each other and every PHASE_DIAG block
    diag = rngmod.PHASE_DIAG
    reserved = [
        (diag, _IDX_FINITE_DIFF, _IDX_FINITE_DIFF + 1, "AC1"),
        (diag, _IDX_DEGEN - 1, _IDX_DEGEN + _N_DEGEN, "AC3"),
        (diag, _IDX_PROBE - 1, _IDX_PROBE + _N_PROBES, "AC6 probes"),
        *((diag, lo, lo + _N_MC, f"AC6 batch {i}") for i, lo in enumerate(
            range(_IDX_PROBE_MC, _IDX_PROBE_MC + _N_PROBES * _N_MC, _N_MC)))]
    declared = [span for span in rngmod.windows(RunConfig(), rngmod.BLOCKS)
                if span[0] == diag]
    assert declared
    assert rngmod.overlap(sorted(reserved + declared)) is None
