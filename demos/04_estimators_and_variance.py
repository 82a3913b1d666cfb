"""Policy-gradient estimators on a probe with a known answer.

A one-step diffusion with beta = 1/2 and a pinned weight has terminal
law N(-bias, 1/2) and, for the reward r(x0) = x0, the exact parameter
gradient (0, -1). That makes it the right place to watch three things:
both estimators converging to the truth, the variance dropping when the
baseline equals E[r], and the importance-weight clamp engaging once the
sampling policy goes stale.

Run from the repository root:  python3 demos/04_estimators_and_variance.py
"""

import numpy as np

from cgru.policy_grad import (EstimatorConfig, cgru_gradient, ddpo_gradient,
                              gradient_variance, group_estimates,
                              optimal_baseline_probe)
from cgru.toy import (build_toy, sample_toy_trajectories,
                      toy_analytic_gradient, toy_mean_reward)

cfg = EstimatorConfig(grad_max_norm=1e18)
bias = 0.5
policy, sched = build_toy(bias)
er = toy_mean_reward(bias)

truth = toy_analytic_gradient()
print(f"probe: x0 ~ N({-bias}, 1/2), true gradient "
      f"({truth[0]:+.1f}, {truth[1]:+.1f})")

print("\n== convergence of both estimators ==")
print(f"{'N':>6} {'terminal-reward':>18} {'advantage':>18}")
for n in (100, 1_000, 10_000):
    trajs = sample_toy_trajectories(policy, sched, n, seed=0)
    gd = ddpo_gradient(trajs, policy, sched, cfg)
    gc = cgru_gradient(trajs, policy, np.full((n, sched.T), er), cfg, sched)
    print(f"{n:>6} {f'({gd[0]:+.3f}, {gd[1]:+.3f})':>18} "
          f"{f'({gc[0]:+.3f}, {gc[1]:+.3f})':>18}")

print("\n== baseline placement ==")
trajs = sample_toy_trajectories(policy, sched, 10_000, seed=1)
for b, v in optimal_baseline_probe(policy, sched, trajs,
                                   [er - 1.0, er, er + 1.0]):
    mark = "  <- E[r]" if b == er else ""
    print(f"baseline {b:+.2f}: per-component variance {v:.4f}{mark}")

print("\n== variance across repeated small batches ==")
ests = {"terminal-reward": [], "advantage": []}
for k in range(50):
    batch = sample_toy_trajectories(policy, sched, 16, seed=2,
                                    first_index=k * 100)
    ests["terminal-reward"].append(ddpo_gradient(batch, policy, sched, cfg))
    ests["advantage"].append(
        cgru_gradient(batch, policy, np.full((16, sched.T), er), cfg, sched))
for name, es in ests.items():
    print(f"{name:>16}: {gradient_variance(np.stack(es)):.4f}")

print("\n== the clamp under stale samples ==")
buffer = sample_toy_trajectories(policy, sched, 256, seed=3)
for step in range(5):
    _, (clip_count,) = group_estimates(buffer, policy,
                                       np.full((256, sched.T), er), cfg,
                                       sched, ["cgru"])
    print(f"bias shift {0.2 * step:+.1f}: clipped ratios on "
          f"{clip_count} of {len(buffer) * sched.T} step weights")
    policy.net.params["0.b"][0] += 0.2
print("each shift moves the policy away from the one that filled the "
      "buffer, so more likelihood ratios hit the [0.8, 1.2] clamp")
