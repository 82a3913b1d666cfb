"""What the unlearning reward actually measures.

A reward is a function of the terminal samples, reward(x0) -> r. The
forgetting reward is scale * (1 - p(target | x0)) under a frozen
classifier (`pipeline.reward_fn` binds the classifier, target and
scale), so it is high wherever the classifier does NOT see the forget
class. This script trains the classifier, then walks the reward over
the mode centers and over real samples, and contrasts it with the
distance-to-mode reward that the critic ablation binds itself.

Run from the repository root:  python3 demos/02_reward_classifier.py
"""

import functools

import numpy as np

from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides
from cgru.diffusion import mode_centers, sample_dataset
from cgru.nets import forward
from cgru.pipeline import load, reward_fn, run_classifier
from cgru.rewards import mode_distance_reward

OUT = "demo_runs/02_reward"

cfg = apply_overrides(RunConfig(), [
    f"out_dir={OUT}",
    "data.n_samples=4000",
    "classifier.steps=1500",
])

run_classifier(cfg)
clf = load(cfg, "classifier")
reward = reward_fn(cfg, clf)
K = cfg.data.n_classes
target = cfg.reward.target_class
centers = mode_centers(K, cfg.data.radius)

print(f"\nforget class is {target}; reward = "
      f"{cfg.reward.scale} * (1 - p(class {target} | x0))")
print(f"{'center of':>10} {'p(target)':>10} {'reward':>8}")
for k in range(K):
    p = forward(clf, centers[k][None])[0, target]
    r = reward(centers[k][None])[0]
    tag = "  <- forget mode" if k == target else ""
    print(f"{'class ' + str(k):>10} {p:>10.3f} {r:>8.2f}{tag}")

print("\n== reward on real samples ==")
X, y = sample_dataset(cfg.data.n_samples,
                      rngmod.stream(cfg.seed + 1, rngmod.PHASE_DIAG, 77),
                      n_classes=K, radius=cfg.data.radius,
                      stddev=cfg.data.stddev)
r = reward(X)
print(f"mean reward on forget-class points: {r[y == target].mean():.2f}")
print(f"mean reward on retain-class points: {r[y != target].mean():.2f}")
print("a sampler that stops producing the forget mode maximizes this")

print("\n== distance-to-mode variant ==")
alt = functools.partial(mode_distance_reward, center=centers[target],
                        scale=cfg.reward.scale)
ra = alt(X)
print(f"proximity score: {cfg.reward.scale} at the mode center, decaying "
      f"with squared distance")
print(f"mean on forget-class points {ra[y == target].mean():.2f}, "
      f"on retain points {ra[y != target].mean():.2f}")
print("unlike the classifier reward, which saturates at 0 or 10 almost "
      "everywhere, this varies smoothly with the landing point; the "
      "critic diagnostics use it because a value function only has "
      "something to learn when outcomes differ along the trajectory")
