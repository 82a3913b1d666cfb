"""Train the conditional denoiser on the eight-mode ring and inspect it.

The data model is deliberately small: eight Gaussian blobs on a circle,
one class id per blob. This script pretrains the noise predictor at a
reduced budget, then checks the two things everything downstream leans
on: samples drawn with a class label land on that blob, and generation
is deterministic given the seed.

Run from the repository root:  python3 demos/01_diffusion_basics.py
"""

import numpy as np

from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides
from cgru.diffusion import mode_centers, sample_trajectories
from cgru.pipeline import (_load_base_model, _load_classifier, _schedule,
                           run_classifier, run_pretrain)
from cgru.rewards import classifier_predict

OUT = "demo_runs/01_diffusion"

cfg = apply_overrides(RunConfig(), [
    f"out_dir={OUT}",
    "data.n_samples=4000",
    "classifier.steps=1500",
    "pretrain.max_steps=2000",
    "pretrain.eval_every=400",
    "pretrain.target_acc=0.85",
    "pretrain.eval_per_class=40",
])

print("== schedule ==")
sched = _schedule(cfg)
print(f"T={sched.T}, beta range [{sched.betas[0]:.4f}, {sched.betas[-1]:.4f}]")
print(f"alpha_bar at T: {sched.alpha_bar(sched.T):.3f} "
      "(the forward chain keeps a visible fraction of the signal, so "
      "reverse sampling from N(0, I) lands slightly inside the true ring)")

print("\n== classifier and denoiser pretraining ==")
res = run_classifier(cfg)
print(f"classifier holdout accuracy: {res['info']['holdout_accuracy']:.3f}")
res = run_pretrain(cfg)
print(f"denoiser reached the accuracy gate after {res['info']['steps']} steps")
clf = _load_classifier(cfg)
model = _load_base_model(cfg)

print("\n== per-class sampling ==")
centers = mode_centers(cfg.data.n_classes, cfg.data.radius)
n_per = 50
print(f"{'class':>5} {'accuracy':>9} {'mean radius':>12} {'blob radius':>12}")
for k in range(cfg.data.n_classes):
    x0 = sample_trajectories(model, np.full(n_per, k), sched, cfg.seed,
                             rngmod.PHASE_DIAG, first_index=k * n_per).x0
    acc = float((classifier_predict(clf, x0) == k).mean())
    print(f"{k:>5} {acc:>9.2f} {np.linalg.norm(x0, axis=1).mean():>12.2f} "
          f"{np.linalg.norm(centers[k]):>12.2f}")

print("\n== determinism ==")
class_ids = np.full(4, 3)
a = sample_trajectories(model, class_ids, sched, cfg.seed, rngmod.PHASE_DIAG,
                        first_index=12345)
b = sample_trajectories(model, class_ids, sched, cfg.seed, rngmod.PHASE_DIAG,
                        first_index=12345)
same = np.array_equal(a.latents, b.latents)
print(f"same seed and stream index reproduce trajectories exactly: {same}")
