"""A complete miniature unlearning run, both arms, side by side.

This drives the same pipeline as `cgru full` at a reduced budget:
pretrain the denoiser, fit the critic, then run the advantage-weighted
arm and the terminal-reward arm from the same starting point. The
learning rate here is hotter than the default so the arms separate
within 30 iterations; the default configuration takes it slower to keep
retain accuracy higher.

Run from the repository root:  python3 demos/05_unlearning_run.py
"""

import csv

from cgru.config import RunConfig, apply_overrides
from cgru.pipeline import run_full, run_report

OUT = "demo_runs/05_unlearning"

cfg = apply_overrides(RunConfig(), [
    f"out_dir={OUT}",
    "data.n_samples=4000",
    "classifier.steps=1500",
    "pretrain.max_steps=2000",
    "pretrain.eval_every=400",
    "pretrain.target_acc=0.85",
    "pretrain.eval_per_class=40",
    "critic.n_traj=512",
    "critic.epochs=6",
    "policy.iterations=30",
    "policy.lr=6e-5",
    "policy.refresh_traj=128",
    "policy.eval_forget=50",
    "policy.eval_per_class=10",
    "eval.forget_samples=100",
    "eval.retain_per_class=50",
])

manifest = run_full(cfg)
print("\n== phases ==")
for name, rec in manifest.phases.items():
    print(f"{name:>14}: {rec['status']} in {rec['seconds']:.1f}s")

print("\n== reward at each monitored iteration ==")
curves = {}
for method in ("cgru", "ddpo"):
    with open(f"{OUT}/policy_diag_{method}.csv") as fh:
        curves[method] = {int(row["iteration"]): float(row["mean_reward"])
                          for row in csv.DictReader(fh)}
print(f"{'iter':>5} {'cgru':>7} {'ddpo':>7}")
for it, reward in curves["cgru"].items():
    print(f"{it:>5} {reward:>7.2f} {curves['ddpo'][it]:>7.2f}")

result = run_report(cfg)
print("\n== final evaluation ==")
print(result["info"]["summary"])
print("\nUA counts forget-class prompts that no longer produce the "
      "forget mode; IRA is accuracy on the retained classes, which "
      "should stay high while UA climbs")
