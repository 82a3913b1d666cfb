"""Fit the per-timestep value head and watch it assign credit.

The critic predicts the final reward from an intermediate state
(x_t, class, t). Two stories here. First, the pipeline critic trained on
the unlearning reward: under the pretrained sampler a forget-class
prompt lands on the forget mode essentially every time, so the correct
prediction is flat and near zero at every t. Second, a reward that
genuinely varies per trajectory (proximity to the mode center): there
the predictions for different rollouts start together near the mean and
separate toward their own outcomes as t approaches 0. A final section
reruns the fit without timestep conditioning to show what the FiLM t
input buys.

Run from the repository root:  python3 demos/03_critic_training.py
"""

import numpy as np

from cgru import rng as rngmod
from cgru.config import RunConfig, apply_overrides
from cgru.critic import (ablation_compare, build_critic, build_critic_buffer,
                         critic_train)
from cgru.diffusion import mode_centers, sample_trajectories
from cgru.pipeline import (_load_base_model, _load_classifier, _load_critic,
                           _reward_spec, _schedule, run_classifier,
                           run_critic, run_pretrain)
from cgru.policy_grad import state_values
from cgru.rewards import RewardSpec, assign_rewards

OUT = "demo_runs/03_critic"

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
])

run_classifier(cfg)
run_pretrain(cfg)
res = run_critic(cfg)
print(f"pipeline critic: buffer of {res['info']['buffer_size']} states, "
      f"final loss {res['info']['final_loss']:.4f}")

model = _load_base_model(cfg)
critic = _load_critic(cfg)
clf = _load_classifier(cfg)
sched = _schedule(cfg)
K = cfg.data.n_classes
target = cfg.reward.target_class


def value(critic, latents, t):
    """V(x_t, target, t) for one trajectory's latents (x_T first)."""
    return state_values(critic, latents[sched.T - t], target, t)[0]


print("\n== pipeline critic on a forget-class rollout ==")
traj = sample_trajectories(model, [target], sched, cfg.seed,
                           rngmod.PHASE_DIAG, first_index=4242)
assign_rewards(traj, _reward_spec(cfg), clf)
vals = " ".join(f"{value(critic, traj.latents[0], t):+.2f}"
                for t in (50, 30, 10, 1))
print(f"V at t=50,30,10,1: {vals}; realized reward {traj.rewards[0]:.2f}")
print("flat and near zero is the right answer: the base sampler puts "
      "every forget-class rollout on the forget mode, so there is "
      "nothing for intermediate states to disambiguate")

print("\n== credit assignment when outcomes vary ==")
spec = RewardSpec("mode_distance", center=tuple(mode_centers(K, 4.0)[target]),
                  scale=cfg.reward.scale)
buffer = build_critic_buffer(model, np.full(256, target), spec, None, sched,
                             cfg.seed, phase=rngmod.PHASE_DIAG,
                             first_index=900_000)
demo_critic = build_critic(2, K, sched.T, hidden=cfg.critic.hidden,
                           t_embed_dim=cfg.critic.t_embed_dim)
critic_train(demo_critic, buffer, epochs=6, batch_size=256,
             rng=rngmod.stream(cfg.seed, rngmod.PHASE_DIAG, 901_000),
             lr=cfg.critic.lr)

probes = sample_trajectories(model, np.full(64, target), sched, cfg.seed,
                             rngmod.PHASE_DIAG, first_index=902_000)
assign_rewards(probes, spec)
picks = probes[np.argsort(probes.rewards, kind="stable")[[0, 32, -1]]]
print(f"{'t':>4} " + " ".join(f"{'traj ' + str(i):>8}" for i in "abc"))
for t in (40, 20, 5, 1):
    row = " ".join(f"{value(demo_critic, lat, t):>8.2f}"
                   for lat in picks.latents)
    print(f"{t:>4} {row}")
print("rlzd " + " ".join(f"{r:>8.2f}" for r in picks.rewards))
print("early states carry only partial information about where the chain "
      "will land, so predictions sharpen toward each rollout's own "
      "outcome as t falls")

print("\n== does the timestep input matter? ==")
aware, blind = ablation_compare(buffer, seed=0, T=sched.T, n_classes=K,
                                hidden=cfg.critic.hidden,
                                t_embed_dim=cfg.critic.t_embed_dim)
print(f"held-out MSE with t conditioning:    {aware:.4f}")
print(f"held-out MSE without t conditioning: {blind:.4f}")
print("the blind model sees the same (x, class) for every t and must "
      "average over the whole chain, so its fit floors out higher")
