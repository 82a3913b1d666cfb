"""Critic-guided reinforcement unlearning on a 2-D conditional diffusion model."""

__version__ = "0.1.0"

from . import (checkpoint, config, critic, diffusion, errors, metrics, nets,
               pipeline, policy_grad, rewards, toy)
