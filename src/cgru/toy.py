"""One-step linear-Gaussian probe with a known policy gradient.

With T = 1, beta = 1/2 and a single dense(1 -> 1) layer predicting the
noise, the sampled terminal point is

    x_0 = A x_1 + B + sigma xi,   A = (1 - kappa w) / sqrt(alpha),
                                  B = -kappa b / sqrt(alpha),

with kappa = beta / sqrt(1 - abar) and x_1, xi independent standard
normals. At beta = 1/2 the constants collapse to kappa = sqrt(alpha) and
sigma^2 = 1/2, and with the weight pinned at w = sqrt(2) the policy is
exactly N(-b, 1/2). For the linear reward r(x_0) = x_0 the objective is
J = E[x_0] = -b, so the true gradient is 0 for the weight and -1 for the
bias, no matter what either parameter currently is. Every estimator in
the package can therefore be checked against (0, -1) exactly.
"""

import math

import numpy as np

from . import rng as rngmod
from .diffusion import NoiseSchedule, Rollouts, sample_trajectories, schedule_from_betas
from .nets import Dense, Network, forward

Array = np.ndarray

TOY_BETA = 0.5


class ToyPolicy:
    """Duck-typed stand-in for EpsModel with a 1-D dense noise predictor."""

    def __init__(self, net: Network):
        self.net = net
        self.d = 1
        self.n_classes = 1

    def eps(self, x, t, onehot, tape=None):
        return forward(self.net, x, tape=tape)


def build_toy(bias: float = 0.5):
    """Return (policy, schedule) for the one-step probe; mean of x_0 is -bias."""
    net = Network([Dense(1, 1)])
    net.params["0.w"][...] = math.sqrt(2.0)
    net.params["0.b"][...] = float(bias)
    sched = schedule_from_betas([TOY_BETA])
    return ToyPolicy(net), sched


def toy_rewards(rollouts: Rollouts) -> Rollouts:
    """Assign the linear reward r(x_0) = x_0 in place."""
    rollouts.rewards = rollouts.x0[:, 0].copy()
    return rollouts


def toy_analytic_gradient() -> Array:
    """d J / d (w, b) for J = E[r(x_0)], in theta's order."""
    return np.array([0.0, -1.0])


def toy_mean_reward(bias: float) -> float:
    return -float(bias)


def sample_toy_trajectories(policy: ToyPolicy, sched: NoiseSchedule, n: int,
                            seed: int, first_index: int = 0) -> Rollouts:
    rollouts = sample_trajectories(policy, np.zeros(n, dtype=np.int64), sched,
                                   seed, rngmod.PHASE_DIAG,
                                   first_index=first_index)
    return toy_rewards(rollouts)
