"""Per-timestep value function V(x_t, c, t) trained by Monte-Carlo regression.

The critic is a small MLP over (x_t, one-hot class) whose hidden features
are modulated, twice, by film blocks conditioned on a sinusoidal embedding
of the timestep. Targets are the terminal rewards of sampled trajectories,
so the trained critic approximates E[r(x_0, c) | x_t, c, t].
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .diffusion import NoiseSchedule, one_hot, sample_trajectories
from .nets import (Act, Dense, Film, Network, adam_init, adam_step, backward,
                   forward, init_network, sinusoidal_embed)
from .rewards import RewardSpec, assign_rewards

Array = np.ndarray


@dataclass
class CriticBuffer:
    """Critic training rows: state x_t of class c at step t, labeled with
    its trajectory's terminal reward r."""
    x: Array            # (n, d)
    class_ids: Array    # (n,) int
    ts: Array           # (n,) int
    r: Array            # (n,)

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, idx) -> "CriticBuffer":
        return CriticBuffer(**{k: v[idx] for k, v in vars(self).items()})


class Critic:
    """Value net plus the bookkeeping needed to embed (x_t, c, t)."""

    def __init__(self, net: Network, T: int, n_classes: int, t_embed_dim: int = 32,
                 timestep_aware: bool = True):
        self.net = net
        self.T = T
        self.n_classes = n_classes
        self.t_embed_dim = t_embed_dim
        # When False the conditioning is frozen at the t=0 embedding, giving
        # an identically sized value net that cannot see the timestep.
        self.timestep_aware = timestep_aware

    def cond(self, ts, n: int) -> Array:
        if not self.timestep_aware:
            ts = np.zeros(n, dtype=np.int64)
        emb = sinusoidal_embed(ts, self.t_embed_dim, self.T)
        if emb.ndim == 1:
            emb = np.broadcast_to(emb, (n, self.t_embed_dim))
        return emb

    def inputs(self, x: Array, onehot: Array) -> Array:
        return np.concatenate([x, onehot], axis=1)


def build_critic(d: int, n_classes: int, T: int, hidden: int = 64,
                 t_embed_dim: int = 32, rng: np.random.Generator | None = None,
                 timestep_aware: bool = True) -> Critic:
    if rng is None:
        rng = rngmod.stream(0, rngmod.PHASE_INIT, 1)
    arch = [
        Dense(d + n_classes, hidden), Film(hidden, t_embed_dim), Act("tanh"),
        Dense(hidden, hidden), Film(hidden, t_embed_dim), Act("tanh"),
        Dense(hidden, 1),
    ]
    return Critic(init_network(arch, rng), T=T, n_classes=n_classes,
                  t_embed_dim=t_embed_dim, timestep_aware=timestep_aware)


def critic_values(critic: Critic, x: Array, onehot: Array, ts) -> Array:
    """Batched V(x_t, c, t); ts may be a scalar or one step per row."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    out = forward(critic.net, critic.inputs(x, onehot), critic.cond(ts, n))
    return out[:, 0]


def build_critic_buffer(model, class_ids, spec: RewardSpec, clf,
                        sched: NoiseSchedule, seed: int,
                        phase: int = rngmod.PHASE_CRITIC_BUFFER,
                        first_index: int = 0) -> CriticBuffer:
    """Roll out one trajectory per class id and flatten to critic rows.

    Every state x_t with t in [1, T] becomes one row labeled with the
    trajectory's terminal reward; x_0 itself is excluded because no value
    estimate is ever queried there. Row k of the unshuffled flattening is
    (trajectory k // T, t = k % T + 1); the returned rows are shuffled.
    first_index offsets the per-trajectory noise streams so repeated buffer
    builds (e.g. mid-run critic refreshes) draw fresh randomness.
    """
    rollouts = sample_trajectories(model, class_ids, sched, seed, phase,
                                   first_index=first_index)
    assign_rewards(rollouts, spec, clf)
    n, T = len(rollouts), sched.T
    shuffle = rngmod.stream(seed, phase, first_index + n)
    traj, step = np.divmod(shuffle.permutation(n * T), T)
    ts = step + 1
    return CriticBuffer(x=rollouts.latents[traj, T - ts],
                        class_ids=rollouts.class_ids[traj], ts=ts,
                        r=rollouts.rewards[traj])


def critic_train(critic: Critic, buffer: CriticBuffer, epochs: int,
                 batch_size: int, rng: np.random.Generator,
                 lr: float = 3e-4) -> list:
    """Minimize mean squared error against terminal rewards.

    The buffer is reshuffled every epoch from `rng`. Returns the mean
    training loss of each epoch.
    """
    if len(buffer) == 0:
        raise ValueError("empty critic buffer")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    r = buffer.r
    inputs = critic.inputs(buffer.x,
                           one_hot(buffer.class_ids, critic.n_classes))
    cond = critic.cond(buffer.ts, len(buffer))
    opt = adam_init(critic.net, lr=lr)
    history = []
    n = len(buffer)
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            pred = forward(critic.net, inputs[idx], cond[idx])[:, 0]
            err = pred - r[idx]
            total += float(err @ err)
            out_grad = (2.0 * err / len(idx))[:, None]
            grads, _ = backward(critic.net, inputs[idx], cond[idx], out_grad)
            adam_step(opt, critic.net.params, grads)
        history.append(total / n)
    return history


def critic_mse(critic: Critic, buffer: CriticBuffer) -> float:
    onehot = one_hot(buffer.class_ids, critic.n_classes)
    pred = critic_values(critic, buffer.x, onehot, buffer.ts)
    return float(((pred - buffer.r) ** 2).mean())


def ablation_compare(buffer: CriticBuffer, seed: int, T: int, n_classes: int,
                     hidden: int = 64, t_embed_dim: int = 32, epochs: int = 4,
                     batch_size: int = 256, lr: float = 3e-3,
                     holdout_frac: float = 0.2) -> tuple:
    """Train matched critics with and without timestep conditioning.

    Both start from identical parameters and see identical batches; the
    only difference is whether the film conditioning carries t. Returns
    (mse_timestep_aware, mse_timestep_blind) on the held-out split.
    """
    if len(np.unique(buffer.ts)) < 2:
        raise ValueError("ablation needs a buffer spanning several timesteps")
    d = buffer.x.shape[1]
    n_hold = max(1, int(len(buffer) * holdout_frac))
    order = rngmod.stream(seed, rngmod.PHASE_DIAG, 0).permutation(len(buffer))
    hold, train = buffer[order[:n_hold]], buffer[order[n_hold:]]
    results = []
    for aware in (True, False):
        critic = build_critic(d, n_classes, T, hidden, t_embed_dim,
                              rng=rngmod.stream(seed, rngmod.PHASE_DIAG, 1),
                              timestep_aware=aware)
        critic_train(critic, train, epochs, batch_size,
                     rng=rngmod.stream(seed, rngmod.PHASE_DIAG, 2), lr=lr)
        results.append(critic_mse(critic, hold))
    return results[0], results[1]
