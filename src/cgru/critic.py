"""Per-timestep value function V(x_t, c, t) trained by Monte-Carlo regression.

The critic is a small MLP over (x_t, one-hot class) whose hidden features
are modulated, twice, by film blocks conditioned on a sinusoidal embedding
of the timestep. Targets are the terminal rewards of sampled trajectories,
so the trained critic approximates E[r(x_0, c) | x_t, c, t].

build_critic makes the value net float32, as build_eps_net makes the
denoiser, which halves the cost of its fits. The values it hands on are
float64, like everything the policy gradient computes from them, and its
checkpoint stores float64, which holds every float32 exactly.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .diffusion import NoiseSchedule, Rollouts, one_hot, sample_trajectories
from .nets import (Act, Dense, Film, Network, adam_init, adam_step, backward,
                   forward, init_network, sinusoidal_embed)
from .rewards import assign_rewards

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

    def __init__(self, net: Network, T: int, n_classes: int, t_embed_dim: int = 32):
        self.net = net
        self.T = T
        self.n_classes = n_classes
        self.t_embed_dim = t_embed_dim
        # the film blocks' cond table, row t for step t, in the net's
        # dtype so that it is not cast; forward gathers its rows by step
        self.t_table = sinusoidal_embed(np.arange(T + 1), t_embed_dim,
                                        T).astype(net.theta.dtype)

    def inputs(self, x: Array, onehot: Array) -> Array:
        return np.concatenate([x, onehot], axis=1)


def build_critic(d: int, n_classes: int, T: int, hidden: int = 64,
                 t_embed_dim: int = 32,
                 rng: np.random.Generator | None = None) -> Critic:
    if rng is None:
        rng = rngmod.stream(0, *rngmod.key("critic init"))
    arch = [
        Dense(d + n_classes, hidden), Film(hidden, t_embed_dim), Act("tanh"),
        Dense(hidden, hidden), Film(hidden, t_embed_dim), Act("tanh"),
        Dense(hidden, 1),
    ]
    return Critic(init_network(arch, rng, np.float32), T=T,
                  n_classes=n_classes, t_embed_dim=t_embed_dim)


def critic_values(critic: Critic, x: Array, onehot: Array, ts) -> Array:
    """Batched V(x_t, c, t) for states x (n, d), as float64; ts may be a
    scalar or one step per row."""
    out = forward(critic.net, critic.inputs(x, onehot), critic.t_table,
                  rows=np.broadcast_to(ts, len(x)))
    return out[:, 0].astype(np.float64)


# Trajectories per stacked critic call in value_matrix. At one process on
# a 2-core Xeon, 10,000 trajectories take 0.19-0.20 s at 8, 0.16-0.17 s at
# 16, 0.15 s at 32 and 0.14-0.16 s at 64 (best of eleven, three runs),
# while the pass's memory beyond its output grows with the stack: 0.27,
# 0.48, 0.90 and 1.74 MB (tracemalloc). 16 is within about 10% of the
# fastest, on half the memory of 32.
_VALUE_STACK = 16


def value_matrix(critic: Critic, rollouts: Rollouts) -> Array:
    """The (n, T) state-value baseline: column t-1 holds V(x_t, c, t).

    Each critic call takes a stack of up to _VALUE_STACK trajectories, whose
    T states share the film rows of steps T..1; every trajectory's
    values have the bits of a call on its T states alone. The pass runs in
    the calling process: its callers already run inside a shard or on one
    batch of policy.n_traj rows."""
    T, K = rollouts.T, critic.n_classes
    n, d = len(rollouts), rollouts.latents.shape[2]
    steps = np.arange(T, 0, -1)
    values = np.empty((n, T))
    for a in range(0, n, _VALUE_STACK):
        b = min(a + _VALUE_STACK, n)
        inputs = np.zeros((b - a, T, d + K), critic.net.theta.dtype)
        inputs[..., :d] = rollouts.latents[a:b, :T]
        inputs[..., d:] = one_hot(rollouts.class_ids[a:b], K)[:, None]
        # row j of a trajectory's states is x_{T-j}: column T-1-j
        values[a:b, ::-1] = forward(critic.net, inputs, critic.t_table,
                                    rows=steps)[..., 0]
    return values


def build_critic_buffer(model, class_ids, reward, sched: NoiseSchedule,
                        seed: int, phase: int = rngmod.PHASE_CRITIC_BUFFER,
                        first_index: int = 0) -> CriticBuffer:
    """Roll out one trajectory per class id and flatten to critic rows.

    Every state x_t with t in [1, T] becomes one row labeled with the
    trajectory's terminal reward, reward(x_0); x_0 itself is excluded
    because no value estimate is ever queried there. Row k of the
    unshuffled flattening is (trajectory k // T, t = k % T + 1); the
    returned rows are shuffled. first_index offsets the per-trajectory
    noise streams so repeated buffer builds (e.g. mid-run critic
    refreshes) draw fresh randomness.
    """
    rollouts = sample_trajectories(model, class_ids, sched, seed, phase,
                                   first_index=first_index)
    assign_rewards(rollouts, reward)
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
    ts = buffer.ts
    if ts.min() < 0 or ts.max() > critic.T:
        raise ValueError(f"timestep out of [0, {critic.T}]")
    n, d = buffer.x.shape
    dtype = critic.net.theta.dtype
    r = buffer.r.astype(dtype)
    # x columns, then one-hot class columns; each film block maps the
    # (T + 1)-row t_table once per minibatch and gathers its rows by step
    inputs = np.zeros((n, d + critic.n_classes), dtype)
    inputs[:, :d] = buffer.x
    one_hot(buffer.class_ids, critic.n_classes, out=inputs[:, d:])
    opt = adam_init(critic.net, lr=lr)
    history = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            tape = []
            pred = forward(critic.net, inputs[idx], critic.t_table, tape,
                           rows=ts[idx])[:, 0]
            err = pred - r[idx]
            total += float(err @ err)
            out_grad = (2.0 * err / len(idx))[:, None]
            adam_step(opt, critic.net.theta,
                      backward(critic.net, out_grad, tape)[0])
        history.append(total / n)
    return history


def critic_mse(critic: Critic, buffer: CriticBuffer) -> float:
    onehot = one_hot(buffer.class_ids, critic.n_classes)
    pred = critic_values(critic, buffer.x, onehot, buffer.ts)
    return float(((pred - buffer.r) ** 2).mean())


def ablation_compare(buffer: CriticBuffer, seed: int, first_index: int,
                     T: int, n_classes: int, hidden: int = 64,
                     t_embed_dim: int = 32, epochs: int = 4,
                     batch_size: int = 256, lr: float = 3e-3) -> tuple:
    """Train matched critics with and without timestep conditioning.

    Both start from identical parameters and see identical batches; the
    blind critic's train and held-out rows have every timestep set to 0,
    so its film conditioning is the t = 0 embedding throughout. A fifth
    of the rows is held out. The split, the critics' init and their
    minibatch order draw from streams (seed, PHASE_DIAG, first_index +
    0|1|2). Returns (mse_timestep_aware, mse_timestep_blind) on the
    held-out rows.
    """
    if len(np.unique(buffer.ts)) < 2:
        raise ValueError("ablation needs a buffer spanning several timesteps")
    d = buffer.x.shape[1]

    def stream(k):
        return rngmod.stream(seed, rngmod.PHASE_DIAG, first_index + k)

    n_hold = max(1, int(len(buffer) * 0.2))
    order = stream(0).permutation(len(buffer))
    hold, train = buffer[order[:n_hold]], buffer[order[n_hold:]]
    blind = [replace(b, ts=np.zeros_like(b.ts)) for b in (train, hold)]
    results = []
    for fit, score in ((train, hold), blind):
        critic = build_critic(d, n_classes, T, hidden, t_embed_dim,
                              rng=stream(1))
        critic_train(critic, fit, epochs, batch_size, rng=stream(2), lr=lr)
        results.append(critic_mse(critic, score))
    return results[0], results[1]
