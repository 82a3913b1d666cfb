"""Conditional DDPM on 2-D data, viewed as a finite-horizon MDP.

Forward process: q(x_t | x_{t-1}) = N(sqrt(1 - beta_t) x_{t-1}, beta_t I).
Reverse policy: p(x_{t-1} | x_t, c) = N(mu_theta(x_t, c, t), sigma_t^2 I)
with sigma_t = sqrt(beta_t) held fixed, so transition log-likelihoods are
exact and trajectories carry everything a policy-gradient step needs.
Timestep convention: t runs T..1 during generation; trajectory latents
are stored x_T first and x_0 last.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ScheduleError, ShapeMismatch
from .nets import (Act, Dense, Network, adam_step, backward, embed_lookup,
                   forward, init_network, sinusoidal_embed)

Array = np.ndarray


# ---------------------------------------------------------------------------
# noise schedule

@dataclass(frozen=True)
class NoiseSchedule:
    betas: Array          # betas[k] is beta_{k+1}
    alphas: Array
    alpha_bars: Array
    sigmas: Array

    @property
    def T(self) -> int:
        return len(self.betas)

    def beta(self, t: int) -> float:
        return float(self.betas[self._idx(t)])

    def alpha(self, t: int) -> float:
        return float(self.alphas[self._idx(t)])

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[self._idx(t)])

    def sigma(self, t: int) -> float:
        return float(self.sigmas[self._idx(t)])

    def _idx(self, t) -> int:
        if not 1 <= t <= self.T:
            raise ScheduleError(f"timestep {t} outside [1, {self.T}]")
        return int(t) - 1


def schedule_from_betas(betas) -> NoiseSchedule:
    """The schedule of betas[k] = beta_{k+1}. Every reverse step divides by
    sqrt(1 - alpha_bar_t), so a beta_1 so small that alpha_bar_1 rounds to
    1 is refused here, before any step runs."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or len(betas) < 1:
        raise ScheduleError("betas must be a non-empty 1-D array")
    if np.any(betas <= 0.0) or np.any(betas >= 1.0):
        raise ScheduleError("every beta must lie strictly inside (0, 1)")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    if alpha_bars[0] >= 1.0:        # alpha_bar_t only falls with t
        raise ScheduleError(f"degenerate schedule: beta_1 = {betas[0]!r} "
                            "leaves alpha_bar_1 at 1")
    return NoiseSchedule(betas=betas, alphas=alphas, alpha_bars=alpha_bars,
                         sigmas=np.sqrt(betas))


def make_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear beta schedule over T steps."""
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ScheduleError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    return schedule_from_betas(np.linspace(beta_start, beta_end, T))


def q_sample(x0, t, eps, sched: NoiseSchedule) -> Array:
    """Closed-form forward noising: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps.

    t may be a scalar step or an integer array with one step per row.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeMismatch(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    ts = np.asarray(t)
    if np.any(ts < 1) or np.any(ts > sched.T):
        raise ScheduleError(f"timestep outside [1, {sched.T}]")
    abar = sched.alpha_bars[ts - 1]
    if x0.ndim == 2 and ts.ndim == 1:
        abar = abar[:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def gaussian_logprob(x: Array, mu: Array, sigma: float) -> Array:
    """Log density of N(mu, sigma^2 I) at each row of x (n, d); the
    dimension of the Gaussian is d."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x.shape != mu.shape or x.ndim != 2:
        raise ShapeMismatch(f"need two (n, d) batches, got x {x.shape} "
                            f"and mu {mu.shape}")
    diff = x - mu
    return -0.5 * x.shape[1] * math.log(2.0 * math.pi * sigma * sigma) \
        - (diff * diff).sum(axis=1) / (2.0 * sigma * sigma)


# ---------------------------------------------------------------------------
# class ids and rollout batches

def one_hot(class_ids, n_classes: int, out: Array | None = None) -> Array:
    """(n, n_classes) indicator rows of class_ids, set in `out` if given
    (an all-zero (n, n_classes) array or view) or in a new array."""
    ids = np.asarray(class_ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= n_classes):
        raise ValueError(f"class id outside [0, {n_classes})")
    if out is None:
        out = np.zeros((len(ids), n_classes))
    elif out.shape != (len(ids), n_classes):
        raise ShapeMismatch(f"out shape {out.shape} != ({len(ids)}, {n_classes})")
    out[np.arange(len(ids)), ids] = 1.0
    return out


@dataclass
class Rollouts:
    """A batch of n reverse rollouts over T steps, one row per trajectory.

    latents[:, i] is x_{T-i}, so latents[:, 0] is x_T and latents[:, -1]
    is x_0; column k of logp belongs to step t = k+1. Rewards are assigned
    after sampling. The value baseline is not stored here: the estimators
    take it as an (n, T) matrix laid out like logp, from the stacked critic
    pass of critic.value_matrix.
    """
    class_ids: Array                    # (n,) int
    latents: Array                      # (n, T+1, d)
    logp: Array                         # (n, T) behavior log-probs
    rewards: Array | None = None        # (n,)

    def __len__(self) -> int:
        return len(self.class_ids)

    def __getitem__(self, idx) -> "Rollouts":
        """Sub-batch by slice or index array; assigned fields come along."""
        return Rollouts(**{k: None if v is None else v[idx]
                           for k, v in vars(self).items()})

    @property
    def T(self) -> int:
        return self.latents.shape[1] - 1

    @property
    def x0(self) -> Array:
        return self.latents[:, -1]


# ---------------------------------------------------------------------------
# epsilon model

class EpsModel:
    """Conditional noise predictor: eps(x_t, t, c) from a plain MLP.

    The timestep enters through a sinusoidal embedding and the class
    through a one-hot vector, both concatenated onto x_t.
    """

    def __init__(self, net: Network, T: int, n_classes: int, t_embed_dim: int = 32):
        self.net = net
        self.T = T
        self.n_classes = n_classes
        self.t_embed_dim = t_embed_dim
        self.d = net.n_in - t_embed_dim - n_classes
        if self.d <= 0:
            raise ShapeMismatch(
                f"net input {net.n_in} too small for embed {t_embed_dim} + "
                f"classes {n_classes}")
        self.t_table = sinusoidal_embed(np.arange(T + 1), t_embed_dim, T)

    def inputs(self, x: Array, t, onehot: Array) -> Array:
        """The net's (n, d + t_embed_dim + n_classes) input rows: x, the
        embedding of t (a scalar or one step per row), then onehot."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeMismatch(f"x shape {x.shape} is not (n, {self.d})")
        n, d = x.shape
        if onehot.shape != (n, self.n_classes):
            raise ShapeMismatch(f"onehot shape {onehot.shape} != ({n}, {self.n_classes})")
        out = np.empty((n, self.net.n_in))
        out[:, :d] = x
        out[:, d:d + self.t_embed_dim] = embed_lookup(self.t_table, t)
        out[:, d + self.t_embed_dim:] = onehot
        return out

    def eps(self, x: Array, t, onehot: Array, tape: list | None = None) -> Array:
        return forward(self.net, self.inputs(x, t, onehot), tape=tape)


def build_eps_net(d: int, n_classes: int, hidden: int = 128,
                  t_embed_dim: int = 32, rng: np.random.Generator | None = None,
                  T: int = 50) -> EpsModel:
    if rng is None:
        rng = rngmod.stream(0, *rngmod.key("eps init"))
    arch = [
        Dense(d + t_embed_dim + n_classes, hidden), Act("tanh"),
        Dense(hidden, hidden), Act("tanh"),
        Dense(hidden, d),
    ]
    return EpsModel(init_network(arch, rng), T=T, n_classes=n_classes,
                    t_embed_dim=t_embed_dim)


def reverse_mean(model, x_t: Array, t: int, onehot: Array,
                 sched: NoiseSchedule, tape: list | None = None) -> Array:
    """Posterior mean mu_theta(x_t, c, t) of the reverse Gaussian kernel.

    `tape` records the eps network's forward walk for nets.backward."""
    coef = sched.beta(t) / math.sqrt(1.0 - sched.alpha_bar(t))
    eps = model.eps(x_t, t, onehot, tape)
    return (x_t - coef * eps) / math.sqrt(sched.alpha(t))


def score_coef(sched: NoiseSchedule, t: int) -> float:
    """d mu / d eps_hat at step t: the constant -beta_t/(sqrt(a_t) sqrt(1-abar_t))."""
    return -sched.beta(t) / (math.sqrt(sched.alpha(t))
                             * math.sqrt(1.0 - sched.alpha_bar(t)))


# ---------------------------------------------------------------------------
# sampling

def _draw(latents: Array, seed: int, phase: int, first_index: int) -> None:
    """Fill latents[i] with the standard normals of stream(seed, phase,
    first_index + i), drawn through one re-keyed generator (rng.streams)."""
    gens = rngmod.streams(seed, phase,
                          range(first_index, first_index + len(latents)))
    for row, gen in zip(latents, gens):
        gen.standard_normal(out=row)


def _rollout(model, sched: NoiseSchedule, onehot: Array, latents: Array,
             logp: Array | None = None) -> None:
    """Shared reverse-chain walk, in place over latents (n, steps+1, d).

    On entry latents[:, 0] holds x_{steps} and latents[:, k] (k >= 1) the
    standard-normal innovation of step t = steps - k + 1; on return
    latents[:, k] is x_{steps-k}, so latents[:, -1] is x_0. logp (n, steps),
    if given, receives log p(x_{t-1} | x_t, c) in column t - 1.
    """
    steps = latents.shape[1] - 1
    x = latents[:, 0]
    for k, t in enumerate(range(steps, 0, -1)):
        mu = reverse_mean(model, x, t, onehot, sched)
        x = latents[:, k + 1]
        x *= sched.sigma(t)
        x += mu
        if logp is not None:
            logp[:, t - 1] = gaussian_logprob(x, mu, sched.sigma(t))


def sample_trajectories(model, class_ids, sched: NoiseSchedule, seed: int,
                        phase: int, first_index: int = 0) -> Rollouts:
    """Batch rollouts with one counter-based stream per trajectory.

    Each trajectory's noise comes from stream(seed, phase, first_index+i),
    so the result is independent of batching and of the worker count.
    Row 0 of a stream's draw is x_T; row k is the innovation for step
    t = T - k + 1. Each shard draws and walks its own slice of the
    returned arrays and returns it; the fold puts it back, which copies a
    forked worker's rows and is a no-op for the calling process's own.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    onehot = one_hot(class_ids, model.n_classes)
    n = len(class_ids)
    T, d = sched.T, model.d
    latents = np.empty((n, T + 1, d))
    logp = np.empty((n, T))

    def shard(lo, hi):
        _draw(latents[lo:hi], seed, phase, first_index + lo)
        _rollout(model, sched, onehot[lo:hi], latents[lo:hi], logp[lo:hi])
        return lo, hi, latents[lo:hi], logp[lo:hi]

    def fold(part):
        lo, hi, rows, rows_logp = part
        latents[lo:hi] = rows
        logp[lo:hi] = rows_logp

    rngmod.run_sharded(shard, n, fold=fold)
    return Rollouts(class_ids, latents, logp)


def rollout_from(model, class_id: int, sched: NoiseSchedule, x_t: Array,
                 t_start: int, seed: int, phase: int, n: int,
                 first_index: int = 0) -> Array:
    """Continue denoising n independent copies of state (x_t, c, t) to x_0."""
    if not 1 <= t_start <= sched.T:
        raise ScheduleError(f"t_start {t_start} outside [1, {sched.T}]")
    onehot = np.broadcast_to(one_hot([class_id], model.n_classes),
                             (n, model.n_classes))

    def shard(lo, hi):
        latents = np.empty((hi - lo, t_start + 1, model.d))
        _draw(latents, seed, phase, first_index + lo)
        latents[:, 0] = x_t
        _rollout(model, sched, onehot[lo:hi], latents)
        return latents[:, -1]

    return np.concatenate(rngmod.run_sharded(shard, n))


# ---------------------------------------------------------------------------
# data

def mode_centers(n_classes: int = 8, radius: float = 4.0) -> Array:
    ang = 2.0 * math.pi * np.arange(n_classes) / n_classes
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def sample_dataset(n: int, rng: np.random.Generator, n_classes: int = 8,
                   radius: float = 4.0, stddev: float = 0.3):
    """Labeled draw from the circular Gaussian mixture: returns (X, y)."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if stddev <= 0 or radius <= 0 or n_classes < 1:
        raise ValueError("radius, stddev and n_classes must be positive")
    y = rng.integers(0, n_classes, size=n)
    centers = mode_centers(n_classes, radius)
    X = centers[y] + stddev * rng.standard_normal((n, 2))
    return X, y


# ---------------------------------------------------------------------------
# denoiser training

def ddpm_loss_and_grads(model, x0: Array, class_ids, ts, eps: Array,
                        sched: NoiseSchedule):
    """Denoising loss mean ||eps - eps_hat||^2 and its gradient, a vector
    in the layout of model.net.theta."""
    n = len(x0)
    onehot = one_hot(class_ids, model.n_classes)
    xt = q_sample(x0, ts, eps, sched)
    inputs = model.inputs(xt, ts, onehot)
    tape = []
    pred = forward(model.net, inputs, tape=tape)
    resid = pred - eps
    loss = float((resid * resid).sum(axis=1).mean())
    return loss, backward(model.net, 2.0 * resid / n, tape)[0]


def ddpm_train_step(model, x0: Array, class_ids, sched: NoiseSchedule,
                    rng: np.random.Generator, opt) -> float:
    """One minimization step of the denoising objective on a batch."""
    n = len(x0)
    ts = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal((n, model.d))
    loss, grad = ddpm_loss_and_grads(model, x0, class_ids, ts, eps, sched)
    adam_step(opt, model.net.theta, grad)
    return loss
