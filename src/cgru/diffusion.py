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
from .nets import Act, Dense, Network, backward, forward, init_network, sinusoidal_embed

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
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or len(betas) < 1:
        raise ScheduleError("betas must be a non-empty 1-D array")
    if np.any(betas <= 0.0) or np.any(betas >= 1.0):
        raise ScheduleError("every beta must lie strictly inside (0, 1)")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
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


def gaussian_logprob(x, mu, sigma: float, d: int | None = None):
    """Log density of N(mu, sigma^2 I) evaluated at x, row-wise for batches."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if x.shape != mu.shape:
        raise ShapeMismatch(f"x shape {x.shape} != mu shape {mu.shape}")
    diff = x - mu
    if x.ndim == 1:
        dd = d if d is not None else x.shape[0]
        return -0.5 * dd * math.log(2.0 * math.pi * sigma * sigma) \
            - float(diff @ diff) / (2.0 * sigma * sigma)
    dd = d if d is not None else x.shape[1]
    return -0.5 * dd * math.log(2.0 * math.pi * sigma * sigma) \
        - (diff * diff).sum(axis=1) / (2.0 * sigma * sigma)


# ---------------------------------------------------------------------------
# class ids and rollout batches

def one_hot(class_ids, n_classes: int) -> Array:
    ids = np.asarray(class_ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= n_classes):
        raise ValueError(f"class id outside [0, {n_classes})")
    out = np.zeros((len(ids), n_classes))
    out[np.arange(len(ids)), ids] = 1.0
    return out


@dataclass
class Rollouts:
    """A batch of n reverse rollouts over T steps, one row per trajectory.

    latents[:, i] is x_{T-i}, so latents[:, 0] is x_T and latents[:, -1]
    is x_0; column k of logp and advantages belongs to step t = k+1.
    """
    class_ids: Array                    # (n,) int
    latents: Array                      # (n, T+1, d)
    logp: Array                         # (n, T) behavior log-probs
    rewards: Array | None = None        # (n,)
    advantages: Array | None = None     # (n, T)

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

    def inputs(self, x: Array, t, onehot: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        emb = sinusoidal_embed(t, self.t_embed_dim, self.T)
        if emb.ndim == 1:
            emb = np.broadcast_to(emb, (n, self.t_embed_dim))
        if onehot.shape != (n, self.n_classes):
            raise ShapeMismatch(f"onehot shape {onehot.shape} != ({n}, {self.n_classes})")
        return np.concatenate([x, emb, onehot], axis=1)

    def eps(self, x: Array, t, onehot: Array) -> Array:
        return forward(self.net, self.inputs(x, t, onehot))

    def eps_backward(self, x: Array, t, onehot: Array, out_grad: Array) -> dict:
        grads, _ = backward(self.net, self.inputs(x, t, onehot), None, out_grad)
        return grads


def build_eps_net(d: int, n_classes: int, hidden: int = 128,
                  t_embed_dim: int = 32, rng: np.random.Generator | None = None,
                  T: int = 50) -> EpsModel:
    if rng is None:
        rng = rngmod.stream(0, rngmod.PHASE_INIT)
    arch = [
        Dense(d + t_embed_dim + n_classes, hidden), Act("tanh"),
        Dense(hidden, hidden), Act("tanh"),
        Dense(hidden, d),
    ]
    return EpsModel(init_network(arch, rng), T=T, n_classes=n_classes,
                    t_embed_dim=t_embed_dim)


def reverse_mean(model, x_t: Array, t: int, onehot: Array,
                 sched: NoiseSchedule) -> Array:
    """Posterior mean mu_theta(x_t, c, t) of the reverse Gaussian kernel."""
    one_minus = 1.0 - sched.alpha_bar(t)
    if one_minus <= 1e-300:
        raise ScheduleError(f"degenerate schedule at t={t}: alpha_bar is 1")
    eps = model.eps(x_t, t, onehot)
    coef = sched.beta(t) / math.sqrt(one_minus)
    return (x_t - coef * eps) / math.sqrt(sched.alpha(t))


def score_coef(sched: NoiseSchedule, t: int) -> float:
    """d mu / d eps_hat at step t: the constant -beta_t/(sqrt(a_t) sqrt(1-abar_t))."""
    return -sched.beta(t) / (math.sqrt(sched.alpha(t))
                             * math.sqrt(1.0 - sched.alpha_bar(t)))


# ---------------------------------------------------------------------------
# sampling

def _rollout(model, sched: NoiseSchedule, onehot: Array, noise: Array,
             t_start: int, x_start: Array | None):
    """Shared reverse-chain walk. noise is (n, steps+1, d) per-trajectory draws.

    Returns (latents (n, steps+1, d), logps (n, steps)) with latents[:, 0]
    equal to x_{t_start} and latents[:, -1] equal to x_0.
    """
    n = onehot.shape[0]
    d = noise.shape[2]
    if x_start is None:
        x = noise[:, 0, :].copy()
    else:
        x = np.array(x_start, dtype=np.float64, copy=True)
    latents = np.empty((n, t_start + 1, d))
    logps = np.empty((n, t_start))
    latents[:, 0] = x
    for k, t in enumerate(range(t_start, 0, -1)):
        mu = reverse_mean(model, x, t, onehot, sched)
        x = mu + sched.sigma(t) * noise[:, k + 1, :]
        latents[:, k + 1] = x
        logps[:, k] = gaussian_logprob(x, mu, sched.sigma(t))
    return latents, logps


def sample_trajectories(model, class_ids, sched: NoiseSchedule, seed: int,
                        phase: int, first_index: int = 0) -> Rollouts:
    """Batch rollouts with one counter-based stream per trajectory.

    Each trajectory's noise comes from stream(seed, phase, first_index+i),
    so the result is independent of batching and of the worker count.
    Row 0 of a stream's draw is x_T; row k is the innovation for step
    t = T - k + 1.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    onehot = one_hot(class_ids, model.n_classes)
    n = len(class_ids)
    T, d = sched.T, model.d
    if n == 0:
        return Rollouts(class_ids, np.empty((0, T + 1, d)), np.empty((0, T)))

    def shard(lo, hi):
        noise = np.stack([
            rngmod.stream(seed, phase, first_index + i).standard_normal((T + 1, d))
            for i in range(lo, hi)])
        return _rollout(model, sched, onehot[lo:hi], noise, T, None)

    parts = rngmod.run_sharded(shard, n)
    latents = np.concatenate([p[0] for p in parts])
    logps = np.concatenate([p[1] for p in parts])
    # _rollout records steps T..1; store them as t = 1..T
    return Rollouts(class_ids, latents, np.ascontiguousarray(logps[:, ::-1]))


def rollout_from(model, class_id: int, sched: NoiseSchedule, x_t: Array,
                 t_start: int, seed: int, phase: int, n: int,
                 first_index: int = 0) -> Array:
    """Continue denoising n independent copies of state (x_t, c, t) to x_0."""
    if not 1 <= t_start <= sched.T:
        raise ScheduleError(f"t_start {t_start} outside [1, {sched.T}]")
    d = model.d
    onehot = np.broadcast_to(one_hot([class_id], model.n_classes),
                             (n, model.n_classes))

    def shard(lo, hi):
        noise = np.stack([
            rngmod.stream(seed, phase, first_index + i).standard_normal((t_start + 1, d))
            for i in range(lo, hi)])
        start = np.broadcast_to(np.asarray(x_t, dtype=np.float64), (hi - lo, d))
        latents, _ = _rollout(model, sched, onehot[lo:hi], noise, t_start, start)
        return latents[:, -1]

    parts = rngmod.run_sharded(shard, n)
    return np.concatenate(parts)


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
    """Denoising loss mean ||eps - eps_hat||^2 and its parameter gradients."""
    n = len(x0)
    onehot = one_hot(class_ids, model.n_classes)
    xt = q_sample(x0, ts, eps, sched)
    inputs = model.inputs(xt, ts, onehot)
    pred = forward(model.net, inputs)
    resid = pred - eps
    loss = float((resid * resid).sum(axis=1).mean())
    grads, _ = backward(model.net, inputs, None, 2.0 * resid / n)
    return loss, grads


def ddpm_train_step(model, x0: Array, class_ids, sched: NoiseSchedule,
                    rng: np.random.Generator, opt) -> float:
    """One minimization step of the denoising objective on a batch."""
    from .nets import adam_step
    n = len(x0)
    ts = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal((n, model.d))
    loss, grads = ddpm_loss_and_grads(model, x0, class_ids, ts, eps, sched)
    adam_step(opt, model.net.params, grads)
    return loss


# ---------------------------------------------------------------------------
# debug dumps

def dump_dataset_csv(path, X: Array, y) -> None:
    with open(path, "w") as fh:
        fh.write("x0,x1,class\n")
        for (a, b), c in zip(X, y):
            fh.write(f"{float(a)!r},{float(b)!r},{int(c)}\n")

