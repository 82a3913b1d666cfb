"""Score-function policy gradients over denoising trajectories.

Every estimator is one weighted score sum, _score_gradient: the score of
reverse step t in row i is weighted by coef[i, t-1], times the clamped
likelihood ratio against the stored behavior log-probs when those are
given, and averaged over rows. The terminal-reward estimator weights
every step by the trajectory reward; the critic-guided estimator weights
step t by the ratio times the advantage r - V(x_t, c, t). Subtracting the
state-value baseline leaves the expectation unchanged (the baseline term
has mean zero) while shrinking the variance, which baseline_term_estimate
and gradient_variance measure directly.
"""

from dataclasses import dataclass

import numpy as np

from .critic import Critic, critic_values
from .diffusion import (NoiseSchedule, Rollouts, gaussian_logprob, one_hot,
                        reverse_mean, score_coef)
from .nets import accumulate, adam_step, backward, flatten, zero_grads

Array = np.ndarray


@dataclass(frozen=True)
class EstimatorConfig:
    clip_low: float = 0.8
    clip_high: float = 1.2
    grad_max_norm: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.clip_low <= 1.0 <= self.clip_high:
            raise ValueError(
                f"need 0 < clip_low <= 1 <= clip_high, got "
                f"({self.clip_low}, {self.clip_high})")
        if not self.grad_max_norm > 0.0:
            raise ValueError(f"grad_max_norm must be positive, got {self.grad_max_norm}")


@dataclass
class GradientEstimate:
    grad: Array
    n_traj: int
    clip_count: int = 0


def _importance_weights(logp_new: Array, logp_old: Array, cfg: EstimatorConfig):
    w = np.exp(logp_new - logp_old)
    clipped = (w < cfg.clip_low) | (w > cfg.clip_high)
    return np.clip(w, cfg.clip_low, cfg.clip_high), int(clipped.sum())


def state_values(critic, x: Array, class_ids, ts) -> Array:
    """Critic values for a batch of states.

    Accepts a Critic, a callable (x, class_id, t) -> float, or None.
    None means no baseline at all (values identically zero), which turns
    the advantage r - V into the raw terminal reward.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if critic is None:
        return np.zeros(n)
    ids = np.broadcast_to(np.asarray(class_ids, dtype=np.int64), (n,))
    tarr = np.broadcast_to(np.asarray(ts, dtype=np.int64), (n,))
    if isinstance(critic, Critic):
        return critic_values(critic, x, one_hot(ids, critic.n_classes), tarr)
    return np.array([float(critic(x[i], int(ids[i]), int(tarr[i])))
                     for i in range(n)])


def compute_advantages(rollouts: Rollouts, critic) -> Rollouts:
    """Fill rollouts.advantages with r - V(x_t, c, t) for t = 1..T, in
    place. The critic sees one trajectory's T states per call."""
    if rollouts.rewards is None:
        raise ValueError("rollouts have no rewards assigned")
    T = rollouts.T
    ts = np.arange(T, 0, -1)
    adv = np.empty((len(rollouts), T))
    for i in range(len(rollouts)):
        vals = state_values(critic, rollouts.latents[i, :T],
                            rollouts.class_ids[i], ts)
        adv[i, ts - 1] = rollouts.rewards[i] - vals
    rollouts.advantages = adv
    return rollouts


def _advantages(rollouts: Rollouts, critic) -> Array:
    """The (n, T) advantage matrix, computed from `critic` if the batch has
    none yet."""
    if rollouts.advantages is None:
        compute_advantages(rollouts, critic)
    return rollouts.advantages


def _score_gradient(model, sched: NoiseSchedule, lat: Array, onehot: Array,
                    steps, coef: Array, logp_old: Array | None = None,
                    cfg: EstimatorConfig | None = None):
    """Flat sum over `steps` of the row-mean weighted score of step t.

    Row i at step t is weighted by coef[i, t-1] / n; given the behavior
    log-probs logp_old (n, T), the weight is first multiplied by the
    likelihood ratio clamped to cfg's range. Returns (gradient, number of
    clamped ratios). The per-step score of the Gaussian kernel flows
    through mu only, since sigma_t is fixed by the schedule.
    """
    n, T = lat.shape[0], lat.shape[1] - 1
    grads = zero_grads(model.net)
    clip_count = 0
    for t in steps:
        xt = lat[:, T - t]
        xprev = lat[:, T - t + 1]
        tape = []
        mu = reverse_mean(model, xt, t, onehot, sched, tape)
        sig = sched.sigma(t)
        weights = coef[:, t - 1]
        if logp_old is not None:
            w, nclip = _importance_weights(gaussian_logprob(xprev, mu, sig),
                                           logp_old[:, t - 1], cfg)
            clip_count += nclip
            weights = w * weights
        out_grad = (score_coef(sched, t) / (sig * sig)) \
            * (xprev - mu) * (weights / n)[:, None]
        accumulate(grads, backward(model.net, out_grad, tape))
    return flatten(model.net, grads), clip_count


def clip_to_norm(vec: Array, max_norm: float) -> Array:
    norm = float(np.linalg.norm(vec))
    if norm > max_norm:
        return vec * (max_norm / norm)
    return vec


def ddpo_gradient(rollouts: Rollouts, model, sched: NoiseSchedule,
                  cfg: EstimatorConfig) -> GradientEstimate:
    """On-policy terminal-reward estimator: mean_n sum_t grad log p * r_n."""
    if rollouts.rewards is None:
        raise ValueError("rollouts have no rewards assigned")
    n, T = len(rollouts), rollouts.T
    coef = np.broadcast_to(rollouts.rewards[:, None], (n, T))
    grad, _ = _score_gradient(model, sched, rollouts.latents,
                              one_hot(rollouts.class_ids, model.n_classes),
                              range(T, 0, -1), coef)
    return GradientEstimate(grad=clip_to_norm(grad, cfg.grad_max_norm),
                            n_traj=n)


def cgru_gradient(rollouts: Rollouts, model, critic, cfg: EstimatorConfig,
                  sched: NoiseSchedule) -> GradientEstimate:
    """Importance-weighted advantage estimator.

    Uses the advantages stored on the batch (computing them from `critic`
    if absent), weights each step by the clamped likelihood ratio against
    the stored behavior log-probs, and averages over trajectories while
    summing over steps, visiting timesteps T..1.
    """
    adv = _advantages(rollouts, critic)
    grad, clip_count = _score_gradient(
        model, sched, rollouts.latents,
        one_hot(rollouts.class_ids, model.n_classes),
        range(rollouts.T, 0, -1), adv, rollouts.logp, cfg)
    return GradientEstimate(grad=clip_to_norm(grad, cfg.grad_max_norm),
                            n_traj=len(rollouts), clip_count=clip_count)


def baseline_term_estimate(rollouts: Rollouts, model, critic,
                           sched: NoiseSchedule) -> Array:
    """Monte-Carlo estimate of B = E[sum_t grad log p * V(x_t, c, t)].

    This is the term the advantage subtracts from the terminal-reward
    estimator; its expectation is exactly zero, so the estimate should
    shrink like 1/sqrt(n_traj). No clipping or importance weighting is
    applied.
    """
    ids, lat, T = rollouts.class_ids, rollouts.latents, rollouts.T
    # critic values first: a critic forward beside a live eps tape raises peak memory
    values = np.stack([state_values(critic, lat[:, T - t], ids, t)
                       for t in range(1, T + 1)], axis=1)
    grad, _ = _score_gradient(model, sched, lat, one_hot(ids, model.n_classes),
                              range(T, 0, -1), values)
    return grad


def gradient_variance(estimates: list) -> float:
    """Mean over coordinates of the unbiased per-coordinate variance."""
    if len(estimates) < 2:
        raise ValueError("need at least two estimates")
    mat = np.stack([e.grad for e in estimates])
    if mat.ndim != 2:
        raise ValueError("estimates have mismatched lengths")
    return float(mat.var(axis=0, ddof=1).mean())


def per_sample_scores(rollouts: Rollouts, model,
                      sched: NoiseSchedule) -> Array:
    """Unweighted per-trajectory score vectors sum_t grad log p, stacked.

    One backward pass per trajectory, so this is meant for small probe
    models rather than the full denoiser.
    """
    lat, T = rollouts.latents, rollouts.T
    onehot = one_hot(rollouts.class_ids, model.n_classes)
    ones = np.ones((1, T))
    return np.stack([
        _score_gradient(model, sched, lat[i:i + 1], onehot[i:i + 1],
                        range(T, 0, -1), ones)[0]
        for i in range(len(rollouts))])


def optimal_baseline_probe(model, sched: NoiseSchedule, rollouts: Rollouts,
                           baselines) -> list:
    """Per-trajectory gradient variance under each constant baseline.

    Scores are computed once; each baseline b then yields per-trajectory
    gradients s_i * (r_i - b) whose coordinate-mean variance is returned
    as (baseline, variance) pairs, in the order given.
    """
    if rollouts.rewards is None:
        raise ValueError("rollouts have no rewards assigned")
    S = per_sample_scores(rollouts, model, sched)
    r = rollouts.rewards
    out = []
    for b in baselines:
        G = S * (r - float(b))[:, None]
        out.append((float(b), float(G.var(axis=0, ddof=1).mean())))
    return out


def policy_update_epoch(model, rollouts: Rollouts, critic,
                        cfg: EstimatorConfig, sched: NoiseSchedule, opt,
                        rng: np.random.Generator, grad_accum: int = 1) -> dict:
    """One epoch of critic-guided updates over a trajectory buffer.

    Timesteps are visited in an order shuffled from `rng`; each visit
    accumulates the importance-weighted advantage gradient of its
    timestep mini-batch, and Adam applies the accumulated (and clipped)
    gradient every `grad_accum` visits. With grad_accum >= T one epoch
    is a single update identical to applying cgru_gradient directly.

    critic=None runs the same loop with raw terminal rewards in place of
    advantages, i.e. the terminal-reward baseline method on an identical
    update budget.
    """
    if grad_accum < 1:
        raise ValueError(f"grad_accum must be >= 1, got {grad_accum}")
    adv = _advantages(rollouts, critic)
    n, T = len(rollouts), rollouts.T
    onehot = one_hot(rollouts.class_ids, model.n_classes)

    order = rng.permutation(np.arange(1, T + 1)).tolist()
    clip_count = 0
    grad_norms = []
    for lo in range(0, T, grad_accum):
        grad, nclip = _score_gradient(model, sched, rollouts.latents, onehot,
                                      order[lo:lo + grad_accum], adv,
                                      rollouts.logp, cfg)
        clip_count += nclip
        flat = clip_to_norm(grad, cfg.grad_max_norm)
        grad_norms.append(float(np.linalg.norm(flat)))
        # ascent on expected reward, so Adam minimizes the negation
        adam_step(opt, model.net.params, _unflatten(model.net, -flat))
    weight_count = n * T
    return {
        "clip_count": clip_count,
        "clip_fraction": clip_count / max(1, weight_count),
        "stale_buffer": clip_count > 0.5 * weight_count,
        "updates": len(grad_norms),
        "grad_norm_mean": float(np.mean(grad_norms)),
    }


def _unflatten(net, vec: Array) -> dict:
    out = {}
    off = 0
    for name, p in net.params.items():
        out[name] = vec[off:off + p.size].reshape(p.shape)
        off += p.size
    return out
