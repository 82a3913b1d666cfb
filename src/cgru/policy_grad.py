"""Score-function policy gradients over denoising trajectories.

Every estimator is one weighted score sum, _score_gradient: the score of
reverse step t in row i is weighted by coef[i, t-1], times the clamped
likelihood ratio against the stored behavior log-probs when those are
given, and averaged over rows. The terminal-reward estimator weights
every step by the trajectory reward; the critic-guided estimator weights
step t by the ratio times the advantage r - V(x_t, c, t). The baseline V
is plain data: an (n, T) matrix whose column t-1 holds V(x_t, c, t), which
the caller computes once per batch (critic.value_matrix) and passes in;
None means no baseline. Subtracting the state-value baseline leaves the
expectation unchanged (the baseline term has mean zero) while shrinking
the variance, which baseline_term_estimate and gradient_variance measure
directly.
"""

from dataclasses import dataclass

import numpy as np

from .diffusion import (NoiseSchedule, Rollouts, gaussian_logprob, one_hot,
                        reverse_mean, score_coef)
from .errors import ShapeMismatch
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
    clip_count: int = 0


def _importance_weights(logp_new: Array, logp_old: Array, cfg: EstimatorConfig):
    w = np.exp(logp_new - logp_old)
    clipped = (w < cfg.clip_low) | (w > cfg.clip_high)
    return np.clip(w, cfg.clip_low, cfg.clip_high), int(clipped.sum())


def _reward_minus_values(rollouts: Rollouts, values: Array | None) -> Array:
    """The (n, T) advantage matrix r - V; values None means V = 0."""
    if rollouts.rewards is None:
        raise ValueError("rollouts have no rewards assigned")
    shape = (len(rollouts), rollouts.T)
    if values is None:
        return np.broadcast_to(rollouts.rewards[:, None], shape)
    if values.shape != shape:
        raise ShapeMismatch(f"values shape {values.shape} != {shape}")
    return rollouts.rewards[:, None] - values


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
    if coef.shape != (n, T):
        raise ShapeMismatch(f"coef shape {coef.shape} != {(n, T)}")
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
    grad, _ = _score_gradient(model, sched, rollouts.latents,
                              one_hot(rollouts.class_ids, model.n_classes),
                              range(rollouts.T, 0, -1),
                              _reward_minus_values(rollouts, None))
    return GradientEstimate(grad=clip_to_norm(grad, cfg.grad_max_norm))


def cgru_gradient(rollouts: Rollouts, model, values: Array | None,
                  cfg: EstimatorConfig,
                  sched: NoiseSchedule) -> GradientEstimate:
    """Importance-weighted advantage estimator.

    Weights step t of row i by the advantage r_i - values[i, t-1] times
    the clamped likelihood ratio against the stored behavior log-probs,
    and averages over trajectories while summing over steps, visiting
    timesteps T..1.
    """
    grad, clip_count = _score_gradient(
        model, sched, rollouts.latents,
        one_hot(rollouts.class_ids, model.n_classes),
        range(rollouts.T, 0, -1), _reward_minus_values(rollouts, values),
        rollouts.logp, cfg)
    return GradientEstimate(grad=clip_to_norm(grad, cfg.grad_max_norm),
                            clip_count=clip_count)


def baseline_term_estimate(rollouts: Rollouts, model, values: Array,
                           sched: NoiseSchedule) -> Array:
    """Monte-Carlo estimate of B = E[sum_t grad log p * V(x_t, c, t)].

    values is the (n, T) baseline matrix. This is the term the advantage
    subtracts from the terminal-reward estimator; its expectation is
    exactly zero, so the estimate should shrink like 1/sqrt(n_traj). No
    clipping or importance weighting is applied.
    """
    grad, _ = _score_gradient(model, sched, rollouts.latents,
                              one_hot(rollouts.class_ids, model.n_classes),
                              range(rollouts.T, 0, -1), values)
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


def policy_update_epoch(model, rollouts: Rollouts, values: Array | None,
                        cfg: EstimatorConfig, sched: NoiseSchedule, opt,
                        rng: np.random.Generator, grad_accum: int = 1) -> dict:
    """One epoch of critic-guided updates over a trajectory buffer.

    Timesteps are visited in an order shuffled from `rng`; each visit
    accumulates the importance-weighted advantage gradient of its
    timestep mini-batch, and Adam applies the accumulated (and clipped)
    gradient every `grad_accum` visits. With grad_accum >= T one epoch
    is a single update identical to applying cgru_gradient directly.

    values is the (n, T) baseline matrix; values=None runs the same loop
    with raw terminal rewards in place of advantages, i.e. the
    terminal-reward baseline method on an identical update budget.
    """
    if grad_accum < 1:
        raise ValueError(f"grad_accum must be >= 1, got {grad_accum}")
    adv = _reward_minus_values(rollouts, values)
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
