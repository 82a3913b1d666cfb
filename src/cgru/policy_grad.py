"""Score-function policy gradients over denoising trajectories.

Every estimator is one weighted score sum, _score_gradient: the score of
reverse step t in row i is weighted by coef[i, t-1], times the clamped
likelihood ratio against the stored behavior log-probs when those are
given, and averaged over rows. The terminal-reward estimator weights
every step by the trajectory reward; the critic-guided estimator weights
step t by the ratio times the advantage r - V(x_t, c, t). The baseline V
is plain data: an (n, T) matrix whose column t-1 holds V(x_t, c, t), which
the caller computes once per batch in stacked critic calls
(critic.value_matrix) and passes in;
None means no baseline. Subtracting the state-value baseline leaves the
expectation unchanged (the baseline term has mean zero) while shrinking
the variance, which baseline_term_estimate and gradient_variance measure
directly.

One walk serves several estimates. It takes a sequence of terms, each a
coefficient matrix, given as a function that builds any row span's block,
with or without behavior log-probs, and a grouping of the rows into
contiguous blocks cut at sorted row indices. Per step it runs the
denoiser forward once and back once per term, and it returns every
term's mean over every group. Rows are walked in fixed rng.SHARD chunks
through rng.run_sharded; each shard builds only its own coefficient
blocks, and its partial sums are folded into the total in shard order as
they arrive. So the output does not depend on the worker count, and the
walk holds O(workers) partials and no (n, T) coefficient matrix at any
batch size.
group_estimates names the terms by estimator, and _TERMS is the one table
of them. cgru_gradient, ddpo_gradient and baseline_term_estimate are thin
one-group wrappers over it, and per_sample_scores is one walk with a group
per trajectory. Every gradient and estimate is a plain (P,) array in
theta's layout; cgru's count of clamped ratios is group_estimates' second
result.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .diffusion import (NoiseSchedule, Rollouts, gaussian_logprob, one_hot,
                        reverse_mean, score_coef)
from .errors import ConfigError, ShapeMismatch
from .nets import adam_step, backward

Array = np.ndarray


@dataclass(frozen=True)
class EstimatorConfig:
    clip_low: float = 0.8
    clip_high: float = 1.2
    grad_max_norm: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.clip_low <= 1.0 <= self.clip_high:
            raise ConfigError(
                f"need 0 < clip_low <= 1 <= clip_high, got "
                f"({self.clip_low}, {self.clip_high})")
        if not self.grad_max_norm > 0.0:
            raise ConfigError(f"grad_max_norm must be positive, got {self.grad_max_norm}")


def _importance_weights(logp_new: Array, logp_old: Array, cfg: EstimatorConfig):
    w = np.exp(logp_new - logp_old)
    clipped = (w < cfg.clip_low) | (w > cfg.clip_high)
    return np.clip(w, cfg.clip_low, cfg.clip_high), int(clipped.sum())


def _value_rows(rollouts: Rollouts, values: Array):
    """V as a coefficient term: the rows lo:hi of the (n, T) baseline
    matrix, whose shape is checked here, before any walk."""
    shape = (len(rollouts), rollouts.T)
    if np.shape(values) != shape:
        raise ShapeMismatch(f"values shape {np.shape(values)} != {shape}")
    return lambda lo, hi: values[lo:hi]


def _advantages(rollouts: Rollouts, values: Array | None):
    """r - V as a coefficient term: the (hi - lo, T) block of rows lo:hi;
    values None means V = 0."""
    if rollouts.rewards is None:
        raise ValueError("rollouts have no rewards assigned")
    r, T = rollouts.rewards, rollouts.T
    if values is None:
        return lambda lo, hi: np.broadcast_to(r[lo:hi, None], (hi - lo, T))
    v = _value_rows(rollouts, values)
    return lambda lo, hi: r[lo:hi, None] - v(lo, hi)


def _score_gradient(model, sched: NoiseSchedule, lat: Array, class_ids: Array,
                    steps, terms, cuts=(), cfg: EstimatorConfig | None = None):
    """Per-term, per-group sums over `steps` of the group-mean weighted score.

    terms is a sequence of (coef, logp_old): coef(lo, hi) gives the
    (hi - lo, T) coefficient block of rows lo:hi, and row i at step t is
    weighted by its block's column t-1 / (its group's size); when the
    behavior log-probs logp_old (n, T) are given, the weight is first
    multiplied by the likelihood ratio clamped to cfg's range. cuts are
    the sorted interior row indices where a new group starts; none means
    one group. Returns (gradients (len(terms), G, P) in theta's layout,
    each term's number of clamped ratios). The per-step score of the
    Gaussian kernel flows through mu only, since sigma_t is fixed by the
    schedule.

    Each rng.SHARD-row shard builds its own one-hot rows, coefficient
    blocks and (len(terms), groups it touches, P) partial. The partials
    are added into the total in shard order as they arrive, so the walk
    holds O(workers) partials however many rows it has. With at most
    rng.SHARD rows the one shard's partial is the total: weights / n
    inside the output gradient, then 0 + g_1 + g_2 + ... over steps.
    """
    n, T = lat.shape[0], lat.shape[1] - 1
    if n == 0:
        raise ValueError("cannot score an empty batch: no trajectories")
    bounds = [0, *(int(c) for c in cuts), n]
    if len(bounds) > 2 and any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"cuts must rise strictly inside (0, {n}): {cuts}")

    def shard(lo, hi):
        g0 = bisect.bisect_right(bounds, lo) - 1
        g1 = bisect.bisect_left(bounds, hi)
        local = [min(max(b, lo), hi) - lo for b in bounds[g0:g1 + 1]]
        # each row is divided by its group's size, so a group sums to its mean
        sizes = np.diff(bounds[g0:g1 + 1])
        size = float(sizes[0]) if len(sizes) == 1 \
            else np.repeat(sizes, np.diff(local)).astype(np.float64)
        onehot = one_hot(class_ids[lo:hi], model.n_classes)
        blocks = [coef(lo, hi) for coef, _ in terms]
        flat = np.zeros((len(terms), g1 - g0, model.net.theta.size))
        clips = [0] * len(terms)
        for t in steps:
            xt = lat[lo:hi, T - t]
            xprev = lat[lo:hi, T - t + 1]
            tape = []
            mu = reverse_mean(model, xt, t, onehot, sched, tape)
            sig = sched.sigma(t)
            score = (score_coef(sched, t) / (sig * sig)) * (xprev - mu)
            logp_new = None
            for k, (block, (_, logp_old)) in enumerate(zip(blocks, terms)):
                weights = block[:, t - 1]
                if logp_old is not None:
                    if logp_new is None:
                        logp_new = gaussian_logprob(xprev, mu, sig)
                    w, nclip = _importance_weights(
                        logp_new, logp_old[lo:hi, t - 1], cfg)
                    clips[k] += nclip
                    weights = w * weights
                backward(model.net, score * (weights / size)[:, None], tape,
                         local, flat[k])
        return g0, flat, clips

    if n <= rngmod.SHARD:
        (_, flat, clips), = rngmod.run_sharded(shard, n)
        return flat, clips
    total = np.zeros((len(terms), len(bounds) - 1, model.net.theta.size))
    clip_counts = [0] * len(terms)

    def fold(part):
        g0, flat, clips = part
        total[:, g0:g0 + flat.shape[1]] += flat
        clip_counts[:] = [a + b for a, b in zip(clip_counts, clips)]

    rngmod.run_sharded(shard, n, fold=fold)
    return total, clip_counts


# the coefficient term of each estimator, from the batch and its (n, T)
# baseline matrix: a function of a row span giving that span's block, and
# the behavior log-probs of the clamped ratio (only cgru has them); "score"
# is the unweighted score sum
_TERMS = {
    "cgru": lambda r, v: (_advantages(r, v), r.logp),
    "ddpo": lambda r, v: (_advantages(r, None), None),
    "baseline": lambda r, v: (_value_rows(r, v), None),
    "score": lambda r, v: (lambda lo, hi: np.ones((hi - lo, r.T)), None),
}


def group_estimates(rollouts: Rollouts, model, values: Array | None,
                    cfg: EstimatorConfig, sched: NoiseSchedule, kinds,
                    cuts=()):
    """Unclipped estimates of each kind, one per row group, from one walk.

    kinds name estimators: "cgru" (ratio times r - V), "ddpo" (r),
    "baseline" (V, the term the advantage subtracts) and "score" (1). cuts
    split the rows into contiguous groups as in _score_gradient. Returns
    (estimates (len(kinds), G, P), each kind's number of clamped ratios);
    entry [k, g] is the mean of kind k over the rows of group g.
    """
    return _score_gradient(model, sched, rollouts.latents,
                           rollouts.class_ids,
                           range(rollouts.T, 0, -1),
                           [_TERMS[kind](rollouts, values) for kind in kinds],
                           cuts, cfg)


def clip_to_norm(vec: Array, max_norm: float) -> Array:
    norm = float(np.linalg.norm(vec))
    if norm > max_norm:
        return vec * (max_norm / norm)
    return vec


def ddpo_gradient(rollouts: Rollouts, model, sched: NoiseSchedule,
                  cfg: EstimatorConfig) -> Array:
    """On-policy terminal-reward estimator, mean_n sum_t grad log p * r_n,
    clipped to cfg.grad_max_norm."""
    est, _ = group_estimates(rollouts, model, None, cfg, sched, ["ddpo"])
    return clip_to_norm(est[0, 0], cfg.grad_max_norm)


def cgru_gradient(rollouts: Rollouts, model, values: Array | None,
                  cfg: EstimatorConfig, sched: NoiseSchedule) -> Array:
    """Importance-weighted advantage estimator, clipped to cfg.grad_max_norm.

    Weights step t of row i by the advantage r_i - values[i, t-1] times
    the clamped likelihood ratio against the stored behavior log-probs,
    and averages over trajectories while summing over steps, visiting
    timesteps T..1.
    """
    est, _ = group_estimates(rollouts, model, values, cfg, sched, ["cgru"])
    return clip_to_norm(est[0, 0], cfg.grad_max_norm)


def baseline_term_estimate(rollouts: Rollouts, model, values: Array,
                           sched: NoiseSchedule) -> Array:
    """Monte-Carlo estimate of B = E[sum_t grad log p * V(x_t, c, t)].

    values is the (n, T) baseline matrix. This is the term the advantage
    subtracts from the terminal-reward estimator; its expectation is
    exactly zero, so the estimate should shrink like 1/sqrt(n_traj). No
    clipping or importance weighting is applied.
    """
    est, _ = group_estimates(rollouts, model, values, None, sched,
                             ["baseline"])
    return est[0, 0]


def gradient_variance(estimates: Array) -> float:
    """Mean over coordinates of the unbiased per-coordinate variance of
    the rows of a (k, P) array of estimates, k >= 2."""
    estimates = np.asarray(estimates)
    if estimates.ndim != 2 or len(estimates) < 2:
        raise ValueError(f"need a (k, P) array with k >= 2, got shape "
                         f"{estimates.shape}")
    return float(estimates.var(axis=0, ddof=1).mean())


def per_sample_scores(rollouts: Rollouts, model,
                      sched: NoiseSchedule) -> Array:
    """Unweighted per-trajectory score vectors sum_t grad log p, stacked:
    one batched walk with one row group per trajectory."""
    est, _ = group_estimates(rollouts, model, None, None, sched, ["score"],
                             range(1, len(rollouts)))
    return est[0]


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
    term = _TERMS["cgru"](rollouts, values)
    n, T = len(rollouts), rollouts.T

    order = rng.permutation(np.arange(1, T + 1)).tolist()
    clip_count = 0
    grad_norms = []
    for lo in range(0, T, grad_accum):
        grad, (nclip,) = _score_gradient(model, sched, rollouts.latents,
                                         rollouts.class_ids,
                                         order[lo:lo + grad_accum],
                                         [term], cfg=cfg)
        clip_count += nclip
        flat = clip_to_norm(grad[0, 0], cfg.grad_max_norm)
        grad_norms.append(float(np.linalg.norm(flat)))
        # ascent on expected reward, so Adam minimizes the negation
        adam_step(opt, model.net.theta, -flat)
    weight_count = n * T
    return {
        "clip_count": clip_count,
        "clip_fraction": clip_count / max(1, weight_count),
        "stale_buffer": clip_count > 0.5 * weight_count,
        "updates": len(grad_norms),
        "grad_norm_mean": float(np.mean(grad_norms)),
    }
