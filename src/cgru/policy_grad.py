"""Score-function policy gradients over denoising trajectories.

Every estimate is one walk, group_estimates: the score of reverse step t
in row i is weighted by its estimator's coefficient, times the clamped
likelihood ratio against the stored behavior log-probs where the
estimator takes it, and averaged over rows. The terminal-reward
estimator weights every step by the trajectory reward; the critic-guided
estimator weights step t by the ratio times the advantage
r - V(x_t, c, t). The baseline V is plain data: an (n, T) matrix whose
column t-1 holds V(x_t, c, t), which the caller computes once per batch,
or once per shard of rows it makes as the walk asks for them, in stacked
critic calls (critic.value_matrix) and passes in; None means no
baseline. Subtracting the state-value baseline leaves the expectation
unchanged (the baseline term has mean zero) while shrinking the
variance, which baseline_term_estimate and gradient_variance measure
directly.

_TERMS is the one table of estimator terms. Training and diagnostics
share the walk: policy_update_epoch takes one cgru walk per group of
shuffled steps; cgru_gradient, ddpo_gradient and baseline_term_estimate
are thin one-group wrappers over it, and per_sample_scores is one walk
with a group per trajectory. Every gradient and estimate is a plain (P,)
array in theta's layout.
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

# gradient_variance's block width: a (20, 2048) float64 block is 320 KiB,
# under the 1 MiB mmap threshold procs.keep_heap_top sets
_VARIANCE_COLUMNS = 2048


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


def _values(rollouts: Rollouts, values: Array) -> Array:
    """The (n, T) baseline matrix of the rows, whose shape is checked."""
    shape = (len(rollouts), rollouts.T)
    if np.shape(values) != shape:
        raise ShapeMismatch(f"values shape {np.shape(values)} != {shape}")
    return values


def _advantages(rollouts: Rollouts, values: Array | None) -> Array:
    """r - V over the rows; values None means V = 0."""
    if rollouts.rewards is None:
        raise ValueError("rollouts have no rewards assigned")
    r = rollouts.rewards[:, None]
    if values is None:
        return np.broadcast_to(r, (len(rollouts), rollouts.T))
    return r - _values(rollouts, values)


# each estimator's term: weights(rollouts, values) gives the (n, T)
# coefficient block of a shard's rows from its rollouts and their (n, T)
# baseline matrix, and the flag says whether the likelihood ratio clamped
# to the estimator config multiplies it (only cgru's does); "score" is the
# unweighted score sum
_TERMS = {
    "cgru": (_advantages, True),
    "ddpo": (lambda r, v: _advantages(r, None), False),
    "baseline": (_values, False),
    "score": (lambda r, v: np.ones((len(r), r.T)), False),
}


def _slices(rollouts: Rollouts, values: Array | None):
    """rows(lo, hi) over a held batch: its rows lo:hi and theirs of the
    (n, T) values, whose shape is checked here, once for every shard."""
    if values is not None:
        _values(rollouts, values)
    return lambda lo, hi: (rollouts[lo:hi],
                           None if values is None else values[lo:hi])


def group_estimates(rollouts, model, values, cfg: EstimatorConfig,
                    sched: NoiseSchedule, kinds, cuts=(), steps=None):
    """Unclipped estimates of each kind, one per row group, from one walk.

    The rows come one shard at a time from a function rows(lo, hi) ->
    (Rollouts of rows lo:hi, their (hi - lo, T) values or None). A caller
    that holds a batch passes it as rollouts with its (n, T) baseline
    matrix or None as values, and the walk slices them; a caller that
    makes its rows passes their count n as rollouts and the function as
    values, so no n-row array need exist.

    kinds name rows of _TERMS: "cgru" (ratio times r - V), "ddpo" (r),
    "baseline" (V, the term the advantage subtracts) and "score" (1).
    cuts are the sorted interior row indices where a new group starts.
    steps are the reverse steps summed over, in order; None means T..1.
    Returns (estimates (len(kinds), G, P), each kind's number of clamped
    ratios); entry [k, g] is the sum over steps of kind k's mean over the
    rows of group g. Kinds, cuts and a held batch's values are checked
    before the first forward pass, and each shard's rewards and values
    before its own. The per-step score of the Gaussian kernel flows
    through mu only, since sigma_t is fixed by the schedule.

    Rows are walked in fixed rng.SHARD chunks through rng.run_sharded.
    Each shard gets its rows, builds its one-hot rows, coefficient blocks
    and (len(kinds), groups it touches, P) partial, which is added into
    the zeroed total in shard order as it arrives. Each row is divided by
    the size of its group in the global cuts. So the output does not
    depend on the worker count, and the walk holds O(workers) partials
    and no (n, T) coefficient matrix at any batch size.
    """
    unknown = [kind for kind in kinds if kind not in _TERMS]
    if unknown:
        raise ValueError(f"unknown estimator kinds {unknown}; known kinds "
                         f"are {sorted(_TERMS)}")
    terms = [_TERMS[kind] for kind in kinds]
    if isinstance(rollouts, Rollouts):
        n, rows = len(rollouts), _slices(rollouts, values)
    else:
        n, rows = int(rollouts), values
    if n == 0:
        raise ValueError("cannot score an empty batch: no trajectories")
    bounds = [0, *(int(c) for c in cuts), n]
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"cuts must rise strictly inside (0, {n}): {cuts}")

    def shard(lo, hi):
        g0 = bisect.bisect_right(bounds, lo) - 1
        g1 = bisect.bisect_left(bounds, hi)
        local = [min(max(b, lo), hi) - lo for b in bounds[g0:g1 + 1]]
        # each row is divided by its group's size, so a group sums to its mean
        size = np.repeat(np.diff(bounds[g0:g1 + 1]), np.diff(local))
        shard_rollouts, shard_values = rows(lo, hi)
        lat, T = shard_rollouts.latents, shard_rollouts.T
        onehot = one_hot(shard_rollouts.class_ids, model.n_classes)
        # building the blocks checks rewards and values, before any forward
        blocks = [weights(shard_rollouts, shard_values)
                  for weights, _ in terms]
        flat = np.zeros((len(terms), g1 - g0, model.net.theta.size))
        clips = [0] * len(terms)
        for t in range(T, 0, -1) if steps is None else steps:
            xt = lat[:, T - t]
            xprev = lat[:, T - t + 1]
            tape = []
            mu = reverse_mean(model, xt, t, onehot, sched, tape)
            sig = sched.sigma(t)
            score = (score_coef(sched, t) / (sig * sig)) * (xprev - mu)
            logp_new = None
            for k, (block, (_, ratio)) in enumerate(zip(blocks, terms)):
                weights = block[:, t - 1]
                if ratio:
                    if logp_new is None:
                        logp_new = gaussian_logprob(xprev, mu, sig)
                    w, nclip = _importance_weights(
                        logp_new, shard_rollouts.logp[:, t - 1], cfg)
                    clips[k] += nclip
                    weights = w * weights
                flat[k] += backward(model.net, score * (weights / size)[:, None],
                                    tape, local)
        return g0, flat, clips

    total = np.zeros((len(terms), len(bounds) - 1, model.net.theta.size))
    clip_counts = [0] * len(terms)

    def fold(part):
        g0, flat, clips = part
        total[:, g0:g0 + flat.shape[1]] += flat
        clip_counts[:] = [a + b for a, b in zip(clip_counts, clips)]

    rngmod.run_sharded(shard, n, fold=fold)
    return total, clip_counts


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


def gradient_variance(estimates: Array, rows=None) -> float:
    """Mean over coordinates of the unbiased per-coordinate variance of
    the rows of a (k, P) array of estimates, k >= 2; rows, if given, is
    an index array that picks the k rows (repeats allowed), as a
    bootstrap resample does.

    The variances are taken in blocks of _VARIANCE_COLUMNS columns, each
    block's rows picked from its columns alone, so no (k, P) copy or
    deviation array is built. A column's variance is the same
    elementwise arithmetic in any block of two or more columns, and the
    mean still runs over the whole (P,) vector, so the result has the
    bits of estimates[rows].var(axis=0, ddof=1).mean(). A lone last
    column joins the block before it: numpy sums one column's rows
    pairwise, not in row order.
    """
    estimates = np.asarray(estimates)
    if estimates.ndim != 2:
        raise ValueError(f"need a (k, P) array with k >= 2, got shape "
                         f"{estimates.shape}")
    pick = slice(None) if rows is None else np.asarray(rows)
    k = len(estimates) if rows is None else len(pick)
    if k < 2:
        raise ValueError(f"need k >= 2 rows, got {k} of shape "
                         f"{estimates.shape}")
    P = estimates.shape[1]
    edges = [*range(0, max(P - 1, 1), _VARIANCE_COLUMNS), P]
    return float(np.concatenate([
        estimates[pick, lo:hi].var(axis=0, ddof=1)
        for lo, hi in zip(edges, edges[1:])]).mean())


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
    return [(float(b), gradient_variance(S * (r - float(b))[:, None]))
            for b in baselines]


def policy_update_epoch(model, rollouts: Rollouts, values: Array | None,
                        cfg: EstimatorConfig, sched: NoiseSchedule, opt,
                        rng: np.random.Generator, grad_accum: int = 1) -> dict:
    """One epoch of critic-guided updates over a trajectory buffer.

    Timesteps are visited in an order shuffled from `rng`, in groups of
    `grad_accum`; each group is one cgru walk of group_estimates over its
    steps, whose importance-weighted advantage gradient Adam applies,
    clipped. With grad_accum >= T one epoch is a single update on the
    cgru estimate summed in the shuffled order: cgru_gradient sums the
    same terms in T..1 order, so the two agree up to rounding.

    values is the (n, T) baseline matrix; values=None runs the same loop
    with raw terminal rewards in place of advantages, i.e. the
    terminal-reward baseline method on an identical update budget.
    """
    if grad_accum < 1:
        raise ValueError(f"grad_accum must be >= 1, got {grad_accum}")
    n, T = len(rollouts), rollouts.T

    order = rng.permutation(np.arange(1, T + 1)).tolist()
    clip_count = 0
    grad_norms = []
    for lo in range(0, T, grad_accum):
        grad, (nclip,) = group_estimates(rollouts, model, values, cfg, sched,
                                         ["cgru"],
                                         steps=order[lo:lo + grad_accum])
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
