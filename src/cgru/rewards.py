"""Terminal rewards for generated samples.

The main reward for unlearning is the classifier complement: a frozen
softmax classifier scores the terminal sample and the reward is
scale * (1 - p(target | x0)), so samples that stop looking like the
forget class earn more.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .nets import (Act, Dense, Network, adam_init, adam_step, backward,
                   forward, forward_upto, init_network)

Array = np.ndarray

REWARD_KINDS = ("classifier_complement", "mode_distance")


@dataclass(frozen=True)
class RewardSpec:
    kind: str
    target_class: int | None = None
    scale: float = 10.0
    center: tuple | None = None     # mode_distance only

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError(f"reward scale must be positive, got {self.scale}")
        if self.kind == "classifier_complement" and self.target_class is None:
            raise ValueError("classifier_complement needs a target_class")
        if self.kind == "mode_distance" and self.center is None:
            raise ValueError("mode_distance needs a center")


def build_classifier_net(d: int, n_classes: int, hidden: int,
                         rng: np.random.Generator) -> Network:
    arch = [
        Dense(d, hidden), Act("tanh"),
        Dense(hidden, hidden), Act("tanh"),
        Dense(hidden, n_classes), Act("softmax"),
    ]
    return init_network(arch, rng)


def train_classifier(X: Array, y, n_classes: int, rng: np.random.Generator,
                     hidden: int = 64, steps: int = 3000, batch: int = 128,
                     lr: float = 1e-3):
    """Fit a softmax MLP on labeled points with Adam and cross-entropy.

    Returns (net, history) where history is the per-step training loss.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("need at least two classes present in the labels")
    net = build_classifier_net(X.shape[1], n_classes, hidden, rng)
    opt = adam_init(net, lr=lr)
    history = []
    n = len(X)
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(batch, n))
        probs = forward(net, X[idx])
        p_true = probs[np.arange(len(idx)), y[idx]]
        loss = float(-np.log(np.maximum(p_true, 1e-300)).mean())
        out_grad = np.zeros_like(probs)
        out_grad[np.arange(len(idx)), y[idx]] = -1.0 / (p_true * len(idx))
        grads, _ = backward(net, X[idx], None, out_grad)
        adam_step(opt, net.params, grads)
        history.append(loss)
    return net, history


def classifier_probs(net: Network, X) -> Array:
    probs = forward(net, X)
    return probs


def classifier_predict(net: Network, X) -> Array:
    probs = np.atleast_2d(classifier_probs(net, X))
    return probs.argmax(axis=1)


def classifier_accuracy(net: Network, X, y) -> float:
    return float((classifier_predict(net, X) == np.asarray(y)).mean())


def penultimate_features(net: Network, X) -> Array:
    """Activations feeding the final dense layer, as an eval feature space."""
    last_dense = max(i for i, l in enumerate(net.arch) if isinstance(l, Dense))
    return forward_upto(net, X, last_dense)


def classifier_reward(net: Network, x0, target_class: int,
                      scale: float = 10.0):
    """scale * (1 - p(target | x0)); batched when x0 is a matrix."""
    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    probs = np.atleast_2d(classifier_probs(net, x0))
    if not 0 <= target_class < probs.shape[1]:
        raise ValueError(f"target class {target_class} outside [0, {probs.shape[1]})")
    r = scale * (1.0 - probs[:, target_class])
    return float(r[0]) if single else r


def mode_distance_reward(x0, center, scale: float = 10.0):
    """scale * exp(-||x0 - center||^2), a dense alternative reward."""
    x0 = np.asarray(x0, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    single = x0.ndim == 1
    pts = np.atleast_2d(x0)
    if center.shape != (pts.shape[1],):
        raise ShapeMismatch(f"center shape {center.shape} != point dim {pts.shape[1]}")
    d2 = ((pts - center) ** 2).sum(axis=1)
    r = scale * np.exp(-d2)
    return float(r[0]) if single else r


def reward_values(spec: RewardSpec, x0s: Array, clf: Network | None = None) -> Array:
    if spec.kind == "classifier_complement":
        if clf is None:
            raise ValueError("classifier_complement reward needs a classifier")
        return np.asarray(classifier_reward(clf, x0s, spec.target_class, spec.scale))
    return np.asarray(mode_distance_reward(x0s, np.asarray(spec.center), spec.scale))


def assign_rewards(rollouts, spec: RewardSpec, clf: Network | None = None):
    """Fill rollouts.rewards from each terminal sample, in place."""
    rollouts.rewards = reward_values(spec, rollouts.x0, clf)
    return rollouts
