"""Terminal rewards for generated samples.

A reward is a function of the terminal samples alone, reward(x0) -> r
for x0 of shape (n, d); callers bind a reward function's other
arguments with functools.partial. Unlearning uses the classifier
complement: a frozen softmax classifier scores the terminal sample and
the reward is scale * (1 - p(target | x0)), so samples that stop looking
like the forget class earn more. The critic ablation uses the distance
to the forget mode, whose value varies along a trajectory.
"""

import numpy as np

from .errors import ShapeMismatch
from .nets import (Act, Dense, Network, adam_init, adam_step, backward,
                   forward, init_network)

Array = np.ndarray


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
        tape = []
        probs = forward(net, X[idx], tape=tape)
        p_true = probs[np.arange(len(idx)), y[idx]]
        loss = float(-np.log(np.maximum(p_true, 1e-300)).mean())
        out_grad = np.zeros_like(probs)
        out_grad[np.arange(len(idx)), y[idx]] = -1.0 / (p_true * len(idx))
        adam_step(opt, net.theta, backward(net, out_grad, tape)[0])
        history.append(loss)
    return net, history


def classifier_predict(net: Network, X) -> Array:
    return forward(net, X).argmax(axis=1)


def classifier_accuracy(net: Network, X, y) -> float:
    return float((classifier_predict(net, X) == np.asarray(y)).mean())


def classifier_reward(net: Network, x0: Array, target_class: int,
                      scale: float = 10.0) -> Array:
    """scale * (1 - p(target | x0)) for each row of x0 (n, d)."""
    if scale <= 0:
        raise ValueError(f"reward scale must be positive, got {scale}")
    probs = forward(net, x0)
    if not 0 <= target_class < probs.shape[1]:
        raise ValueError(f"target class {target_class} outside [0, {probs.shape[1]})")
    return scale * (1.0 - probs[:, target_class])


def mode_distance_reward(x0: Array, center, scale: float = 10.0) -> Array:
    """scale * exp(-||x0 - center||^2) for each row of x0 (n, d), a dense
    alternative reward."""
    if scale <= 0:
        raise ValueError(f"reward scale must be positive, got {scale}")
    center = np.asarray(center, dtype=np.float64)
    if x0.ndim != 2 or center.shape != (x0.shape[1],):
        raise ShapeMismatch(f"center shape {center.shape} does not match "
                            f"points of shape {x0.shape}")
    d2 = ((x0 - center) ** 2).sum(axis=1)
    return scale * np.exp(-d2)


def assign_rewards(rollouts, reward):
    """Fill rollouts.rewards with reward(rollouts.x0), in place."""
    rollouts.rewards = reward(rollouts.x0)
    return rollouts
