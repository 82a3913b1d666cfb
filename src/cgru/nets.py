"""Minimal float64 feed-forward networks with exact hand-written gradients.

Everything here operates on batches: inputs are (n, d) arrays and the
backward pass returns the gradient of <out_grad, forward(x)> summed over
rows, for every parameter and for the input itself. Architectures are
small lists of layer descriptors; parameters live in a flat dict keyed
"{layer_index}.{w|b|cw|cb}".
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Divergence, ShapeMismatch

Array = np.ndarray

_ACT_KINDS = ("tanh", "relu", "softmax")


@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int


@dataclass(frozen=True)
class Act:
    kind: str

    def __post_init__(self):
        if self.kind not in _ACT_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")


@dataclass(frozen=True)
class Film:
    """Feature-wise affine modulation driven by a conditioning vector.

    The block owns a dense map cond -> (scale, shift), each of length
    `features`, and computes scale * x + shift.
    """
    features: int
    cond_dim: int


@dataclass
class Network:
    arch: list
    params: dict[str, Array] = field(default_factory=dict)

    @property
    def has_film(self) -> bool:
        return any(isinstance(l, Film) for l in self.arch)

    @property
    def n_in(self) -> int:
        for layer in self.arch:
            if isinstance(layer, Dense):
                return layer.n_in
        raise ValueError("network has no dense layer")

    @property
    def n_out(self) -> int:
        for layer in reversed(self.arch):
            if isinstance(layer, Dense):
                return layer.n_out
            if isinstance(layer, Film):
                return layer.features
        raise ValueError("network has no dense layer")

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def copy(self) -> "Network":
        return Network(list(self.arch), {k: v.copy() for k, v in self.params.items()})


def _check_arch(arch: list) -> None:
    if not arch:
        raise ValueError("empty architecture")
    width = None
    for i, layer in enumerate(arch):
        if isinstance(layer, Dense):
            if layer.n_in <= 0 or layer.n_out <= 0:
                raise ShapeMismatch(f"layer {i}: non-positive dense dims {layer}")
            if width is not None and width != layer.n_in:
                raise ShapeMismatch(
                    f"layer {i}: dense expects {layer.n_in} features, got {width}")
            width = layer.n_out
        elif isinstance(layer, Film):
            if layer.features <= 0 or layer.cond_dim <= 0:
                raise ShapeMismatch(f"layer {i}: non-positive film dims {layer}")
            if width is not None and width != layer.features:
                raise ShapeMismatch(
                    f"layer {i}: film expects {layer.features} features, got {width}")
            width = layer.features
        elif not isinstance(layer, Act):
            raise ValueError(f"layer {i}: unknown layer type {layer!r}")


def init_network(arch: list, rng: np.random.Generator) -> Network:
    """Build a network with scaled-uniform dense weights and zero biases.

    Weights are drawn from U(-s, s) with s = sqrt(6 / (fan_in + fan_out)).
    Film conditioning maps start at the identity modulation: the scale
    half of the bias is 1 so an untrained block passes features through.
    """
    _check_arch(arch)
    net = Network(list(arch))
    for i, layer in enumerate(arch):
        if isinstance(layer, Dense):
            s = math.sqrt(6.0 / (layer.n_in + layer.n_out))
            net.params[f"{i}.w"] = rng.uniform(-s, s, (layer.n_in, layer.n_out))
            net.params[f"{i}.b"] = np.zeros(layer.n_out)
        elif isinstance(layer, Film):
            s = math.sqrt(6.0 / (layer.cond_dim + 2 * layer.features))
            net.params[f"{i}.cw"] = rng.uniform(-s, s, (layer.cond_dim, 2 * layer.features))
            cb = np.zeros(2 * layer.features)
            cb[:layer.features] = 1.0
            net.params[f"{i}.cb"] = cb
    return net


def _as_batch(x) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ShapeMismatch(f"expected 1-D or 2-D input, got shape {x.shape}")
    return x


def _softmax(z: Array) -> Array:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _run(net: Network, x: Array, cond, keep: bool):
    """Shared forward walk; optionally keeps per-layer caches for backward."""
    caches = [] if keep else None
    for i, layer in enumerate(net.arch):
        if isinstance(layer, Dense):
            if x.shape[1] != layer.n_in:
                raise ShapeMismatch(
                    f"layer {i}: dense expects {layer.n_in} features, got {x.shape[1]}")
            if keep:
                caches.append(("dense", i, x))
            x = x @ net.params[f"{i}.w"] + net.params[f"{i}.b"]
        elif isinstance(layer, Act):
            if layer.kind == "tanh":
                x = np.tanh(x)
                if keep:
                    caches.append(("tanh", i, x))
            elif layer.kind == "relu":
                if keep:
                    caches.append(("relu", i, x))
                x = np.maximum(x, 0.0)
            else:
                x = _softmax(x)
                if keep:
                    caches.append(("softmax", i, x))
        else:  # Film
            if cond is None:
                raise ShapeMismatch(f"layer {i}: film block needs a cond input")
            if cond.shape != (x.shape[0], layer.cond_dim):
                raise ShapeMismatch(
                    f"layer {i}: cond shape {cond.shape} does not match "
                    f"({x.shape[0]}, {layer.cond_dim})")
            if x.shape[1] != layer.features:
                raise ShapeMismatch(
                    f"layer {i}: film expects {layer.features} features, got {x.shape[1]}")
            g = cond @ net.params[f"{i}.cw"] + net.params[f"{i}.cb"]
            scale, shift = g[:, :layer.features], g[:, layer.features:]
            if keep:
                caches.append(("film", i, (x, scale)))
            x = scale * x + shift
    return x, caches


def forward(net: Network, x, cond=None) -> Array:
    """Apply the network to a batch (or single vector) of inputs.

    cond must be given exactly when the architecture contains film
    blocks; it is the per-row conditioning matrix (n, cond_dim).
    """
    squeeze = np.asarray(x).ndim == 1
    xb = _as_batch(x)
    if net.has_film:
        if cond is None:
            raise ShapeMismatch("network has film blocks but no cond was given")
        cond = _as_batch(cond)
    elif cond is not None:
        raise ShapeMismatch("network has no film blocks but cond was given")
    out, _ = _run(net, xb, cond, keep=False)
    if not np.isfinite(out).all():
        raise Divergence("non-finite values in network output")
    return out[0] if squeeze else out


def backward(net: Network, x, cond, out_grad):
    """Exact gradients of <out_grad, forward(x)> summed over batch rows.

    Returns (param_grads, input_grad) where param_grads has one array per
    entry of net.params. cond is treated as data, not a parameter, but
    the film conditioning weights do receive gradients.
    """
    xb = _as_batch(x)
    g = _as_batch(out_grad)
    if net.has_film:
        cond = _as_batch(cond)
    if g.shape[0] != xb.shape[0]:
        raise ShapeMismatch(f"out_grad rows {g.shape[0]} != input rows {xb.shape[0]}")
    out, caches = _run(net, xb, cond, keep=True)
    if g.shape[1] != out.shape[1]:
        raise ShapeMismatch(f"out_grad width {g.shape[1]} != output width {out.shape[1]}")
    grads = {}
    for kind, i, cache in reversed(caches):
        if kind == "dense":
            grads[f"{i}.w"] = cache.T @ g
            grads[f"{i}.b"] = g.sum(axis=0)
            g = g @ net.params[f"{i}.w"].T
        elif kind == "tanh":
            g = g * (1.0 - cache * cache)
        elif kind == "relu":
            g = g * (cache > 0.0)
        elif kind == "softmax":
            s = cache
            g = s * (g - (g * s).sum(axis=1, keepdims=True))
        else:  # film
            feat, scale = cache
            dg = np.concatenate([g * feat, g], axis=1)
            grads[f"{i}.cw"] = cond.T @ dg
            grads[f"{i}.cb"] = dg.sum(axis=0)
            g = g * scale
    return grads, g


def forward_upto(net: Network, x, n_layers: int, cond=None) -> Array:
    """Run only the first n_layers of the network (feature extraction)."""
    if not 0 < n_layers <= len(net.arch):
        raise ValueError(f"n_layers out of range: {n_layers}")
    sub = Network(net.arch[:n_layers], net.params)
    xb = _as_batch(x)
    if cond is not None:
        cond = _as_batch(cond)
    out, _ = _run(sub, xb, cond, keep=False)
    return out


def sinusoidal_embed(t, dim: int, t_max: int) -> Array:
    """Sin/cos positional embedding of timestep t into `dim` channels.

    t may be a scalar or an array; the result has one row per timestep
    (or a single vector for scalar t). dim must be even and t must lie
    in [0, t_max].
    """
    if dim <= 0 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be positive and even, got {dim}")
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts < 0) or np.any(ts > t_max):
        raise ValueError(f"timestep out of [0, {t_max}]")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = ts[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@dataclass
class AdamState:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(net: Network, lr: float = 3e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for name, p in net.params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One Adam update, in place, on every param that has a gradient."""
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape {p.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def flatten(net: Network, tensors: dict) -> Array:
    """Concatenate tensors into one vector in canonical parameter order."""
    return np.concatenate([np.ravel(tensors[name]) for name in net.params])


def zero_grads(net: Network) -> dict:
    return {name: np.zeros_like(p) for name, p in net.params.items()}


def accumulate(total: dict, part: dict) -> None:
    for name, g in part.items():
        total[name] += g
