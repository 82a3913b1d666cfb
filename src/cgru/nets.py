"""Minimal float64 feed-forward networks with exact hand-written gradients.

Everything here operates on batches: inputs are (n, d) arrays. forward
records each layer's cache on a tape (a list) when given one; backward
walks that tape in reverse, without rerunning the network, for the
gradient of <out_grad, forward(x)> summed over rows, for every parameter
(not the input). Given per-parameter (G, ...) buffers and row bounds,
backward instead adds each contiguous row group's sum into its own slot,
in place: policy_grad's score walk uses this to get every coefficient
term and row group from one forward pass per step, with rows chunked
into rng.SHARD-wide shards by the caller. Architectures are small lists
of layer descriptors; parameters live in a flat dict keyed
"{layer_index}.{w|b|cw|cb}".
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Divergence, ShapeMismatch

Array = np.ndarray

_ACT_KINDS = ("tanh", "softmax")


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
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D (n, d) batch, got shape {x.shape}")
    return x


def _softmax(z: Array) -> Array:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _run(net: Network, x: Array, cond, tape: list | None = None):
    """Shared forward walk; appends each layer's cache to `tape` if given."""
    record = (lambda entry: None) if tape is None else tape.append
    for i, layer in enumerate(net.arch):
        if isinstance(layer, Dense):
            if x.shape[1] != layer.n_in:
                raise ShapeMismatch(
                    f"layer {i}: dense expects {layer.n_in} features, got {x.shape[1]}")
            record(("dense", i, x))
            x = x @ net.params[f"{i}.w"] + net.params[f"{i}.b"]
        elif isinstance(layer, Act):
            if layer.kind == "tanh":
                x = np.tanh(x)
                record(("tanh", i, x))
            else:
                x = _softmax(x)
                record(("softmax", i, x))
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
            record(("film", i, (x, scale, cond)))
            x = scale * x + shift
    return x


def forward(net: Network, x, cond=None, tape: list | None = None) -> Array:
    """Apply the network to a batch of inputs x (n, d).

    cond must be given exactly when the architecture contains film
    blocks; it is the per-row conditioning matrix (n, cond_dim). Pass an
    empty list as `tape` to record the walk for `backward`; without one
    no per-layer cache outlives the call.
    """
    if tape:
        raise ValueError("tape already holds a forward walk")
    x = _as_batch(x)
    if net.has_film:
        if cond is None:
            raise ShapeMismatch("network has film blocks but no cond was given")
        cond = _as_batch(cond)
    elif cond is not None:
        raise ShapeMismatch("network has no film blocks but cond was given")
    out = _run(net, x, cond, tape)
    if not np.isfinite(out).all():
        raise Divergence("non-finite values in network output")
    return out


def backward(net: Network, out_grad, tape: list, into: dict | None = None,
             bounds=None) -> dict:
    """Exact gradients of <out_grad, forward(x)> summed over batch rows.

    `tape` is the list a forward call on the same network filled; the
    walk is not run again. Returns one gradient array per entry of
    net.params. cond is treated as data, not a parameter, but the film
    conditioning weights do receive gradients.

    Grouped form: given `into`, a dict of (G, *param.shape) buffers, and
    `bounds`, G + 1 increasing row boundaries from 0 to the row count, the
    sum over rows bounds[k]:bounds[k+1] is added in place to into[name][k]
    and `into` is returned, with one product per group and weight.
    """
    if not tape:
        raise ValueError("backward needs the tape of a forward call")
    g = _as_batch(out_grad)
    if g.shape[1] != net.n_out:
        raise ShapeMismatch(f"out_grad width {g.shape[1]} != output width {net.n_out}")
    kind, _, cache = tape[0]
    rows = (cache[0] if kind == "film" else cache).shape[0]
    if g.shape[0] != rows:
        raise ShapeMismatch(f"out_grad rows {g.shape[0]} != input rows {rows}")
    if into is None:
        grads = {}

        def add(name, x, dy):       # x None: a bias, summed over rows
            grads[name] = dy.sum(axis=0) if x is None else x.T @ dy
    else:
        grads = into
        add = _group_adder(into, bounds, rows)
    for kind, i, cache in reversed(tape):
        if kind == "dense":
            add(f"{i}.w", cache, g)
            add(f"{i}.b", None, g)
            if i:  # no layer reads the gradient of the network input
                g = g @ net.params[f"{i}.w"].T
        elif kind == "tanh":
            g = g * (1.0 - cache * cache)
        elif kind == "softmax":
            s = cache
            g = s * (g - (g * s).sum(axis=1, keepdims=True))
        else:  # film
            feat, scale, cond = cache
            dg = np.concatenate([g * feat, g], axis=1)
            add(f"{i}.cw", cond, dg)
            add(f"{i}.cb", None, dg)
            g = g * scale
    return grads


def _group_adder(into: dict, bounds, rows: int):
    """add(name, x, dy): the per-group sums of x.T @ dy (of dy for x None)
    over the row groups that `bounds` cuts, added into into[name]."""
    bounds = [int(b) for b in bounds]
    if bounds[0] != 0 or bounds[-1] != rows \
            or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"bounds must rise strictly from 0 to {rows}")
    segments = list(enumerate(zip(bounds[:-1], bounds[1:])))

    def add(name, x, dy):
        buf = into[name]
        for k, (a, b) in segments:
            buf[k] += dy[a:b].sum(axis=0) if x is None else x[a:b].T @ dy[a:b]
    return add


def forward_upto(net: Network, x, n_layers: int) -> Array:
    """Run only the first n_layers of the network (feature extraction)."""
    if not 0 < n_layers <= len(net.arch):
        raise ValueError(f"n_layers out of range: {n_layers}")
    sub = Network(net.arch[:n_layers], net.params)
    return _run(sub, _as_batch(x), None)


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


def embed_lookup(table: Array, t) -> Array:
    """Rows of table = sinusoidal_embed(np.arange(t_max + 1), dim, t_max)
    for timestep t (a scalar or an array); t must lie in [0, t_max]."""
    ts = np.asarray(t)
    if np.any(ts < 0) or np.any(ts >= len(table)):
        raise ValueError(f"timestep out of [0, {len(table) - 1}]")
    return table[ts]


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
