"""Minimal feed-forward networks with exact hand-written gradients.

Everything here operates on batches: inputs are (n, d) arrays, and
forward also takes an (m, n, d) stack of batches that share one cond,
with the bits of m separate calls. forward records each layer's cache on
a tape (a list) when given one; backward walks that tape in reverse,
without rerunning the network, and returns the gradient of
<out_grad, forward(x)> summed over rows, for every parameter (not the
input), as rows of a new (G, P) array, one per contiguous row group:
policy_grad's score walk uses the groups to get every coefficient term
and row group from one forward pass per step, with rows chunked into
rng.SHARD-wide shards by the caller. Architectures are small sequences
of layer descriptors, checked once when a Network is built, so forward
checks only its caller's input and cond. A network's P parameters live
in one vector, theta, float64 unless the network is built with another
dtype; net.params is a read-only mapping from "{layer_index}.{w|b|cw|cb}"
to shaped views of it, in layer order. Inputs, conds, output gradients,
gradient rows and Adam's moments take the dtype of theta.
"""

import math
from dataclasses import astuple, dataclass
from itertools import accumulate
from types import MappingProxyType

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


def _layout(arch):
    """(name, shape) of each parameter tensor, in theta's order."""
    for i, layer in enumerate(arch):
        if isinstance(layer, Dense):
            yield f"{i}.w", (layer.n_in, layer.n_out)
            yield f"{i}.b", (layer.n_out,)
        elif isinstance(layer, Film):
            yield f"{i}.cw", (layer.cond_dim, 2 * layer.features)
            yield f"{i}.cb", (2 * layer.features,)


def _check_arch(arch) -> tuple:
    """(n_in, n_out, cond_dim) of an architecture whose every dense and
    film layer takes the width the layers before it give, and whose film
    blocks share one cond width (cond_dim None: no film blocks)."""
    if not arch:
        raise ValueError("empty architecture")
    n_in = width = cond_dim = None
    for i, layer in enumerate(arch):
        if isinstance(layer, Act):
            continue
        if isinstance(layer, Dense):
            kind, takes, gives = "dense", layer.n_in, layer.n_out
        elif isinstance(layer, Film):
            kind, takes, gives = "film", layer.features, layer.features
            if cond_dim not in (None, layer.cond_dim):
                raise ShapeMismatch(f"layer {i}: film cond width {layer.cond_dim}, "
                                    f"but an earlier film block's is {cond_dim}")
            cond_dim = layer.cond_dim
        else:
            raise ValueError(f"layer {i}: unknown layer type {layer!r}")
        if min(astuple(layer)) <= 0:
            raise ShapeMismatch(f"layer {i}: non-positive {kind} dims {layer}")
        if width is not None and width != takes:
            raise ShapeMismatch(
                f"layer {i}: {kind} expects {takes} features, got {width}")
        n_in = takes if n_in is None else n_in
        width = gives
    if width is None:
        raise ValueError("network has no dense or film layer")
    return n_in, width, cond_dim


class Network:
    """An architecture and its parameters, zero until written through theta
    or in place through a view; rebinding a name in params raises TypeError.
    The architecture is checked here, once, and kept as a tuple with its
    n_in, n_out and cond_dim (None without film blocks). The network
    computes in the dtype of theta."""

    def __init__(self, arch, dtype=np.float64):
        self.arch = tuple(arch)
        self.n_in, self.n_out, self.cond_dim = _check_arch(self.arch)
        shapes = dict(_layout(self.arch))
        ends = [0, *accumulate(math.prod(shape) for shape in shapes.values())]
        # each name's columns: its slice of theta and of a gradient row
        self._cols = {name: slice(a, b) for name, a, b in zip(shapes, ends, ends[1:])}
        self.theta = np.zeros(ends[-1], dtype=dtype)
        self.params = MappingProxyType({
            name: self.theta[self._cols[name]].reshape(shape)
            for name, shape in shapes.items()})


def init_network(arch, rng: np.random.Generator,
                 dtype=np.float64) -> Network:
    """Build a network with scaled-uniform dense weights and zero biases.

    Weights are drawn from U(-s, s) with s = sqrt(6 / (fan_in + fan_out)),
    always as float64 from rng, and rounded into theta's dtype.
    Film conditioning maps start at the identity modulation: the scale
    half of the bias is 1 so an untrained block passes features through.
    """
    net = Network(arch, dtype)
    for i, layer in enumerate(net.arch):
        if isinstance(layer, Dense):
            s = math.sqrt(6.0 / (layer.n_in + layer.n_out))
            net.params[f"{i}.w"][...] = rng.uniform(-s, s, (layer.n_in, layer.n_out))
        elif isinstance(layer, Film):
            s = math.sqrt(6.0 / (layer.cond_dim + 2 * layer.features))
            net.params[f"{i}.cw"][...] = rng.uniform(
                -s, s, (layer.cond_dim, 2 * layer.features))
            net.params[f"{i}.cb"][:layer.features] = 1.0
    return net


def _softmax(z: Array) -> Array:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _run(net: Network, x: Array, cond, tape: list | None = None,
         rows: Array | None = None):
    """Forward walk over inputs and a cond that forward has checked;
    appends each layer's cache to `tape` if given. With `rows`, cond is a
    table: each film block maps it once and gathers row rows[i] for input
    row i, and the tape keeps the gathered cond[rows].

    Each dense and film layer builds its output in one fresh array (the
    bias or shift is added in place)."""
    record = (lambda entry: None) if tape is None else tape.append
    taped_cond = cond if rows is None or tape is None else cond.take(rows, 0)
    for i, layer in enumerate(net.arch):
        if isinstance(layer, Dense):
            record(("dense", i, x))
            x = x @ net.params[f"{i}.w"]
            x += net.params[f"{i}.b"]
        elif isinstance(layer, Act):
            x = np.tanh(x) if layer.kind == "tanh" else _softmax(x)
            record((layer.kind, i, x))
        else:  # Film
            g = cond @ net.params[f"{i}.cw"] + net.params[f"{i}.cb"]
            if rows is not None:
                g = g.take(rows, 0)
            scale, shift = g[:, :layer.features], g[:, layer.features:]
            record(("film", i, (x, scale, taped_cond)))
            x = scale * x
            x += shift
    return x


def forward(net: Network, x, cond=None, tape: list | None = None,
            rows=None) -> Array:
    """Apply the network to a batch of inputs x (n, d), or to a stack of
    batches x (m, n, d) that share one cond.

    cond must be given exactly when the architecture contains film
    blocks; it is the per-row conditioning matrix (n, cond_dim). With
    `rows`, n integers, cond is instead a table (k, cond_dim) and row i
    is conditioned on cond[rows[i]]: each film block maps the k table
    rows once and gathers its n rows, with the bits of
    forward(net, x, cond[rows]), because a BLAS gemm row does not depend
    on the other rows. Pass an empty list as `tape` to record the walk
    for `backward`; without one no per-layer cache outlives the call;
    with rows, the tape holds cond[rows]. A stack is one np.matmul per
    dense layer and one cond map per film block, so out[j] has exactly
    the bits of forward(net, x[j], cond); it cannot be recorded on a tape.

    Each dense or film layer builds its output in one array, adding the
    bias or shift in place; x and every tape entry are never written. So
    an untaped walk keeps two per-row arrays alive per layer, its input
    and its output, with the bits of the out-of-place expressions.
    """
    if tape:
        raise ValueError("tape already holds a forward walk")
    x = np.asarray(x, dtype=net.theta.dtype)
    if x.ndim == 3 and tape is not None:
        raise ValueError("a stack of batches cannot be recorded on a tape")
    if x.ndim not in (2, 3) or x.shape[-1] != net.n_in:
        raise ShapeMismatch(f"expected an (n, {net.n_in}) batch or "
                            f"(m, n, {net.n_in}) stack, got shape {x.shape}")
    n = x.shape[-2]
    if net.cond_dim is None:
        if cond is not None or rows is not None:
            raise ShapeMismatch("network has no film blocks but cond or rows "
                                "was given")
    elif cond is None:
        raise ShapeMismatch("network has film blocks but no cond was given")
    elif rows is None:
        cond = np.asarray(cond, dtype=net.theta.dtype)
        if cond.shape != (n, net.cond_dim):
            raise ShapeMismatch(f"cond shape {cond.shape} does not match "
                                f"({n}, {net.cond_dim})")
    else:
        cond = np.asarray(cond, dtype=net.theta.dtype)
        rows = np.asarray(rows)
        if cond.ndim != 2 or cond.shape[1] != net.cond_dim:
            raise ShapeMismatch(f"cond table shape {cond.shape} is not "
                                f"(k, {net.cond_dim})")
        if rows.shape != (n,) or rows.dtype.kind not in "iu":
            raise ShapeMismatch(f"rows must be {n} integers, one per input "
                                f"row, got {rows.dtype} shape {rows.shape}")
        if n and (rows.min() < 0 or rows.max() >= len(cond)):
            raise ValueError(f"rows outside the cond table's [0, {len(cond)})")
    out = _run(net, x, cond, tape, rows)
    if not np.isfinite(out).all():
        raise Divergence("non-finite values in network output")
    return out


def backward(net: Network, out_grad, tape: list, bounds=None) -> Array:
    """Exact gradients of <out_grad, forward(x)> summed over row groups.

    `tape` is the list a forward call on the same network filled; the
    walk is not run again. cond is treated as data, not a parameter, but
    the film conditioning weights do receive gradients. bounds are G + 1
    rising row boundaries from 0 to the row count (None: one group). The
    sum over rows bounds[k]:bounds[k+1] is row k of the returned (G, P)
    array, new on each call, of theta's dtype in theta's layout. When
    every group holds one row, each block is written in one call as the
    rows' outer products: the bits of the one-term sums, except that a
    zero product may keep its sign where a sum gives +0.
    """
    if not tape:
        raise ValueError("backward needs the tape of a forward call")
    kind, _, cache = tape[0]
    rows = (cache[0] if kind == "film" else cache).shape[0]
    g = np.asarray(out_grad, dtype=net.theta.dtype)
    if g.shape != (rows, net.n_out):
        raise ShapeMismatch(f"out_grad shape {g.shape} != {(rows, net.n_out)}")
    bounds = [0, rows] if bounds is None else [int(b) for b in bounds]
    if bounds[0] != 0 or bounds[-1] != rows \
            or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"bounds must rise strictly from 0 to {rows}")
    segments = list(enumerate(zip(bounds[:-1], bounds[1:])))
    # the walk reaches every parameter once: every entry is written
    out = np.empty((len(segments), net.theta.size), net.theta.dtype)

    def write(name, x, dy):         # x None: a bias, summed over rows
        cols = net._cols[name]
        if len(segments) == rows:   # one row per group: products, no sums
            view = out[:, cols].reshape(rows, *net.params[name].shape)
            if x is None:
                np.copyto(view, dy)
            else:
                np.multiply(x[:, :, None], dy[:, None, :], out=view)
            return
        for k, (a, b) in segments:
            view = out[k, cols].reshape(net.params[name].shape)
            if x is None:
                np.sum(dy[a:b], axis=0, out=view)
            else:
                np.matmul(x[a:b].T, dy[a:b], out=view)

    for kind, i, cache in reversed(tape):
        if kind == "dense":
            write(f"{i}.w", cache, g)
            write(f"{i}.b", None, g)
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
            write(f"{i}.cw", cond, dg)
            write(f"{i}.cb", None, dg)
            g = g * scale
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


def embed_lookup(table: Array, t) -> Array:
    """Rows of table = sinusoidal_embed(np.arange(t_max + 1), dim, t_max)
    for timestep t (a scalar or an array); t must lie in [0, t_max]."""
    if isinstance(t, (int, np.integer)):    # the per-step call: no reductions
        if not 0 <= t < len(table):
            raise ValueError(f"timestep out of [0, {len(table) - 1}]")
        return table[t]
    ts = np.asarray(t)
    if np.any(ts < 0) or np.any(ts >= len(table)):
        raise ValueError(f"timestep out of [0, {len(table) - 1}]")
    return table[ts]


@dataclass
class AdamState:
    m: Array
    v: Array
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def adam_init(net: Network, lr: float = 3e-4) -> AdamState:
    return AdamState(np.zeros_like(net.theta), np.zeros_like(net.theta), lr)


def adam_step(state: AdamState, theta: Array, grad: Array) -> None:
    """One Adam update of theta, in place, from a gradient in its layout.

    m, v and theta are updated in place (a network's params are views of
    its theta) by the operations of m = b1 m + (1 - b1) g, v = b2 v +
    (1 - b2) g^2 and theta -= lr (m / c1) / (sqrt(v / c2) + eps), in that
    order; the temporaries are numpy's own."""
    if grad.shape != theta.shape:
        raise ShapeMismatch(f"grad shape {grad.shape} != theta shape {theta.shape}")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grad * grad)
    theta -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)
