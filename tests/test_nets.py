"""Layer math, backprop-vs-finite-difference, Adam, and checkpoints."""

import numpy as np
import pytest

from cgru import rng as rngmod
from cgru.checkpoint import load_network, load_tensors, save_network, save_tensors
from cgru.errors import CheckpointError, ShapeMismatch
from cgru.nets import (Act, AdamState, Dense, Film, Network, adam_init,
                       adam_step, backward, flatten, forward, forward_upto,
                       init_network, sinusoidal_embed)


def small_net(rng=None, film=False):
    if rng is None:
        rng = rngmod.stream(7, rngmod.PHASE_INIT, 11)
    if film:
        arch = [Dense(3, 5), Film(5, 4), Act("tanh"), Dense(5, 2)]
    else:
        arch = [Dense(3, 5), Act("tanh"), Dense(5, 2)]
    return init_network(arch, rng)


def test_dense_forward_is_affine_map():
    net = Network([Dense(2, 3)])
    net.params["0.w"] = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    net.params["0.b"] = np.array([0.5, -0.5, 0.25])
    x = np.array([[1.0, -1.0], [2.0, 0.5]])
    expect = x @ net.params["0.w"] + net.params["0.b"]
    assert np.allclose(forward(net, x), expect, atol=0, rtol=0)


def test_activations_match_numpy():
    net = Network([Dense(2, 2), Act("tanh")])
    net.params["0.w"] = np.eye(2)
    net.params["0.b"] = np.zeros(2)
    x = np.array([[0.3, -1.7]])
    assert np.allclose(forward(net, x), np.tanh(x))

    smax = Network([Dense(2, 2), Act("softmax")])
    smax.params["0.w"] = np.eye(2)
    smax.params["0.b"] = np.zeros(2)
    out = forward(smax, np.array([[1.0, 3.0]]))
    z = np.exp([1.0, 3.0])
    assert np.allclose(out, z / z.sum())
    assert np.allclose(out.sum(axis=1), 1.0)


def _fd_param_check(net, x, cond, rtol=1e-6):
    """Central finite differences over every parameter coordinate."""
    v = rngmod.stream(3, rngmod.PHASE_DIAG, 77).standard_normal(
        forward(net, x, cond).shape)
    grads, _ = backward(net, x, cond, v)
    h = 1e-6
    for name, g in grads.items():
        p = net.params[name]
        for idx in np.ndindex(*p.shape):
            orig = p[idx]
            p[idx] = orig + h
            up = float((forward(net, x, cond) * v).sum())
            p[idx] = orig - h
            dn = float((forward(net, x, cond) * v).sum())
            p[idx] = orig
            num = (up - dn) / (2 * h)
            ana = g[idx]
            assert abs(num - ana) <= rtol * max(1.0, abs(num), abs(ana)), \
                f"{name}{idx}: analytic {ana} vs numeric {num}"


def test_backward_matches_finite_difference_plain():
    net = small_net()
    x = rngmod.stream(3, rngmod.PHASE_DIAG, 1).standard_normal((4, 3))
    _fd_param_check(net, x, None)


def test_backward_matches_finite_difference_film():
    net = small_net(film=True)
    rng = rngmod.stream(3, rngmod.PHASE_DIAG, 2)
    x = rng.standard_normal((4, 3))
    cond = rng.standard_normal((4, 4))
    _fd_param_check(net, x, cond)


def test_backward_input_gradient():
    net = small_net()
    rng = rngmod.stream(3, rngmod.PHASE_DIAG, 3)
    x = rng.standard_normal((2, 3))
    v = rng.standard_normal((2, 2))
    _, gx = backward(net, x, None, v)
    h = 1e-6
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = float((forward(net, x) * v).sum())
        x[idx] = orig - h
        dn = float((forward(net, x) * v).sum())
        x[idx] = orig
        num = (up - dn) / (2 * h)
        assert abs(num - gx[idx]) <= 1e-6 * max(1.0, abs(num))


def test_film_block_oracle():
    # with cb = 0 and one-hot cond rows, row i of cw is (scale_i, shift_i)
    net = Network([Film(2, 2)])
    net.params["0.cw"] = np.array([[2.0, 0.5, 0.0, 1.0],
                                   [1.0, 1.0, -1.0, 0.0]])
    net.params["0.cb"] = np.zeros(4)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(forward(net, x, np.eye(2)),
                          [[2.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ShapeMismatch):
        forward(net, x, np.eye(2)[:1])


def test_film_requires_cond_and_rejects_spurious_cond():
    plain = small_net()
    filmy = small_net(film=True)
    x = np.zeros((1, 3))
    with pytest.raises(ShapeMismatch):
        forward(filmy, x)
    with pytest.raises(ShapeMismatch):
        forward(plain, x, np.zeros((1, 4)))


def test_forward_upto_extracts_prefix():
    net = small_net()
    x = rngmod.stream(3, rngmod.PHASE_DIAG, 4).standard_normal((3, 3))
    hidden = forward_upto(net, x, 2)
    # first two layers by hand: tanh(x W + b)
    manual = np.tanh(x @ net.params["0.w"] + net.params["0.b"])
    assert np.allclose(hidden, manual)


def test_adam_first_step_closed_form():
    # After one step m-hat = g and v-hat = g^2, so the update is exactly
    # lr * g / (|g| + eps) regardless of beta settings.
    net = Network([Dense(1, 1)])
    net.params["0.w"] = np.array([[2.0]])
    net.params["0.b"] = np.array([1.0])
    opt = adam_init(net, lr=0.1)
    g = {"0.w": np.array([[3.0]]), "0.b": np.array([-0.5])}
    adam_step(opt, net.params, g)
    assert np.isclose(net.params["0.w"][0, 0], 2.0 - 0.1 * 3.0 / (3.0 + opt.eps))
    assert np.isclose(net.params["0.b"][0], 1.0 + 0.1 * 0.5 / (0.5 + opt.eps))
    assert opt.step == 1


def test_adam_rejects_shape_mismatch():
    net = Network([Dense(2, 2)])
    net.params["0.w"] = np.zeros((2, 2))
    net.params["0.b"] = np.zeros(2)
    opt = adam_init(net)
    with pytest.raises(ShapeMismatch):
        adam_step(opt, net.params, {"0.w": np.zeros((3, 2))})


def test_sinusoidal_embed_properties():
    emb = sinusoidal_embed(np.arange(50), 16, 50)
    assert emb.shape == (50, 16)
    assert np.abs(emb).max() <= 1.0 + 1e-12
    # distinct timesteps embed distinctly
    dists = np.linalg.norm(emb[:, None] - emb[None, :], axis=-1)
    np.fill_diagonal(dists, 1.0)
    assert dists.min() > 1e-6
    with pytest.raises(ValueError):
        sinusoidal_embed(0, 15, 50)     # odd dim


def test_init_network_is_stream_deterministic():
    a = small_net(rngmod.stream(5, rngmod.PHASE_INIT, 1))
    b = small_net(rngmod.stream(5, rngmod.PHASE_INIT, 1))
    c = small_net(rngmod.stream(5, rngmod.PHASE_INIT, 2))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_flatten_orders_canonically():
    net = small_net()
    flat = flatten(net, net.params)
    sizes = sum(p.size for p in net.params.values())
    assert flat.shape == (sizes,)
    # leading block is 0.w in row-major order
    assert np.array_equal(flat[: net.params["0.w"].size],
                          net.params["0.w"].ravel())


def test_checkpoint_roundtrip_bytes(tmp_path):
    net = small_net(film=True)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_network(p1, net)
    save_network(p2, net)
    assert p1.read_bytes() == p2.read_bytes()

    other = small_net(rngmod.stream(99, rngmod.PHASE_INIT, 5), film=True)
    load_network(p1, other)
    for name in net.params:
        assert np.array_equal(net.params[name], other.params[name])


def test_checkpoint_rejects_corruption(tmp_path):
    net = small_net()
    path = tmp_path / "net.ckpt"
    save_network(path, net)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match=str(path)):
        load_network(path, small_net())

    bad_magic = tmp_path / "junk.ckpt"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_tensors(bad_magic)


def test_checkpoint_rejects_wrong_architecture(tmp_path):
    path = tmp_path / "net.ckpt"
    save_network(path, small_net())
    with pytest.raises(CheckpointError, match="shape"):
        wrong = init_network([Dense(4, 5), Act("tanh"), Dense(5, 2)],
                             rngmod.stream(1, rngmod.PHASE_INIT, 3))
        load_network(path, wrong)
    with pytest.raises(CheckpointError, match="param names"):
        load_network(path, small_net(film=True))


def test_save_tensors_roundtrip_values(tmp_path):
    tensors = {
        "vec": np.array([3.5, -1.25]),
        "mat": np.arange(6, dtype=np.float64).reshape(2, 3),
    }
    path = tmp_path / "t.ckpt"
    save_tensors(path, tensors)
    out = load_tensors(path)
    assert set(out) == set(tensors)
    for k in tensors:
        assert np.array_equal(out[k], tensors[k])
