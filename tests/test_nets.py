"""Layer math, backprop-vs-finite-difference, Adam, and checkpoints."""

import hashlib
import struct

import numpy as np
import pytest

from cgru import nets
from cgru import rng as rngmod
from cgru.checkpoint import (MAGIC, VERSION, load_network, load_tensors,
                             save_network, save_tensors)
from cgru.critic import CriticBuffer, build_critic, critic_train
from cgru.diffusion import (Rollouts, build_eps_net, ddpm_loss_and_grads,
                            make_schedule)
from cgru.errors import CheckpointError, ShapeMismatch
from cgru.nets import (Act, AdamState, Dense, Film, Network, adam_init,
                       adam_step, backward, embed_lookup, forward,
                       init_network, sinusoidal_embed)
from cgru.policy_grad import group_estimates

from conftest import float64_twin


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
    net.params["0.w"][...] = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    net.params["0.b"][...] = np.array([0.5, -0.5, 0.25])
    x = np.array([[1.0, -1.0], [2.0, 0.5]])
    expect = x @ net.params["0.w"] + net.params["0.b"]
    assert np.allclose(forward(net, x), expect, atol=0, rtol=0)


def test_activations_match_numpy():
    net = Network([Dense(2, 2), Act("tanh")])
    net.params["0.w"][...] = np.eye(2)
    net.params["0.b"][...] = np.zeros(2)
    x = np.array([[0.3, -1.7]])
    assert np.allclose(forward(net, x), np.tanh(x))

    smax = Network([Dense(2, 2), Act("softmax")])
    smax.params["0.w"][...] = np.eye(2)
    smax.params["0.b"][...] = np.zeros(2)
    out = forward(smax, np.array([[1.0, 3.0]]))
    z = np.exp([1.0, 3.0])
    assert np.allclose(out, z / z.sum())
    assert np.allclose(out.sum(axis=1), 1.0)

    with pytest.raises(ValueError, match="relu"):
        Act("relu")


def _reference_walk(net, x, cond):
    """An out-of-place forward walk: the output and the tape entries that
    forward must leave, built with no array written after it is made."""
    tape = []
    for i, layer in enumerate(net.arch):
        if isinstance(layer, Dense):
            tape.append(("dense", i, x))
            x = x @ net.params[f"{i}.w"] + net.params[f"{i}.b"]
        elif isinstance(layer, Film):
            g = cond @ net.params[f"{i}.cw"] + net.params[f"{i}.cb"]
            scale, shift = g[:, :layer.features], g[:, layer.features:]
            tape.append(("film", i, (x, scale, cond)))
            x = scale * x + shift
        elif layer.kind == "tanh":
            x = np.tanh(x)
            tape.append(("tanh", i, x))
        else:
            x = nets._softmax(x)
            tape.append(("softmax", i, x))
    return x, tape


def test_in_place_layers_leave_every_tape_entry_and_the_input_intact():
    # tanh first (on the caller's x), twice in a row, and after dense and
    # film outputs: each tape entry must still hold what an out-of-place
    # walk recorded once forward has returned
    arch = [Act("tanh"), Dense(3, 5), Act("tanh"), Act("tanh"), Dense(5, 5),
            Film(5, 4), Act("tanh"), Dense(5, 3), Act("softmax")]
    net = init_network(arch, rngmod.stream(7, rngmod.PHASE_INIT, 12))
    rng = rngmod.stream(7, rngmod.PHASE_DIAG, 12)
    x = rng.standard_normal((6, 3))
    cond = rng.standard_normal((6, 4))
    x_before = x.copy()
    want, want_tape = _reference_walk(net, x_before.copy(), cond)
    tape = []
    out = forward(net, x, cond, tape)
    assert np.array_equal(out, want)
    assert len(tape) == len(want_tape)
    for (kind, i, cache), (want_kind, want_i, want_cache) in zip(tape, want_tape):
        assert (kind, i) == (want_kind, want_i)
        pairs = zip(cache, want_cache) if kind == "film" else [(cache, want_cache)]
        for got, expect in pairs:
            assert np.array_equal(got, expect), (kind, i)
    assert np.array_equal(x, x_before)
    # untaped, the same bits, and the caller's x is still not written
    assert np.array_equal(forward(net, x, cond), want)
    assert np.array_equal(x, x_before)


def _fd_param_check(net, x, cond, rtol=1e-6):
    """Central finite differences over every parameter coordinate."""
    tape = []
    v = rngmod.stream(3, rngmod.PHASE_DIAG, 77).standard_normal(
        forward(net, x, cond, tape).shape)
    grads = backward(net, v, tape)
    assert grads.shape == (1, net.theta.size)
    h = 1e-6
    theta = net.theta
    for j, ana in enumerate(grads[0]):
        orig = theta[j]
        theta[j] = orig + h
        up = float((forward(net, x, cond) * v).sum())
        theta[j] = orig - h
        dn = float((forward(net, x, cond) * v).sum())
        theta[j] = orig
        num = (up - dn) / (2 * h)
        assert abs(num - ana) <= rtol * max(1.0, abs(num), abs(ana)), \
            f"theta[{j}]: analytic {ana} vs numeric {num}"


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


def test_backward_consumes_one_tape():
    net = small_net()
    x = rngmod.stream(3, rngmod.PHASE_DIAG, 3).standard_normal((2, 3))
    with pytest.raises(ValueError, match="tape"):
        backward(net, np.ones((2, 2)), [])
    tape = []
    forward(net, x, tape=tape)
    with pytest.raises(ValueError, match="tape"):
        forward(net, x, tape=tape)
    with pytest.raises(ShapeMismatch):
        backward(net, np.ones((3, 2)), tape)
    with pytest.raises(ShapeMismatch):
        backward(net, np.ones((2, 3)), tape)


def test_one_forward_walk_per_gradient_step(monkeypatch):
    walks = []
    run = nets._run

    def counting_run(net, *args, **kwargs):
        walks.append(net)
        return run(net, *args, **kwargs)

    def one_walk_of(net):
        ok = len(walks) == 1 and walks[0] is net
        walks.clear()
        return ok

    monkeypatch.setattr(nets, "_run", counting_run)
    K, T = 4, 6
    model = build_eps_net(2, K, hidden=8, t_embed_dim=4,
                          rng=rngmod.stream(1, rngmod.PHASE_INIT), T=T)
    sched = make_schedule(T, 1e-4, 0.02)
    rng = rngmod.stream(1, rngmod.PHASE_DIAG, 5)
    x = rng.standard_normal((5, 2))
    ids = np.arange(5) % K

    ddpm_loss_and_grads(model, x, ids, np.arange(1, 6), rng.standard_normal((5, 2)),
                        sched)
    assert one_walk_of(model.net)

    critic = build_critic(2, K, T, hidden=8, t_embed_dim=4,
                          rng=rngmod.stream(1, rngmod.PHASE_INIT, 1))
    buffer = CriticBuffer(x=x, class_ids=ids, ts=np.arange(1, 6), r=np.ones(5))
    critic_train(critic, buffer, epochs=1, batch_size=5, rng=rng)
    assert one_walk_of(critic.net)

    rollouts = Rollouts(ids, rng.standard_normal((5, T + 1, 2)),
                        rng.standard_normal((5, T)))
    grad, _ = group_estimates(rollouts, model, None, None, sched, ["score"],
                              steps=[3])
    assert one_walk_of(model.net)
    assert grad.shape == (1, 1, model.net.theta.size)


@pytest.mark.parametrize("bounds", [[0, 7], [0, 2, 4, 6], [0, 1, 5, 7]])
def test_grouped_backward_sums_each_row_group(bounds):
    net = small_net(film=True)
    rows = bounds[-1]
    rng = rngmod.stream(3, rngmod.PHASE_DIAG, 9)
    x = rng.standard_normal((rows, 3))
    cond = rng.standard_normal((rows, 4))
    out_grad = rng.standard_normal((rows, 2))
    tape = []
    forward(net, x, cond, tape)
    G = len(bounds) - 1
    out = backward(net, out_grad, tape, bounds)
    assert out.shape == (G, net.theta.size)
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        seg = []
        forward(net, x[a:b], cond[a:b], seg)
        want = backward(net, out_grad[a:b], seg)
        assert np.allclose(out[k], want[0], rtol=1e-12, atol=1e-14), k
    if G == 1:      # no bounds is the one-group call, bit for bit
        assert np.array_equal(backward(net, out_grad, tape), out)
    with pytest.raises(ValueError, match="bounds"):
        backward(net, out_grad, tape, [0, 3, 3, rows])


def test_an_inconsistent_architecture_is_refused_when_built():
    # no forward call could run any of these
    two_conds = [Dense(2, 4), Film(4, 3), Act("tanh"), Dense(4, 4), Film(4, 5)]
    for arch, match in (([Dense(2, 3), Dense(4, 1)], "layer 1: dense expects 4"),
                        ([Dense(2, 3), Film(4, 2)], "layer 1: film expects 4"),
                        ([Dense(2, 0)], "non-positive"),
                        ([Film(2, 0)], "non-positive"),
                        (two_conds, "layer 4: film cond width 5.* is 3")):
        with pytest.raises(ShapeMismatch, match=match):
            Network(arch)
    with pytest.raises(ShapeMismatch, match="cond width"):
        init_network(two_conds, rngmod.stream(7, rngmod.PHASE_INIT, 14))
    for arch in ([], [Act("tanh")]):
        with pytest.raises(ValueError):
            Network(arch)
    net = Network([Act("tanh"), Dense(3, 5), Film(5, 4), Act("tanh"),
                   Dense(5, 2), Film(2, 4)])
    assert (net.n_in, net.n_out, net.cond_dim) == (3, 2, 4)
    assert isinstance(net.arch, tuple)
    assert small_net().cond_dim is None
    # forward checks the caller's input against the built widths
    with pytest.raises(ShapeMismatch, match="got shape"):
        forward(net, np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ShapeMismatch, match="cond shape"):
        forward(net, np.zeros((2, 3)), np.zeros((2, 5)))


def test_film_block_oracle():
    # with cb = 0 and one-hot cond rows, row i of cw is (scale_i, shift_i)
    net = Network([Film(2, 2)])
    net.params["0.cw"][...] = np.array([[2.0, 0.5, 0.0, 1.0],
                                        [1.0, 1.0, -1.0, 0.0]])
    net.params["0.cb"][...] = np.zeros(4)
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


def test_stack_has_the_bits_of_per_slice_calls():
    # the critic's film+tanh net with its one-wide head, where a flat call
    # over all m * n rows can change last bits, and a softmax head
    r = rngmod.stream(7, rngmod.PHASE_DIAG, 12)
    critic = build_critic(2, 8, 50, rng=rngmod.stream(7, rngmod.PHASE_INIT, 12))
    smax = init_network([Dense(3, 16), Act("tanh"), Dense(16, 4),
                         Act("softmax")], rngmod.stream(7, rngmod.PHASE_INIT, 13))
    cond = r.standard_normal((50, 32))
    for net, d, c in ((critic.net, 10, cond), (smax, 3, None)):
        x = r.standard_normal((7, 50, d))
        out = forward(net, x, c)
        assert out.shape == (7, 50, net.n_out)
        for j in range(7):
            assert np.array_equal(out[j], forward(net, x[j], c)), j
    with pytest.raises(ValueError, match="tape"):
        forward(smax, x, tape=[])
    with pytest.raises(ShapeMismatch):      # one cond row per stacked row
        forward(critic.net, r.standard_normal((7, 50, 10)), cond[:49])
    with pytest.raises(ShapeMismatch):
        forward(smax, np.zeros((2, 2, 2, 3)))


def test_cond_rows_have_the_bits_of_the_gathered_cond():
    # each film block maps the table once and gathers: the float32 critic
    # and a float64 net, flat, stacked and taped, give the bits of a call
    # on cond[rows], and a taped backward the bits of its gradients
    r = rngmod.stream(7, rngmod.PHASE_DIAG, 14)
    critic = build_critic(2, 8, 50, rng=rngmod.stream(7, rngmod.PHASE_INIT, 14))
    filmy = init_network([Dense(3, 16), Film(16, 4), Act("tanh"),
                          Dense(16, 16), Film(16, 4), Act("tanh"),
                          Dense(16, 2)], rngmod.stream(7, rngmod.PHASE_INIT, 15))
    for net, d in ((critic.net, 10), (filmy, 3)):
        table = r.standard_normal((51, net.cond_dim)).astype(net.theta.dtype)
        rows = r.integers(0, 51, 256)
        x = r.standard_normal((256, d))
        assert np.array_equal(forward(net, x, table, rows=rows),
                              forward(net, x, table[rows]))
        stack = r.standard_normal((5, 50, d))
        steps = np.arange(50, 0, -1)
        assert np.array_equal(forward(net, stack, table, rows=steps),
                              forward(net, stack, table[steps]))
        w = r.standard_normal((256, net.n_out))
        grads = []
        for cond, kw in ((table, {"rows": rows}), (table[rows], {})):
            tape = []
            out = forward(net, x, cond, tape, **kw)
            grads.append((out, backward(net, w, tape),
                          backward(net, w, tape, bounds=range(257))))
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="rows outside"):
        forward(filmy, x[:2], table, rows=[0, 51])
    with pytest.raises(ValueError, match="rows outside"):
        forward(filmy, x[:2], table, rows=[-1, 0])
    with pytest.raises(ShapeMismatch, match="one per input row"):
        forward(filmy, x[:2], table, rows=[0, 1, 2])
    with pytest.raises(ShapeMismatch, match="one per input row"):
        forward(filmy, stack, table, rows=steps[:49])
    with pytest.raises(ShapeMismatch):
        forward(small_net(), x[:2, :3], table, rows=[0, 1])


def test_adam_first_step_closed_form():
    # After one step m-hat = g and v-hat = g^2, so the update is exactly
    # lr * g / (|g| + eps) regardless of beta settings.
    net = Network([Dense(1, 1)])
    net.params["0.w"][...] = np.array([[2.0]])
    net.params["0.b"][...] = np.array([1.0])
    opt = adam_init(net, lr=0.1)
    g = np.array([3.0, -0.5])       # theta's layout: 0.w, then 0.b
    adam_step(opt, net.theta, g)
    assert np.isclose(net.params["0.w"][0, 0], 2.0 - 0.1 * 3.0 / (3.0 + opt.eps))
    assert np.isclose(net.params["0.b"][0], 1.0 + 0.1 * 0.5 / (0.5 + opt.eps))
    assert opt.step == 1


def test_adam_rejects_shape_mismatch():
    net = Network([Dense(2, 2)])
    net.params["0.w"][...] = np.zeros((2, 2))
    net.params["0.b"][...] = np.zeros(2)
    opt = adam_init(net)
    with pytest.raises(ShapeMismatch):
        adam_step(opt, net.theta, np.zeros(7))


def _old_adam_step(state, theta, grad):
    """adam_step's out-of-place expressions: the reference for its bits."""
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    state.m = state.m * state.beta1 + (1.0 - state.beta1) * grad
    state.v = state.v * state.beta2 + (1.0 - state.beta2) * (grad * grad)
    theta -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)


def _reference_gradient(net, tape, out_grad):
    """backward's one-group row as out-of-place products over a tape of
    _reference_walk, joined in theta's order."""
    grads, g = {}, out_grad
    for kind, i, cache in reversed(tape):
        if kind == "dense":
            grads[f"{i}.w"], grads[f"{i}.b"] = cache.T @ g, g.sum(axis=0)
            g = g @ net.params[f"{i}.w"].T
        elif kind == "tanh":
            g = g * (1.0 - cache * cache)
        elif kind == "softmax":
            g = cache * (g - (g * cache).sum(axis=1, keepdims=True))
        else:
            feat, scale, cond = cache
            dg = np.concatenate([g * feat, g], axis=1)
            grads[f"{i}.cw"], grads[f"{i}.cb"] = cond.T @ dg, dg.sum(axis=0)
            g = g * scale
    return np.concatenate([grads[name].ravel() for name in net.params])


@pytest.mark.parametrize("film", [True, False])
def test_one_row_groups_have_the_bits_of_one_row_sums(film):
    # with every group one row, backward writes outer products in one call;
    # each row must have the bits of the per-group matmuls and sums that a
    # walk of the same tape with one two-row group still takes, up to the
    # sign of a zero product, which the matmul's sum makes +0; that sign
    # drops out where group_estimates adds the rows into zeroed totals
    net = small_net(film=True) if film else build_eps_net(
        2, 4, hidden=16, t_embed_dim=8, rng=rngmod.stream(4, rngmod.PHASE_INIT)).net
    rng = rngmod.stream(4, rngmod.PHASE_DIAG, 13)
    x = rng.standard_normal((9, net.n_in))
    x[2] = 0.0      # signed zeros in the products
    cond = rng.standard_normal((9, 4)) if film else None
    out_grad = rng.standard_normal((9, net.n_out))
    out_grad[3] = -0.0
    tape = []
    forward(net, x, cond, tape)
    rows = backward(net, out_grad, tape, range(10))
    summed = backward(net, out_grad, tape, [*range(8), 9])
    assert (rows[:7] + 0.0).tobytes() == summed[:7].tobytes()
    assert np.signbit(rows[2:4]).any()


@pytest.mark.parametrize("film", [True, False])
def test_one_group_gradient_and_adam_keep_the_old_bits(film):
    # backward's writes against out-of-place products over the reference
    # walk's tape, and in-place Adam against the old expressions, over 3 steps
    if film:
        net = small_net(film=True)
    else:
        net = build_eps_net(2, 4, hidden=16, t_embed_dim=8,
                            rng=rngmod.stream(4, rngmod.PHASE_INIT)).net
    ref = Network(net.arch, net.theta.dtype)
    ref.theta[...] = net.theta
    opt, ref_opt = adam_init(net, lr=1e-2), adam_init(ref, lr=1e-2)
    rng = rngmod.stream(4, rngmod.PHASE_DIAG, 12)
    dtype = net.theta.dtype     # the float32 denoiser's reference is float32
    for _ in range(3):
        x = rng.standard_normal((33, net.n_in)).astype(dtype)
        cond = rng.standard_normal((33, 4)).astype(dtype) if film else None
        out_grad = rng.standard_normal((33, net.n_out)).astype(dtype)
        tape = []
        forward(net, x, cond, tape)
        grad = backward(net, out_grad, tape)
        want = _reference_gradient(ref, _reference_walk(ref, x, cond)[1],
                                   out_grad)
        assert grad.shape == (1, net.theta.size)
        assert grad[0].tobytes() == want.tobytes()
        adam_step(opt, net.theta, grad[0])
        _old_adam_step(ref_opt, ref.theta, want)
        for a, b in ((net.theta, ref.theta), (opt.m, ref_opt.m),
                     (opt.v, ref_opt.v)):
            assert a.tobytes() == b.tobytes()


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


def test_embedding_table_rows_match_sinusoidal_embed():
    for dim, T in ((8, 1), (16, 12), (32, 50)):
        table = sinusoidal_embed(np.arange(T + 1), dim, T)
        for t in range(T + 1):
            assert np.array_equal(embed_lookup(table, t), sinusoidal_embed(t, dim, T))
        ts = np.array([T, 0, T // 2, T])
        assert np.array_equal(embed_lookup(table, ts), sinusoidal_embed(ts, dim, T))
        # out of range raises, rather than wrapping a negative t
        for bad in (-1, T + 1, [0, -1]):
            with pytest.raises(ValueError, match="timestep"):
                embed_lookup(table, bad)
    model = build_eps_net(2, 3, hidden=8, t_embed_dim=8, T=6)
    with pytest.raises(ValueError, match="timestep"):
        model.inputs(np.zeros((1, 2)), -1, np.eye(3)[:1])


def test_init_network_is_stream_deterministic():
    a = small_net(rngmod.stream(5, rngmod.PHASE_INIT, 1))
    b = small_net(rngmod.stream(5, rngmod.PHASE_INIT, 1))
    c = small_net(rngmod.stream(5, rngmod.PHASE_INIT, 2))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_theta_orders_canonically():
    net = small_net(film=True)
    assert list(net.params) == ["0.w", "0.b", "1.cw", "1.cb", "3.w", "3.b"]
    sizes = sum(p.size for p in net.params.values())
    assert net.theta.shape == (sizes,) and net.theta.flags.c_contiguous
    # each name is a row-major view of the next block of theta
    off = 0
    for p in net.params.values():
        assert np.shares_memory(p, net.theta)
        assert np.array_equal(net.theta[off:off + p.size], p.ravel())
        off += p.size


def test_params_cannot_be_rebound():
    net = small_net()
    with pytest.raises(TypeError):
        net.params["0.w"] = np.zeros((3, 5))
    net.params["0.w"][0, 0] = 7.0       # in-place writes reach theta
    assert net.theta[0] == 7.0


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
        assert np.shares_memory(other.params[name], other.theta)

    # the loaded views still alias theta: a step on theta moves forward
    rng = rngmod.stream(3, rngmod.PHASE_DIAG, 12)
    x, cond = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
    before = forward(other, x, cond)
    adam_step(adam_init(other, lr=0.1), other.theta, np.ones(other.theta.size))
    assert not np.array_equal(forward(other, x, cond), before)


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

    # the first tensor name starts after magic, version, the (empty)
    # provenance's length, count and its own length; the digest is
    # recomputed, so the name is what the reader refuses
    bad_name = tmp_path / "name.ckpt"
    body = blob[:20] + b"\xff" + blob[21:-32]
    bad_name.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError, match=f"{bad_name}.*utf-8"):
        load_tensors(bad_name)


def _raw_checkpoint(path, tensors):
    """A file with no provenance holding the (name, dims, payload) entries
    as given, however its header reads, and their true digest."""
    blob = MAGIC + struct.pack("<III", VERSION, 0, len(tensors))
    for name, dims, payload in tensors:
        blob += struct.pack("<I", len(name)) + name.encode()
        blob += struct.pack(f"<Q{len(dims)}Q", len(dims), *dims)
        blob += np.asarray(payload, "<f8").tobytes()
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    return path


def test_checkpoint_refuses_a_header_it_cannot_hold(tmp_path):
    ok = _raw_checkpoint(tmp_path / "ok.ckpt", [("0.w", (1, 2), [1.0, 2.0])])
    assert np.array_equal(load_tensors(ok)[1]["0.w"], [[1.0, 2.0]])
    # dims whose product wraps to 0 in int64
    huge = _raw_checkpoint(tmp_path / "huge.ckpt", [("0.w", (2**32, 2**32), [])])
    with pytest.raises(CheckpointError, match=f"{huge}: truncated"):
        load_tensors(huge)
    twice = _raw_checkpoint(tmp_path / "twice.ckpt", [
        ("0.w", (1, 2), [1.0, 2.0]), ("0.w", (1, 2), [9.0, 2.0])])
    with pytest.raises(CheckpointError, match=f"{twice}: tensor 0.w is listed twice"):
        load_tensors(twice)


def test_checkpoint_refuses_other_provenance(tmp_path):
    path = tmp_path / "net.ckpt"
    save_network(path, small_net(), ["a.x = 1", "a.y = 2", "seed = 0"])
    net = small_net(rngmod.stream(99, rngmod.PHASE_INIT, 5))
    before = net.theta.copy()
    with pytest.raises(CheckpointError) as exc:
        load_network(path, net, ["a.x = 1", "b.z = 3", "seed = 7"])
    assert str(exc.value) == (f"{path} was written under another config: "
                              "a.y (2 -> -), b.z (- -> 3), seed (0 -> 7)")
    assert np.array_equal(net.theta, before)
    with pytest.raises(CheckpointError, match="seed"):
        load_network(path, net)
    load_network(path, net, ["a.x = 1", "a.y = 2", "seed = 0"])
    assert np.array_equal(net.theta, small_net().theta)


def test_checkpoint_rejects_wrong_architecture(tmp_path):
    path = tmp_path / "net.ckpt"
    save_network(path, small_net())
    with pytest.raises(CheckpointError, match="shape"):
        wrong = init_network([Dense(4, 5), Act("tanh"), Dense(5, 2)],
                             rngmod.stream(1, rngmod.PHASE_INIT, 3))
        load_network(path, wrong)
    with pytest.raises(CheckpointError, match="param names"):
        load_network(path, small_net(film=True))


def test_float32_checkpoint_is_exact_and_float64_weights_are_refused(tmp_path):
    critic = build_critic(2, 4, 10, hidden=16, t_embed_dim=8,
                          rng=rngmod.stream(0, rngmod.PHASE_INIT, 1))
    net = critic.net
    assert net.theta.dtype == np.float32
    twin = float64_twin(net)
    path, wide = tmp_path / "critic.ckpt", tmp_path / "twin.ckpt"
    save_network(path, net)
    save_network(wide, twin)
    # the payload is <f8 and float32 widens into it exactly
    assert path.read_bytes() == wide.read_bytes()
    other = build_critic(2, 4, 10, hidden=16, t_embed_dim=8,
                         rng=rngmod.stream(9, rngmod.PHASE_INIT, 1)).net
    load_network(path, other)
    assert other.theta.dtype == np.float32
    assert other.theta.tobytes() == net.theta.tobytes()

    # a float64 file, such as a critic written before the critic was
    # float32, would be rounded by the narrowing: it is refused instead
    twin.params["3.w"][0, 0] += 1e-12
    save_network(wide, twin)
    before = other.theta.copy()
    with pytest.raises(CheckpointError, match=f"{wide}: tensor 3.w .*float32"):
        load_network(wide, other)
    assert np.array_equal(other.theta, before)
    twin.params["3.w"][0, 0] = 1e300    # overflows float32
    save_network(wide, twin)
    with pytest.raises(CheckpointError, match="tensor 3.w"):
        load_network(wide, other)


def test_save_tensors_roundtrip_values(tmp_path):
    tensors = {
        "vec": np.array([3.5, -1.25]),
        "mat": np.arange(6, dtype=np.float64).reshape(2, 3),
    }
    path = tmp_path / "t.ckpt"
    save_tensors(path, tensors, ["a.x = 1", "seed = 0"])
    lines, out = load_tensors(path)
    assert lines == ["a.x = 1", "seed = 0"]
    assert set(out) == set(tensors)
    for k in tensors:
        assert np.array_equal(out[k], tensors[k])
