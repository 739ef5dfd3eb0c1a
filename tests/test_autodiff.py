"""Tape operations against central differences and closed forms."""
import math

import numpy as np
import pytest

from uip.autodiff import Tape
from uip.errors import ContractViolationError
from uip.rng import derive_rng


def grad_check(f, x0, eps: float = 1e-5) -> float:
    """Compare the analytic gradient of f at x0 against central differences.

    f maps a parameter vector to (value, gradient). The gradient is only
    consulted at x0 itself, so f may return None for it at other points.
    Returns max_i |g_i - fd_i| / max(1, |fd_i|); non-finite values anywhere
    count as failure (inf).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"grad_check eps {eps} outside [1e-7, 1e-3]")
    x0 = np.asarray(x0, dtype=float).copy()
    value, grad = f(x0)
    grad = np.asarray(grad, dtype=float)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        return math.inf
    worst = 0.0
    for i in range(x0.size):
        xp = x0.copy()
        xp.flat[i] += eps
        xm = x0.copy()
        xm.flat[i] -= eps
        vp, _ = f(xp)
        vm, _ = f(xm)
        if not (np.isfinite(vp) and np.isfinite(vm)):
            return math.inf
        fd = (vp - vm) / (2.0 * eps)
        worst = max(worst, abs(grad.flat[i] - fd) / max(1.0, abs(fd)))
    return worst


def test_leaf_values_roundtrip():
    t = Tape()
    x = t.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert x.shape == (2, 2)
    assert np.array_equal(x.value, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert len(t) == 4


def test_elementwise_values():
    t = Tape()
    a = t.leaf(np.array([1.0, -2.0, 0.5]))
    b = t.leaf(np.array([3.0, 4.0, -1.0]))
    assert np.array_equal(t.add(a, b).value, np.array([4.0, 2.0, -0.5]))
    assert np.array_equal(t.sub(a, b).value, np.array([-2.0, -6.0, 1.5]))
    assert np.array_equal(t.mul(a, b).value, np.array([3.0, -8.0, -0.5]))
    assert np.array_equal(t.neg(a).value, np.array([-1.0, 2.0, -0.5]))
    assert np.array_equal(t.square(b).value, np.array([9.0, 16.0, 1.0]))
    assert np.array_equal(t.abs(a).value, np.array([1.0, 2.0, 0.5]))


def test_scalar_reductions():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0, 3.0]))
    b = t.leaf(np.array([4.0, 5.0, 6.0]))
    assert float(t.sum(a).value) == 6.0
    assert float(t.group_dot(a, b).value) == 32.0


def test_group_reductions():
    t = Tape()
    a = t.leaf(np.arange(6.0).reshape(2, 3))
    b = t.leaf(np.ones((2, 3)))
    assert np.array_equal(t.group_sum(a).value, np.array([3.0, 12.0]))
    assert np.array_equal(t.group_dot(a, b).value, np.array([3.0, 12.0]))


def test_blend_is_bitwise_exact_at_endpoints():
    t = Tape()
    a = t.leaf(np.array([0.1, 0.2, 0.3]))
    b = t.leaf(np.array([7.0, 8.0, 9.0]))
    w0 = t.blend(a, b, np.ones(3), np.zeros(3)).value
    w1 = t.blend(a, b, np.zeros(3), np.ones(3)).value
    assert np.array_equal(w0, a.value)
    assert np.array_equal(w1, b.value)


def _run_check(build, n, seed=0, tol=2e-7, x0=None):
    """grad_check helper: build(tape, leaf) -> 0-d node."""
    if x0 is None:
        x0 = derive_rng(seed, "autodiff").normal(0.5, 1.0, n)

    def f(x):
        t = Tape()
        leaf = t.leaf(x)
        root = build(t, leaf)
        (g,) = t.gradient(root, [leaf])
        return float(root.value), g

    assert grad_check(f, x0) < tol


def test_grad_add_mul_chain():
    _run_check(lambda t, x: t.sum(t.mul(t.add(x, x), x)), 5)


def test_grad_sub_neg():
    _run_check(lambda t, x: t.sum(t.sub(t.neg(x), t.mul(x, x))), 5)


def test_grad_sigmoid():
    _run_check(lambda t, x: t.sum(t.sigmoid(x)), 6)


def test_grad_tanh():
    _run_check(lambda t, x: t.sum(t.tanh(x)), 6)


def test_grad_softplus():
    _run_check(lambda t, x: t.sum(t.softplus(x)), 6)


def test_grad_sqrt_recip():
    x0 = derive_rng(1, "autodiff", "pos").uniform(0.5, 2.0, 6)
    _run_check(lambda t, x: t.sum(t.add(t.sqrt(x), t.recip(x))), 6, x0=x0)


def test_grad_abs_square_scale():
    _run_check(lambda t, x: t.sum(t.scale(t.add_const(t.square(t.abs(x)), 1.5), -0.3)), 5)


def test_grad_blend_with_array_weights():
    wa = np.array([0.2, 0.9, 0.5])
    wb = 1.0 - wa
    _run_check(lambda t, x: t.sum(t.blend(x[:3], x[3:], wa, wb)), 6)


def test_grad_dot_and_group_dot():
    def build(t, x):
        a = x[:6].reshape(2, 3)
        b = x[6:].reshape(2, 3)
        return t.sum(t.mul(t.group_dot(a, b), t.group_sum(a)))

    _run_check(build, 12)


def test_grad_broadcast_add_mul():
    # A bias row and a per-column scale broadcast over the rows of a
    # matrix; their gradients sum over the broadcast axis.
    def build(t, x):
        m = x[:6].reshape(3, 2)
        bias = x[6:8]
        col = x[8:11].reshape(3, 1)
        return t.sum(t.square(t.mul(t.add(m, bias), col)))

    _run_check(build, 11)


def test_grad_matmul():
    def build(t, x):
        a = x[:6].reshape(2, 3)
        b = x[6:12].reshape(3, 2)
        return t.sum(t.square(t.matmul(a, b)))

    _run_check(build, 12)


def test_grad_stacked_matmul():
    def build(t, x):
        a = x[:12].reshape(2, 2, 3)
        b = x[12:24].reshape(2, 3, 2)
        return t.sum(t.square(t.matmul(a, b)))

    _run_check(build, 24)


def test_matmul_matches_numpy():
    rng = derive_rng(2, "autodiff", "matmul")
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 6))
    t = Tape()
    assert np.allclose(t.matmul(t.leaf(a), t.leaf(b)).value, a @ b, atol=1e-12)
    sa = rng.normal(size=(5, 4, 3))
    sb = rng.normal(size=(5, 3, 2))
    stacked = t.matmul(t.leaf(sa), t.leaf(sb)).value
    for f in range(5):
        assert np.allclose(stacked[f], sa[f] @ sb[f], atol=1e-12)
    with pytest.raises(ContractViolationError):
        t.matmul(t.leaf(a), t.leaf(a))
    with pytest.raises(ContractViolationError):
        t.matmul(t.leaf(sa), t.leaf(b))


def test_grad_gather():
    # A slice, a boolean mask and an integer index that names rows twice:
    # the backward scatter must add the repeated rows, not overwrite them.
    rows = np.array([0, 2, 2, 1, 0])
    keep = np.array([[True, False], [False, True], [True, True]])

    def build(t, x):
        m = x.reshape(3, 2)
        picked = t.sum(t.square(m[rows]))
        masked = t.sum(t.sigmoid(m[keep]))
        sliced = t.sum(t.tanh(m[1:, :1]))
        return t.add(t.add(picked, masked), sliced)

    _run_check(build, 6)
    t = Tape()
    x = t.leaf(np.arange(6.0).reshape(3, 2))
    (g,) = t.gradient(t.sum(x[rows]), [x])
    assert np.array_equal(g, np.array([[2.0, 2.0], [1.0, 1.0], [2.0, 2.0]]))


def test_grad_concat_and_stack():
    def build(t, x):
        a = x[:4].reshape(2, 2)
        b = x[4:10].reshape(2, 3)
        cat = t.concat([a, b], axis=1)  # (2, 5)
        st = t.stack([t.sigmoid(x[:3]), t.square(x[3:6])])  # (2, 3)
        return t.add(t.sum(t.square(cat)), t.group_dot(t.group_sum(st), x[6:8]))

    _run_check(build, 10)


def test_grad_reshape_transpose():
    w = derive_rng(3, "autodiff", "weights").normal(size=(3, 4, 2))

    def build(t, x):
        y = x.reshape(2, 3, 4).transpose(1, 2, 0)  # (3, 4, 2), not its own inverse
        return t.sum(t.mul(t.tanh(y), t.const(w)))

    _run_check(build, 24)
    t = Tape()
    x = t.leaf(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(x.T.value, np.arange(6.0).reshape(2, 3).T)


def test_masked_select_zeros_and_blocks_gradients():
    mask = np.array([True, False, True, False])
    _run_check(lambda t, x: t.sum(t.square(t.select(mask, x))), 4)
    t = Tape()
    x = t.leaf(np.array([1.0, np.inf, -2.0, np.nan]))
    y = t.select(mask, x)
    assert np.array_equal(y.value, np.array([1.0, 0.0, -2.0, 0.0]))
    (g,) = t.gradient(t.sum(y), [x])
    assert np.array_equal(g, np.array([1.0, 0.0, 1.0, 0.0]))


def test_gradient_of_unused_leaf_is_zero():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0]))
    b = t.leaf(np.array([3.0, 4.0]))
    root = t.sum(t.square(a))
    ga, gb = t.gradient(root, [a, b])
    assert np.array_equal(gb, np.zeros(2))
    assert np.array_equal(ga, np.array([2.0, 4.0]))


def test_gradient_accumulates_over_reuse():
    # d/dx (x * x + x) = 2x + 1; the same leaf feeds two ops.
    t = Tape()
    x = t.leaf(np.array([3.0]))
    root = t.sum(t.add(t.mul(x, x), x))
    (g,) = t.gradient(root, [x])
    assert g[0] == 7.0


def test_constants_take_no_gradient():
    t = Tape()
    c = t.const(np.array([2.0, 5.0]))
    x = t.leaf(np.array([1.0, 3.0]))
    gc, gx = t.gradient(t.sum(t.mul(c, x)), [c, x])
    assert np.array_equal(gc, np.zeros(2))
    assert np.array_equal(gx, np.array([2.0, 5.0]))


def test_values_only_tape_matches_and_records_nothing():
    rng = derive_rng(4, "autodiff", "values")
    w = rng.normal(size=(3, 4))
    v = rng.normal(size=(5, 3))

    def run(t):
        wl, vl = t.leaf(w), t.leaf(v)
        return t, wl, t.sum(t.tanh(t.matmul(vl, wl)))

    rec, w_rec, out_rec = run(Tape())
    val, w_val, out_val = run(Tape(grads=False))
    assert np.array_equal(out_rec.value, out_val.value)
    assert not out_val.tracked
    (g,) = val.gradient(out_val, [w_val])
    assert np.array_equal(g, np.zeros((3, 4)))
    (g,) = rec.gradient(out_rec, [w_rec])
    assert np.any(g != 0.0)


def test_softplus_is_stable_at_extremes():
    t = Tape()
    x = t.leaf(np.array([-800.0, 800.0]))
    v = t.softplus(x).value
    assert v[0] == 0.0
    assert math.isclose(v[1], 800.0, rel_tol=1e-12)
    s = t.sigmoid(x).value
    assert 0.0 <= s[0] < 1e-300
    assert s[1] == 1.0


def test_grad_check_rejects_silly_eps():
    with pytest.raises(ValueError):
        grad_check(lambda x: (0.0, np.zeros_like(x)), np.ones(2), eps=0.5)


def reference_lstm_layer(t, steps, wx, wh, b):
    """One LSTM layer as a per-step graph of tape primitives.

    steps: T nodes of (W, in); wx, wh, b as `Tape.lstm_layer` takes them.
    Returns the T hidden-state nodes (W, h).
    """
    h_size = wh.shape[1]
    wx_t, wh_t = wx.T, wh.T
    h = c = t.const(np.zeros((steps[0].shape[0], h_size)))
    outs = []
    for inp in steps:
        z = t.add(t.add(t.matmul(inp, wx_t), t.matmul(h, wh_t)), b)
        gi = t.sigmoid(z[:, :h_size])
        gf = t.sigmoid(z[:, h_size : 2 * h_size])
        gg = t.tanh(z[:, 2 * h_size : 3 * h_size])
        go = t.sigmoid(z[:, 3 * h_size :])
        c = t.add(t.mul(gf, c), t.mul(gi, gg))
        h = t.mul(go, t.tanh(c))
        outs.append(h)
    return outs


def _lstm_stack(t, x, layers, fused: bool):
    """Hidden states (T, W, h) of stacked layers, fused or per step."""
    if fused:
        for wx, wh, b in layers:
            x = t.lstm_layer(x, wx, wh, b)
        return x
    steps = [x[k] for k in range(x.shape[0])]
    for wx, wh, b in layers:
        steps = reference_lstm_layer(t, steps, wx, wh, b)
    return t.stack(steps)


def test_lstm_layer_matches_the_per_step_graph():
    # Two layers, 3 windows of 7 steps: forward bitwise on both tapes,
    # every gradient (x, and wx, wh, b of each layer) within 1e-12.
    rng = derive_rng(5, "autodiff", "lstm")
    h = 4
    x0 = rng.normal(0.0, 1.0, (7, 3, 5))
    layers0 = [
        (rng.normal(0.0, 0.5, (4 * h, n_in)), rng.normal(0.0, 0.5, (4 * h, h)), rng.normal(0.0, 0.5, 4 * h))
        for n_in in (5, h)
    ]
    out_w = rng.normal(size=(7, 3, h))
    values, grads = {}, {}
    for fused in (True, False):
        for recording in (True, False):
            t = Tape(grads=recording)
            x = t.leaf(x0)
            layers = [tuple(t.leaf(a) for a in layer) for layer in layers0]
            hs = _lstm_stack(t, x, layers, fused)
            values[fused, recording] = hs.value
            if fused:
                assert len(t._ops) == (2 if recording else 0)  # one record per layer
            if recording:
                root = t.sum(t.mul(hs, t.const(out_w)))
                grads[fused] = t.gradient(root, [x] + [n for layer in layers for n in layer])
    for value in values.values():
        assert np.array_equal(value, values[False, True])
    for got, want in zip(grads[True], grads[False]):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_grad_lstm_layer_stack():
    # Finite differences through two layers reach layer 2's input gradient
    # (dX), the path from layer 2 back into layer 1.
    t_count, w_count, n_in, h = 4, 2, 3, 2
    shapes = [(t_count, w_count, n_in)]
    for layer_in in (n_in, h):
        shapes += [(4 * h, layer_in), (4 * h, h), (4 * h,)]
    sizes = [math.prod(s) for s in shapes]
    cuts = np.cumsum([0] + sizes)
    out_w = derive_rng(6, "autodiff", "lstm", "out").normal(size=(t_count, w_count, h))

    def build(t, v):
        x, *flat = (v[a:b].reshape(*s) for a, b, s in zip(cuts[:-1], cuts[1:], shapes))
        hs = _lstm_stack(t, x, [flat[0:3], flat[3:6]], fused=True)
        return t.sum(t.mul(t.tanh(hs), t.const(out_w)))

    _run_check(build, sum(sizes))


def test_lstm_layer_rejects_mismatched_shapes():
    t = Tape()
    x, wx, wh, b = t.leaf(np.zeros((5, 2, 3))), t.leaf(np.zeros((8, 3))), t.leaf(np.zeros((8, 2))), t.leaf(np.zeros(8))
    assert t.lstm_layer(x, wx, wh, b).shape == (5, 2, 2)
    bad = [
        (t.leaf(np.zeros((5, 3))), wx, wh, b),  # x not (T, W, in)
        (x, t.leaf(np.zeros((8, 4))), wh, b),  # wx width is not in
        (x, t.leaf(np.zeros((12, 3))), wh, b),  # wx rows are not 4h
        (x, wx, t.leaf(np.zeros((8, 3))), b),  # wh not (4h, h)
        (x, wx, t.leaf(np.zeros(8)), b),  # wh not a matrix
        (x, wx, wh, t.leaf(np.zeros(6))),  # b not 4h
    ]
    for args in bad:
        with pytest.raises(ContractViolationError):
            t.lstm_layer(*args)
