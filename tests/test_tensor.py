"""Per-op finite-difference checks and tape semantics for the autodiff core."""

import threading
import weakref

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.tensor import Tensor


def fd_check(fn, *arrays, step=1e-6, tol=1e-6, seed_grad=None):
    """Compare analytic grads of scalar fn(*tensors) against central differences."""
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    loss = tt.tsum(out) if out.data.ndim else out
    loss.backward(seed_grad)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn(*tensors).data.sum()
            flat[i] = orig - step
            lo = fn(*tensors).data.sum()
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * step)
        np.testing.assert_allclose(analytic.reshape(-1), fd, rtol=tol, atol=tol)


RNG = np.random.default_rng(1234)


def test_add_broadcast():
    fd_check(lambda a, b: a + b, RNG.normal(size=(3, 4)), RNG.normal(size=(4,)))


def test_sub_and_neg():
    fd_check(lambda a, b: a - b, RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3)))
    fd_check(lambda a: -a, RNG.normal(size=(5,)))


def test_mul_broadcast():
    fd_check(lambda a, b: a * b, RNG.normal(size=(2, 1, 3)), RNG.normal(size=(4, 3)))


def test_scalar_arithmetic():
    fd_check(lambda a: 2.0 * a + 1.0, RNG.normal(size=(3,)))
    fd_check(lambda a: a / 3.0, RNG.normal(size=(3,)))
    fd_check(lambda a: 1.0 - a, RNG.normal(size=(3,)))


def test_matmul_plain():
    fd_check(lambda a, b: tt.matmul(a, b), RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2)))


def test_matmul_batched_broadcast():
    # [B, K, D] @ [D, D] and batched [B, 1, K] @ [B, K, D]
    fd_check(lambda a, b: tt.matmul(a, b), RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 4)))
    fd_check(lambda a, b: tt.matmul(a, b), RNG.normal(size=(2, 1, 3)), RNG.normal(size=(2, 3, 4)))


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        tt.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_nonlinearities():
    x = RNG.normal(size=(3, 3))
    fd_check(tt.tanh, x)


def test_sigmoid_extreme_inputs_stable():
    y = tt.stable_sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 and y[2] == 1.0
    assert tt.stable_sigmoid(np.array(0.0)) == 0.5 and tt.stable_sigmoid(-800.0) == 0.0


def masked_sigmoid(x):
    """The branch-per-sign logistic that `stable_sigmoid` must reproduce bit for bit."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_sigmoid_bytes_match_masked_form(dtype):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.inf, -np.inf, 100.0, -100.0, 1e-30, -1e-30]
    x = np.concatenate(
        [special, rng.uniform(-120.0, 120.0, 200_000), rng.normal(size=50_000)]
    ).astype(dtype)
    y = tt.stable_sigmoid(x)
    assert y.dtype == dtype
    assert y.tobytes() == masked_sigmoid(x).tobytes()


def test_softmax_rows_and_grad():
    x = RNG.normal(size=(4, 5))
    fd_check(lambda a: tt.softmax(a, axis=1), x)
    y = tt.softmax(Tensor(x), axis=1)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(4), atol=1e-12)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(6,))
    a = tt.softmax(Tensor(x), axis=0).data
    b = tt.softmax(Tensor(x + 1000.0), axis=0).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = RNG.normal(size=(3, 4))
    direct = tt.log_softmax(Tensor(x), axis=1).data
    np.testing.assert_allclose(direct, np.log(tt.softmax(Tensor(x), axis=1).data), atol=1e-12)
    fd_check(lambda a: tt.log_softmax(a, axis=1), x)


def test_reductions():
    x = RNG.normal(size=(3, 4, 2))
    fd_check(lambda a: tt.tsum(a), x)
    fd_check(lambda a: tt.tsum(a, axis=1), x)
    fd_check(lambda a: tt.tsum(a, axis=1, keepdims=True), x)
    fd_check(lambda a: tt.tmean(a, axis=(0, 2)), x)
    np.testing.assert_allclose(tt.tmean(Tensor(x), axis=1).data, x.mean(axis=1), atol=1e-12)


def test_concat():
    a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 2))
    fd_check(lambda x, y: tt.concat([x, y], axis=1), a, b)


def test_take_scalar_and_fancy():
    x = RNG.normal(size=(5, 3))
    fd_check(lambda a: a[2], x)
    fd_check(lambda a: tt.take(a, (np.array([0, 0, 4]),)), x)  # repeated rows accumulate


def test_take_overlapping_slices_and_repeated_index_share_one_gradient():
    # Several takes (overlapping slices, a repeated fancy index twice) and a
    # direct use all write into the same gradient buffer.
    x = RNG.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4, 0])

    def fn(a):
        b = tt.tanh(a)
        rows = tt.tsum(b[idx] * a[idx], axis=0)
        return a[1:4] * a[0:3] + b[2:5] + rows + a[1:4, 1:2] + tt.tsum(a * a)

    fd_check(fn, x)


def test_reshape_moveaxis_broadcast():
    x = RNG.normal(size=(2, 6))
    fd_check(lambda a: tt.reshape(a, (3, 4)), x)
    fd_check(lambda a: tt.broadcast_to(a, (4, 2, 6)), x)
    # every move the model makes: the head splits (-2 -> -3), the key split
    # (-3 -> -1), the head merge (-3 -> -2) and the baseline's key transpose
    # (-1 -> -2); the probe makes each output position count differently
    x = RNG.normal(size=(2, 3, 4, 5))
    for source, destination in ((-2, -3), (-3, -1), (-3, -2), (-1, -2)):
        probe = Tensor(RNG.normal(size=np.moveaxis(x, source, destination).shape))
        fd_check(lambda a: tt.moveaxis(a, source, destination) * probe, x)


def test_moveaxis_backward_moves_the_gradient_back():
    # -3 -> -1 is not its own inverse: its backward must move -1 back to -3
    x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    y = tt.moveaxis(x, -3, -1)
    assert y.shape == (3, 4, 2)
    seed = RNG.normal(size=y.shape)
    y.backward(seed)
    assert x.grad.tobytes() == np.ascontiguousarray(np.moveaxis(seed, -1, -3)).tobytes()


def test_linear_affine_and_vector_input(monkeypatch):
    x, w, b = RNG.normal(size=(4, 3)), RNG.normal(size=(3, 2)), RNG.normal(size=(2,))
    fd_check(tt.linear, x, w, b)
    with pytest.raises(ValueError, match="ndim >= 2"):
        tt.linear(Tensor(RNG.normal(size=(3,))), Tensor(w), Tensor(b))
    # linear is affine with one term: one node, with or without the bias
    ops = []
    recording_result(monkeypatch, lambda op, out, _: ops.append(op))
    tt.linear(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))
    tt.linear(Tensor(x, requires_grad=True), Tensor(w))
    assert ops == ["affine", "affine"]


def test_affine_gradients_match_finite_differences():
    B, K, D, P = 2, 3, 3, 2
    # a [B, 1, D] controller term broadcast against a [B, K, D] node term
    fd_check(
        lambda c, wc, n, wn, b: tt.affine(((c, wc), (n, wn)), b),
        *(RNG.normal(size=s) for s in ((B, 1, D), (D, P), (B, K, D), (D, P), (P,))),
    )
    # the fusion attention's [S, T, K, D] objects and [S, 1, 1, D] sentences
    fd_check(
        lambda v, wv, q, wq, b: tt.affine(((v, wv), (q, wq)), b),
        *(RNG.normal(size=s) for s in ((2, 2, K, D), (D, P), (2, 1, 1, D), (D, P), (P,))),
    )
    # a constant x: gradients reach only the weights and the bias
    const = Tensor(RNG.normal(size=(B, K, D)))
    fd_check(
        lambda x, w, wc, b: tt.affine(((x, w), (const, wc)), b),
        *(RNG.normal(size=s) for s in ((B, 1, D), (D, P), (D, P), (P,))),
    )
    # no bias
    fd_check(
        lambda x, w, y, v: tt.affine(((x, w), (y, v))),
        *(RNG.normal(size=s) for s in ((B, K, D), (D, P), (B, K, 2), (2, P))),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_bytes_match_the_same_sum_of_matmul_and_add_nodes(dtype):
    # [B, K, D] @ W1 + [B, 1, D] @ W2 + [B, K, D] @ W3 + b as one node and as
    # matmul and add nodes in the same order, each on its own leaves.
    rng = np.random.default_rng(3)
    B, K, D, P = 3, 4, 5, 6
    shapes = ((B, K, D), (D, P), (B, 1, D), (D, P), (B, K, D), (D, P), (P,))
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    grad = rng.normal(size=(B, K, P)).astype(dtype)
    fused = [Tensor(a, requires_grad=True) for a in arrays]
    x1, w1, x2, w2, x3, w3, b = fused
    out = tt.affine(((x1, w1), (x2, w2), (x3, w3)), b)
    out.backward(grad)
    composed = [Tensor(a, requires_grad=True) for a in arrays]
    x1, w1, x2, w2, x3, w3, b = composed
    ref = tt.matmul(x1, w1) + tt.matmul(x2, w2) + tt.matmul(x3, w3) + b
    ref.backward(grad)
    assert out.dtype == dtype
    assert out.data.tobytes() == ref.data.tobytes()
    for i, (got, want) in enumerate(zip(fused, composed)):
        assert got.grad.dtype == dtype
        assert got.grad.tobytes() == want.grad.tobytes(), i


def test_affine_rejects_shapes_that_do_not_fit():
    x, w, b = Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(2))
    with pytest.raises(ValueError, match=r"ndim >= 2.*\(3,\).*\(3, 2\)"):
        tt.affine(((Tensor(np.ones(3)), w),), b)
    with pytest.raises(ValueError, match=r"\(4, 3\) @ W \(1, 3, 2\)"):
        tt.affine(((x, Tensor(np.ones((1, 3, 2)))),))
    with pytest.raises(ValueError, match=r"\(4, 3\) @ W \(2, 2\)"):
        tt.affine(((x, Tensor(np.ones((2, 2)))),))
    with pytest.raises(ValueError, match=r"\(4, 3\) @ W \(3, 5\)"):
        tt.affine(((x, w), (x, Tensor(np.ones((3, 5))))))
    with pytest.raises(ValueError, match=r"bias \(3,\).* 2"):
        tt.affine(((x, w),), Tensor(np.ones(3)))
    with pytest.raises(ValueError, match=r"bias \(1, 2\)"):
        tt.affine(((x, w),), Tensor(np.ones((1, 2))))
    with pytest.raises(ValueError, match="at least one"):
        tt.affine(())


def test_shared_reads_get_the_composed_gradient_in_unshared_buffers(monkeypatch):
    # One tensor read by two terms of a sum, and add(h, h), each give their
    # node two parts of its gradient. Handed-over buffers belong to one node
    # each: no two gradients ever share memory during the backward.
    nodes, overlaps = [], []

    def check_no_shared_gradients():
        grads = [n.grad for n in nodes if n.grad is not None]
        overlaps.extend(
            (a.shape, b.shape)
            for i, a in enumerate(grads)
            for b in grads[i + 1 :]
            if np.shares_memory(a, b)
        )

    def record(op, out, backward):
        if out.requires_grad:
            nodes.append(out._node)

            def checked_backward(g):
                check_no_shared_gradients()
                backward(g)
                check_no_shared_gradients()

            out._node._backward = checked_backward

    recording_result(monkeypatch, record)
    arrays = [RNG.normal(size=s) for s in ((2, 3, 4), (4, 4), (4, 4), (4,))]

    def grads(fused):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        nodes[:] = [t._node for t in leaves]
        x, w1, w2, b = leaves
        if fused:
            pre = tt.affine(((x, w1), (x, w2)), b)
        else:
            pre = tt.add(tt.add(tt.matmul(x, w1), tt.matmul(x, w2)), b)
        h = tt.tanh(pre)
        s = tt.softmax(tt.add(h, h), axis=-1)
        y = tt.matmul(s, tt.moveaxis(h, 2, 1))
        tt.tsum(y * y).backward()
        check_no_shared_gradients()
        return [t.grad.tobytes() for t in leaves]

    assert grads(fused=True) == grads(fused=False)
    assert not overlaps, overlaps
    # add(a, a) hands g to both of its parent slots as a copy, then adds it
    a = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    seed = RNG.normal(size=(3, 2))
    tt.add(a, a).backward(seed)
    assert a.grad.tobytes() == (seed + seed).tobytes()
    assert not np.shares_memory(a.grad, seed)


def test_grad_accumulates_when_tensor_reused():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    loss = tt.tsum(x * x + x)
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 1.0, atol=1e-12)


def test_diamond_graph_topological_order():
    x = Tensor(np.array(3.0).reshape(1), requires_grad=True)
    a = x * 2.0
    b = x * 3.0
    loss = tt.tsum(a * b)  # d/dx (6 x^2) = 12 x
    loss.backward()
    np.testing.assert_allclose(x.grad, [36.0], atol=1e-12)


def test_backward_keeps_only_the_leaf_gradients():
    x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    w = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
    loss = tt.tsum(tt.tanh(tt.matmul(x, w)) * x[:, :1])
    loss.backward()
    nodes, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert not [n.shape for n in nodes.values() if n._backward is not None and n.grad is not None]
    leaves = [n for n in nodes.values() if n._backward is None]
    assert {id(n) for n in leaves} == {id(x._node), id(w._node)}
    assert all(n.grad is not None for n in leaves)


def recording_result(monkeypatch, record):
    """Wrap `Tensor._result` so that `record(op, out, backward)` sees every
    tensor an op returns; `op` is the name of the function that built it."""
    result = Tensor.__dict__["_result"].__func__

    def recorded_result(data, parents, backward):
        out = result(data, parents, backward)
        record(backward.__qualname__.split(".")[0], out, backward)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recorded_result))


def test_the_tape_keeps_only_the_outputs_a_backward_reads(monkeypatch):
    # No backward reads the affine node's output, so it dies with the
    # forward's last reference to it; tanh's backward reads its own.
    outputs = {}
    recording_result(monkeypatch, lambda op, out, _: outputs.setdefault(op, weakref.ref(out.data)))
    arrays = [RNG.normal(size=shape) for shape in ((4, 3), (3, 2), (2,))]
    x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
    loss = tt.tsum(tt.tanh(tt.linear(x, w, b)))
    assert outputs["affine"]() is None
    assert outputs["tanh"]() is not None and loss.requires_grad
    fd_check(lambda x, w, b: tt.tanh(tt.linear(x, w, b)), *arrays)


def check_gradient_buffers(monkeypatch):
    """Record, for every node an op puts on the tape, whether its first
    gradient is a C array of its output's shape and dtype.

    Returns (wrong, strided, kept): the (op, shape, strides) of each gradient
    that is not, the ops whose outputs were strided views, and the ops whose
    node kept an array its child's backward handed over (`owned=True`) as
    its gradient, not a copy of it."""
    wrong, strided, kept, handed = [], set(), set(), {}
    accumulate = tt._Node._accumulate

    def recording_accumulate(node, g, owned=False):
        if owned and node.grad is None:
            handed[id(node)] = g
        accumulate(node, g, owned)

    monkeypatch.setattr(tt._Node, "_accumulate", recording_accumulate)

    def record(op, out, backward):
        if out.requires_grad:
            node, shape, dtype = out._node, out.shape, out.dtype
            if not out.data.flags.c_contiguous:
                strided.add(op)

            def recorded_backward(g):
                if not (g.flags.c_contiguous and g.shape == shape and g.dtype == dtype):
                    wrong.append((op, g.shape, g.strides))
                if handed.get(id(node)) is g:
                    kept.add(op)
                backward(g)

            node._backward = recorded_backward

    recording_result(monkeypatch, record)
    return wrong, strided, kept


def test_gradient_buffers_are_c_arrays_of_their_outputs_shape(monkeypatch):
    # A node's gradient is a C array whatever its output's strides. The
    # moveaxis output s reaches the loss only through takes, so its buffer
    # is take's zero fill; the key transpose k keeps matmul's product.
    wrong, strided, kept = check_gradient_buffers(monkeypatch)
    x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    y = tt.tanh(x)
    s = tt.moveaxis(y, 2, 0)  # [4, 2, 3]
    r = tt.matmul(tt.moveaxis(y, 1, 2), w)  # [2, 4, 3] @ [3, 2]
    k = tt.moveaxis(tt.tanh(y), 1, 2)  # [2, 4, 3]
    a = tt.matmul(y, k)  # [2, 3, 4] @ [2, 4, 3]
    c = tt.broadcast_to(y[:, :1], (5, 2, 3, 4))
    loss = tt.tsum(s[1:, :, :1] * 3.0) + tt.tsum(s[:2] * s[:2]) + tt.tsum(r * r) + tt.tsum(c * c)
    (loss + tt.tsum(a * a)).backward()
    assert wrong == []
    assert {"moveaxis", "broadcast_to", "take"} <= strided
    assert "moveaxis" in kept
    assert x.grad.flags.c_contiguous and w.grad.flags.c_contiguous


def test_backward_rejects_a_seed_of_another_shape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    with pytest.raises(ValueError, match=r"\(1,\).*\(3,\)"):
        y.backward(np.ones(1))
    assert x.grad is None
    tt.tsum(y).backward(3.0)  # a scalar seed on a 0-d loss
    np.testing.assert_array_equal(x.grad, [6.0, 6.0, 6.0])


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with tt.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    with pytest.raises(ValueError):
        y.backward()


def test_no_grad_is_per_thread():
    # one thread inside no_grad leaves another thread's tape on
    inside, done = threading.Event(), threading.Event()

    def hold_no_grad():
        with tt.no_grad():
            inside.set()
            done.wait(10)

    holder = threading.Thread(target=hold_no_grad)
    holder.start()
    try:
        assert inside.wait(10)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(Tensor(np.ones(2), requires_grad=True) * 2.0)
        )
        worker.start()
        worker.join(10)
        assert not worker.is_alive() and results[0].requires_grad
    finally:
        done.set()
        holder.join(10)
    assert not holder.is_alive()


def test_no_grad_restores_the_tape_after_an_exception():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with tt.no_grad():
            raise RuntimeError("inside the block")
    assert (x * 2.0).requires_grad


def test_dtype_follows_operands():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = tt.tanh(x * 0.5 + 1.0)
    assert y.dtype == np.float32
    tt.tsum(y).backward()
    assert x.grad.dtype == np.float32


def test_backward_requires_grad():
    with pytest.raises(ValueError):
        Tensor(np.ones(2)).backward()
