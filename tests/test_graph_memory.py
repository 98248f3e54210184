"""Read/write controllers against straight-line oracles, plus the invariants
the reasoning step is supposed to keep: simplex attention, strict gates,
permutation equivariance, saturation identity, and step-count contracts.
"""

import tracemalloc

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.cross_space import cross_attention, cross_space_params, enhance_batch
from hvsarn.data import REASONER_KINDS
from hvsarn.graph_memory import (
    BASELINE_KINDS,
    _BLOCK_BYTES,
    _MASK_VALUE,
    _pair_blocks,
    baseline_params,
    baseline_step,
    gated_update,
    graph_memory_params,
    neighbor_attention,
    neighbor_context,
    pair_logits,
    read_attention,
    read_batch,
    reason_batch,
    run_reasoner,
    write_batch,
)
from hvsarn.params import flatten, init_params, xavier_uniform
from hvsarn.tensor import Tensor
from oracles import as_np, per_gate, read_oracle, reason_oracle, softmax_1d, write_oracle
from test_tensor import fd_check

from hvsarn.training import gradcheck_tensors


def reason_one(q, nodes, params, num_steps):
    """Reason over one graph (B = 1): q [D], nodes [K, D] -> (controller [D], nodes [K, D])."""
    controller, nodes_out = reason_batch(
        Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None]), params, num_steps
    )
    return controller.data[0, 0], nodes_out.data[0]


def baseline_one(kind, nodes, controller, params):
    """One baseline layer on one graph (B = 1): nodes [K, D], controller [D] -> [K, D]."""
    out = baseline_step(kind, Tensor(nodes[None]), Tensor(controller.reshape(1, 1, -1)), params)
    return out.data[0]


def with_drawn_biases(params, seed):
    """params with every 1-D parameter, a bias that init_params leaves at 0,
    drawn from a generator of its own, so every other draw keeps its value.
    An oracle then also checks where each bias enters its formula."""
    rng = np.random.default_rng([seed, 0xB1A5])
    for p in flatten(params).values():
        if p.data.ndim == 1:
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
    return params


def make_instance(seed, K=4, D=6):
    rng = np.random.default_rng(seed)
    params = with_drawn_biases(init_params(graph_memory_params(D), rng, np.float64), seed)
    q = rng.normal(size=D)
    nodes = rng.normal(size=(K, D))
    return params, q, nodes


def test_read_matches_oracle_many_seeds():
    for seed in range(25):
        params, q, nodes = make_instance(seed)
        controller, graph = Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None])
        q_new = read_batch(controller, graph, params)
        attn = read_attention(controller, graph, params)
        _, q_ref, attn_ref = read_oracle(q, nodes, as_np(params)["read"])
        np.testing.assert_allclose(q_new.data[0, 0], q_ref, atol=1e-10)
        np.testing.assert_allclose(attn.data[0, 0], attn_ref, atol=1e-10)


def test_write_matches_oracle_many_seeds():
    for seed in range(25):
        params, q, nodes = make_instance(seed)
        q_new = read_oracle(q, nodes, as_np(params)["read"])[1]
        out = write_batch(Tensor(q_new.reshape(1, 1, -1)), Tensor(nodes[None]), params)
        ref = write_oracle(q_new, nodes, as_np(params)["write"])
        np.testing.assert_allclose(out.data[0], ref, atol=1e-10)


def test_write_batch_matches_oracle_per_graph_at_scale():
    rng = np.random.default_rng(41)
    B, K, D = 3, 12, 6
    params = with_drawn_biases(init_params(graph_memory_params(D), rng, np.float64), 41)
    q = rng.normal(size=(B, D))
    nodes = rng.normal(size=(B, K, D))
    out = write_batch(Tensor(q[:, None]), Tensor(nodes), params)
    attn = neighbor_attention(Tensor(nodes), params)
    assert out.shape == (B, K, D) and attn.shape == (B, K, K)
    p = as_np(params)["write"]
    for b in range(B):
        np.testing.assert_allclose(out.data[b], write_oracle(q[b], nodes[b], p), atol=1e-10)


def test_multi_step_reason_matches_oracle():
    for seed in range(5):
        params, q, nodes = make_instance(seed, K=3)
        q_out, n_out = reason_one(q, nodes, params, num_steps=3)
        q_ref, n_ref = reason_oracle(q, nodes, as_np(params), 3)
        np.testing.assert_allclose(q_out, q_ref, atol=1e-10)
        np.testing.assert_allclose(n_out, n_ref, atol=1e-10)


def test_batch_equals_per_graph_loop():
    rng = np.random.default_rng(11)
    params = init_params(graph_memory_params(6), rng, np.float64)
    B, K, D = 5, 3, 6
    qs = rng.normal(size=(B, D))
    nodes = rng.normal(size=(B, K, D))
    q_out, n_out = reason_batch(Tensor(qs[:, None]), Tensor(nodes), params, 2)
    for b in range(B):
        q_one, n_one = reason_one(qs[b], nodes[b], params, 2)
        np.testing.assert_allclose(q_out.data[b, 0], q_one, atol=1e-12)
        np.testing.assert_allclose(n_out.data[b], n_one, atol=1e-12)


def test_read_attention_is_simplex():
    for seed in range(10):
        params, q, nodes = make_instance(seed, K=7)
        attn = read_attention(Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None]), params)
        assert attn.shape == (1, 1, 7)
        np.testing.assert_allclose(attn.data.sum(axis=2), 1.0, atol=1e-6)
        assert np.all(attn.data >= 0)


def test_neighbor_attention_excludes_self():
    params, _, nodes = make_instance(3, K=5)
    attn = neighbor_attention(Tensor(nodes[None]), params)
    np.testing.assert_allclose(attn.data.sum(axis=2), 1.0, atol=1e-6)
    diag = np.diagonal(attn.data[0])
    np.testing.assert_allclose(diag, 0.0, atol=0.0)  # exactly zero, not merely small


def test_single_node_context_is_zero():
    params, q, nodes = make_instance(4, K=1)
    context = neighbor_context(Tensor(nodes[None]), params)
    np.testing.assert_allclose(context.data, 0.0)
    with pytest.raises(ValueError, match="lone node"):
        neighbor_attention(Tensor(nodes[None]), params)
    # the write still updates the lone node through its gate
    out = write_batch(Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None]), params)
    assert out.shape == (1, 1, 6)


# -- stored layout and the gated update -----------------------------------------


def test_init_blocks_equal_gate_by_gate_draws():
    # every input's candidate block is drawn before any gate block, each as
    # its own [D, D] matrix, exactly as a per-gate layout would draw them
    D = 4
    params = init_params(graph_memory_params(D), np.random.default_rng(11), np.float32)
    rng = np.random.default_rng(11)

    def block():
        return xavier_uniform(rng, (D, D), np.float32)

    read = {name: block() for name in ("attn_w1", "attn_w2")}
    read["attn_v"] = xavier_uniform(rng, (D, 1), np.float32)
    read.update({f"cand_{n}": block() for n in ("wq", "wr")})
    read.update({f"gate_{n}": block() for n in ("wq", "wr")})
    # the neighbour MLP's first layer is one [2D, D] draw, stored as its halves
    mlp_w1 = xavier_uniform(rng, (2 * D, D), np.float32)
    write = {"mlp_w1_target": mlp_w1[:D], "mlp_w1_source": mlp_w1[D:]}
    write["mlp_w2"] = xavier_uniform(rng, (D, 1), np.float32)
    write.update({f"cand_{n}": block() for n in ("wv", "wq", "wc")})
    write.update({f"gate_{n}": block() for n in ("wv", "wq", "wc")})
    for group, drawn in (("read", read), ("write", write)):
        stored = params[group]
        for name, arr in drawn.items():
            if name.startswith(("cand_", "gate_")):
                half = slice(None, D) if name.startswith("cand_") else slice(D, None)
                got = np.ascontiguousarray(stored[name[5:]].data[:, half])
            else:
                got = stored[name].data
            assert got.tobytes() == arr.tobytes(), (group, name)
        assert stored["b"].shape == (2 * D,) and not stored["b"].data.any()
    # no output bias on the neighbour MLP: the neighbour softmax cancels it
    assert sorted(params["write"]) == [
        "b", "mlp_b1", "mlp_w1_source", "mlp_w1_target", "mlp_w2", "wc", "wq", "wv"
    ]

    baseline = init_params(baseline_params("memory_network", D), np.random.default_rng(12), np.float32)
    rng = np.random.default_rng(12)
    cand_v, cand_q, gate_v, gate_q = (block() for _ in range(4))
    assert baseline["wv"].data.tobytes() == np.concatenate([cand_v, gate_v], axis=1).tobytes()
    assert baseline["wq"].data.tobytes() == np.concatenate([cand_q, gate_q], axis=1).tobytes()
    assert sorted(baseline) == ["b", "wq", "wv"]


def two_node_gated_update(state, terms, b):
    """The gated update as an `affine` node for pre plus a (state, pre) node
    that keeps g and c: the form the fused node replaces, byte for byte."""
    pre = tt.affine(terms, b)
    D = state.shape[-1]
    g = tt.stable_sigmoid(pre.data[..., D:])
    c = np.tanh(pre.data[..., :D])
    out = g * state.data + (1.0 - g) * c

    def backward(grad):
        dpre = np.empty(pre.shape, dtype=pre.dtype)
        dpre[..., D:] = (state.data - c) * grad * g * (1.0 - g)
        dpre[..., :D] = grad * (1.0 - g) * (1.0 - c * c)
        pre._node._accumulate(dpre, owned=True)
        if state._node is not None:
            state._node._accumulate(grad * g, owned=True)

    return Tensor._result(out, (state, pre), backward)


def gated_operands(rng, dtype, B=2, K=3, D=4):
    """state [B, K, D], a broadcast term x [B, 1, D], a term y [B, K, D], four
    [D, 2D] weights, a [2D] bias and an upstream gradient, as arrays."""
    shapes = ((B, K, D), (B, 1, D), (B, K, D)) + 4 * ((D, 2 * D),) + ((2 * D,), (B, K, D))
    return tuple(rng.normal(scale=2.0, size=s).astype(dtype) for s in shapes)


def gated_call(fn, state, x, y, w1, w2, w3, w4, b):
    # The state is a term too, as in the write; twice, so that its gradient
    # has three parts and the order they are added in shows in its bytes.
    return fn(state, ((state, w1), (x, w2), (y, w3), (state, w4)), b)


def test_gated_update_fd_into_every_parent():
    *arrays, probe = gated_operands(np.random.default_rng(13), np.float64)
    fd_check(lambda *parents: gated_call(gated_update, *parents) * Tensor(probe), *arrays)


def test_gated_update_forward_bytes_match_composed_ops():
    for dtype in (np.float32, np.float64):
        *arrays, _ = gated_operands(np.random.default_rng(8), dtype, B=4, K=5, D=8)
        fused = gated_call(gated_update, *score_tensors(arrays)).data
        assert fused.dtype == dtype
        want = gated_call(two_node_gated_update, *score_tensors(arrays)).data
        assert fused.tobytes() == want.tobytes()


def test_gated_update_gradient_bytes_match_affine_and_gated_nodes():
    # The backward rebuilds pre with the forward's helper and hands the
    # state its gradient before the terms', so every parent's gradient is
    # the two-node form's, byte for byte.
    for dtype in (np.float32, np.float64):
        *arrays, g = gated_operands(np.random.default_rng(10), dtype, B=4, K=5, D=8)
        grads = []
        for fn in (gated_update, two_node_gated_update):
            parents = score_tensors(arrays, requires_grad=True)
            gated_call(fn, *parents).backward(g)
            grads.append([p.grad.tobytes() for p in parents])
        assert grads[0] == grads[1], dtype


def test_gated_update_backward_is_pure():
    # A second backward rebuilds pre from unchanged operands and adds what a
    # fresh node's backward adds.
    *arrays, g = gated_operands(np.random.default_rng(6), np.float64)
    before = [a.tobytes() for a in arrays]

    def grads_after(tape_calls):
        parents = score_tensors([a.copy() for a in arrays], requires_grad=True)
        for calls in tape_calls:
            out = gated_call(gated_update, *parents)
            for _ in range(calls):
                out._node._backward(g)
        assert [p.data.tobytes() for p in parents] == before
        return [p.grad.tobytes() for p in parents]

    assert grads_after([2]) == grads_after([1, 1])
    assert grads_after([2]) != grads_after([1])


def gated_memory(terms_need_grad):
    """Bytes a gated update holds after its forward, beyond its output, and
    its backward's peak, in [..., D] maps of the state.

    The state is [1024, 4, 32] float32, the object level's at T = 128, K = 4
    and batch 8, and the terms are a [B, K, D] and a broadcast [B, 1, D]
    input, as the write's nodes and controller."""
    *arrays, g = gated_operands(np.random.default_rng(4), np.float32, B=1024, K=4, D=32)
    state, x, y, w1, w2, _, _, b = (
        Tensor(a, requires_grad=terms_need_grad or i not in (1, 2)) for i, a in enumerate(arrays)
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = gated_update(state, ((y, w1), (x, w2)), b)
        held = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out._node._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held / g.nbytes, peak / g.nbytes


def test_gated_update_holds_no_map():
    # No g, c or pre map stays with the node: its closure holds the
    # operands, which other nodes and the parameters hold anyway.
    held, _ = gated_memory(terms_need_grad=True)
    assert held < 0.05, held


def test_gated_update_backward_peaks_below_four_and_a_half_maps():
    # The rebuilt pre (two maps), g and 1 - g; g becomes the state's gradient.
    # With constant term inputs the terms' gradients are only dW and db.
    _, peak = gated_memory(terms_need_grad=False)
    assert peak < 4.5, peak


def test_gated_update_rejects_shape_mismatch():
    state, x = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
    bad = [
        ((x, Tensor(np.zeros((3, 4)))), Tensor(np.zeros(4))),  # pre narrower than 2D
        ((x, Tensor(np.zeros((3, 8)))), Tensor(np.zeros(8))),  # pre wider than 2D
        ((Tensor(np.zeros((1, 3))), Tensor(np.zeros((3, 6)))), Tensor(np.zeros(6))),  # rows
        ((Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 6)))), Tensor(np.zeros(6))),  # x @ W
        ((x, Tensor(np.zeros((3, 6)))), Tensor(np.zeros(5))),  # bias
    ]
    for term, b in bad:
        with pytest.raises(ValueError, match="fit"):
            gated_update(state, (term,), b)
    fits = gated_update(state, ((x, Tensor(np.zeros((3, 6)))),), Tensor(np.zeros(6)))
    assert fits.shape == (2, 3)


# -- the score node ---------------------------------------------------------------
#
# pair_logits is every attention score: the neighbours' (each node against the
# others, masked), the read's (one controller row against the nodes), the
# fusion's (one sentence row per sample against each frame's objects), and
# any two node sets.  It is one node over the node sets and the weights; its
# backward rebuilds the maps from them.  Each entry is checked against the
# chain of tape ops it replaces.


def neighbour_logits(nodes, w1_target, b1, w1_source, w2):
    """The write's score: every node against every node, self-pairs masked."""
    return pair_logits(nodes, nodes, w1_target, b1, w1_source, w2, mask_self=True)


def composed_pair_logits(targets, sources, w_target, b, w_source, v, mask_self=False):
    """pair_logits as the linear, add, tanh, matmul and mask nodes it replaces."""
    lead, Kt, Ks, H = sources.shape[:-2], targets.shape[-2], sources.shape[-2], v.shape[0]
    target = tt.reshape(tt.linear(targets, w_target, b), targets.shape[:-2] + (Kt, 1, H))
    source = tt.reshape(tt.linear(sources, w_source), lead + (1, Ks, H))
    logits = tt.reshape(tt.matmul(tt.tanh(tt.add(target, source)), v), lead + (Kt, Ks))
    if not mask_self:
        return logits
    mask = np.zeros((Kt, Ks), dtype=targets.dtype)
    np.fill_diagonal(mask, _MASK_VALUE)
    return logits + Tensor(mask)


def composed_neighbour_logits(nodes, w1_target, b1, w1_source, w2):
    return composed_pair_logits(nodes, nodes, w1_target, b1, w1_source, w2, mask_self=True)


def score_operands(target_shape, source_shape, D, dtype, rng):
    """targets, sources, w_target, b, w_source, v and an upstream gradient, as arrays."""
    lead, Kt, Ks = source_shape[:-2], target_shape[-2], source_shape[-2]
    shapes = (target_shape, source_shape, (D, D), (D,), (D, D), (D, 1), lead + (Kt, Ks))
    return tuple(rng.normal(size=s).astype(dtype) for s in shapes)


def pair_operands(rng, B, K, D, dtype):
    """nodes, w1_target, b1, w1_source, w2 and an upstream gradient for the neighbours' score."""
    targets, _, *rest = score_operands((B, K, D), (B, K, D), D, dtype, rng)
    return (targets, *rest)


def read_operands(rng, B, K, D, dtype):
    """The read's operands: one controller row [B, 1, D] per graph of nodes [B, K, D]."""
    return score_operands((B, 1, D), (B, K, D), D, dtype, rng)


def read_lead_operands(rng, S, K, D, dtype, T=3):
    """The fusion's operands: nodes [S, T, K, D] under one row [S, 1, 1, D] per sample."""
    return score_operands((S, 1, 1, D), (S, T, K, D), D, dtype, rng)


def two_set_operands(rng, B, K, D, dtype):
    """Kt = 3 targets against Ks = K + 3 sources: 5 at K = 2."""
    return score_operands((B, 3, D), (B, K + 3, D), D, dtype, rng)


def broadcast_operands(rng, S, K, D, dtype, T=3):
    """Kt = 2 target rows per sample, shared by the sample's T graphs of K nodes."""
    return score_operands((S, 1, 2, D), (S, T, K, D), D, dtype, rng)


SCORES = {
    "pair": (neighbour_logits, composed_neighbour_logits, pair_operands),
    "read": (pair_logits, composed_pair_logits, read_operands),
    "read_lead": (pair_logits, composed_pair_logits, read_lead_operands),
    "two_set": (pair_logits, composed_pair_logits, two_set_operands),
    "broadcast": (pair_logits, composed_pair_logits, broadcast_operands),
}
UNMASKED = ("read", "read_lead", "two_set", "broadcast")


def score_tensors(arrays, requires_grad=False):
    return [Tensor(a, requires_grad=requires_grad) for a in arrays]


def check_fd_into_every_parent(name, K):
    fused, _, operands = SCORES[name]
    *arrays, probe = operands(np.random.default_rng(21 + K), 2, K, 3, np.float64)
    if name == "pair":
        # The masked diagonal is a constant -1e9: a probe on it would only
        # add rounding noise of 1e9 to the finite differences.
        probe.reshape(2, K * K)[:, :: K + 1] = 0.0
    fd_check(lambda *parents: fused(*parents) * Tensor(probe), *arrays)


def test_pair_logits_fd_into_every_parent():
    for K in (2, 4):
        check_fd_into_every_parent("pair", K)


def test_read_scores_fd_into_every_parent():
    # read_lead: the controller's gradient sums over the T frames its row
    # broadcasts to.
    for name in ("read", "read_lead"):
        for K in (2, 4):
            check_fd_into_every_parent(name, K)


def check_forward_bytes_match_composed_ops(name, K):
    fused, composed, operands = SCORES[name]
    *arrays, _ = operands(np.random.default_rng(5 + K), 3, K, 8, np.float32)
    got = fused(*score_tensors(arrays)).data
    assert got.dtype == np.float32
    assert got.tobytes() == composed(*score_tensors(arrays)).data.tobytes()


def test_pair_logits_forward_bytes_match_composed_ops():
    # In float32, -1e9 plus a logit below 32 in size rounds back to -1e9, so
    # the masked diagonal is byte-equal as well.
    for K in (2, 7):
        check_forward_bytes_match_composed_ops("pair", K)


def test_read_scores_forward_bytes_match_composed_ops():
    for name in ("read", "read_lead"):
        for K in (1, 2, 7):
            check_forward_bytes_match_composed_ops(name, K)


def check_gradients_match_composed_ops(name, K, B=3):
    fused, composed, operands = SCORES[name]
    *arrays, g = operands(np.random.default_rng(9 + K), B, K, 4, np.float64)
    if name == "pair":
        # What the softmax over a masked row hands back: zero on the diagonal.
        g.reshape(B, K * K)[:, :: K + 1] = 0.0
    grads = []
    for fn in (fused, composed):
        parents = score_tensors(arrays, requires_grad=True)
        fn(*parents).backward(g)
        grads.append([p.grad for p in parents])
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_pair_logits_gradients_match_composed_ops():
    for K in (2, 5):
        check_gradients_match_composed_ops("pair", K)


def test_read_scores_gradients_match_composed_ops():
    for name in ("read", "read_lead"):
        for K in (2, 5):
            check_gradients_match_composed_ops(name, K)


def check_backward_is_pure(name):
    # The backward rebuilds its maps and overwrites them in place; it writes
    # into no operand and saves nothing that could change, so a second call
    # adds what a fresh node's backward adds.  Not 2 * once: the nodes get
    # two parts per call.
    fused, _, operands = SCORES[name]
    *arrays, g = operands(np.random.default_rng(6), 3, 5, 4, np.float64)
    before = [a.tobytes() for a in arrays]

    def grads_after(tape_calls):
        parents = score_tensors([a.copy() for a in arrays], requires_grad=True)
        for calls in tape_calls:
            out = fused(*parents)
            for _ in range(calls):
                out._node._backward(g)
        assert [p.data.tobytes() for p in parents] == before
        return [p.grad.tobytes() for p in parents]

    assert grads_after([2]) == grads_after([1, 1])
    assert grads_after([2]) != grads_after([1])


def test_pair_logits_backward_is_pure():
    check_backward_is_pure("pair")


def test_read_scores_backward_is_pure():
    check_backward_is_pure("read")
    check_backward_is_pure("read_lead")


def held_and_peak(name, B, K, D):
    """Bytes the node holds after its forward, beyond its output, and the peak
    over its forward and backward."""
    fused, _, operands = SCORES[name]
    *arrays, g = operands(np.random.default_rng(7), B, K, D, np.float32)
    parents = score_tensors(arrays, requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fused(*parents)
        held = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held, peak


def test_pair_logits_holds_no_pair_tensor():
    # At frame level, T = 128 and batch 8, y would be [S, T, T, D]; forward
    # and backward hold one block of it, and the node no [S, T, D] map.
    B, K, D = 8, 128, 32
    held, peak = held_and_peak("pair", B, K, D)
    assert held < B * K * D * 4 / 4, held
    assert peak < B * K * K * D * 4 / 4, peak


def test_read_scores_holds_no_map():
    # At object level, T = 128 and batch 8: no [S·T, K, D] tanh map stays,
    # for the read's 1024 graphs nor for the fusion's rows over T frames
    # (T = 3 in read_lead_operands, so 342 rows).
    K, D = 4, 32
    for name, B in (("read", 1024), ("read_lead", 342)):
        held, _ = held_and_peak(name, B, K, D)
        assert held < 1024 * K * D * 4 / 4, (name, held)


# Two node sets (Kt = 3 against Ks = 5), and Kt = 2 target rows shared by T = 3
# graphs of K = 2 sources, whose gradient sums over the graphs.
@pytest.mark.parametrize("name", ["two_set", "broadcast"])
def test_pair_logits_over_two_node_sets(name):
    check_fd_into_every_parent(name, 2)
    check_forward_bytes_match_composed_ops(name, 2)
    check_gradients_match_composed_ops(name, 2)
    # One sample: its rows' copy for every graph must be an array of its own.
    check_gradients_match_composed_ops(name, 2, B=1)
    check_backward_is_pure(name)
    # Neither map stays: [342, 3, 32] targets, or 1026 graphs' copies of
    # the shared rows, would pass the bound.
    held, _ = held_and_peak(name, 342, 4, 32)
    assert held < 1024 * 4 * 32 * 4 / 4, held


def test_pair_logits_off_the_tape_builds_no_node(monkeypatch):
    # Off the tape the node returns before it saves its terms for a backward.
    saved, keep = [], tt.affine_terms
    monkeypatch.setattr(tt, "affine_terms", lambda terms: saved.append(terms) or keep(terms))
    for name in SCORES:
        fused, _, operands = SCORES[name]
        *arrays, _ = operands(np.random.default_rng(4), 2, 3, 4, np.float64)
        parents = score_tensors(arrays, requires_grad=True)
        with tt.no_grad():
            assert fused(*parents)._node is None
        assert fused(*score_tensors(arrays))._node is None
        assert not saved, name
        assert fused(*parents)._node is not None and saved
        saved.clear()


def test_pair_logits_masks_the_diagonal():
    for K in (2, 3):
        *arrays, _ = pair_operands(np.random.default_rng(K), 2, K, 4, np.float64)
        parents = score_tensors(arrays, requires_grad=True)
        out = neighbour_logits(*parents)
        assert np.all(np.diagonal(out.data, axis1=1, axis2=2) == _MASK_VALUE)
        assert np.all(out.data[:, ~np.eye(K, dtype=bool)] > _MASK_VALUE / 2)
        # A gradient on the diagonal alone reaches no parent.
        out.backward(np.broadcast_to(np.eye(K), out.shape) * 3.0)
        for p in parents:
            assert not p.grad.any()


def check_rejects_shape_mismatch(fits, bad, mask_self=False):
    for name, shape in bad:
        shapes = dict(fits, **{name: shape})
        with pytest.raises(ValueError, match="pair_logits needs .* got shapes targets"):
            pair_logits(*(Tensor(np.zeros(s)) for s in shapes.values()), mask_self=mask_self)


def test_pair_logits_rejects_shape_mismatch():
    B, K, D = 2, 3, 4
    fits = {"t": (B, K, D), "x": (B, K, D), "wt": (D, D), "b": (D,), "ws": (D, D), "v": (D, 1)}
    bad = [
        ("x", (B, K, 1, D)),
        ("x", (B, K, D + 1)),
        ("wt", (D, D + 1)),
        ("b", (1, D)),
        ("ws", (D + 1, D)),
        ("v", (D, 2)),
        ("v", (D + 1, 1)),
    ]
    check_rejects_shape_mismatch(fits, bad, mask_self=True)
    # Masking self-pairs needs as many targets as sources.
    check_rejects_shape_mismatch(fits, [("t", (B, K - 1, D)), ("x", (B, K + 1, D))], True)
    out = pair_logits(*(Tensor(np.ones(s)) for s in fits.values()), mask_self=True)
    assert out.shape == (B, K, K)


def test_read_scores_rejects_shape_mismatch():
    B, K, D = 2, 3, 4
    fits = {"q": (B, 1, D), "x": (B, K, D), "w1": (D, D), "b": (D,), "w2": (D, D), "v": (D, 1)}
    bad = [
        ("q", (B + 1, 1, D)),
        ("q", (B, 1, D + 1)),
        ("x", (B, D)),
        ("w1", (D + 1, D)),
        ("w2", (D, 1)),
        ("b", (D + 1,)),
        ("v", (D,)),
        ("v", (D + 1, 1)),
    ]
    check_rejects_shape_mismatch(fits, bad)
    # Any number of target rows scores against the sources, and with
    # leading axes a target axis of 1 broadcasts; any other must be the sources'.
    out = pair_logits(*(Tensor(np.ones(s)) for s in dict(fits, q=(B, K, D)).values()))
    assert out.shape == (B, K, K)
    S, T = 2, 3
    fits = dict(fits, q=(S, 1, 1, D), x=(S, T, K, D))
    for q in ((S, T, 1, D), (1, T, 1, D), (1, 1, 1, D), (S, 1, 2, D)):
        shapes = dict(fits, q=q).values()
        assert pair_logits(*(Tensor(np.ones(s)) for s in shapes)).shape == (S, T, q[2], K)
    for q in ((S, 2, 1, D), (S + 1, 1, 1, D), (S, 1, D), (1, S, 1, 1, D)):
        check_rejects_shape_mismatch(fits, [("q", q)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pair_logits_spans_several_blocks(dtype):
    # Shapes from the byte budget: at K = 5 a block holds whole graphs and B
    # spans three blocks; at the large K one graph exceeds a block, so both
    # graphs span runs of k.  Both shapes end on a partial block.
    itemsize, D = np.dtype(dtype).itemsize, 8
    graphs = _BLOCK_BYTES // (5 * 5 * D * itemsize)
    large_k = int(np.sqrt(_BLOCK_BYTES / (D * itemsize))) + 9
    for B, K in ((2 * graphs + 3, 5), (2, large_k)):
        blocks = list(_pair_blocks(B, K, K * D * itemsize))
        assert len({bs.start for bs, _ in blocks}) > 1
        assert (len({ks.start for _, ks in blocks}) > 1) == (K == large_k)
        *arrays, g = pair_operands(np.random.default_rng(K), B, K, D, dtype)
        if dtype == np.float32:
            fused = neighbour_logits(*score_tensors(arrays)).data.tobytes()
            assert fused == composed_neighbour_logits(*score_tensors(arrays)).data.tobytes()
            continue
        g.reshape(B, K * K)[:, :: K + 1] = 0.0
        grads = []
        for fn in (neighbour_logits, composed_neighbour_logits):
            parents = score_tensors(arrays, requires_grad=True)
            fn(*parents).backward(g)
            grads.append([p.grad for p in parents])
        for got, want in zip(*grads):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_zero_steps_is_identity():
    params, q, nodes = make_instance(5)
    q_out, n_out = reason_one(q, nodes, params, 0)
    np.testing.assert_array_equal(q_out, q)
    np.testing.assert_array_equal(n_out, nodes)
    with pytest.raises(ValueError):
        reason_batch(Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None]), params, -1)


def test_gates_strictly_inside_unit_interval():
    for seed in range(10):
        params, q, nodes = make_instance(seed)
        p = as_np(params)
        _, q_new, _ = read_oracle(q, nodes, p["read"])
        # recompute the gate exactly as the oracle does and check openness
        r = read_oracle(q, nodes, p["read"])[0]
        read = per_gate(p["read"])
        gate = 1.0 / (1.0 + np.exp(-(q @ read["gate_wq"] + r @ read["gate_wr"])))
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


def test_saturated_read_gate_preserves_controller():
    params, q, nodes = make_instance(6)
    D = q.shape[0]
    params["read"]["b"].data[D:] = 20.0  # the gate half of [candidate | gate]
    q_new = read_batch(Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None]), params)
    assert np.max(np.abs(q_new.data[0, 0] - q)) < 1e-6


def test_saturated_write_gate_preserves_nodes():
    params, q, nodes = make_instance(7)
    params["write"]["b"].data[q.shape[0] :] = 20.0
    out = write_batch(Tensor(q.reshape(1, 1, -1)), Tensor(nodes[None]), params)
    assert np.max(np.abs(out.data[0] - nodes)) < 1e-6


def test_permutation_equivariance_and_controller_invariance():
    rng = np.random.default_rng(21)
    for seed in range(10):
        params, q, nodes = make_instance(seed, K=5)
        perm = rng.permutation(5)
        q_a, n_a = reason_one(q, nodes, params, 2)
        q_b, n_b = reason_one(q, nodes[perm], params, 2)
        np.testing.assert_allclose(n_b, n_a[perm], atol=1e-10)
        np.testing.assert_allclose(q_b, q_a, atol=1e-10)


def test_reason_gradcheck_small():
    # K=3 so the pairwise MLP actually receives gradient (a lone neighbor's
    # softmax is constant and grads vanish by construction).
    for B in (1, 2):
        rng = np.random.default_rng(2)
        params = init_params(graph_memory_params(4), rng, np.float64)
        q = Tensor(rng.normal(size=(B, 1, 4)))
        nodes = Tensor(rng.normal(size=(B, 3, 4)))
        probe = Tensor(rng.normal(size=(B, 3, 4)))

        def loss_fn():
            controller, nodes_out = reason_batch(q, nodes, params, 2)
            return tt.tsum(nodes_out * probe) + tt.tsum(controller * controller)

        report = gradcheck_tensors(loss_fn, flatten(params), tolerance=1e-6)
        assert report.passed, report.format()
        assert all(e.status == "ok" for e in report.entries), report.format()


# -- baseline reasoners ---------------------------------------------------------


def test_gcn_is_neighbor_mean_affine():
    rng = np.random.default_rng(31)
    params = init_params(baseline_params("gcn", 4), rng, np.float64)
    nodes = rng.normal(size=(3, 4))
    out = baseline_one("gcn", nodes, rng.normal(size=4), params)
    for k in range(3):
        neigh = (nodes.sum(axis=0) - nodes[k]) / 2.0
        ref = np.tanh(neigh @ params["w"].data + params["b"].data)
        np.testing.assert_allclose(out[k], ref, atol=1e-12)


def test_gcn_identity_weights_two_clique():
    # with identity weights and zero bias the layer output is exactly the
    # tanh of the other node of a 2-clique
    params = {"w": Tensor(np.eye(3)), "b": Tensor(np.zeros(3))}
    nodes = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = baseline_one("gcn", nodes, np.zeros(3), params)
    np.testing.assert_allclose(out, np.tanh(nodes[::-1]), atol=1e-12)


def test_gcn_single_node_sees_zero_context():
    rng = np.random.default_rng(32)
    params = init_params(baseline_params("gcn", 4), rng, np.float64)
    out = baseline_one("gcn", rng.normal(size=(1, 4)), np.zeros(4), params)
    np.testing.assert_allclose(out[0], np.tanh(params["b"].data), atol=1e-12)


def test_gcn_fusion_concatenates_controller():
    rng = np.random.default_rng(33)
    params = init_params(baseline_params("gcn_fusion", 3), rng, np.float64)
    nodes = rng.normal(size=(4, 3))
    ctrl = rng.normal(size=3)
    out = baseline_one("gcn_fusion", nodes, ctrl, params)
    ext = np.concatenate([nodes, np.tile(ctrl, (4, 1))], axis=1)
    for k in range(4):
        neigh = (ext.sum(axis=0) - ext[k]) / 3.0
        ref = np.tanh(neigh @ params["w"].data + params["b"].data)
        np.testing.assert_allclose(out[k], ref, atol=1e-12)


def test_self_attention_baseline_residual_and_simplex():
    rng = np.random.default_rng(34)
    params = init_params(baseline_params("self_attention", 4), rng, np.float64)
    nodes = rng.normal(size=(1, 5, 4))
    out = baseline_step("self_attention", Tensor(nodes), Tensor(np.zeros((1, 1, 4))), params)
    q = nodes[0] @ params["wq"].data
    k = nodes[0] @ params["wk"].data
    v = nodes[0] @ params["wv"].data
    for i in range(5):
        w = softmax_1d(q[i] @ k.T / 2.0)  # sqrt(D)=2
        np.testing.assert_allclose(out.data[0, i], nodes[0, i] + w @ v, atol=1e-10)


def test_memory_network_has_no_edges():
    # node k's update must not depend on any other node
    rng = np.random.default_rng(35)
    params = init_params(baseline_params("memory_network", 4), rng, np.float64)
    ctrl = rng.normal(size=(1, 1, 4))
    nodes = rng.normal(size=(1, 3, 4))
    out1 = baseline_step("memory_network", Tensor(nodes), Tensor(ctrl), params)
    perturbed = nodes.copy()
    perturbed[0, 1:] += 100.0
    out2 = baseline_step("memory_network", Tensor(perturbed), Tensor(ctrl), params)
    np.testing.assert_allclose(out1.data[0, 0], out2.data[0, 0], atol=1e-12)


def test_memory_network_gradcheck():
    rng = np.random.default_rng(37)
    params = init_params(baseline_params("memory_network", 4), rng, np.float64)
    q = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
    nodes = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3, 4)))

    def loss_fn():
        nodes_out = run_reasoner("memory_network", q, nodes, params, 2)
        return tt.tsum(nodes_out * probe)

    named = {**flatten(params), "controller": q, "nodes": nodes}
    report = gradcheck_tensors(loss_fn, named, tolerance=1e-6)
    assert report.passed, report.format()
    assert all(e.status == "ok" for e in report.entries), report.format()


def test_run_reasoner_dispatch():
    rng = np.random.default_rng(36)
    q = Tensor(rng.normal(size=(1, 1, 4)))
    nodes = Tensor(rng.normal(size=(1, 3, 4)))
    for kind in BASELINE_KINDS:
        params = init_params(baseline_params(kind, 4), rng, np.float64)
        nodes_out = run_reasoner(kind, q, nodes, params, 2)
        assert nodes_out.shape == nodes.shape
    with pytest.raises(ValueError, match="unknown baseline"):
        init_params(baseline_params("mamba", 4), rng, np.float64)
    gm = init_params(graph_memory_params(4), rng, np.float64)
    nodes_out = run_reasoner("graph_memory", q, nodes, gm, 1)
    np.testing.assert_array_equal(nodes_out.data, reason_batch(q, nodes, gm, 1)[1].data)


# -- leading axes ------------------------------------------------------------------


def reasoner_call(kind):
    return lambda c, n, o, p: run_reasoner(kind, c, n, p[kind], 2)


# Each layer's call on (controllers, nodes, other nodes, params of every layer).
GRAPH_LAYERS = {
    "read_batch": lambda c, n, o, p: read_batch(c, n, p["graph_memory"]),
    "write_batch": lambda c, n, o, p: write_batch(c, n, p["graph_memory"]),
    "neighbor_context": lambda c, n, o, p: neighbor_context(n, p["graph_memory"]),
    "cross_attention": lambda c, n, o, p: cross_attention(n, p["cross"]["v2s"]),
    "enhance_batch": lambda c, n, o, p: enhance_batch(n, o, p["cross"]["v2s"]),
    **{f"run_reasoner/{kind}": reasoner_call(kind) for kind in REASONER_KINDS},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("name", sorted(GRAPH_LAYERS))
def test_graph_layers_run_over_leading_axes(name, K, dtype):
    # nodes [S, T, K, D] under controllers [S, T, 1, D] are S·T independent
    # graphs: the same bytes, forward and backward, as their [S·T, K, D] flattening
    S, T, D = 2, 3, 4
    spec = {"graph_memory": graph_memory_params(D), "cross": cross_space_params(D)}
    spec.update((kind, baseline_params(kind, D)) for kind in BASELINE_KINDS)
    rng = np.random.default_rng(K)
    arrays = [rng.normal(size=(S, T, k, D)).astype(dtype) for k in (1, K, K)]

    def run(shape_of):
        params = with_drawn_biases(init_params(spec, np.random.default_rng(5), dtype), 5)
        inputs = [Tensor(a.reshape(shape_of(a)), requires_grad=True) for a in arrays]
        out = GRAPH_LAYERS[name](*inputs, params)
        if out.requires_grad:
            out.backward(np.random.default_rng(9).normal(size=out.shape).astype(dtype))
        return out, [t.grad for t in inputs + list(flatten(params).values())]

    out, grads = run(lambda a: a.shape)
    flat_out, flat_grads = run(lambda a: (S * T,) + a.shape[2:])
    assert out.shape == (S, T) + flat_out.shape[1:]
    assert out.data.tobytes() == flat_out.data.tobytes()
    for grad, flat_grad in zip(grads, flat_grads):  # C arrays: one byte order either way
        assert (grad is None) == (flat_grad is None)
        if grad is not None:
            assert grad.size == flat_grad.size and grad.tobytes() == flat_grad.tobytes()
