"""Read/write controllers against straight-line oracles, plus the invariants
the reasoning step is supposed to keep: simplex attention, strict gates,
permutation equivariance, saturation identity, and step-count contracts.
"""

import tracemalloc

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.graph_memory import (
    BASELINE_KINDS,
    _BLOCK_BYTES,
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


def make_instance(seed, K=4, D=6):
    rng = np.random.default_rng(seed)
    params = init_params(graph_memory_params(D), rng, np.float64)
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
    params = init_params(graph_memory_params(D), rng, np.float64)
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


def composed_gated_update(state, pre):
    D = state.shape[-1]
    g = Tensor(tt.stable_sigmoid(pre.data[..., D:]))
    return g * state + (1.0 - g) * tt.tanh(pre[..., :D])


def test_gated_update_fd_into_every_parent():
    rng = np.random.default_rng(13)
    probe = Tensor(rng.normal(size=(2, 3, 4)))  # a non-uniform upstream gradient
    fd_check(
        lambda s, pre: gated_update(s, pre) * probe,
        rng.normal(size=(2, 3, 4)),
        rng.normal(size=(2, 3, 8)),
    )


def test_gated_update_forward_bytes_match_composed_ops():
    rng = np.random.default_rng(8)
    state = Tensor(rng.normal(scale=3.0, size=(4, 5, 8)).astype(np.float32))
    pre = Tensor(rng.normal(scale=3.0, size=(4, 5, 16)).astype(np.float32))
    fused = gated_update(state, pre).data
    assert fused.dtype == np.float32
    assert fused.tobytes() == composed_gated_update(state, pre).data.tobytes()


def test_gated_update_rejects_shape_mismatch():
    for pre_shape in [(1, 6), (2, 3), (2, 5)]:
        with pytest.raises(ValueError, match="shape"):
            gated_update(Tensor(np.zeros((2, 3))), Tensor(np.zeros(pre_shape)))


def test_pair_logits_fd_into_every_parent():
    rng = np.random.default_rng(21)
    B, K, D = 2, 4, 3
    probe = Tensor(rng.normal(size=(B, K, K)))  # a non-uniform upstream gradient
    fd_check(
        lambda t, s, w2: pair_logits(t, s, w2) * probe,
        rng.normal(size=(B, K, D)),
        rng.normal(size=(B, K, D)),
        rng.normal(size=(D, 1)),
    )


def test_pair_logits_forward_bytes_match_composed_ops():
    rng = np.random.default_rng(5)
    B, K, D = 3, 7, 8
    target = rng.normal(scale=2.0, size=(B, K, D)).astype(np.float32)
    source = rng.normal(scale=2.0, size=(B, K, D)).astype(np.float32)
    w2 = rng.normal(size=(D, 1)).astype(np.float32)
    fused = pair_logits(Tensor(target), Tensor(source), Tensor(w2)).data
    composed = (np.tanh(np.add(target[:, :, None], source[:, None])) @ w2).reshape(B, K, K)
    assert fused.dtype == np.float32
    assert fused.tobytes() == composed.tobytes()


def test_pair_logits_rejects_shape_mismatch():
    B, K, D = 2, 3, 4
    fits = {"t": (B, K, D), "s": (B, K, D), "w": (D, 1)}
    bad_shapes = [
        ("t", (B, K, 1, D)),
        ("t", (B, K, D + 1)),
        ("s", (B, K + 1, D)),
        ("s", (B + 1, K, D)),
        ("w", (D, 2)),
        ("w", (D + 1, 1)),
    ]
    for name, bad in bad_shapes:
        shapes = dict(fits, **{name: bad})
        with pytest.raises(ValueError, match="shape"):
            pair_logits(*(Tensor(np.zeros(shapes[k])) for k in ("t", "s", "w")))


def pair_operands(rng, B, K, D, dtype):
    """target, source, w2 and an upstream gradient for pair_logits, as arrays."""
    return (
        rng.normal(scale=2.0, size=(B, K, D)).astype(dtype),
        rng.normal(scale=2.0, size=(B, K, D)).astype(dtype),
        rng.normal(size=(D, 1)).astype(dtype),
        rng.normal(size=(B, K, K)).astype(dtype),
    )


def test_pair_logits_backward_is_pure():
    # The backward squares each recomputed block in place; it saves nothing
    # the squaring could change, so a second call adds the same amount.
    target, source, w2, g = pair_operands(np.random.default_rng(6), 3, 5, 4, np.float64)
    parents = [Tensor(a, requires_grad=True) for a in (target, source, w2)]
    out = pair_logits(*parents)
    out._backward(g)
    first = [p.grad.copy() for p in parents]
    out._backward(g)
    for p, once in zip(parents, first):
        assert (p.grad - once).tobytes() == once.tobytes()


def test_pair_logits_holds_no_pair_tensor():
    # At frame level y would be [S, T, T, D]; the node holds one block of it.
    B, K, D = 8, 128, 32
    full = B * K * K * D * 4
    target, source, w2, g = pair_operands(np.random.default_rng(7), B, K, D, np.float32)
    parents = [Tensor(a, requires_grad=True) for a in (target, source, w2)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = pair_logits(*parents)
        held = tracemalloc.get_traced_memory()[0] - base
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held < full / 8, held / full
    assert peak < full / 4, peak / full


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
        target, source, w2, g = pair_operands(np.random.default_rng(K), B, K, D, dtype)
        if dtype == np.float32:
            fused = pair_logits(Tensor(target), Tensor(source), Tensor(w2)).data
            composed = (np.tanh(np.add(target[:, :, None], source[:, None])) @ w2).reshape(B, K, K)
            assert fused.tobytes() == composed.tobytes()
            continue
        fused = [Tensor(a, requires_grad=True) for a in (target, source, w2)]
        pair_logits(*fused).backward(g)
        chain = [Tensor(a, requires_grad=True) for a in (target, source, w2)]
        pairs = tt.add(tt.reshape(chain[0], (B, K, 1, D)), tt.reshape(chain[1], (B, 1, K, D)))
        tt.matmul(tt.tanh(pairs), chain[2]).backward(g[..., None])
        for a, b in zip(fused, chain):
            assert np.abs(a.grad - b.grad).max() <= 1e-13 * np.abs(b.grad).max()


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
