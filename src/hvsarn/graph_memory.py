"""Gated graph-memory reasoning over a fully-connected node set.

One reasoning step is a read followed by a write.  The read controller
scores every node against its state Q, pools a content vector, and gates
its own update:

    a_k   = w . tanh(W1a Q + W2a v_k + ba)
    r     = sum_k softmax(a)_k * v_k
    Q'    = tanh(Wq Q + Wr r + b)
    G     = sigmoid(Wq' Q + Wr' r + b')
    Q_new = G * Q + (1 - G) * Q'

The write controller then refreshes every node from the pre-step snapshot
(synchronous update), mixing in the other nodes' context and the updated
controller:

    c_k   = sum_{i != k} softmax_i(m_ki) * v_i      (c = 0 if K = 1)
    m_ki  = w2 . tanh(W1t v_k + W1s v_i + b1)       (an output bias would cancel)
    v'_k  = tanh(Wv v_k + Uq Q_new + Hc c_k + b)
    Z_k   = sigmoid(Wv' v_k + Uq' Q_new + Hc' c_k + b')
    v_new = Z_k * v_k + (1 - Z_k) * v'_k

Each gated layer (the read's, the write's, the memory_network baseline's)
stores one [D, 2D] weight [candidate | gate] per input ([Wq | Wq'] as `wq`,
and so on) and one [2D] bias [b | b'].  Each input takes one projection,
and `gated_update` turns their [..., 2D] sum into the new state as one
tape node with a hand-written backward.

The pair score m [B, K, K] is one tape node too, `pair_logits`, over the
target map W1t v_k + b1, the source map W1s v_i and w2.  It never holds the
[B, K, K, D] tanh output y: it walks blocks of (b, k) rows, each a few
hundred KiB (`_BLOCK_BYTES`), fills one reused scratch buffer with
y = tanh(target + source) for the block and consumes it there.  The forward
writes the block's logits; the backward keeps nothing from the forward,
recomputes each block and forms all three gradients from it while it is in
cache, with g = dL/dm:

    dL/dtarget_k = w2 * (sum_i g_ki - sum_i g_ki y_ki^2)
    dL/dsource_i = w2 * (sum_k g_ki - sum_k g_ki y_ki^2)
    dL/dw2       = sum_{k,i} y_ki g_ki

(elementwise in D), the first two as batched [1, K] @ [K, D] products.

Everything is batched over independent graphs: controllers [B, 1, D],
nodes [B, K, D].  For a group of S samples of T frames, the object level
runs B = S·T graphs (one per frame, each controlled by its sample's
sentence) and the frame level B = S graphs whose nodes are frames.  Each
controller is a one-row matrix, so BLAS takes the same path for a graph
alone as in a batch, and a graph's result does not depend on the others.
Each layer returns one tensor, the one the next layer reads; the weights
come from `read_attention` and `neighbor_attention`, which the layers call.

`baseline_step` provides the drop-in ablation reasoners (plain graph
convolution, graph convolution fused with the controller, self-attention,
and an edge-free key-value memory update); they update nodes only and
leave the controller untouched.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .data import REASONER_KINDS
from .tensor import Tensor

_MASK_VALUE = -1e9  # exp() underflows to exactly 0, so diagonal weights vanish


def _gated_params(inputs: tuple[str, ...], dim: int) -> list:
    """One [D, 2D] weight [candidate | gate] per input, candidates drawn first, and a [2D] bias."""
    return [(name, (dim, dim)) for name in 2 * inputs] + [("b", (2 * dim,))]


def gated_update(state: Tensor, pre: Tensor) -> Tensor:
    """G * state + (1 - G) * tanh(C), with [C | G's pre-activation] = pre [..., 2D], as one node."""
    D = state.shape[-1]
    if pre.shape != state.shape[:-1] + (2 * D,):
        raise ValueError(f"pre shape {pre.shape} does not fit state shape {state.shape}")
    g = tt.stable_sigmoid(pre.data[..., D:])
    c = np.tanh(pre.data[..., :D])
    out_data = g * state.data + (1.0 - g) * c

    def backward(grad):
        if state.requires_grad:
            state._accumulate(grad * g)
        if pre.requires_grad:
            dpre = np.empty_like(pre.data)
            dpre[..., :D] = grad * (1.0 - g) * (1.0 - c * c)
            dpre[..., D:] = grad * (state.data - c) * g * (1.0 - g)
            pre._accumulate(dpre)

    return Tensor._result(out_data, (state, pre), backward)


def graph_memory_params(dim: int) -> dict:
    d = dim
    read = [("attn_w1", (d, d)), ("attn_w2", (d, d)), ("attn_b", (d,)), ("attn_v", (d, 1))]
    write = [
        (("mlp_w1_target", "mlp_w1_source"), (2 * d, d)),
        ("mlp_b1", (d,)),
        ("mlp_w2", (d, 1)),
    ]
    return {
        "read": read + _gated_params(("wq", "wr"), d),
        "write": write + _gated_params(("wv", "wq", "wc"), d),
    }


def read_attention(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Read weights over each graph's nodes, [B, 1, K]; rows sum to 1."""
    p = params["read"]
    B, K, _ = nodes.shape
    h = tt.tanh(tt.linear(controller, p["attn_w1"]) + tt.linear(nodes, p["attn_w2"]) + p["attn_b"])
    return tt.softmax(tt.reshape(tt.linear(h, p["attn_v"]), (B, 1, K)), axis=2)


def read_batch(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Batched read of controllers [B, 1, D] over nodes [B, K, D]; returns the new controllers."""
    p = params["read"]
    content = tt.matmul(read_attention(controller, nodes, params), nodes)
    return gated_update(
        controller, tt.linear(controller, p["wq"]) + tt.linear(content, p["wr"]) + p["b"]
    )


# Bytes of tanh output one block of pair_logits holds: a few hundred KiB
# stays in a core's L2 while the block is filled, reduced and reused.
_BLOCK_BYTES = 1 << 18


def _pair_blocks(B: int, K: int, row_bytes: int):
    """(b, k) slices covering [B, K] in blocks of at most _BLOCK_BYTES of
    [K, D] rows (one row when a row alone is larger): whole graphs when a
    graph fits, else a run of k in one graph."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    nb, nk = max(1, rows // K), min(K, rows)
    for b0 in range(0, B, nb):
        for k0 in range(0, K, nk):
            yield slice(b0, min(b0 + nb, B)), slice(k0, min(k0 + nk, K))


def pair_logits(target: Tensor, source: Tensor, w2: Tensor) -> Tensor:
    """m[b, k, i] = w2 . tanh(target[b, k] + source[b, i]) as one node, [B, K, K].

    target [B, K, D], source [B, K, D], w2 [D, 1]; the node broadcasts
    them as [B, K, 1, D] and [B, 1, K, D] views.  Forward and
    backward each hold one block of y = tanh(...) at a time, never the
    [B, K, K, D] tensor; the backward recomputes y block by block, so it
    saves nothing and can run twice.  With g = dL/dm,
    dL/dtarget[b, k] = w2 * (sum_i g[b,k,i] - sum_i g[b,k,i] y[b,k,i]^2), and
    the source likewise with k and i swapped.
    """
    if len(target.shape) != 3 or source.shape != target.shape or w2.shape != (target.shape[2], 1):
        raise ValueError(
            f"pair_logits shapes do not fit: target {target.shape}, "
            f"source {source.shape}, w2 {w2.shape}"
        )
    B, K, D = target.shape
    dtype = np.result_type(target.data, source.data)
    target_rows, source_cols = target.data[:, :, None], source.data[:, None]

    def blocks():
        """Each block's slices and its y, in one scratch buffer the size of
        the first (largest) block."""
        scratch = None
        for bs, ks in _pair_blocks(B, K, K * D * dtype.itemsize):
            size = (bs.stop - bs.start) * (ks.stop - ks.start) * K * D
            if scratch is None:
                scratch = np.empty(size, dtype=dtype)
            y = scratch[:size].reshape(bs.stop - bs.start, ks.stop - ks.start, K, D)
            # A broadcast copy plus an in-place add is the same IEEE add as
            # target + source; tanh then overwrites the block.
            y[...] = source_cols[bs]
            y += target_rows[bs, ks]
            yield bs, ks, np.tanh(y, out=y)

    # Each [K, D] @ [D, 1] product is the one the whole stacked y @ w2 makes,
    # so the logits are the same bytes however the rows are blocked.
    out_data = np.empty((B, K, K, 1), dtype=np.result_type(dtype, w2.data))
    for bs, ks, y in blocks():
        np.matmul(y, w2.data, out=out_data[bs, ks])

    def backward(g):
        dw2 = np.zeros((D, 1), dtype=dtype)
        gy2_target = np.empty((B, K, 1, D), dtype=dtype)
        gy2_source = np.empty((B, K, 1, D), dtype=dtype)  # [b, i, 0, :]
        g_target = g[:, :, None, :]
        g_source = np.swapaxes(g, 1, 2)[:, :, None, :]
        for bs, ks, y in blocks():
            dw2 += y.reshape(-1, D).T @ g[bs, ks].reshape(-1, 1)
            y *= y
            np.matmul(g_target[bs, ks], y, out=gy2_target[bs, ks])
            # The first run of k writes the source sums; later runs add to them.
            if ks.start == 0:
                np.matmul(g_source[bs, :, :, ks], np.swapaxes(y, 1, 2), out=gy2_source[bs])
            else:
                gy2_source[bs] += g_source[bs, :, :, ks] @ np.swapaxes(y, 1, 2)
        w = w2.data[:, 0]
        for gy2, gsum in ((gy2_target, g.sum(axis=2)), (gy2_source, g.sum(axis=1))):
            np.subtract(gsum[:, :, None, None], gy2, out=gy2)
            gy2 *= w
        if target.requires_grad:
            target._accumulate(gy2_target.reshape(B, K, D))
        if source.requires_grad:
            source._accumulate(gy2_source.reshape(B, K, D))
        if w2.requires_grad:
            w2._accumulate(dw2)

    return Tensor._result(out_data.reshape(B, K, K), (target, source, w2), backward)


def neighbor_attention(nodes: Tensor, params: dict) -> Tensor:
    """Each node's weights over the other nodes, [B, K, K]; zero diagonal, rows sum to 1."""
    p = params["write"]
    K = nodes.shape[1]
    if K == 1:
        raise ValueError("a lone node has no neighbours to attend to")
    # Two [B,K,D] maps, broadcast-added, instead of a [B,K,K,2D] concat and matmul.
    target = tt.linear(nodes, p["mlp_w1_target"], p["mlp_b1"])
    source = tt.linear(nodes, p["mlp_w1_source"])
    logits = pair_logits(target, source, p["mlp_w2"])
    mask = np.full((K, K), 0.0, dtype=nodes.dtype)
    np.fill_diagonal(mask, _MASK_VALUE)
    return tt.softmax(logits + Tensor(mask), axis=2)


def neighbor_context(nodes: Tensor, params: dict) -> Tensor:
    """Attention-pooled neighbours of every node, [B, K, D]; zero for a lone node."""
    B, K, D = nodes.shape
    if K == 1:
        return Tensor(np.zeros((B, 1, D), dtype=nodes.dtype))
    return tt.matmul(neighbor_attention(nodes, params), nodes)


def write_batch(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Batched write of nodes [B, K, D] under controllers [B, 1, D]; returns the new nodes."""
    p = params["write"]
    context = neighbor_context(nodes, params)
    pre = tt.linear(nodes, p["wv"]) + tt.linear(controller, p["wq"]) + tt.linear(context, p["wc"])
    return gated_update(nodes, pre + p["b"])


def reason_batch(controller: Tensor, nodes: Tensor, params: dict, num_steps: int):
    """Alternate read/write `num_steps` times; returns (controller, nodes)."""
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    for _ in range(num_steps):
        controller = read_batch(controller, nodes, params)
        nodes = write_batch(controller, nodes, params)
    return controller, nodes


# -- ablation reasoners --------------------------------------------------------

BASELINE_KINDS = tuple(k for k in REASONER_KINDS if k != "graph_memory")


def baseline_params(kind: str, dim: int) -> list:
    d = dim
    if kind == "gcn":
        return [("w", (d, d)), ("b", (d,))]
    if kind == "gcn_fusion":
        return [("w", (2 * d, d)), ("b", (d,))]
    if kind == "self_attention":
        return [("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d))]
    if kind == "memory_network":
        return _gated_params(("wv", "wq"), d)
    raise ValueError(f"unknown baseline reasoner kind: {kind!r}")


def _neighbor_mean(nodes: Tensor) -> Tensor:
    B, K, D = nodes.shape
    if K == 1:
        return Tensor(np.zeros((B, 1, D), dtype=nodes.dtype))
    total = tt.tsum(nodes, axis=1, keepdims=True)
    return (total - nodes) * (1.0 / (K - 1))


def baseline_step(kind: str, nodes: Tensor, controller: Tensor, params: dict) -> Tensor:
    """One layer of a drop-in ablation reasoner; returns the new nodes.

    gcn            mean over neighbors, then an affine map and tanh.
    gcn_fusion     gcn over nodes concatenated with the (broadcast) controller.
    self_attention residual single-head attention over the node set.
    memory_network per-node gated update from the controller; no edges.
    """
    B, K, D = nodes.shape
    if kind == "gcn":
        neigh = _neighbor_mean(nodes)
        return tt.tanh(tt.linear(neigh, params["w"], params["b"]))
    if kind == "gcn_fusion":
        ext = tt.concat([nodes, tt.broadcast_to(controller, (B, K, D))], axis=-1)
        neigh = _neighbor_mean(ext)
        return tt.tanh(tt.linear(neigh, params["w"], params["b"]))
    if kind == "self_attention":
        q = tt.linear(nodes, params["wq"])
        k = tt.linear(nodes, params["wk"])
        v = tt.linear(nodes, params["wv"])
        scores = tt.matmul(q, tt.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(D))
        attn = tt.softmax(scores, axis=-1)
        return nodes + tt.matmul(attn, v)
    if kind == "memory_network":
        pre = tt.linear(nodes, params["wv"]) + tt.linear(controller, params["wq"]) + params["b"]
        return gated_update(nodes, pre)
    raise ValueError(f"unknown baseline reasoner kind: {kind!r}")


def run_reasoner(kind: str, controller: Tensor, nodes: Tensor, params: dict, num_steps: int):
    """Dispatch on reasoner kind; returns the nodes after `num_steps` layers."""
    if kind == "graph_memory":
        return reason_batch(controller, nodes, params, num_steps)[1]
    for _ in range(num_steps):
        nodes = baseline_step(kind, nodes, controller, params)
    return nodes
