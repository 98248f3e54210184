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
and so on) and one [2D] bias [b | b'].  `gated_update` is the whole layer as
one tape node: it forms the [..., 2D] pre-activation pre = sum_i x_i W_i + b
with `tt.affine_sum`, mixes, and drops pre, G and tanh(C).  Its backward
rebuilds pre with the same helper, so the rebuilt map is the forward's
bytes, and turns it in place into dL/dpre:

    dL/dC'   = grad * (1 - G) * (1 - tanh(C)^2)
    dL/dG'   = grad * (state - tanh(C)) * G * (1 - G)
    dL/dstate = grad * G  (plus whatever the state gets as a term)

(C' and G' the two halves of pre), which it hands to `tt.affine_backward`
after the state's own part.

Each attention score is one tape node too, and keeps no [B, K, D] map: its
closure holds only the nodes, the controller and the weights, arrays other
nodes hold anyway, and its backward rebuilds the maps with the ops of its
forward, so the rebuilt maps are the forward's bytes.  `read_scores` gives
the read's a [B, 1, K], and the object fusion's [S, T, 1, K] in
`hierarchy.fusion_attention`; its backward rebuilds the tanh map h and turns
it in place into dL/dpre.  `pair_logits` gives the neighbour score m [B, K, K]
from the target map W1t v_k + b1, the source map W1s v_i and w2, with
_MASK_VALUE on the diagonal, whose softmax weight is then exactly 0.  It
never holds the [B, K, K, D] tanh output y either: it walks blocks of (b, k)
rows, each a few hundred KiB (`_BLOCK_BYTES`), fills one reused scratch
buffer with y = tanh(target + source) for the block and consumes it there.
The forward writes the block's logits; the backward rebuilds both maps,
recomputes each block and forms all three gradients from it while it is in
cache, with g = dL/dm (zero on the diagonal):

    dL/dtarget_k = w2 * (sum_i g_ki - sum_i g_ki y_ki^2)
    dL/dsource_i = w2 * (sum_k g_ki - sum_k g_ki y_ki^2)
    dL/dw2       = sum_{k,i} y_ki g_ki

(elementwise in D), the first two as batched [1, K] @ [K, D] products
written over the rebuilt maps' rows once no block reads them again.  Both
nodes hand their pre-activation gradients to `tt.affine_backward`, the
backward of the affine nodes they replace.

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


def gated_update(state: Tensor, terms, b: Tensor) -> Tensor:
    """G * state + (1 - G) * tanh(C) as one node, with [C | G's pre-activation]
    = pre = x1 @ W1 + x2 @ W2 + ... + b [..., 2D] for terms ((x1, W1), ...).

    The forward forms pre with `tt.affine_sum` and drops it; the node keeps
    only its operands, which other nodes and the parameters hold anyway.  The
    backward rebuilds pre with the same helper, so the rebuilt map is the
    forward's bytes, turns it in place into dL/dpre and hands that to
    `tt.affine_backward`.
    """
    terms = tuple(terms)
    pairs, b_data, state_data = tuple((x.data, w.data) for x, w in terms), b.data, state.data
    pre = tt.affine_sum(pairs, b_data)
    D = state.shape[-1]
    if pre.shape != state.shape[:-1] + (2 * D,):
        raise ValueError(f"pre shape {pre.shape} does not fit state shape {state.shape}")
    g = tt.stable_sigmoid(pre[..., D:])
    c = np.tanh(pre[..., :D], out=pre[..., :D])
    out_data = g * state_data
    mix = np.subtract(1.0, g, out=g)
    mix *= c
    out_data += mix
    parents = (state,) + sum(terms, ()) + (b,)
    if not tt.records(parents):  # off the tape: skip building the backward
        return Tensor(out_data)
    saved, state_node, b_node = tt.affine_terms(terms), state._node, b._node

    def backward(grad):
        # dL/dpre = [grad * (1 - g) * (1 - c^2) | grad * (state - c) * g * (1 - g)],
        # each product in that order, over the rebuilt pre; dL/dstate = grad * g
        # goes to the state before the terms' gradients, as it did when pre
        # was a node of its own.
        dpre = tt.affine_sum(pairs, b_data)
        dcand, dgate = dpre[..., :D], dpre[..., D:]
        g = tt.stable_sigmoid(dgate)
        c = np.tanh(dcand, out=dcand)
        one_minus_g = np.subtract(1.0, g)
        np.subtract(state_data, c, out=dgate)
        dgate *= grad
        dgate *= g
        dgate *= one_minus_g
        one_minus_g *= grad
        np.multiply(c, c, out=dcand)
        np.subtract(1.0, dcand, out=dcand)
        dcand *= one_minus_g
        del one_minus_g  # so that at most four [..., D] maps are alive at once
        if state_node is not None:
            state_node._accumulate(np.multiply(grad, g, out=g), owned=True)
        del g  # kept by the state's node, or freed before the terms' products
        tt.affine_backward(dpre, saved, b_node)

    return Tensor._result(out_data, parents, backward)


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


def _score_shapes(op: str, nodes: Tensor, v: Tensor, lead: bool = False) -> tuple:
    """The shape of nodes [B, K, D] ([..., K, D] with `lead`), then the width H of v [H, 1]."""
    ndim, form = len(nodes.shape), ("[..., K, D]" if lead else "[B, K, D]")
    if ndim < 3 or (ndim > 3 and not lead) or len(v.shape) != 2 or v.shape[1] != 1:
        raise ValueError(
            f"{op} needs nodes {form} and a [H, 1] vector, got shapes {nodes.shape}, {v.shape}"
        )
    return nodes.shape + v.shape[:1]


def _check_shapes(op: str, **shapes) -> None:
    """Raise when an operand's shape is not the wanted one; shapes maps names to (got, wanted)."""
    if any(got != want for got, want in shapes.values()):
        listed = ", ".join(f"{name} {got} (wants {want})" for name, (got, want) in shapes.items())
        raise ValueError(f"{op} shapes do not fit: {listed}")


def read_scores(
    controller: Tensor, nodes: Tensor, w1: Tensor, w2: Tensor, b: Tensor, v: Tensor
) -> Tensor:
    """a[..., 0, k] = v . tanh(q[..., 0] @ w1 + nodes[..., k] @ w2 + b) as one node, [..., 1, K].

    nodes [..., K, D]; controller q [..., 1, D], each leading axis the nodes'
    or 1; w1, w2 [D, H]; b [H]; v [H, 1].  The forward forms the [..., K, H]
    tanh map h as the affine, tanh and linear nodes it replaced did and drops
    it; the backward rebuilds h, reads dL/dv = h^T g from it, turns it in place
    into dL/dpre = (1 - h^2) * g * v and hands that to `tt.affine_backward`.
    """
    *lead, K, D, H = _score_shapes("read_scores", nodes, v, lead=True)
    lead_q = tuple(1 if c == 1 else n for c, n in zip(controller.shape, lead))
    _check_shapes(
        "read_scores",
        controller=(controller.shape, lead_q + (1, D)),
        w1=(w1.shape, (D, H)),
        w2=(w2.shape, (D, H)),
        b=(b.shape, (H,)),
    )
    q, x, wq, wx, bias, v_data = (t.data for t in (controller, nodes, w1, w2, b, v))

    def tanh_map():
        h = x @ wx
        np.add(q @ wq, h, out=h)
        h += bias
        return np.tanh(h, out=h)

    out_data = (tanh_map() @ v_data).reshape(*lead, 1, K)
    saved = tt.affine_terms(((controller, w1), (nodes, w2)))
    b_node, v_node = b._node, v._node

    def backward(g):
        gk = g.reshape(*lead, K, 1)
        dpre = tanh_map()
        if v_node is not None:
            v_node._accumulate(dpre.reshape(-1, H).T @ gk.reshape(-1, 1), owned=True)
        np.multiply(dpre, dpre, out=dpre)
        np.subtract(1.0, dpre, out=dpre)
        dpre *= gk
        dpre *= v_data[:, 0]
        tt.affine_backward(dpre, saved, b_node)

    return Tensor._result(out_data, (controller, nodes, w1, w2, b, v), backward)


def read_attention(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Read weights over each graph's nodes, [B, 1, K]; rows sum to 1."""
    p = params["read"]
    scores = read_scores(controller, nodes, p["attn_w1"], p["attn_w2"], p["attn_b"], p["attn_v"])
    return tt.softmax(scores, axis=-1)


def read_batch(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Batched read of controllers [B, 1, D] over nodes [B, K, D]; returns the new controllers."""
    p = params["read"]
    content = tt.matmul(read_attention(controller, nodes, params), nodes)
    return gated_update(controller, ((controller, p["wq"]), (content, p["wr"])), p["b"])


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


def _pair_tanh_blocks(target: np.ndarray, source: np.ndarray):
    """Each block's slices and its y = tanh(target[b, k] + source[b, i]),
    [b, k, i, :], in one scratch buffer the size of the first (largest) block."""
    B, K, D = target.shape
    target_rows, source_cols = target[:, :, None], source[:, None]
    scratch = None
    for bs, ks in _pair_blocks(B, K, K * D * target.dtype.itemsize):
        size = (bs.stop - bs.start) * (ks.stop - ks.start) * K * D
        if scratch is None:
            scratch = np.empty(size, dtype=target.dtype)
        y = scratch[:size].reshape(bs.stop - bs.start, ks.stop - ks.start, K, D)
        # A broadcast copy plus an in-place add is the same IEEE add as
        # target + source; tanh then overwrites the block.
        y[...] = source_cols[bs]
        y += target_rows[bs, ks]
        yield bs, ks, np.tanh(y, out=y)


def _pair_square_sums(g: np.ndarray, target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Return dL/dw2 = sum_{k,i} y_ki g_ki, and overwrite target with
    sum_i g_ki y_ki^2 and source with sum_k g_ki y_ki^2, block by block.

    Once a block has read its target rows, and a graph's last run of k its
    source rows, no later block reads them, so their sums go in their place.
    """
    K, H = target.shape[1:]
    g_target = g[:, :, None, :]
    g_source = np.swapaxes(g, 1, 2)[:, :, None, :]
    dw2 = np.zeros((H, 1), dtype=target.dtype)
    for bs, ks, y in _pair_tanh_blocks(target, source):
        dw2 += y.reshape(-1, H).T @ g[bs, ks].reshape(-1, 1)
        y *= y
        np.matmul(g_target[bs, ks], y, out=target[bs, ks, None])
        part = g_source[bs, :, :, ks] @ np.swapaxes(y, 1, 2)
        run = part if ks.start == 0 else np.add(run, part, out=run)
        if ks.stop == K:
            source[bs] = run[:, :, 0]
    return dw2


def pair_logits(
    nodes: Tensor, w1_target: Tensor, b1: Tensor, w1_source: Tensor, w2: Tensor
) -> Tensor:
    """m[b, k, i] = w2 . tanh(target[b, k] + source[b, i]) as one node, [B, K, K],
    with _MASK_VALUE on the diagonal k = i.

    nodes [B, K, D], w1_target and w1_source [D, H], b1 [H], w2 [H, 1]; the
    maps are target = nodes @ w1_target + b1 and source = nodes @ w1_source,
    formed as the linear nodes they replace formed them.  Forward and
    backward each hold one block of y = tanh(...) at a time, never the
    [B, K, K, H] tensor, and the node keeps neither map: the backward rebuilds
    both with the same ops, recomputes y block by block and forms the
    gradients of the module docstring, so it saves nothing and can run twice.
    """
    B, K, D, H = _score_shapes("pair_logits", nodes, w2)
    _check_shapes(
        "pair_logits",
        w1_target=(w1_target.shape, (D, H)),
        b1=(b1.shape, (H,)),
        w1_source=(w1_source.shape, (D, H)),
    )
    x, wt, bt, ws, w2_data = (t.data for t in (nodes, w1_target, b1, w1_source, w2))

    def maps():
        target = x @ wt
        target += bt
        return target, x @ ws

    # Each [K, H] @ [H, 1] product is the one the whole stacked y @ w2 makes,
    # so the logits are the same bytes however the rows are blocked.
    out_data = np.empty((B, K, K, 1), dtype=np.result_type(x, wt, w2_data))
    for bs, ks, y in _pair_tanh_blocks(*maps()):
        np.matmul(y, w2_data, out=out_data[bs, ks])
    out_data = out_data.reshape(B, K, K)
    out_data.reshape(B, K * K)[:, :: K + 1] = _MASK_VALUE
    target_terms = tt.affine_terms(((nodes, w1_target),))
    source_terms = tt.affine_terms(((nodes, w1_source),))
    b1_node, w2_node = b1._node, w2._node

    def backward(g):
        g = np.array(g, order="C")
        g.reshape(B, K * K)[:, :: K + 1] = 0.0  # the masked diagonal reads no input
        target, source = maps()
        dw2 = _pair_square_sums(g, target, source)
        w = w2_data[:, 0]
        for gy2, gsum in ((target, g.sum(axis=2)), (source, g.sum(axis=1))):
            np.subtract(gsum[:, :, None], gy2, out=gy2)
            gy2 *= w
        tt.affine_backward(target, target_terms, b1_node)
        del target  # free one map before the source's products
        tt.affine_backward(source, source_terms)
        if w2_node is not None:
            w2_node._accumulate(dw2, owned=True)

    return Tensor._result(out_data, (nodes, w1_target, b1, w1_source, w2), backward)


def neighbor_attention(nodes: Tensor, params: dict) -> Tensor:
    """Each node's weights over the other nodes, [B, K, K]; zero diagonal, rows sum to 1."""
    p = params["write"]
    if nodes.shape[1] == 1:
        raise ValueError("a lone node has no neighbours to attend to")
    logits = pair_logits(nodes, p["mlp_w1_target"], p["mlp_b1"], p["mlp_w1_source"], p["mlp_w2"])
    return tt.softmax(logits, axis=2)


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
    terms = ((nodes, p["wv"]), (controller, p["wq"]), (context, p["wc"]))
    return gated_update(nodes, terms, p["b"])


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
        terms = ((nodes, params["wv"]), (controller, params["wq"]))
        return gated_update(nodes, terms, params["b"])
    raise ValueError(f"unknown baseline reasoner kind: {kind!r}")


def run_reasoner(kind: str, controller: Tensor, nodes: Tensor, params: dict, num_steps: int):
    """Dispatch on reasoner kind; returns the nodes after `num_steps` layers."""
    if kind == "graph_memory":
        return reason_batch(controller, nodes, params, num_steps)[1]
    for _ in range(num_steps):
        nodes = baseline_step(kind, nodes, controller, params)
    return nodes
