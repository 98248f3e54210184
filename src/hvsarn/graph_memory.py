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

Every attention score is one tape node, `pair_logits`: the additive score
m[..., k, i] = v . tanh(t_k Wt + b + s_i Ws) of targets t [..., Kt, D]
against sources s [..., Ks, D].  The read scores its controller (Kt = 1)
against the nodes, the object fusion in `hierarchy.fusion_attention` a
sentence row against each frame's objects, and the write each node against
the others, with _MASK_VALUE on the diagonal, whose softmax weight is then
exactly 0.  The node keeps no map: its closure holds only operands that other
nodes and the parameters hold anyway.  Nor does it ever hold the
[..., Kt, Ks, H] tanh output y: it flattens the leading axes to B graphs and
walks blocks of (b, k) rows, each a few hundred KiB (`_BLOCK_BYTES`), fills
one reused scratch buffer with y = tanh(target + source) for the block and
consumes it there.  The forward writes the block's logits; the backward
rebuilds the maps target = t Wt + b and source = s Ws with the forward's
ops, recomputes each block and forms all three gradients from it while it is
in cache, with g = dL/dm (zero on a masked diagonal):

    dL/dtarget_k = v * (sum_i g_ki - sum_i g_ki y_ki^2)
    dL/dsource_i = v * (sum_k g_ki - sum_k g_ki y_ki^2)
    dL/dv        = sum_{k,i} y_ki g_ki

(elementwise in H), the sums as batched matrix products (plain products
over a single target row) written over the rebuilt maps' rows once no block
reads them again, and hands both maps' gradients to `tt.affine_backward`.

Every layer reads the last two axes as one graph and every leading axis as
independent graphs: nodes [..., K, D] under controllers [..., 1, D].  For a
group of S samples of T frames, the object level passes its nodes
[S, T, K, D] as they are, one graph per frame controlled by its sample's
sentence, and the frame level its frames [S, T, D], one graph per video.
Each controller is a one-row matrix, so BLAS takes the same path for a graph
alone as in a batch, and a graph's result does not depend on the others, nor
on how many leading axes hold them.  Each layer returns one tensor, the one
the next layer reads; the weights come from `read_attention` and
`neighbor_attention`, which the layers call.

`baseline_step` provides the drop-in ablation reasoners (plain graph
convolution, graph convolution fused with the controller, self-attention,
and an edge-free key-value memory update); they update nodes only and
leave the controller untouched.
"""

from __future__ import annotations

import math

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


# Bytes of tanh output one block of pair_logits holds: a few hundred KiB
# stays in a core's L2 while the block is filled, reduced and reused.
_BLOCK_BYTES = 1 << 18


def _pair_blocks(B: int, K: int, row_bytes: int):
    """(b, k) slices covering [B, K] target rows in blocks of at most
    _BLOCK_BYTES of their [Ks, H] rows of y (one row when a row alone is
    larger): whole graphs when a graph fits, else a run of k in one graph."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    nb, nk = max(1, rows // K), min(K, rows)
    for b0 in range(0, B, nb):
        for k0 in range(0, K, nk):
            yield slice(b0, min(b0 + nb, B)), slice(k0, min(k0 + nk, K))


def _pair_tanh_blocks(target: np.ndarray, source: np.ndarray):
    """Each block's slices and its y = tanh(target[b, k] + source[b, i]),
    [b, k, i, :], in one scratch buffer the size of the first (largest) block."""
    (B, Kt, H), Ks = target.shape, source.shape[1]
    target_rows, source_cols = target[:, :, None], source[:, None]
    scratch = None
    for bs, ks in _pair_blocks(B, Kt, Ks * H * target.dtype.itemsize):
        size = (bs.stop - bs.start) * (ks.stop - ks.start) * Ks * H
        if scratch is None:
            scratch = np.empty(size, dtype=target.dtype)
        y = scratch[:size].reshape(bs.stop - bs.start, ks.stop - ks.start, Ks, H)
        # A broadcast copy plus an in-place add is the same IEEE add as
        # target + source; tanh then overwrites the block.
        y[...] = source_cols[bs]
        y += target_rows[bs, ks]
        yield bs, ks, np.tanh(y, out=y)


def _pair_square_sums(g: np.ndarray, target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Return dL/dv = sum_{k,i} y_ki g_ki, and overwrite target with
    sum_i g_ki y_ki^2 and source with sum_k g_ki y_ki^2, block by block.

    Once a block has read its target rows, and a graph's last run of k its
    source rows, no later block reads them, so their sums go in their place.
    """
    Kt, H = target.shape[1:]
    g_target = g[:, :, None, :]
    g_source = np.swapaxes(g, 1, 2)[:, :, None, :]
    dv = np.zeros((H, 1), dtype=target.dtype)
    for bs, ks, y in _pair_tanh_blocks(target, source):
        dv += y.reshape(-1, H).T @ g[bs, ks].reshape(-1, 1)
        y *= y
        np.matmul(g_target[bs, ks], y, out=target[bs, ks, None])
        if Kt == 1:  # each source sum has one term: a product, not 1 x 1 matmuls
            np.multiply(g_source[bs], np.swapaxes(y, 1, 2), out=source[bs, :, None])
            continue
        part = g_source[bs, :, :, ks] @ np.swapaxes(y, 1, 2)
        run = part if ks.start == 0 else np.add(run, part, out=run)
        if ks.stop == Kt:
            source[bs] = run[:, :, 0]
    return dv


def _pair_shapes(operands: tuple, mask_self: bool) -> tuple:
    """The leading axes, Kt, Ks and H of pair_logits' operands; raises,
    naming every operand's shape, unless they fit."""
    t, s, wt, b, ws, v = shapes = [x.shape for x in operands]
    D, H = (s[-1] if s else 0), (v[0] if v else 0)
    if not (
        len(s) >= 3
        and len(t) == len(s)
        and t[-1] == D
        and (t[:-2] == s[:-2] or all(n in (1, m) for n, m in zip(t[:-2], s[:-2])))
        and wt == ws == (D, H)
        and (b, v) == ((H,), (H, 1))
        and (t[-2] == s[-2] or not mask_self)
    ):
        names = ("targets", "sources", "w_target", "b", "w_source", "v")
        raise ValueError(
            "pair_logits needs targets [..., Kt, D], each leading axis the sources' or 1, "
            "sources [..., Ks, D], w_target and w_source [D, H], b [H] and v [H, 1]"
            f"{', and Kt = Ks to mask self-pairs' if mask_self else ''}; got shapes "
            + ", ".join(f"{n} {shape}" for n, shape in zip(names, shapes))
        )
    return s[:-2], t[-2], s[-2], H


def pair_logits(
    targets: Tensor,
    sources: Tensor,
    w_target: Tensor,
    b: Tensor,
    w_source: Tensor,
    v: Tensor,
    mask_self: bool = False,
) -> Tensor:
    """m[..., k, i] = v . tanh(targets_k @ w_target + b + sources_i @ w_source)
    as one node, [..., Kt, Ks]; with `mask_self`, _MASK_VALUE on the diagonal.

    sources [..., Ks, D]; targets [..., Kt, D], each leading axis the sources'
    or 1; w_target and w_source [D, H]; b [H]; v [H, 1].  The leading axes
    flatten to B graphs, and a target map shared along an axis is copied out
    to [B, Kt, H]; `tt.affine_backward` sums its gradient back.  The node
    saves nothing, so its backward (module docstring) can run twice.
    """
    parents = (targets, sources, w_target, b, w_source, v)
    lead, Kt, Ks, H = _pair_shapes(parents, mask_self)
    B = math.prod(lead)
    t_data, s_data, wt, bt, ws, v_data = [x.data for x in parents]

    def maps():
        target = t_data @ wt
        target += bt
        if target.shape[:-2] != lead:  # a writable copy per graph
            target = np.broadcast_to(target, lead + (Kt, H)).copy()
        return target.reshape(B, Kt, H), (s_data @ ws).reshape(B, Ks, H)

    # Each [Ks, H] @ [H, 1] product is the one the whole stacked y @ v makes,
    # so the logits are the same bytes however the rows are blocked.
    out_data = np.empty((B, Kt, Ks, 1), dtype=np.result_type(t_data, wt, v_data))
    for bs, ks, y in _pair_tanh_blocks(*maps()):
        np.matmul(y, v_data, out=out_data[bs, ks])
    out_data = out_data.reshape(lead + (Kt, Ks))
    if mask_self:
        out_data.reshape(B, Kt * Ks)[:, :: Ks + 1] = _MASK_VALUE
    if not tt.records(parents):  # off the tape: skip building the backward
        return Tensor(out_data)
    target_terms = tt.affine_terms(((targets, w_target),))
    source_terms = tt.affine_terms(((sources, w_source),))
    b_node, v_node = b._node, v._node

    def backward(g):
        g = np.array(g, order="C").reshape(B, Kt, Ks)
        if mask_self:
            g.reshape(B, Kt * Ks)[:, :: Ks + 1] = 0.0  # the masked diagonal reads no input
        target, source = maps()
        dv = _pair_square_sums(g, target, source)
        w = v_data[:, 0]
        for gy2, gsum in ((target, g.sum(axis=2)), (source, g.sum(axis=1))):
            np.subtract(gsum[:, :, None], gy2, out=gy2)
            gy2 *= w
        tt.affine_backward(target.reshape(lead + (Kt, H)), target_terms, b_node)
        del target  # free one map before the source's products
        tt.affine_backward(source.reshape(lead + (Ks, H)), source_terms)
        if v_node is not None:
            v_node._accumulate(dv, owned=True)

    return Tensor._result(out_data, parents, backward)


def read_attention(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Read weights over each graph's nodes, [..., 1, K]; rows sum to 1."""
    p = params["read"]
    scores = pair_logits(controller, nodes, p["attn_w1"], p["attn_b"], p["attn_w2"], p["attn_v"])
    return tt.softmax(scores, axis=-1)


def read_batch(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Batched read of controllers [..., 1, D] over nodes [..., K, D]; returns the new controllers."""
    p = params["read"]
    content = tt.matmul(read_attention(controller, nodes, params), nodes)
    return gated_update(controller, ((controller, p["wq"]), (content, p["wr"])), p["b"])


def neighbor_attention(nodes: Tensor, params: dict) -> Tensor:
    """Each node's weights over the other nodes, [..., K, K]; zero diagonal, rows sum to 1."""
    p = params["write"]
    if nodes.shape[-2] == 1:
        raise ValueError("a lone node has no neighbours to attend to")
    weights = (p[name] for name in ("mlp_w1_target", "mlp_b1", "mlp_w1_source", "mlp_w2"))
    return tt.softmax(pair_logits(nodes, nodes, *weights, mask_self=True), axis=-1)


def neighbor_context(nodes: Tensor, params: dict) -> Tensor:
    """Attention-pooled neighbours of every node, [..., K, D]; zero for a lone node."""
    if nodes.shape[-2] == 1:
        return Tensor(np.zeros(nodes.shape, dtype=nodes.dtype))
    return tt.matmul(neighbor_attention(nodes, params), nodes)


def write_batch(controller: Tensor, nodes: Tensor, params: dict) -> Tensor:
    """Batched write of nodes [..., K, D] under controllers [..., 1, D]; returns the new nodes."""
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
    K = nodes.shape[-2]
    if K == 1:
        return Tensor(np.zeros(nodes.shape, dtype=nodes.dtype))
    total = tt.tsum(nodes, axis=-2, keepdims=True)
    return (total - nodes) * (1.0 / (K - 1))


def baseline_step(kind: str, nodes: Tensor, controller: Tensor, params: dict) -> Tensor:
    """One layer of a drop-in ablation reasoner; returns the new nodes.

    gcn            mean over neighbors, then an affine map and tanh.
    gcn_fusion     gcn over nodes concatenated with the (broadcast) controller.
    self_attention residual single-head attention over the node set.
    memory_network per-node gated update from the controller; no edges.
    """
    if kind == "gcn":
        neigh = _neighbor_mean(nodes)
        return tt.tanh(tt.linear(neigh, params["w"], params["b"]))
    if kind == "gcn_fusion":
        ext = tt.concat([nodes, tt.broadcast_to(controller, nodes.shape)], axis=-1)
        neigh = _neighbor_mean(ext)
        return tt.tanh(tt.linear(neigh, params["w"], params["b"]))
    if kind == "self_attention":
        q = tt.linear(nodes, params["wq"])
        k = tt.linear(nodes, params["wk"])
        v = tt.linear(nodes, params["wv"])
        scores = tt.matmul(q, tt.moveaxis(k, -1, -2)) * (1.0 / np.sqrt(nodes.shape[-1]))
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
