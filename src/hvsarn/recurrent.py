"""Bidirectional gated recurrent unit, run on the tape as one node.

Update convention (documented here once; the verification oracles restate it):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    g_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

A Bi-GRU runs one GRU left-to-right and an independently parameterized one
right-to-left over a batch of S independent samples of one length N,
x [S, N, In], from zero initial states.  It returns the per-position states
side by side, [S, N, 2H]: the forward direction's in the first H columns,
the backward direction's in the last H.  A direction's final state is a
position of its states: the last for left-to-right, the first for
right-to-left.  Each direction stores its weights in the layout the tape
consumes: w = [Wz | Wr | Wh] [In, 3H], b = [bz | br | bh] [3H],
u_zr = [Uz | Ur] [H, 2H] and u_g = Uh [H, H].

The two directions never read each other, so the whole Bi-GRU is one tape
node, with parents x and both directions' w, b, u_zr and u_g, that steps
both in one time loop.  The forward forms each direction's input terms
x @ w + b [S, N, 3H] with `tt.affine_sum` and copies them, one direction at
a time, into a time-major buffer [N, 2, S, 1, 3H] that stores the backward
direction reversed in time: step t advances the forward direction at
position t and the backward direction at position N - 1 - t, reading one
contiguous [2, S, 1, 3H] slab.  The recurrent products are
[2, S, 1, H] @ [2, 1, H, .].  The state keeps its row axis, so each sample
and direction is a one-row matrix whatever S is: BLAS takes the same path
for a sample alone as in a batch, and a sample's result does not depend on
its batch companions.  The forward writes each step's states into a
time-major states buffer and keeps the gate values only when the tape is on.

The backward is hand-written backpropagation through time: one reverse loop
over the same layout carries dL/dh from step to step for both directions and
writes each step's input-term gradient.  Each direction's [S, N, 3H]
gradient, in position order, goes to `tt.affine_backward`, which hands x, w
and b theirs as an affine node would.  The u_zr and u_g gradients are one
product per direction over all its rows, taken in (sample, position) order:
the row order fixes the product's summation order, and this one matches a
direction run on its own.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .tensor import Tensor


def gru_params(input_dim: int, hidden_dim: int) -> list:
    """Each gate's w [In, H] then u [H, H] (update, reset, candidate), with
    that gate's own fans, laid side by side in the stored layout."""
    w, u, b = (input_dim, hidden_dim), (hidden_dim, hidden_dim), (3 * hidden_dim,)
    return [("w", w), ("u_zr", u), ("w", w), ("u_zr", u), ("w", w), ("u_g", u), ("b", b)]


def bigru_params(input_dim: int, hidden_dim: int) -> dict:
    return {"fwd": gru_params(input_dim, hidden_dim), "bwd": gru_params(input_dim, hidden_dim)}


def _by_position(steps: np.ndarray, d: int) -> np.ndarray:
    """Direction d of a time-major [N, 2, S, 1, k] array, as an [S, N, k] view
    in position order (direction 1 is stored reversed in time)."""
    view = steps[:, d, :, 0] if d == 0 else steps[::-1, d, :, 0]
    return view.transpose(1, 0, 2)


def gru_sequence(x: Tensor, params: dict) -> Tensor:
    """Bi-GRU over x [S, N, In] with {"fwd", "bwd"} params; returns the states [S, N, 2H]."""
    directions = (params["fwd"], params["bwd"])
    S, n, _ = x.shape
    hidden = directions[0]["u_g"].shape[0]
    dtype = np.result_type(x.dtype, directions[0]["w"].dtype)
    proj = np.empty((n, 2, S, 1, 3 * hidden), dtype=dtype)
    for d, p in enumerate(directions):
        _by_position(proj, d)[...] = tt.affine_sum(((x.data, p["w"].data),), p["b"].data)
    proj_zr, proj_g = proj[..., : 2 * hidden], proj[..., 2 * hidden :]
    u_zr = np.stack([p["u_zr"].data for p in directions])[:, None]  # [2, 1, H, 2H]
    u_g = np.stack([p["u_g"].data for p in directions])[:, None]  # [2, 1, H, H]
    parents = (x,) + tuple(p[k] for p in directions for k in ("w", "b", "u_zr", "u_g"))
    keep = tt.records(parents)
    states = np.empty((n, 2, S, 1, hidden), dtype=dtype)
    if keep:
        inputs = [(tt.affine_terms(((x, p["w"]),)), p["b"]._node) for p in directions]
        weight_nodes = [(p["u_zr"]._node, p["u_g"]._node) for p in directions]
        zr_all = np.empty((n, 2, S, 1, 2 * hidden), dtype=dtype)
        g_all = np.empty_like(states)
    h = np.zeros((2, S, 1, hidden), dtype=dtype)
    for t in range(n):
        zr = tt.stable_sigmoid(proj_zr[t] + h @ u_zr)
        z, r = zr[..., :hidden], zr[..., hidden:]
        g = np.tanh(proj_g[t] + (r * h) @ u_g)
        h = np.add((1.0 - z) * h, z * g, out=states[t])
        if keep:
            zr_all[t] = zr
            g_all[t] = g
    out = np.empty((S, n, 2 * hidden), dtype=dtype)
    out[:, :, :hidden] = _by_position(states, 0)
    out[:, :, hidden:] = _by_position(states, 1)

    def backward(grad):
        dstates = np.empty_like(states)
        _by_position(dstates, 0)[...] = grad[:, :, :hidden]
        _by_position(dstates, 1)[...] = grad[:, :, hidden:]
        # h_prev[t] is the state step t started from (zero for the first step).
        h_prev = np.zeros_like(states)
        h_prev[1:] = states[:-1]
        z, r = zr_all[..., :hidden], zr_all[..., hidden:]
        # With pre-activations a_z, a_r, a_g and m = r * h_prev, the factors that
        # turn dL/dh_t into dL/da_g, dL/da_z and dL/dh_prev (direct path), and
        # dL/dm into dL/da_r, for all steps at once.
        dag_dh = z * (1.0 - g_all * g_all)
        daz_dh = (g_all - h_prev) * z * (1.0 - z)
        dprev_dh = 1.0 - z
        dar_dm = h_prev * r * (1.0 - r)
        u_zr_t, u_g_t = np.swapaxes(u_zr, -1, -2), np.swapaxes(u_g, -1, -2)
        dproj = np.empty((n, 2, S, 1, 3 * hidden), dtype=dtype)
        carry = np.zeros((2, S, 1, hidden), dtype=dtype)
        for t in range(n - 1, -1, -1):
            dh = dstates[t] + carry
            da_g = np.multiply(dh, dag_dh[t], out=dproj[t, ..., 2 * hidden :])
            dm = da_g @ u_g_t
            np.multiply(dh, daz_dh[t], out=dproj[t, ..., :hidden])
            np.multiply(dm, dar_dm[t], out=dproj[t, ..., hidden : 2 * hidden])
            carry = dh * dprev_dh[t] + dm * r[t] + dproj[t, ..., : 2 * hidden] @ u_zr_t
        m = r * h_prev
        rows = S * n
        for d, ((saved, b_node), (w_zr, w_g)) in enumerate(zip(inputs, weight_nodes)):
            dproj_d = np.ascontiguousarray(_by_position(dproj, d))
            if w_zr is not None:
                h_rows = np.ascontiguousarray(_by_position(h_prev, d)).reshape(rows, hidden)
                w_zr._accumulate(h_rows.T @ dproj_d[:, :, : 2 * hidden].reshape(rows, -1))
            if w_g is not None:
                m_rows = np.ascontiguousarray(_by_position(m, d)).reshape(rows, hidden)
                w_g._accumulate(m_rows.T @ dproj_d[:, :, 2 * hidden :].reshape(rows, hidden))
            tt.affine_backward(dproj_d, saved, b_node)

    return Tensor._result(out, parents, backward)
