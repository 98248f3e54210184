"""Gated recurrent unit, run on the tape as one node per direction.

Update convention (documented here once; the verification oracles restate it):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    g_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

Sequences run in a batch of S independent samples of one length N:
x [S, N, In], state [S, 1, H].  The initial state is zero.  Each direction
stores its weights in the layout the tape consumes: w = [Wz | Wr | Wh]
[In, 3H], b = [bz | br | bh] [3H], u_zr = [Uz | Ur] [H, 2H] and u_g = Uh
[H, H].  The input terms of every step come from one [S, N, In] @ [In, 3H]
projection on the tape.  The recurrence over that projection is a single
tape node with parents (projection, u_zr, u_g) and output the stacked
states [S, N, H].  Its forward steps in numpy, with one [S, 1, H] @ [H, 2H]
product for Uz h_{t-1}, Ur h_{t-1} per step, and keeps the gate values only
when the tape is on.  Its backward is hand-written backpropagation through
time: a reverse loop carries dL/dh from step to step and writes the
projection's gradient for each step, and the u_zr and u_g gradients are
each one product over all steps.
The state keeps its row axis so that each sample's product is a
one-row matrix whatever S is: BLAS takes the same path for it alone as in a
batch, and a sample's result does not depend on its batch companions.

A bidirectional pass runs one GRU left-to-right and an independently
parameterized one right-to-left and concatenates the per-position states,
so the output width is twice the hidden size.  A direction's final state
is a position of its states: the last for left-to-right, the first for
right-to-left.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .params import xavier_uniform, zeros
from .tensor import Tensor


def init_gru_params(rng: np.random.Generator, input_dim: int, hidden_dim: int, dtype) -> dict:
    """Draw each gate's w [In, H] then u [H, H] (update, reset, candidate),
    with that gate's own fans, then concatenate them into the stored layout."""
    w, u = [], []
    for _ in range(3):  # update, reset, candidate
        w.append(xavier_uniform(rng, (input_dim, hidden_dim), dtype))
        u.append(xavier_uniform(rng, (hidden_dim, hidden_dim), dtype))
    return {
        "w": Tensor(np.concatenate(w, axis=1), requires_grad=True),
        "b": zeros((3 * hidden_dim,), dtype),
        "u_zr": Tensor(np.concatenate(u[:2], axis=1), requires_grad=True),
        "u_g": Tensor(u[2], requires_grad=True),
    }


def init_bigru_params(rng: np.random.Generator, input_dim: int, hidden_dim: int, dtype) -> dict:
    return {
        "fwd": init_gru_params(rng, input_dim, hidden_dim, dtype),
        "bwd": init_gru_params(rng, input_dim, hidden_dim, dtype),
    }


def gru_sequence(x: Tensor, params: dict, reverse: bool = False) -> Tensor:
    """Run the GRU over x [S, N, In]; returns the states [S, N, H]."""
    proj = tt.linear(x, params["w"], params["b"])
    return _recurrence(proj, params["u_zr"], params["u_g"], reverse)


def _recurrence(proj: Tensor, u_zr: Tensor, u_g: Tensor, reverse: bool) -> Tensor:
    """The GRU steps over the fused input projection proj [S, N, 3H], as one tape node."""
    S, n, _ = proj.shape
    hidden = u_g.shape[0]
    proj_zr, proj_g = proj.data[:, :, : 2 * hidden], proj.data[:, :, 2 * hidden :]
    order = range(n - 1, -1, -1) if reverse else range(n)
    keep = tt.records((proj, u_zr, u_g))
    states = np.empty((S, n, hidden), dtype=proj.dtype)
    if keep:
        zr_all = np.empty((S, n, 2 * hidden), dtype=proj.dtype)
        g_all = np.empty_like(states)
    h = np.zeros((S, 1, hidden), dtype=proj.dtype)
    for t in order:
        zr = tt.stable_sigmoid(proj_zr[:, t : t + 1] + h @ u_zr.data)
        z, r = zr[:, :, :hidden], zr[:, :, hidden:]
        g = np.tanh(proj_g[:, t : t + 1] + (r * h) @ u_g.data)
        h = (1.0 - z) * h + z * g
        states[:, t : t + 1] = h
        if keep:
            zr_all[:, t : t + 1] = zr
            g_all[:, t : t + 1] = g

    def backward(grad):
        # h_prev[:, t] is the state step t started from (zero for the first step).
        h_prev = np.zeros_like(states)
        if reverse:
            h_prev[:, :-1] = states[:, 1:]
        else:
            h_prev[:, 1:] = states[:, :-1]
        z, r = zr_all[:, :, :hidden], zr_all[:, :, hidden:]
        # With pre-activations a_z, a_r, a_g and m = r * h_prev, the factors that
        # turn dL/dh_t into dL/da_g, dL/da_z and dL/dh_prev (direct path), and
        # dL/dm into dL/da_r, for all steps at once.
        dag_dh = z * (1.0 - g_all * g_all)
        daz_dh = (g_all - h_prev) * z * (1.0 - z)
        dprev_dh = 1.0 - z
        dar_dm = h_prev * r * (1.0 - r)
        u_zr_t, u_g_t = u_zr.data.T, u_g.data.T
        dproj = np.empty_like(proj.data)
        carry = np.zeros((S, 1, hidden), dtype=proj.dtype)
        for t in reversed(order):
            step = slice(t, t + 1)
            dh = grad[:, step] + carry
            da_g = np.multiply(dh, dag_dh[:, step], out=dproj[:, step, 2 * hidden :])
            dm = da_g @ u_g_t
            np.multiply(dh, daz_dh[:, step], out=dproj[:, step, :hidden])
            np.multiply(dm, dar_dm[:, step], out=dproj[:, step, hidden : 2 * hidden])
            carry = dh * dprev_dh[:, step] + dm * r[:, step] + dproj[:, step, : 2 * hidden] @ u_zr_t
        if proj.requires_grad:
            proj._accumulate(dproj)
        rows = S * n
        if u_zr.requires_grad:
            u_zr._accumulate(h_prev.reshape(rows, hidden).T @ dproj[:, :, : 2 * hidden].reshape(rows, -1))
        if u_g.requires_grad:
            m = (r * h_prev).reshape(rows, hidden)
            u_g._accumulate(m.T @ dproj[:, :, 2 * hidden :].reshape(rows, hidden))

    return Tensor._result(states, (proj, u_zr, u_g), backward)


def bigru(x: Tensor, params: dict) -> Tensor:
    """Bidirectional pass over x [S, N, In]; returns the per-position states [S, N, 2H]."""
    states_f = gru_sequence(x, params["fwd"], reverse=False)
    states_b = gru_sequence(x, params["bwd"], reverse=True)
    return tt.concat([states_f, states_b], axis=2)
