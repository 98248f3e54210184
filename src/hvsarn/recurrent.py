"""Gated recurrent unit, run on the tape as one node per direction.

Update convention (documented here once; the verification oracles restate it):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    g_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

Sequences run in a batch of S independent samples of one length N:
x [S, N, In], state [S, 1, H].  The initial state is zero.  The stored
per-gate (w, u, b) are fused at run time: the input terms Wz x_t + bz,
Wr x_t + br, Wh x_t + bh of every step come from one [S, N, In] @ [In, 3H]
projection on the tape.  The recurrence over that projection is a single
tape node with parents (projection, [Uz | Ur], Uh) and output the stacked
states [S, N, H]; the final state is a slice of it.  Its forward steps in
numpy, with one [S, 1, H] @ [H, 2H] product for Uz h_{t-1}, Ur h_{t-1} per
step, and keeps the gate values only when the tape is on.  Its backward is
hand-written backpropagation through time: a reverse loop carries dL/dh
from step to step and writes the projection's gradient for each step, and
the [Uz | Ur] and Uh gradients are each one product over all steps.
The state keeps its row axis so that each sample's product is a
one-row matrix whatever S is: BLAS takes the same path for it alone as in a
batch, and a sample's result does not depend on its batch companions.

A bidirectional pass runs one GRU left-to-right and an independently
parameterized one right-to-left and concatenates the per-position states,
so the output width is twice the hidden size.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .params import weight, zeros
from .tensor import Tensor


def init_gru_params(rng: np.random.Generator, input_dim: int, hidden_dim: int, dtype) -> dict:
    def gate():
        return {
            "w": weight(rng, (input_dim, hidden_dim), dtype),
            "u": weight(rng, (hidden_dim, hidden_dim), dtype),
            "b": zeros((hidden_dim,), dtype),
        }

    return {"update": gate(), "reset": gate(), "cand": gate()}


def init_bigru_params(rng: np.random.Generator, input_dim: int, hidden_dim: int, dtype) -> dict:
    return {
        "fwd": init_gru_params(rng, input_dim, hidden_dim, dtype),
        "bwd": init_gru_params(rng, input_dim, hidden_dim, dtype),
    }


def gru_sequence(x: Tensor, params: dict, reverse: bool = False):
    """Run the GRU over x [S, N, In]; returns (states [S, N, H], final state [S, 1, H])."""
    gates = [params[name] for name in ("update", "reset", "cand")]
    w = tt.concat([p["w"] for p in gates], axis=1)
    b = tt.concat([p["b"] for p in gates], axis=0)
    proj = tt.linear(x, w, b)
    u_zr = tt.concat([gates[0]["u"], gates[1]["u"]], axis=1)
    states = _recurrence(proj, u_zr, gates[2]["u"], reverse)
    last = 0 if reverse else x.shape[1] - 1
    return states, states[:, last : last + 1]


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


def bigru(x: Tensor, params: dict):
    """Bidirectional pass over x [S, N, In].

    Returns (per-position states [S, N, 2H], final-state concat [S, 2H]):
    forward final state is at the last position, backward at the first.
    """
    states_f, last_f = gru_sequence(x, params["fwd"], reverse=False)
    states_b, last_b = gru_sequence(x, params["bwd"], reverse=True)
    contextual = tt.concat([states_f, states_b], axis=2)
    final = tt.reshape(tt.concat([last_f, last_b], axis=2), (x.shape[0], -1))
    return contextual, final
