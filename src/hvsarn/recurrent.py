"""Gated recurrent unit, unrolled on the tape.

Update convention (documented here once; the verification oracles restate it):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    g_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

Sequences run in a batch of S independent samples of one length N:
x [S, N, In], state [S, 1, H].  The initial state is zero.  The stored
per-gate (w, u, b) are fused at run time: the input terms Wz x_t + bz,
Wr x_t + br, Wh x_t + bh of every step come from one [S, N, In] @ [In, 3H]
projection, and Uz h_{t-1}, Ur h_{t-1} from one [S, 1, H] @ [H, 2H] product
per step.  The state keeps its row axis so that each sample's product is a
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
    S, n, _ = x.shape
    hidden = params["update"]["u"].shape[0]
    gates = [params[name] for name in ("update", "reset", "cand")]
    w = tt.concat([p["w"] for p in gates], axis=1)
    b = tt.concat([p["b"] for p in gates], axis=0)
    proj = tt.linear(x, w, b)
    proj_zr, proj_g = proj[:, :, : 2 * hidden], proj[:, :, 2 * hidden :]
    u_zr = tt.concat([gates[0]["u"], gates[1]["u"]], axis=1)
    u_g = gates[2]["u"]
    h = Tensor(np.zeros((S, 1, hidden), dtype=x.dtype))
    order = range(n - 1, -1, -1) if reverse else range(n)
    states: list[Tensor | None] = [None] * n
    for t in order:
        zr = tt.sigmoid(proj_zr[:, t : t + 1] + tt.matmul(h, u_zr))
        z, r = zr[:, :, :hidden], zr[:, :, hidden:]
        g = tt.tanh(proj_g[:, t : t + 1] + tt.matmul(r * h, u_g))
        h = (1.0 - z) * h + z * g
        states[t] = h
    return tt.concat(states, axis=1), h


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
