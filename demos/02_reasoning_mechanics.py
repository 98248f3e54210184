#!/usr/bin/env python3
"""The graph-memory step, one piece at a time.

Builds a tiny fully-connected object graph, plants one node that matches the
controller, and shows: where the read attention lands, how the gates decide
to keep or replace state, what a write does to the nodes, and the attention
coupling between the visual and semantic spaces.  Everything in 64-bit with
printed weights, no training involved.
"""

import numpy as np

from hvsarn.cross_space import cross_attention, cross_space_params, enhance_batch
from hvsarn.graph_memory import (
    graph_memory_params,
    neighbor_attention,
    read_attention,
    read_batch,
    reason_batch,
    write_batch,
)
from hvsarn.params import init_params
from hvsarn.tensor import Tensor

rng = np.random.default_rng(0)
D, K = 8, 4

# %% a controller that resembles exactly one node ---------------------------

direction = rng.normal(size=D)
direction /= np.linalg.norm(direction)
controller = Tensor((3.0 * direction).reshape(1, 1, D))  # one graph's one-row controller
nodes_np = 0.3 * rng.normal(size=(1, K, D))
nodes_np[0, 2] += 3.0 * direction  # node 2 is the one worth reading
nodes = Tensor(nodes_np)

params = init_params(graph_memory_params(D), rng, np.float64)
attn = read_attention(controller, nodes, params)
controller_new = read_batch(controller, nodes, params)
print("read attention over nodes:", np.round(attn.data[0, 0], 3))
print("(node 2 planted to match the controller)")

# The read is a convex combination, so the summary sits inside the node hull:
content = attn.data[0, 0] @ nodes_np[0]
print("summary ~ node 2?  cosine =",
      round(float(content @ nodes_np[0, 2]
                  / (np.linalg.norm(content) * np.linalg.norm(nodes_np[0, 2]))), 3))

# %% gating: interpolation between keep and rewrite --------------------------

# The controller update is G * old + (1 - G) * candidate, elementwise.
# Saturating the gate bias pins it to "keep": the controller passes through.
saturated = init_params(graph_memory_params(D), rng, np.float64)
saturated["read"]["b"].data[D:] = 20.0  # the bias is [candidate | gate]; set the gate half
kept = read_batch(controller, nodes, saturated)
print("\nwith gate bias +20, |new - old| =", float(np.abs(kept.data - controller.data).max()))

# %% write: neighbor-aware node updates --------------------------------------

nodes_new = write_batch(controller_new, nodes, params)
neighbor_attn = neighbor_attention(nodes, params)
print("\nwrite moved each node by:",
      np.round(np.linalg.norm(nodes_new.data[0] - nodes_np[0], axis=1), 3))
print("neighbor weights for node 0 (diagonal masked):",
      np.round(neighbor_attn.data[0, 0], 3))

# %% full steps are permutation-equivariant ----------------------------------

perm = np.array([2, 0, 3, 1])
ctrl_a, out_a = reason_batch(controller, nodes, params, num_steps=2)
ctrl_b, out_b = reason_batch(controller, Tensor(nodes_np[:, perm]), params, num_steps=2)
print("\nafter 2 reasoning steps:")
print("  nodes permute with the input:",
      np.allclose(out_a.data[:, perm], out_b.data, atol=1e-12))
print("  controller ignores node order:",
      np.allclose(ctrl_a.data, ctrl_b.data, atol=1e-12))

# %% cross-space enhancement --------------------------------------------------

# Semantic nodes pull in attention-pooled visual evidence (and vice versa).
# The source attention row lives on the simplex; it is the same for every
# target node, so each graph computes it once.
cross = init_params(cross_space_params(D), rng, np.float64)
semantic = Tensor(0.5 * rng.normal(size=(1, K, D)))
enhanced = enhance_batch(nodes, semantic, cross["v2s"])
cross_attn = cross_attention(nodes, cross["v2s"])
print("\nvisual->semantic attention over the visual nodes:")
print(np.round(cross_attn.data[0, 0], 3))
print("row sum:", np.round(cross_attn.data[0, 0].sum(), 6))
print("enhanced semantic shape:", enhanced.shape)
