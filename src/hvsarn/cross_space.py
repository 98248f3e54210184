"""Coupling between the visual and semantic node spaces.

Each direction scores every source node i against a target node k with a
row vector on the concatenated pair, pools the projected sources, then
projects the target and the pooled evidence back to width D so downstream
widths stay level-independent:

    logits_i = w_pair . [src_i, tgt_k]
    f_k      = sum_i softmax_i(logits) * (W_val src_i)
    out_k    = P [tgt_k, f_k] + b  =  tgt_k P[:D] + f_k P[D:] + b

Because the score is linear in the pair, its target term tgt_k . w[D:] is
the same for every source i and cancels in the softmax over i.  The
attention row, and so the pooled evidence f_k, is therefore the same for
every target k: each target receives one evidence vector per graph, and only
the projection P mixes it with the target itself.  Like the graph memory's
layers, both functions read the last two axes as one graph [..., K, D] and
every leading axis as independent graphs.  `cross_attention` computes that
row once per graph, [..., 1, K].  `enhance_batch` pools the raw sources with
it and projects the pooled row, f = (softmax @ src) W_val, [..., 1, D], then
returns the one affine node tgt P[:D] + f P[D:] + b, where the [..., 1, D]
evidence term broadcasts over the K targets: no [..., K, 2D] concat and no
per-target copy of f.  P stays stored whole as `proj_w` [2D, D]; its two
halves are `take` slices.  Only w[:D] is stored, as `attn_w` [D, 1]; it is
drawn as the full [2D, 1] score, so the draws after it are unchanged.
Whether a target-dependent score fits the paper better is ROADMAP item 3.

The "v2s" direction reads sources from the visual graph and targets from
the semantic one; "s2v" is the mirror.  Sources and targets must come from
the same frame (object level) or the same video (frame level), so both
node sets share their shape.
"""

from __future__ import annotations

from . import tensor as tt
from .tensor import Tensor


def cross_space_params(dim: int) -> dict:
    one_direction = [
        (("attn_w", None), (2 * dim, 1)),
        ("value_w", (dim, dim)),
        ("proj_w", (2 * dim, dim)),
        ("proj_b", (dim,)),
    ]
    return {"v2s": one_direction, "s2v": one_direction}


def cross_attention(source: Tensor, params: dict) -> Tensor:
    """Each graph's one attention row over its sources, [..., 1, K]; it sums to 1."""
    row = source.shape[:-2] + (1, source.shape[-2])
    return tt.softmax(tt.reshape(tt.linear(source, params["attn_w"]), row), axis=-1)


def enhance_batch(source: Tensor, target: Tensor, params: dict) -> Tensor:
    """Targets [..., K, D] enhanced with pooled evidence from same-shape sources."""
    if source.shape != target.shape:
        raise ValueError(f"source/target shape mismatch: {source.shape} vs {target.shape}")
    D, proj_w = target.shape[-1], params["proj_w"]
    evidence = tt.linear(tt.matmul(cross_attention(source, params), source), params["value_w"])
    return tt.affine(((target, proj_w[:D]), (evidence, proj_w[D:])), params["proj_b"])
