"""Coupling between the visual and semantic node spaces.

Each direction scores every source node i against a target node k with a
row vector on the concatenated pair, pools the projected sources, then
concatenates the pooled evidence onto the target and projects back to
width D so downstream widths stay level-independent:

    logits_i = w_pair . [src_i, tgt_k]
    f_k      = sum_i softmax_i(logits) * (W_val src_i)
    out_k    = P [tgt_k, f_k] + b

Because the score is linear in the pair, its target term tgt_k . w[D:] is
the same for every source i and cancels in the softmax over i.  The
attention row, and so the pooled evidence f_k, is therefore the same for
every target k: each target receives one evidence vector per graph, and
only the projection P mixes it with the target itself.  `cross_attention`
computes that row once, [B, 1, K], and `enhance_batch` returns only the
enhanced targets.  Only w[:D] is stored, as `attn_w` [D, 1]; it is drawn
as the full [2D, 1] score, so the draws after it are unchanged.
Whether a target-dependent score fits the paper better is ROADMAP item 3.

The "v2s" direction reads sources from the visual graph and targets from
the semantic one; "s2v" is the mirror.  Sources and targets must come from
the same frame (object level) or the same video (frame level), so both
node sets share K.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .params import weight, xavier_uniform, zeros
from .tensor import Tensor


def init_cross_space_params(rng: np.random.Generator, dim: int, dtype) -> dict:
    def one_direction():
        pair_score = xavier_uniform(rng, (2 * dim, 1), dtype)
        return {
            "attn_w": Tensor(pair_score[:dim].copy(), requires_grad=True),
            "value_w": weight(rng, (dim, dim), dtype),
            "proj_w": weight(rng, (2 * dim, dim), dtype),
            "proj_b": zeros((dim,), dtype),
        }

    return {"v2s": one_direction(), "s2v": one_direction()}


def cross_attention(source: Tensor, params: dict) -> Tensor:
    """Each graph's one attention row over its sources, [B, 1, K]; it sums to 1."""
    B, K, _ = source.shape
    return tt.softmax(tt.reshape(tt.linear(source, params["attn_w"]), (B, 1, K)), axis=2)


def enhance_batch(source: Tensor, target: Tensor, params: dict) -> Tensor:
    """Targets [B, K, D] enhanced with pooled evidence from same-shape sources."""
    if source.shape != target.shape:
        raise ValueError(f"source/target shape mismatch: {source.shape} vs {target.shape}")
    evidence = tt.matmul(cross_attention(source, params), tt.linear(source, params["value_w"]))
    pooled = tt.broadcast_to(evidence, target.shape)
    return tt.linear(tt.concat([target, pooled], axis=-1), params["proj_w"], params["proj_b"])
