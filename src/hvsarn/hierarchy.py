"""Object-to-frame orchestration of the dual-space reasoning pipeline.

At object level every frame is an independent graph over its K objects; at
frame level the whole video is one graph over T frame vectors.  Both levels
run the same dual-space pass: reason over visual nodes, enhance the semantic
nodes with visual evidence, reason over semantic nodes, then map the result
back into visual space.  Object nodes are then collapsed per frame by a
query-guided attention (visual) and average pooling (semantic).

Ablation switches on ModelConfig prune both the pass and the parameters a
level holds: `use_visual_graph` / `use_semantic_graph` skip the respective
reasoner and build no parameters for it, and `reasoner_kind` swaps the
graph memory for a baseline.  The cross-space hops run exactly when the
level holds a "cross" entry, which `init_level_params` builds only with the
semantic graph on (and, at frame level, `cross_space_at_frame_level` on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .cross_space import enhance_batch, init_cross_space_params
from .data import ModelConfig
from .graph_memory import init_baseline_params, init_graph_memory_params, run_reasoner
from .encoders import EncodedVideo
from .params import weight, zeros
from .tensor import Tensor


@dataclass
class FrameRepresentations:
    visual: Tensor  # [T, D_v]
    semantic: Tensor  # [T, D_s]


def init_level_params(rng: np.random.Generator, config: ModelConfig, dtype, cross: bool) -> dict:
    """Reasoners for the enabled graphs of one level, plus the cross-space
    projections when `cross` is set and the semantic graph is on."""
    d = config.hidden_size

    def init_reasoner():
        if config.reasoner_kind == "graph_memory":
            return init_graph_memory_params(rng, d, dtype)
        return init_baseline_params(rng, config.reasoner_kind, d, dtype)

    params = {}
    if config.use_visual_graph:
        params["visual"] = init_reasoner()
    if config.use_semantic_graph:
        params["semantic"] = init_reasoner()
        if cross:
            params["cross"] = init_cross_space_params(rng, d, dtype)
    return params


def init_fusion_params(rng: np.random.Generator, dim: int, dtype) -> dict:
    return {
        "attn_w": weight(rng, (dim, dim), dtype),
        "attn_u": weight(rng, (dim, dim), dtype),
        "attn_b": zeros((dim,), dtype),
        "attn_v": weight(rng, (dim, 1), dtype),
    }


def _dual_space_pass(
    visual: Tensor,
    semantic: Tensor,
    sentence: Tensor,
    level_params: dict,
    config: ModelConfig,
):
    """Shared level body over batched graphs: visual/semantic [B, K, D]."""
    B = visual.shape[0]
    controller = tt.broadcast_to(tt.reshape(sentence, (1, -1)), (B, sentence.shape[0]))
    kind, steps = config.reasoner_kind, config.reasoning_steps

    if config.use_visual_graph:
        _, visual_out = run_reasoner(kind, controller, visual, level_params["visual"], steps)
    else:
        visual_out = visual

    if not config.use_semantic_graph:
        return visual_out, semantic

    cross = level_params.get("cross")
    if cross is not None:
        semantic, _, _ = enhance_batch(visual_out, semantic, cross["v2s"])
    _, semantic_out = run_reasoner(kind, controller, semantic, level_params["semantic"], steps)
    if cross is not None:
        visual_out, _, _ = enhance_batch(semantic_out, visual_out, cross["s2v"])
    return visual_out, semantic_out


def object_level_pass(
    encoded: EncodedVideo, sentence: Tensor, level_params: dict, config: ModelConfig
):
    """Per-frame object graphs; returns (visual_nodes [T,K,D], semantic_nodes [T,K,D])."""
    return _dual_space_pass(encoded.visual, encoded.semantic, sentence, level_params, config)


def frame_level_pass(
    frames: FrameRepresentations, sentence: Tensor, level_params: dict, config: ModelConfig
) -> FrameRepresentations:
    """Single video-wide graphs over frame vectors; identity when disabled."""
    if not config.use_frame_level:
        return frames
    T, D = frames.visual.shape
    visual = tt.reshape(frames.visual, (1, T, D))
    semantic = tt.reshape(frames.semantic, (1, T, D))
    visual_out, semantic_out = _dual_space_pass(visual, semantic, sentence, level_params, config)
    return FrameRepresentations(
        visual=tt.reshape(visual_out, (T, D)), semantic=tt.reshape(semantic_out, (T, D))
    )


def fusion_attention(visual_nodes: Tensor, sentence: Tensor, params: dict) -> Tensor:
    """Query-guided attention weights over objects, [T, K]; rows sum to 1."""
    T, K, _ = visual_nodes.shape
    h = tt.tanh(
        tt.linear(visual_nodes, params["attn_w"])
        + tt.reshape(tt.linear(sentence, params["attn_u"]), (1, 1, -1))
        + params["attn_b"]
    )
    logits = tt.reshape(tt.linear(h, params["attn_v"]), (T, K))
    return tt.softmax(logits, axis=1)


def fuse_objects(
    visual_nodes: Tensor, semantic_nodes: Tensor, sentence: Tensor, params: dict
) -> FrameRepresentations:
    """Collapse each frame's objects: attention pool (visual), average (semantic)."""
    T, K, D = visual_nodes.shape
    attn = fusion_attention(visual_nodes, sentence, params)
    visual = tt.reshape(tt.matmul(tt.reshape(attn, (T, 1, K)), visual_nodes), (T, D))
    semantic = tt.tmean(semantic_nodes, axis=1)
    return FrameRepresentations(visual=visual, semantic=semantic)


def frames_from_encoder_mean(encoded: EncodedVideo) -> FrameRepresentations:
    """Per-frame average of encoder outputs (the no-object-level pathway)."""
    return FrameRepresentations(
        visual=tt.tmean(encoded.visual, axis=1), semantic=tt.tmean(encoded.semantic, axis=1)
    )
