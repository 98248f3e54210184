"""Object-to-frame orchestration of the dual-space reasoning pipeline.

Every tensor carries a leading sample axis S: a group of S same-shape
samples runs as one batch.  At object level every frame is an independent
graph over its K objects, so the level runs B = S·T graphs, each controlled
by its sample's sentence; at frame level each video is one graph over its T
frame vectors, B = S.  Both levels run the same dual-space pass: reason
over visual nodes, enhance the semantic nodes with visual evidence, reason
over semantic nodes, then map the result back into visual space.  Object
nodes are then collapsed per frame by a query-guided attention (visual) and
average pooling (semantic), giving frames [S, T, D].

The sentences [S, 1, D] are the frame level's controllers; the object level
broadcasts them into [S·T, 1, D] when it holds a reasoner that reads a
controller (`data.CONTROLLER_KINDS`).  The graph switches act only
through the parameters: `level_params` declares "visual" for
`use_visual_graph` and "semantic" for `use_semantic_graph`, both only when
`reasoning_steps > 0`, and "cross" for `use_semantic_graph` at any step
count; a level runs each reasoner and hop exactly when it holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as tt
from .cross_space import cross_space_params, enhance_batch
from .data import CONTROLLER_KINDS, ModelConfig
from .graph_memory import baseline_params, graph_memory_params, run_reasoner
from .encoders import EncodedVideo
from .tensor import Tensor


@dataclass
class FrameRepresentations:
    visual: Tensor  # [S, T, D_v]
    semantic: Tensor  # [S, T, D_s]


def level_params(config: ModelConfig) -> dict:
    """Reasoners for the enabled graphs of one level when it reasons at all
    (`reasoning_steps > 0`), plus the cross-space projections when the
    semantic graph is on."""
    d = config.hidden_size
    if config.reasoner_kind == "graph_memory":
        reasoner = graph_memory_params(d)
    else:
        reasoner = baseline_params(config.reasoner_kind, d)
    reasons = config.reasoning_steps > 0
    spec = {}
    if config.use_visual_graph and reasons:
        spec["visual"] = reasoner
    if config.use_semantic_graph:
        if reasons:
            spec["semantic"] = reasoner
        spec["cross"] = cross_space_params(d)
    return spec


def fusion_params(dim: int) -> list:
    square = (dim, dim)
    return [("attn_w", square), ("attn_u", square), ("attn_b", (dim,)), ("attn_v", (dim, 1))]


def _dual_space_pass(
    visual: Tensor,
    semantic: Tensor,
    controller: Tensor,
    level_params: dict,
    config: ModelConfig,
):
    """Level body over visual/semantic [B, K, D] under controllers [B, 1, D]
    (None when the level's reasoner reads none)."""
    kind, steps = config.reasoner_kind, config.reasoning_steps
    cross = level_params.get("cross")
    if "visual" in level_params:
        visual = run_reasoner(kind, controller, visual, level_params["visual"], steps)
    if cross is not None:
        semantic = enhance_batch(visual, semantic, cross["v2s"])
    if "semantic" in level_params:
        semantic = run_reasoner(kind, controller, semantic, level_params["semantic"], steps)
    if cross is not None:
        visual = enhance_batch(semantic, visual, cross["s2v"])
    return visual, semantic


def object_level_pass(
    encoded: EncodedVideo, sentences: Tensor, level_params: dict, config: ModelConfig
):
    """Per-frame object graphs over encoded [S,T,K,D] with sentences [S,1,D];
    returns (visual_nodes [S,T,K,D], semantic_nodes [S,T,K,D])."""
    S, T, K, D = encoded.visual.shape
    # Per-frame controllers only for a reasoner that reads them.
    controller = None
    if config.reasoner_kind in CONTROLLER_KINDS and (
        "visual" in level_params or "semantic" in level_params
    ):
        controller = tt.reshape(tt.broadcast_to(sentences, (S, T, D)), (S * T, 1, D))
    visual, semantic = _dual_space_pass(
        tt.reshape(encoded.visual, (S * T, K, D)),
        tt.reshape(encoded.semantic, (S * T, K, D)),
        controller,
        level_params,
        config,
    )
    return tt.reshape(visual, (S, T, K, D)), tt.reshape(semantic, (S, T, K, D))


def frame_level_pass(
    frames: FrameRepresentations, sentences: Tensor, level_params: dict, config: ModelConfig
) -> FrameRepresentations:
    """One graph per video over its frame vectors [S, T, D], controlled by sentences [S, 1, D]."""
    visual, semantic = _dual_space_pass(
        frames.visual, frames.semantic, sentences, level_params, config
    )
    return FrameRepresentations(visual=visual, semantic=semantic)


def fusion_attention(visual_nodes: Tensor, sentences: Tensor, params: dict) -> Tensor:
    """Query-guided attention weights over objects, [S, T, K]; rows sum to 1."""
    S, T, K, D = visual_nodes.shape
    h = tt.tanh(
        tt.linear(visual_nodes, params["attn_w"])
        + tt.linear(tt.reshape(sentences, (S, 1, 1, D)), params["attn_u"])
        + params["attn_b"]
    )
    logits = tt.reshape(tt.linear(h, params["attn_v"]), (S, T, K))
    return tt.softmax(logits, axis=2)


def fuse_objects(
    visual_nodes: Tensor, semantic_nodes: Tensor, sentences: Tensor, params: dict
) -> FrameRepresentations:
    """Collapse each frame's objects: attention pool (visual), average (semantic)."""
    S, T, K, D = visual_nodes.shape
    attn = fusion_attention(visual_nodes, sentences, params)
    visual = tt.reshape(tt.matmul(tt.reshape(attn, (S, T, 1, K)), visual_nodes), (S, T, D))
    semantic = tt.tmean(semantic_nodes, axis=2)
    return FrameRepresentations(visual=visual, semantic=semantic)


def frames_from_encoder_mean(encoded: EncodedVideo) -> FrameRepresentations:
    """Per-frame average of encoder outputs (the no-object-level pathway)."""
    return FrameRepresentations(
        visual=tt.tmean(encoded.visual, axis=2), semantic=tt.tmean(encoded.semantic, axis=2)
    )
