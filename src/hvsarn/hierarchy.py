"""Object-to-frame orchestration of the dual-space reasoning pipeline.

Every tensor carries a leading sample axis S: a group of S same-shape
samples runs as one batch.  The graph layers read the last two axes as one
graph and every leading axis as independent graphs, so each level hands
them its tensors as they are.  At object level the nodes [S, T, K, D] are
S·T graphs, one per frame over its K objects, each controlled by its
sample's sentence; at frame level the frames [S, T, D] are S graphs, one
per video over its T frame vectors.  Both levels run the same dual-space
pass: reason over visual nodes, enhance the semantic nodes with visual
evidence, reason over semantic nodes, then map the result back into visual
space.  Object nodes are then collapsed per frame by a query-guided
attention (visual), scored by the graph memory's `pair_logits` with the
sentence as the one target, and average pooling (semantic), giving frames
[S, T, D].

The sentences [S, 1, D] are the frame level's controllers; the object level
broadcasts them into [S, T, 1, D], one row per frame, when it holds a
reasoner that reads a controller (`data.CONTROLLER_KINDS`).  The graph
switches act only through the parameters: `level_params` declares "visual"
for `use_visual_graph` and "semantic" for `use_semantic_graph`, both only
when `reasoning_steps > 0`, and "cross" for `use_semantic_graph` at any
step count; a level runs each reasoner and hop exactly when it holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as tt
from .cross_space import cross_space_params, enhance_batch
from .data import CONTROLLER_KINDS, ModelConfig
from .graph_memory import baseline_params, graph_memory_params, pair_logits, run_reasoner
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
    """Level body over visual/semantic [..., K, D] under controllers [..., 1, D]
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
    S, T, _, D = encoded.visual.shape
    # Per-frame controllers only for a reasoner that reads them.
    controller = None
    if config.reasoner_kind in CONTROLLER_KINDS and (
        "visual" in level_params or "semantic" in level_params
    ):
        controller = tt.broadcast_to(tt.reshape(sentences, (S, 1, 1, D)), (S, T, 1, D))
    return _dual_space_pass(encoded.visual, encoded.semantic, controller, level_params, config)


def frame_level_pass(
    frames: FrameRepresentations, sentences: Tensor, level_params: dict, config: ModelConfig
) -> FrameRepresentations:
    """One graph per video over its frame vectors [S, T, D], controlled by sentences [S, 1, D]."""
    visual, semantic = _dual_space_pass(
        frames.visual, frames.semantic, sentences, level_params, config
    )
    return FrameRepresentations(visual=visual, semantic=semantic)


def fusion_attention(visual_nodes: Tensor, sentences: Tensor, params: dict) -> Tensor:
    """Query-guided weights over each frame's objects, [S, T, 1, K], scored by
    `pair_logits` with one sentence row per sample; rows sum to 1."""
    S, T, K, D = visual_nodes.shape
    rows = tt.reshape(sentences, (S, 1, 1, D))
    weights = (params[name] for name in ("attn_u", "attn_b", "attn_w", "attn_v"))
    return tt.softmax(pair_logits(rows, visual_nodes, *weights), axis=-1)


def fuse_objects(
    visual_nodes: Tensor, semantic_nodes: Tensor, sentences: Tensor, params: dict
) -> FrameRepresentations:
    """Collapse each frame's objects: attention pool (visual), average (semantic)."""
    S, T, K, D = visual_nodes.shape
    attn = fusion_attention(visual_nodes, sentences, params)
    visual = tt.reshape(tt.matmul(attn, visual_nodes), (S, T, D))
    semantic = tt.tmean(semantic_nodes, axis=2)
    return FrameRepresentations(visual=visual, semantic=semantic)


def frames_from_encoder_mean(encoded: EncodedVideo) -> FrameRepresentations:
    """Per-frame average of encoder outputs (the no-object-level pathway)."""
    return FrameRepresentations(
        visual=tt.tmean(encoded.visual, axis=2), semantic=tt.tmean(encoded.semantic, axis=2)
    )
