"""Full network: encoders -> hierarchical reasoning -> span head.

Parameter construction is a pure function of (config, input dims, dtype),
seeded from config.seed; the init order below is fixed so checkpoints and
repeat runs agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import ModelConfig, QuerySample, VideoSample
from .encoders import EncodedQuery, EncodedVideo, InputDims, encode_query, encode_video, init_encoder_params
from .hierarchy import (
    FrameRepresentations,
    frame_level_pass,
    frames_from_encoder_mean,
    fuse_objects,
    init_fusion_params,
    init_level_params,
    object_level_pass,
)
from .localization import (
    SegmentPrediction,
    fuse_and_contextualize,
    init_head_params,
    predict,
    span_logits,
)
from .localization import loss as span_loss
from .params import flatten
from .tensor import Tensor


@dataclass
class Model:
    config: ModelConfig
    dims: InputDims
    params: dict

    def named_parameters(self) -> dict[str, Tensor]:
        return flatten(self.params)

    # -- forward -----------------------------------------------------------

    def _check_limits(self, video: VideoSample) -> None:
        if video.num_frames > self.config.max_frames:
            raise ValueError(
                f"num_frames {video.num_frames} exceeds config.max_frames {self.config.max_frames}"
            )
        if video.num_objects > self.config.max_objects:
            raise ValueError(
                f"num_objects {video.num_objects} exceeds config.max_objects "
                f"{self.config.max_objects}"
            )

    def encode(self, video: VideoSample, query: QuerySample) -> tuple[EncodedVideo, EncodedQuery]:
        self._check_limits(video)
        return (
            encode_video(video, self.params["encoder"]),
            encode_query(query, self.params["encoder"], self.config.attn_heads),
        )

    def frame_features(self, encoded: EncodedVideo, sentence: Tensor) -> FrameRepresentations:
        """Route encoder outputs through the configured hierarchy variant."""
        cfg = self.config
        if cfg.two_stream:
            nodes_v, nodes_s = object_level_pass(
                encoded, sentence, self.params["object_level"], cfg
            )
            obj = fuse_objects(nodes_v, nodes_s, sentence, self.params["fusion"])
            frm = frame_level_pass(
                frames_from_encoder_mean(encoded), sentence, self.params["frame_level"], cfg
            )
            return FrameRepresentations(
                visual=tt.concat([obj.visual, frm.visual], axis=1),
                semantic=tt.concat([obj.semantic, frm.semantic], axis=1),
            )
        if cfg.use_object_level:
            nodes_v, nodes_s = object_level_pass(
                encoded, sentence, self.params["object_level"], cfg
            )
            frames = fuse_objects(nodes_v, nodes_s, sentence, self.params["fusion"])
        else:
            frames = frames_from_encoder_mean(encoded)
        if cfg.use_frame_level:
            frames = frame_level_pass(frames, sentence, self.params["frame_level"], cfg)
        return frames

    def _contextualize(self, video: VideoSample, query: QuerySample) -> Tensor:
        """Per-frame head Bi-GRU states [T, hidden], the input to the span head."""
        encoded, enc_query = self.encode(video, query)
        frames = self.frame_features(encoded, enc_query.sentence)
        return fuse_and_contextualize(frames, self.params["head"])

    def forward(self, video: VideoSample, query: QuerySample) -> SegmentPrediction:
        contextual = self._contextualize(video, query)
        return predict(contextual, self.params["head"], self.config.max_segments)

    def loss(self, video: VideoSample, query: QuerySample) -> Tensor:
        if video.annotation is None:
            raise ValueError(f"sample {video.video_id} has no annotation; cannot compute loss")
        # The loss reads only the logits, so the candidate ranking is skipped.
        start, end = span_logits(self._contextualize(video, query), self.params["head"])
        logits_only = SegmentPrediction(start_logits=start, end_logits=end, top_segments=[])
        return span_loss(logits_only, video.annotation, video.num_frames)


def head_input_width(config: ModelConfig) -> int:
    return 4 * config.hidden_size if config.two_stream else 2 * config.hidden_size


def build_model(config: ModelConfig, dims: InputDims, dtype=np.float32) -> Model:
    """Build only the groups the config runs, drawing in the fixed order
    encoder, object_level, frame_level, fusion, head; a skipped group draws
    nothing from the generator."""
    rng = np.random.default_rng(config.seed)
    d = config.hidden_size
    params = {"encoder": init_encoder_params(rng, dims, d, config.attn_heads, dtype)}
    if config.use_object_level:
        params["object_level"] = init_level_params(rng, config, dtype, cross=True)
    if config.use_frame_level:
        params["frame_level"] = init_level_params(
            rng, config, dtype, cross=config.cross_space_at_frame_level
        )
    if config.use_object_level:
        params["fusion"] = init_fusion_params(rng, d, dtype)
    params["head"] = init_head_params(rng, head_input_width(config), d, dtype)
    return Model(config=config, dims=dims, params=params)


def predict_dataset(model: Model, dataset) -> list[SegmentPrediction]:
    """Forward-only inference over (video, query) pairs."""
    out = []
    with tt.no_grad():
        for video, query in dataset:
            out.append(model.forward(video, query))
    return out
