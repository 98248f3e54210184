"""Full network: encoders -> hierarchical reasoning -> span head.

The parameter tree is declared once as a spec (`model_params`), a pure
function of (config, input dims); `build_model` draws it seeded from
config.seed in the spec's fixed order, so checkpoints and repeat runs agree
bit-for-bit.

`Model.forward` and `Model.loss` take a list of (video, query) samples that
share (num_frames, num_objects) and run them as one tape with a leading
sample axis S; a single sample is a list of one.  Each sample's arithmetic
is the same whatever its companions, so its answer is too.  The queries
encode together to [S, 1, D] sentences, the controller shape every
reasoning layer takes.  `predict_dataset` groups a dataset by shape into
chunks of at most `EVAL_CHUNK` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import ModelConfig, QuerySample, VideoSample, group_by_shape, segment_to_frame_indices
from .encoders import EncodedVideo, InputDims, encode_query, encode_video, encoder_params
from .hierarchy import (
    FrameRepresentations,
    frame_level_pass,
    frames_from_encoder_mean,
    fuse_objects,
    fusion_params,
    level_params,
    object_level_pass,
)
from .localization import SegmentPrediction, fuse_and_contextualize, head_params, predict, span_logits
from .localization import loss as span_loss
from .params import flatten, init_params
from .tensor import Tensor

# Samples per forward in predict_dataset.  Measured with one BLAS thread on
# a 2-vCPU x86 host (default float32 model, best of 3): a chunk of 8 scores
# ~385 queries/s against ~372 for a whole set of 48 at T=32/K=8 and ~129
# against ~124 for 24 at T=128/K=4, and a T=256/K=8 chunk adds ~50 MB to the
# peak RSS of a process that holds the model, where the whole set grows
# without bound.
EVAL_CHUNK = 8


def check_limits(config: ModelConfig, video: VideoSample) -> None:
    """Raise a ValueError naming the field when a video is outside what the model runs."""
    if video.num_frames < 2:
        raise ValueError(
            f"num_frames {video.num_frames} is below 2: a candidate segment spans two frames"
        )
    if video.num_frames > config.max_frames:
        raise ValueError(
            f"num_frames {video.num_frames} exceeds config.max_frames {config.max_frames}"
        )
    if video.num_objects > config.max_objects:
        raise ValueError(
            f"num_objects {video.num_objects} exceeds config.max_objects {config.max_objects}"
        )


def check_loss_sample(config: ModelConfig, video: VideoSample) -> None:
    """Raise a ValueError naming the sample when the loss cannot take it: it
    has no annotation, is outside `check_limits`, or its annotation maps to
    a single frame, which no candidate segment fits."""
    if video.annotation is None:
        raise ValueError(f"sample {video.video_id} is not annotated; cannot compute its loss")
    check_limits(config, video)
    s, e = segment_to_frame_indices(video.annotation, video.num_frames)
    if s == e:
        raise ValueError(
            f"sample {video.video_id}: annotation maps to the single frame (s, e) = "
            f"({s}, {e}); a candidate segment spans two frames"
        )


@dataclass
class Model:
    config: ModelConfig
    dims: InputDims
    params: dict

    def named_parameters(self) -> dict[str, Tensor]:
        return flatten(self.params)

    # -- forward -----------------------------------------------------------

    def encode(self, samples: list[tuple[VideoSample, QuerySample]]) -> tuple[EncodedVideo, Tensor]:
        """Encoded videos [S,T,K,D] and query sentences [S,1,D] of same-shape samples."""
        if not samples:
            raise ValueError("no samples to encode")
        videos = [video for video, _ in samples]
        shape = (videos[0].num_frames, videos[0].num_objects)
        for video, query in samples:
            check_limits(self.config, video)
            self.dims.check(video, query, "the model")
            if (video.num_frames, video.num_objects) != shape:
                raise ValueError(
                    f"sample {video.video_id} has (num_frames, num_objects) "
                    f"{(video.num_frames, video.num_objects)}, expected {shape} like the rest"
                )
        params, queries = self.params["encoder"], [query for _, query in samples]
        return encode_video(videos, params), encode_query(queries, params, self.config.attn_heads)

    def frame_features(self, encoded: EncodedVideo, sentences: Tensor) -> FrameRepresentations:
        """Route encoder outputs through the configured hierarchy variant."""
        cfg = self.config
        if cfg.use_object_level:
            nodes_v, nodes_s = object_level_pass(
                encoded, sentences, self.params["object_level"], cfg
            )
            objects = fuse_objects(nodes_v, nodes_s, sentences, self.params["fusion"])
        # Two streams run the frame level over the encoder mean, beside the objects.
        if cfg.use_object_level and not cfg.two_stream:
            frames = objects
        else:
            frames = frames_from_encoder_mean(encoded)
        if cfg.use_frame_level:
            frames = frame_level_pass(frames, sentences, self.params["frame_level"], cfg)
        if cfg.two_stream:
            return FrameRepresentations(
                visual=tt.concat([objects.visual, frames.visual], axis=2),
                semantic=tt.concat([objects.semantic, frames.semantic], axis=2),
            )
        return frames

    def _contextualize(self, samples: list[tuple[VideoSample, QuerySample]]) -> Tensor:
        """Per-frame head Bi-GRU states [S, T, hidden], the input to the span head."""
        encoded, sentences = self.encode(samples)
        frames = self.frame_features(encoded, sentences)
        return fuse_and_contextualize(frames, self.params["head"])

    def forward(self, samples: list[tuple[VideoSample, QuerySample]]) -> list[SegmentPrediction]:
        """One prediction per sample; the samples must share their shape."""
        contextual = self._contextualize(samples)
        return predict(contextual, self.params["head"], self.config.max_segments)

    def loss(self, samples: list[tuple[VideoSample, QuerySample]]) -> Tensor:
        """Span loss summed over same-shape annotated samples."""
        for video, _ in samples:
            check_loss_sample(self.config, video)
        # The loss reads only the logits, so the candidate ranking is skipped.
        start, end = span_logits(self._contextualize(samples), self.params["head"])
        truths = [video.annotation for video, _ in samples]
        return span_loss(start, end, truths, samples[0][0].num_frames)


def head_input_width(config: ModelConfig) -> int:
    return 4 * config.hidden_size if config.two_stream else 2 * config.hidden_size


def model_params(config: ModelConfig, dims: InputDims) -> dict:
    """The spec of only the groups the config runs, in the fixed draw order
    encoder, object_level, frame_level, fusion, head; a skipped group draws
    nothing from the generator."""
    d = config.hidden_size
    spec = {"encoder": encoder_params(dims, d, config.attn_heads)}
    if config.use_object_level:
        spec["object_level"] = level_params(config)
    if config.use_frame_level:
        spec["frame_level"] = level_params(config)
    if config.use_object_level:
        spec["fusion"] = fusion_params(d)
    spec["head"] = head_params(head_input_width(config), d)
    return spec


def build_model(config: ModelConfig, dims: InputDims, dtype=np.float32) -> Model:
    params = init_params(model_params(config, dims), np.random.default_rng(config.seed), dtype)
    return Model(config=config, dims=dims, params=params)


def predict_dataset(model: Model, dataset) -> list[SegmentPrediction]:
    """Forward-only inference over (video, query) pairs, in input order."""
    out: list[SegmentPrediction | None] = [None] * len(dataset)
    with tt.no_grad():
        shapes = [(video.num_frames, video.num_objects) for video, _ in dataset]
        for chunk in group_by_shape(shapes, EVAL_CHUNK):
            predictions = model.forward([dataset[i] for i in chunk])
            for i, prediction in zip(chunk, predictions):
                out[i] = prediction
    return out
