"""Full network: encoders -> hierarchical reasoning -> span head.

The parameter tree is declared once as a spec (`model_params`), a pure
function of (config, input dims); `build_model` draws it seeded from
config.seed in the spec's fixed order, so checkpoints and repeat runs agree
bit-for-bit.

`Model.forward` and `Model.loss` take a list of (video, query) samples that
share (num_frames, num_objects) and run them as one tape with a leading
sample axis S; a single sample is a list of one.  Each sample's arithmetic
is the same whatever its companions, so its answer is too.  Each query
encodes to a one-row matrix, so the sentences stack to [S, 1, D], the
controller shape every reasoning layer takes.  `predict_dataset` groups a
dataset by shape into chunks of at most `EVAL_CHUNK` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import ModelConfig, QuerySample, VideoSample, segment_to_frame_indices
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
# a 2-vCPU x86 host: a chunk of 8 scores 226 queries/s against 240 for the
# whole set at T=32/K=8 and 49 against 42 at T=128/K=4, and a T=256/K=8
# chunk adds ~50 MB to the peak RSS of a process that holds the default
# float32 model, where the whole set grows without bound.
EVAL_CHUNK = 8


@dataclass
class Model:
    config: ModelConfig
    dims: InputDims
    params: dict

    def named_parameters(self) -> dict[str, Tensor]:
        return flatten(self.params)

    # -- forward -----------------------------------------------------------

    def _check_limits(self, video: VideoSample) -> None:
        if video.num_frames < 2:
            raise ValueError(
                f"num_frames {video.num_frames} is below 2: a candidate segment spans two frames"
            )
        if video.num_frames > self.config.max_frames:
            raise ValueError(
                f"num_frames {video.num_frames} exceeds config.max_frames {self.config.max_frames}"
            )
        if video.num_objects > self.config.max_objects:
            raise ValueError(
                f"num_objects {video.num_objects} exceeds config.max_objects "
                f"{self.config.max_objects}"
            )

    def encode(self, samples: list[tuple[VideoSample, QuerySample]]) -> tuple[EncodedVideo, Tensor]:
        """Encoded videos [S,T,K,D] and query sentences [S,1,D] of same-shape samples."""
        if not samples:
            raise ValueError("no samples to encode")
        videos = [video for video, _ in samples]
        shape = (videos[0].num_frames, videos[0].num_objects)
        for video in videos:
            self._check_limits(video)
            if (video.num_frames, video.num_objects) != shape:
                raise ValueError(
                    f"sample {video.video_id} has (num_frames, num_objects) "
                    f"{(video.num_frames, video.num_objects)}, expected {shape} like the rest"
                )
        sentences = [
            encode_query(query, self.params["encoder"], self.config.attn_heads)
            for _, query in samples
        ]
        return encode_video(videos, self.params["encoder"]), tt.concat(sentences, axis=0)

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
            if video.annotation is None:
                raise ValueError(f"sample {video.video_id} has no annotation; cannot compute loss")
            self._check_limits(video)
            s, e = segment_to_frame_indices(video.annotation, video.num_frames)
            if s == e:
                raise ValueError(
                    f"sample {video.video_id}: annotation maps to the single frame (s, e) = "
                    f"({s}, {e}); a candidate segment spans two frames"
                )
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


def group_by_shape(samples, limit: int | None = None) -> list[list[int]]:
    """Indices of `samples` grouped by (num_frames, num_objects) in order of
    first appearance, each group split into chunks of at most `limit`."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (video, _) in enumerate(samples):
        groups.setdefault((video.num_frames, video.num_objects), []).append(i)
    step = limit or len(samples)
    return [g[lo : lo + step] for g in groups.values() for lo in range(0, len(g), step)]


def predict_dataset(model: Model, dataset) -> list[SegmentPrediction]:
    """Forward-only inference over (video, query) pairs, in input order."""
    out: list[SegmentPrediction | None] = [None] * len(dataset)
    with tt.no_grad():
        for chunk in group_by_shape(dataset, EVAL_CHUNK):
            predictions = model.forward([dataset[i] for i in chunk])
            for i, prediction in zip(chunk, predictions):
                out[i] = prediction
    return out
