"""Initial object/semantic representations and the query sentence vector.

Video side: region features and box geometry get separate learned affine
maps into the hidden space and are summed; semantic (class/attribute) word
vectors get their own affine map.  `encode_video` stacks a group of S
same-shape videos on a leading sample axis, [S, T, K, D].  Query side:
token vectors pass through one residual multi-head self-attention layer,
then the bidirectional GRU `recurrent.gru_sequence`; the sentence vector is
the projected concatenation of the two final hidden states (the forward
direction's at the last token, the backward direction's at the first).
Queries differ in length, so each is encoded on its own, as a one-row
matrix [1, 1, D], and the caller stacks the sentences into the [S, 1, D]
controllers of the reasoning layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import QuerySample, VideoSample
from .params import weight, zeros
from .recurrent import gru_sequence, init_bigru_params
from .tensor import Tensor


@dataclass(frozen=True)
class InputDims:
    """Feature widths carried by the data (sample manifests), not the model."""

    feature_dim: int
    semantic_dim: int
    word_dim: int

    @staticmethod
    def of(video: VideoSample, query: QuerySample) -> "InputDims":
        return InputDims(video.feature_dim, video.semantic_dim, query.word_dim)


@dataclass
class EncodedVideo:
    visual: Tensor  # [S, T, K, D]
    semantic: Tensor  # [S, T, K, D]


def init_encoder_params(
    rng: np.random.Generator, dims: InputDims, hidden: int, heads: int, dtype
) -> dict:
    if dims.word_dim % heads != 0:
        raise ValueError(
            f"word_dim {dims.word_dim} not divisible by attn_heads {heads}"
        )
    dw = dims.word_dim
    return {
        "visual": {"w": weight(rng, (dims.feature_dim, hidden), dtype), "b": zeros((hidden,), dtype)},
        "box": {"w": weight(rng, (4, hidden), dtype), "b": zeros((hidden,), dtype)},
        "semantic": {"w": weight(rng, (dims.semantic_dim, hidden), dtype), "b": zeros((hidden,), dtype)},
        "attn": {
            "wq": weight(rng, (dw, dw), dtype),
            "bq": zeros((dw,), dtype),
            "wk": weight(rng, (dw, dw), dtype),
            "wv": weight(rng, (dw, dw), dtype),
            "bv": zeros((dw,), dtype),
            "wo": weight(rng, (dw, dw), dtype),
            "bo": zeros((dw,), dtype),
        },
        "gru": init_bigru_params(rng, dw, hidden // 2, dtype),
        "sentence": {"w": weight(rng, (hidden, hidden), dtype), "b": zeros((hidden,), dtype)},
    }


def _param_dtype(params: dict) -> np.dtype:
    return params["visual"]["w"].dtype


def encode_video(samples: list[VideoSample], params: dict) -> EncodedVideo:
    """visual[s,t,k] = A(features) + B(boxes); semantic[s,t,k] = C(word vectors).

    The samples must share (num_frames, num_objects); they are stacked on a
    leading sample axis.
    """
    dtype = _param_dtype(params)

    def stack(field: str) -> Tensor:
        return Tensor(np.stack([getattr(v, field) for v in samples]).astype(dtype))

    feats, boxes, sem = stack("object_features"), stack("boxes"), stack("semantic_embeddings")
    if feats.shape[-1] != params["visual"]["w"].shape[0]:
        raise ValueError(
            f"object_features dim {feats.shape[-1]} != encoder dim {params['visual']['w'].shape[0]}"
        )
    if sem.shape[-1] != params["semantic"]["w"].shape[0]:
        raise ValueError(
            f"semantic_embeddings dim {sem.shape[-1]} != encoder dim {params['semantic']['w'].shape[0]}"
        )
    visual = tt.linear(feats, params["visual"]["w"], params["visual"]["b"]) + tt.linear(
        boxes, params["box"]["w"], params["box"]["b"]
    )
    semantic = tt.linear(sem, params["semantic"]["w"], params["semantic"]["b"])
    return EncodedVideo(visual=visual, semantic=semantic)


def self_attention(x: Tensor, params: dict, heads: int):
    """Residual multi-head self-attention; returns (out [N, Dw], weights [H, N, N])."""
    n, dw = x.shape
    dh = dw // heads

    def split(t: Tensor) -> Tensor:
        return tt.swapaxes(tt.reshape(t, (n, heads, dh)), 0, 1)

    q = split(tt.linear(x, params["wq"], params["bq"]))
    # No key bias: q . bk is the same for every key, so the softmax cancels it.
    k = split(tt.linear(x, params["wk"]))
    v = split(tt.linear(x, params["wv"], params["bv"]))
    scores = tt.matmul(q, tt.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(dh))
    attn = tt.softmax(scores, axis=-1)
    pooled = tt.reshape(tt.swapaxes(tt.matmul(attn, v), 0, 1), (n, dw))
    out = x + tt.linear(pooled, params["wo"], params["bo"])
    return out, attn


def encode_query(sample: QuerySample, params: dict, heads: int = 4) -> Tensor:
    """Self-attend the token vectors, run the Bi-GRU, project the final states to [1, 1, D]."""
    dtype = _param_dtype(params)
    tokens = Tensor(sample.token_embeddings.astype(dtype))
    if tokens.shape[1] != params["attn"]["wq"].shape[0]:
        raise ValueError(
            f"token dim {tokens.shape[1]} != encoder dim {params['attn']['wq'].shape[0]}"
        )
    attended, _ = self_attention(tokens, params["attn"], heads)
    n, dw = attended.shape
    x = tt.reshape(attended, (1, n, dw))
    states = gru_sequence(x, params["gru"])
    hidden = states.shape[2] // 2
    final = tt.concat([states[:, n - 1 : n, :hidden], states[:, :1, hidden:]], axis=2)
    return tt.linear(final, params["sentence"]["w"], params["sentence"]["b"])
