"""Initial object/semantic representations and the query sentence vectors.

Video side: region features and box geometry get their own learned weights
and one shared bias, summed in one affine node; semantic (class/attribute)
word vectors get their own affine map.  `encode_video` stacks a group of S
same-shape videos on a leading sample axis, [S, T, K, D].  Query side:
token vectors pass through one residual multi-head self-attention layer,
then the bidirectional GRU `recurrent.gru_sequence`; the sentence vector is
the projected concatenation of the two final hidden states (the forward
direction's at the last token, the backward direction's at the first).
`encode_query` runs the queries of each token count n as one [S_n, n, Dw]
pass whose rows keep the shapes they have alone, so a query's bytes do not
depend on its companions.  One take restores input order before the
projection to the [S, 1, D] controllers of the reasoning layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import QuerySample, VideoSample, group_by_shape
from .recurrent import bigru_params, gru_sequence
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

    def check(self, video: VideoSample, query: QuerySample, owner: str) -> None:
        """Raise a ValueError naming the sample and the field where its widths
        differ from these, which are `owner`'s."""
        for name, width in vars(InputDims.of(video, query)).items():
            if width != getattr(self, name):
                raise ValueError(
                    f"sample {video.video_id}: {name} {width} != {getattr(self, name)} of {owner}"
                )


@dataclass
class EncodedVideo:
    visual: Tensor  # [S, T, K, D]
    semantic: Tensor  # [S, T, K, D]


def encoder_params(dims: InputDims, hidden: int, heads: int) -> dict:
    if dims.word_dim % heads != 0:
        raise ValueError(
            f"word_dim {dims.word_dim} not divisible by attn_heads {heads}"
        )
    dw = dims.word_dim
    return {
        "visual": [("w", (dims.feature_dim, hidden)), ("b", (hidden,))],
        "box": [("w", (4, hidden))],
        "semantic": [("w", (dims.semantic_dim, hidden)), ("b", (hidden,))],
        "attn": [
            ("wq", (dw, dw)),
            ("bq", (dw,)),
            ("wk", (dw, dw)),
            ("wv", (dw, dw)),
            ("bv", (dw,)),
            ("wo", (dw, dw)),
            ("bo", (dw,)),
        ],
        "gru": bigru_params(dw, hidden // 2),
        "sentence": [("w", (hidden, hidden)), ("b", (hidden,))],
    }


def _param_dtype(params: dict) -> np.dtype:
    return params["visual"]["w"].dtype


def encode_video(samples: list[VideoSample], params: dict) -> EncodedVideo:
    """visual[s,t,k] = A(features) + B(boxes); semantic[s,t,k] = C(word vectors).

    The samples must share (num_frames, num_objects) and have the encoder's
    widths, which `Model.encode` checks; they are stacked on a leading
    sample axis.
    """
    dtype = _param_dtype(params)

    def stack(field: str) -> Tensor:
        return Tensor(np.stack([getattr(v, field) for v in samples]).astype(dtype, copy=False))

    feats, boxes, sem = stack("object_features"), stack("boxes"), stack("semantic_embeddings")
    visual = tt.affine(
        ((feats, params["visual"]["w"]), (boxes, params["box"]["w"])), params["visual"]["b"]
    )
    semantic = tt.linear(sem, params["semantic"]["w"], params["semantic"]["b"])
    return EncodedVideo(visual=visual, semantic=semantic)


def self_attention(x: Tensor, params: dict, heads: int):
    """Residual multi-head self-attention on x [..., N, Dw]; returns (out, attn [..., H, N, N])."""
    *lead, n, dw = x.shape
    dh = dw // heads

    def split(t: Tensor, destination: int) -> Tensor:
        """[..., n, Dw] as heads, with its n axis moved to `destination`."""
        return tt.moveaxis(tt.reshape(t, (*lead, n, heads, dh)), -3, destination)

    q = split(tt.linear(x, params["wq"], params["bq"]), -2)  # [..., heads, n, dh]
    # No key bias: q . bk is the same for every key, so the softmax cancels it.
    k = split(tt.linear(x, params["wk"]), -1)  # [..., heads, dh, n]
    v = split(tt.linear(x, params["wv"], params["bv"]), -2)
    scores = tt.matmul(q, k) * (1.0 / np.sqrt(dh))
    attn = tt.softmax(scores, axis=-1)
    pooled = tt.reshape(tt.moveaxis(tt.matmul(attn, v), -3, -2), (*lead, n, dw))
    out = x + tt.linear(pooled, params["wo"], params["bo"])
    return out, attn


def encode_query(queries: list[QuerySample], params: dict, heads: int = 4) -> Tensor:
    """Sentences [S, 1, D] of the queries in input order, one pass per token count."""
    dtype = _param_dtype(params)
    groups = group_by_shape([query.token_embeddings.shape for query in queries])
    finals = []
    for group in groups:
        tokens = np.stack([queries[i].token_embeddings for i in group]).astype(dtype, copy=False)
        attended, _ = self_attention(Tensor(tokens), params["attn"], heads)
        states = gru_sequence(attended, params["gru"])
        # One take of [S_n, 1, 2H]: the forward half at the last token, the backward at the first.
        n, width = states.shape[1:]
        token = np.where(np.arange(width) < width // 2, n - 1, 0)
        finals.append(states[:, token[None], np.arange(width)])
    # concat row r holds query concatenate(groups)[r]; argsort inverts that
    final = tt.take(tt.concat(finals, axis=0), np.argsort(np.concatenate(groups)))
    return tt.linear(final, params["sentence"]["w"], params["sentence"]["b"])
