"""Frame fusion, temporal contextualization, and span prediction.

The head concatenates per-frame visual/semantic vectors [S, T, 2D], runs the
Bi-GRU (`recurrent.gru_sequence`, both directions in one loop) over time,
and maps each frame to a start logit and an end logit, [S, T] each.  Candidate
segments are every frame pair (i, j) with i < j, scored by
softmax(start)[i] * softmax(end)[j], emitted in descending score with ties
broken lexicographically on (i, j), as fractions (i/T, (j+1)/T).  The
ranking is vectorized, in float64 throughout: `np.triu_indices` yields the
upper-triangle pairs already in (i, j) order, an unstable `np.argsort` on
-score ranks them, and a second argsort restores pair order within each
run of equal scores.  The ranking is one read-only, C-contiguous [n, 3]
float64 array of (start_frac, end_frac, score) rows; `.tolist()` gives the
same numbers as Python floats.
Training minimizes cross-entropy of the start/end distributions at the
ground-truth frame indices, gathered per sample from the [S, T]
log-softmaxes and summed over the S samples; it needs only the logits
(`span_logits`), not the ranking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tt
from .data import GroundTruthSegment, frame_pair_to_fractions, segment_to_frame_indices
from .hierarchy import FrameRepresentations
from .recurrent import bigru_params, gru_sequence
from .tensor import Tensor


@dataclass
class SegmentPrediction:
    start_logits: Tensor  # [T]
    end_logits: Tensor  # [T]
    top_segments: np.ndarray  # [n, 3] float64 (start_frac, end_frac, score) rows, read-only, ranked


def head_params(input_width: int, hidden: int) -> dict:
    return {
        "gru": bigru_params(input_width, hidden // 2),
        "start": [("w", (hidden, 1))],
        "end": [("w", (hidden, 1))],
    }


def fuse_and_contextualize(frames: FrameRepresentations, params: dict) -> Tensor:
    """[visual, semantic] per frame through the Bi-GRU; returns [S, T, hidden]."""
    fused = tt.concat([frames.visual, frames.semantic], axis=2)
    return gru_sequence(fused, params["gru"])


def _np_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def enumerate_segments(
    start_logits: np.ndarray, end_logits: np.ndarray, max_segments: int | None = None
) -> np.ndarray:
    """Rank all (i, j), i < j by softmax(start)[i] * softmax(end)[j].

    Returns a read-only [n, 3] float64 array of (start_frac, end_frac, score)
    rows in rank order; n is T(T-1)/2, capped at `max_segments`.
    """
    T = start_logits.shape[0]
    s = _np_softmax(np.asarray(start_logits, dtype=np.float64))
    e = _np_softmax(np.asarray(end_logits, dtype=np.float64))
    i, j = np.triu_indices(T, k=1)
    score = s[i] * e[j]
    # The same permutation as a stable argsort of -score, faster: rank with the
    # default sort, number the runs of equal scores, then sort on the unique
    # key (run, pair index), which puts each run back in (i, j) order.
    n = score.size
    order = np.argsort(-score)
    ranked = score[order]
    run = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
    order = order[np.argsort(run * n + order)][:max_segments]
    lo, hi = frame_pair_to_fractions(i[order], j[order], T)
    segments = np.stack([lo, hi, score[order]], axis=1)
    segments.flags.writeable = False
    return segments


def span_logits(contextual: Tensor, params: dict) -> tuple[Tensor, Tensor]:
    """Start and end logits per frame, each [S, T]; a bias would cancel in the softmax."""
    S, T, _ = contextual.shape
    start_logits = tt.reshape(tt.linear(contextual, params["start"]["w"]), (S, T))
    end_logits = tt.reshape(tt.linear(contextual, params["end"]["w"]), (S, T))
    return start_logits, end_logits


def predict(
    contextual: Tensor, params: dict, max_segments: int | None = None
) -> list[SegmentPrediction]:
    """Score start/end per frame and enumerate ranked candidate segments, one
    prediction per sample of contextual [S, T, hidden]."""
    start_logits, end_logits = span_logits(contextual, params)
    out = []
    for i in range(contextual.shape[0]):
        start, end = start_logits[i], end_logits[i]
        segments = enumerate_segments(start.data, end.data, max_segments)
        out.append(SegmentPrediction(start_logits=start, end_logits=end, top_segments=segments))
    return out


def loss(
    start_logits: Tensor, end_logits: Tensor, truths: list[GroundTruthSegment], num_frames: int
) -> Tensor:
    """Start + end cross-entropy at each sample's ground-truth frame indices,
    summed over the samples; logits are [S, T] with one truth per row."""
    rows = np.arange(len(truths))
    s_idx, e_idx = np.array([segment_to_frame_indices(t, num_frames) for t in truths]).T
    log_s = tt.log_softmax(start_logits, axis=1)
    log_e = tt.log_softmax(end_logits, axis=1)
    return -tt.tsum(log_s[rows, s_idx] + log_e[rows, e_idx])


def write_predictions_jsonl(path: str | Path, records: list[dict]) -> None:
    """One {"query_id", "video_id", "segments": [[start, end, score], ...]} object per line."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
