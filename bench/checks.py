"""Output checks: what makes a benchmarked operation count as failed."""

from __future__ import annotations

import hashlib

import numpy as np


def invalid_prediction(prediction, num_frames: int, max_segments: int | None) -> str | None:
    """Why a prediction breaks the span contract, or None when it is valid.

    Valid: every segment has 0 <= start < end <= 1 and a finite score, scores
    do not increase down the list, and with no cap there are T(T-1)/2
    candidates.
    """
    segments = np.asarray(prediction.top_segments, dtype=np.float64).reshape(-1, 3)
    expected = num_frames * (num_frames - 1) // 2
    if max_segments is not None:
        expected = min(expected, max_segments)
    if segments.shape[0] != expected:
        return f"{segments.shape[0]} candidates, expected {expected}"
    start, end, score = segments[:, 0], segments[:, 1], segments[:, 2]
    if not (np.all(start >= 0.0) and np.all(start < end) and np.all(end <= 1.0)):
        return "segment outside 0 <= start < end <= 1"
    if not np.all(np.isfinite(score)):
        return "non-finite score"
    if np.any(np.diff(score) > 0.0):
        return "scores increase down the list"
    return None


def segments_digest(prediction) -> bytes:
    """Digest of the exact bytes of top_segments, for run-to-run comparison."""
    raw = np.asarray(prediction.top_segments, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).digest()


def _iou(a0: float, a1: float, b0: float, b1: float) -> float:
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0.0:
        return 0.0
    return inter / ((a1 - a0) + (b1 - b0) - inter)


def report_mismatches(report, predictions, truths) -> list[str]:
    """Recompute every recall cell of an evaluate_predictions report."""
    bad = []
    if report.count != len(truths):
        bad.append(f"report count {report.count} != {len(truths)}")
    for (n, m), value in report.cells.items():
        hits = [
            any(_iou(s, e, t.start, t.end) >= m for s, e, _ in p.top_segments[:n])
            for p, t in zip(predictions, truths)
        ]
        if value != sum(hits) / len(hits):
            bad.append(f"R@{n},IoU={m:g} = {value}, recomputed {sum(hits) / len(hits)}")
    return bad
