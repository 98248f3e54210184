"""Retrieval metrics and the ablation harness.

Segments are (start, end) fractions of video length with start < end.
The headline numbers are Recall@n at IoU threshold m over a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import GroundTruthSegment, ModelConfig
from .graph_memory import BASELINE_KINDS
from .localization import SegmentPrediction
from .model import predict_dataset
from .training import train

DEFAULT_METRIC_GRID: tuple[tuple[int, float], ...] = (
    (1, 0.3),
    (1, 0.5),
    (1, 0.7),
    (5, 0.3),
    (5, 0.5),
    (5, 0.7),
)


def _as_interval(segment) -> tuple[float, float]:
    if isinstance(segment, GroundTruthSegment):
        return segment.start, segment.end
    start, end = float(segment[0]), float(segment[1])
    return start, end


def temporal_iou(a, b) -> float:
    """Intersection over union of two intervals; 0.0 when they only touch."""
    a0, a1 = _as_interval(a)
    b0, b1 = _as_interval(b)
    if a1 <= a0:
        raise ValueError(f"degenerate interval ({a0}, {a1})")
    if b1 <= b0:
        raise ValueError(f"degenerate interval ({b0}, {b1})")
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0.0:
        return 0.0
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union


def _top_segments(prediction, n: int) -> list:
    """The first n candidates as (start, end); only those are converted."""
    if isinstance(prediction, SegmentPrediction):
        return prediction.top_segments[:n, :2].tolist()
    return [_as_interval(seg) for seg in prediction[:n]]


def recall_hits(predictions, truths, n: int, m: float) -> list[bool]:
    """Per-sample hit flags: does any of the top-n candidates reach IoU >= m?"""
    if len(predictions) != len(truths):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(truths)} ground-truth segments"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not truths:
        raise ValueError("recall over an empty sample list is undefined")
    hits = []
    for prediction, truth in zip(predictions, truths):
        candidates = _top_segments(prediction, n)
        hits.append(any(temporal_iou(c, truth) >= m for c in candidates))
    return hits


def recall_at(predictions, truths, n: int, m: float) -> float:
    hits = recall_hits(predictions, truths, n, m)
    return sum(hits) / len(hits)


@dataclass
class MetricReport:
    """Recall numbers over a metric grid, with per-sample hits retained."""

    count: int
    cells: dict[tuple[int, float], float] = field(default_factory=dict)
    hits: dict[tuple[int, float], list[bool]] = field(default_factory=dict)

    def recall(self, n: int, m: float) -> float:
        return self.cells[(n, m)]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "metrics": {f"R@{n},IoU={m:g}": r for (n, m), r in sorted(self.cells.items())},
        }


def evaluate_predictions(predictions, truths, grid=DEFAULT_METRIC_GRID) -> MetricReport:
    report = MetricReport(count=len(truths))
    for n, m in grid:
        hits = recall_hits(predictions, truths, n, m)
        report.hits[(n, m)] = hits
        report.cells[(n, m)] = sum(hits) / len(hits)
    return report


# -- report tables ----------------------------------------------------------


def metrics_table(named_reports: dict[str, MetricReport], grid=DEFAULT_METRIC_GRID) -> str:
    """One TSV row per model, one column per grid cell."""
    header = ["model"] + [f"R@{n},IoU={m:g}" for n, m in grid]
    lines = ["\t".join(header)]
    for name, report in named_reports.items():
        row = [name] + [f"{report.recall(n, m):.4f}" for n, m in grid]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def write_metrics_tsv(path, named_reports: dict[str, MetricReport], grid=DEFAULT_METRIC_GRID) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_table(named_reports, grid))


# -- ablation harness -------------------------------------------------------

# The config fields each named variant sets on top of its base configuration.
ABLATIONS: dict[str, dict] = {
    "full": {},
    "object_level_only": {"use_frame_level": False},
    "frame_level_only": {"use_object_level": False},
    "two_stream": {"two_stream": True},
    "no_visual_graph": {"use_visual_graph": False},
    "no_semantic_graph": {"use_semantic_graph": False},
    "no_reasoning": {"use_visual_graph": False, "use_semantic_graph": False},
    **{kind: {"reasoner_kind": kind} for kind in BASELINE_KINDS},
}
STANDARD_ABLATIONS: tuple[str, ...] = tuple(ABLATIONS)


def ablation_config(base: ModelConfig, name: str) -> ModelConfig:
    """Derive one named variant from a base configuration."""
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}; expected one of {STANDARD_ABLATIONS}")
    return ModelConfig.from_dict({**base.to_dict(), **ABLATIONS[name]})


def ablation_report(
    base: ModelConfig, names, dataset, hyper, grid=DEFAULT_METRIC_GRID, dtype=np.float32
):
    """Train one model per named variant on `dataset` and evaluate it in place.

    Desk-scale harness: train and eval sets coincide, which is what the
    direction checks in the test suite want (the comparison is architectural,
    not about generalization).
    """
    truths = [video.annotation for video, _ in dataset]
    if any(t is None for t in truths):
        raise ValueError("ablation datasets need annotated samples")
    reports: dict[str, MetricReport] = {}
    for name in names:
        config = ablation_config(base, name)
        state, _ = train(dataset, config, hyper, dtype=dtype)
        predictions = predict_dataset(state.model, dataset)
        reports[name] = evaluate_predictions(predictions, truths, grid)
    return reports
