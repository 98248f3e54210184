"""Metric correctness: IoU properties, recall vs brute force, report plumbing,
and the ablation variant table.
"""

import json

import numpy as np
import pytest

from hvsarn.data import GroundTruthSegment, ModelConfig
from hvsarn.evaluation import (
    DEFAULT_METRIC_GRID,
    STANDARD_ABLATIONS,
    MetricReport,
    ablation_config,
    evaluate_predictions,
    metrics_table,
    recall_at,
    recall_hits,
    temporal_iou,
    write_metrics_tsv,
)
from hvsarn.localization import write_predictions_jsonl
from oracles import iou_oracle, recall_oracle


def grid_intervals(step=0.05):
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return [(float(a), float(b)) for a in ticks for b in ticks if b > a]


def test_iou_matches_oracle_on_grid():
    intervals = grid_intervals()
    for a in intervals[::3]:
        for b in intervals[::3]:
            np.testing.assert_allclose(temporal_iou(a, b), iou_oracle(a, b), atol=1e-12)


def test_iou_symmetry_and_bounds():
    intervals = grid_intervals(0.1)
    for a in intervals:
        for b in intervals:
            v = temporal_iou(a, b)
            assert v == temporal_iou(b, a)
            assert 0.0 <= v <= 1.0


def test_iou_identity():
    assert temporal_iou((0.0, 1.0), (0.0, 1.0)) == 1.0
    for a in grid_intervals(0.1):
        np.testing.assert_allclose(temporal_iou(a, a), 1.0, atol=1e-12)


def test_iou_touching_intervals_is_zero():
    assert temporal_iou((0.0, 0.4), (0.4, 1.0)) == 0.0
    assert temporal_iou((0.5, 0.7), (0.7, 0.9)) == 0.0


def test_iou_degenerate_interval_raises():
    with pytest.raises(ValueError, match="degenerate"):
        temporal_iou((0.5, 0.5), (0.0, 1.0))
    with pytest.raises(ValueError, match="degenerate"):
        temporal_iou((0.0, 1.0), (0.8, 0.2))


def test_iou_accepts_ground_truth_segments():
    truth = GroundTruthSegment(start=0.2, end=0.6)
    np.testing.assert_allclose(temporal_iou(truth, (0.2, 0.6)), 1.0)


def random_eval_case(rng, samples=8, candidates=6):
    predictions, truths = [], []
    for _ in range(samples):
        segs = []
        for _ in range(candidates):
            lo = rng.uniform(0.0, 0.9)
            hi = rng.uniform(lo + 0.05, 1.0)
            segs.append((lo, hi))
        predictions.append(segs)
        lo = rng.uniform(0.0, 0.9)
        truths.append(GroundTruthSegment(start=lo, end=float(rng.uniform(lo + 0.05, 1.0))))
    return predictions, truths


def test_recall_matches_brute_force():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        predictions, truths = random_eval_case(rng)
        for n in (1, 3, 5):
            for m in (0.3, 0.5, 0.7):
                got = recall_at(predictions, truths, n, m)
                want = recall_oracle(
                    predictions, [(t.start, t.end) for t in truths], n, m
                )
                assert got == want  # exact: both are ratios of identical hit counts


def test_recall_input_validation():
    preds, truths = random_eval_case(np.random.default_rng(0))
    with pytest.raises(ValueError, match="predictions"):
        recall_hits(preds[:3], truths, 1, 0.5)
    with pytest.raises(ValueError, match="n must be"):
        recall_hits(preds, truths, 0, 0.5)
    for empty in (recall_hits, recall_at):
        with pytest.raises(ValueError, match="empty sample list"):
            empty([], [], 1, 0.5)
    with pytest.raises(ValueError, match="empty sample list"):
        evaluate_predictions([], [])


def test_recall_monotone_in_n_and_threshold():
    rng = np.random.default_rng(7)
    predictions, truths = random_eval_case(rng, samples=20)
    r1 = recall_at(predictions, truths, 1, 0.5)
    r5 = recall_at(predictions, truths, 5, 0.5)
    assert r5 >= r1
    loose = recall_at(predictions, truths, 5, 0.3)
    tight = recall_at(predictions, truths, 5, 0.7)
    assert loose >= tight


def test_evaluate_predictions_report():
    rng = np.random.default_rng(9)
    predictions, truths = random_eval_case(rng, samples=10)
    report = evaluate_predictions(predictions, truths)
    assert report.count == 10
    assert set(report.cells) == set(DEFAULT_METRIC_GRID)
    for (n, m), value in report.cells.items():
        assert value == sum(report.hits[(n, m)]) / 10
        assert report.recall(n, m) == value
    d = report.to_dict()
    assert d["count"] == 10
    assert "R@1,IoU=0.5" in d["metrics"]


def test_report_from_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    predictions, truths = random_eval_case(rng, samples=6)
    records = [
        {
            "query_id": f"q-{i}",
            "video_id": f"v-{i}",
            "segments": [[lo, hi, 1.0] for lo, hi in segs],
        }
        for i, segs in enumerate(predictions)
    ]
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(path, records)
    back = [json.loads(line) for line in path.read_text().splitlines()]
    direct = evaluate_predictions(predictions, truths)
    via_file = evaluate_predictions(
        [[(seg[0], seg[1]) for seg in rec["segments"]] for rec in back], truths
    )
    assert via_file.cells == direct.cells


def test_metrics_table_layout(tmp_path):
    report = MetricReport(count=4)
    for n, m in DEFAULT_METRIC_GRID:
        report.cells[(n, m)] = 0.5
    text = metrics_table({"full": report, "no_reasoning": report})
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["model"] + [f"R@{n},IoU={m:g}" for n, m in DEFAULT_METRIC_GRID]
    assert len(lines) == 3
    assert lines[1].startswith("full\t")
    out = tmp_path / "metrics.tsv"
    write_metrics_tsv(out, {"full": report})
    assert out.read_text() == metrics_table({"full": report})


def test_ablation_config_flag_map():
    base = ModelConfig(hidden_size=8)
    assert ablation_config(base, "full") == base
    assert ablation_config(base, "object_level_only").use_frame_level is False
    assert ablation_config(base, "frame_level_only").use_object_level is False
    assert ablation_config(base, "two_stream").two_stream is True
    assert ablation_config(base, "no_visual_graph").use_visual_graph is False
    assert ablation_config(base, "no_semantic_graph").use_semantic_graph is False
    off = ablation_config(base, "no_reasoning")
    assert off.use_visual_graph is False and off.use_semantic_graph is False
    for kind in ("gcn", "gcn_fusion", "self_attention", "memory_network"):
        assert ablation_config(base, kind).reasoner_kind == kind


def test_ablation_config_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown ablation"):
        ablation_config(ModelConfig(hidden_size=8), "dropout")


def test_standard_ablations_all_resolve():
    base = ModelConfig(hidden_size=8)
    for name in STANDARD_ABLATIONS:
        ablation_config(base, name)  # must not raise
