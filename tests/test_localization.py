"""Span head: candidate enumeration, tie-breaking, loss values, JSONL output."""

import json

import numpy as np
import pytest

from hvsarn.data import GroundTruthSegment, segment_to_frame_indices, synth_sample
from hvsarn.hierarchy import FrameRepresentations
from hvsarn.localization import (
    enumerate_segments,
    fuse_and_contextualize,
    head_params,
    loss,
    predict,
    span_logits,
    write_predictions_jsonl,
)
from hvsarn.params import init_params
from hvsarn.tensor import Tensor
from oracles import span_enumeration_oracle

D = 6


def head_setup(seed=0, T=5, S=1):
    rng = np.random.default_rng(seed)
    params = init_params(head_params(2 * D, D), rng, np.float64)
    frames = FrameRepresentations(
        visual=Tensor(rng.normal(size=(S, T, D))), semantic=Tensor(rng.normal(size=(S, T, D)))
    )
    return params, frames


def test_enumeration_matches_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 9))
        start = rng.normal(size=T)
        end = rng.normal(size=T)
        got = enumerate_segments(start, end)
        want = span_enumeration_oracle(start, end)
        assert len(got) == len(want)
        for (lo, hi, score), (rlo, rhi, rscore) in zip(got, want):
            assert (lo, hi) == (rlo, rhi)
            np.testing.assert_allclose(score, rscore, atol=1e-12)


def test_enumeration_matches_oracle_for_every_length_up_to_40():
    rng = np.random.default_rng(2)
    for T in range(2, 41):
        start = rng.normal(size=T)
        end = rng.normal(size=T)
        got = enumerate_segments(start, end)
        want = span_enumeration_oracle(start, end)
        assert len(got) == T * (T - 1) // 2
        assert [(lo, hi) for lo, hi, _ in got] == [(lo, hi) for lo, hi, _ in want]
        np.testing.assert_allclose([s for _, _, s in got], [s for _, _, s in want], atol=1e-12)


def test_uniform_logits_tie_order_at_t24():
    T = 24
    segs = enumerate_segments(np.zeros(T), np.zeros(T))
    pairs = [(round(lo * T), round(hi * T) - 1) for lo, hi, _ in segs]
    assert pairs == [(i, j) for i in range(T) for j in range(i + 1, T)]
    assert segs == span_enumeration_oracle(np.zeros(T), np.zeros(T))


def test_max_segments_is_a_prefix_of_the_full_ranking():
    rng = np.random.default_rng(8)
    start, end = rng.normal(size=12), rng.normal(size=12)
    start[3] = start[5]  # equal start scores force (i, j) tie-breaks
    full = enumerate_segments(start, end)
    for m in (0, 1, 7, 65, 66, 100):
        assert enumerate_segments(start, end, max_segments=m) == full[:m]


def stable_ranking(start, end, max_segments):
    """The ranking as one stable argsort of -score, which keeps (i, j) order in ties."""
    T = start.shape[0]
    s, e = np.exp(start - start.max()), np.exp(end - end.max())
    s, e = s / s.sum(), e / e.sum()
    i, j = np.triu_indices(T, k=1)
    score = s[i] * e[j]
    order = np.argsort(-score, kind="stable")[:max_segments]
    return list(zip((i[order] / T).tolist(), ((j[order] + 1) / T).tolist(), score[order].tolist()))


@pytest.mark.parametrize("max_segments", [None, 5])
@pytest.mark.parametrize("logits", ["random", "zero", "repeated"])
@pytest.mark.parametrize("T", [2, 3, 24, 128, 256])
def test_ranking_equals_the_stable_argsort(T, logits, max_segments):
    rng = np.random.default_rng([T, len(logits)])
    start, end = {
        "random": lambda: (rng.normal(size=T), rng.normal(size=T)),
        "zero": lambda: (np.zeros(T), np.zeros(T)),
        # three values: long runs of equal scores, spread over the ranking
        "repeated": lambda: (rng.integers(0, 3, T) * 0.5, rng.integers(0, 3, T) * 0.5),
    }[logits]()
    want = stable_ranking(start, end, max_segments)
    assert enumerate_segments(start, end, max_segments) == want


def test_two_frame_video_has_single_candidate():
    segs = enumerate_segments(np.zeros(2), np.zeros(2))
    assert segs == [(0.0, 1.0, segs[0][2])]
    np.testing.assert_allclose(segs[0][2], 0.25, atol=1e-12)


def test_training_span_is_always_a_candidate():
    # The loss trains toward frames (s, e); inference ranks only pairs i < j.
    # Every synth truth, and every fuzzed truth that Model.loss accepts
    # (s < e), must be one of the ranked candidates.
    rng = np.random.default_rng(17)
    for T in range(3, 65):
        segs = enumerate_segments(rng.normal(size=T), rng.normal(size=T))
        candidates = {segment_to_frame_indices(GroundTruthSegment(lo, hi), T) for lo, hi, _ in segs}
        assert len(candidates) == T * (T - 1) // 2
        for seed in range(4):
            truth = synth_sample(seed, T, 1)[0].annotation
            assert segment_to_frame_indices(truth, T) in candidates, (T, seed)
        for _ in range(25):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            t0, t1 = np.sort(rng.choice(T + 1, 2, replace=False))
            for truth in (GroundTruthSegment(lo, hi), GroundTruthSegment(t0 / T, t1 / T)):
                s_idx, e_idx = segment_to_frame_indices(truth, T)
                if s_idx < e_idx:
                    assert (s_idx, e_idx) in candidates, (T, truth)


def test_one_frame_video_has_no_candidates():
    assert enumerate_segments(np.zeros(1), np.zeros(1)) == []


def test_uniform_logits_tie_break_is_lexicographic():
    T = 4
    segs = enumerate_segments(np.zeros(T), np.zeros(T))
    pairs = [(round(lo * T), round(hi * T) - 1) for lo, hi, _ in segs]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_max_segments_clamps_output():
    segs = enumerate_segments(np.zeros(6), np.zeros(6), max_segments=3)
    assert len(segs) == 3


def test_scores_sorted_descending():
    rng = np.random.default_rng(3)
    segs = enumerate_segments(rng.normal(size=7), rng.normal(size=7))
    scores = [score for _, _, score in segs]
    assert scores == sorted(scores, reverse=True)


def test_predict_returns_fractions_and_logits():
    params, frames = head_setup(S=2)
    contextual = fuse_and_contextualize(frames, params)
    preds = predict(contextual, params)
    assert len(preds) == 2
    for pred in preds:
        assert pred.start_logits.shape == (5,)
        assert pred.end_logits.shape == (5,)
        assert len(pred.top_segments) == 10  # C(5, 2)
        for lo, hi, _ in pred.top_segments:
            assert 0.0 <= lo < hi <= 1.0


def test_uniform_logits_loss_is_two_log_t():
    T = 8
    truth = GroundTruthSegment(start=0.25, end=0.75)
    value = loss(Tensor(np.zeros((1, T))), Tensor(np.zeros((1, T))), [truth], num_frames=T)
    np.testing.assert_allclose(value.data, 2.0 * np.log(T), atol=1e-12)


def test_saturated_logits_loss_near_zero():
    T = 6
    truth = GroundTruthSegment(start=2 / T, end=5 / T)
    start = np.full(T, -50.0)
    end = np.full(T, -50.0)
    start[2] = 50.0
    end[4] = 50.0  # ceil(5/6 * 6) - 1 = 4
    assert loss(Tensor(start[None]), Tensor(end[None]), [truth], num_frames=T).data.item() < 1e-9


def test_loss_matches_manual_cross_entropy():
    rng = np.random.default_rng(5)
    T = 7
    start = rng.normal(size=T)
    end = rng.normal(size=T)
    truth = GroundTruthSegment(start=1 / T, end=5 / T)

    def log_softmax(x):
        z = x - x.max()
        return z - np.log(np.exp(z).sum())

    want = -(log_softmax(start)[1] + log_softmax(end)[4])
    value = loss(Tensor(start[None]), Tensor(end[None]), [truth], num_frames=T)
    np.testing.assert_allclose(value.data, want, atol=1e-12)


def test_loss_sums_per_row_cross_entropy():
    # row i is scored against truths[i]; the rows' losses add up
    rng = np.random.default_rng(6)
    T = 7
    start = rng.normal(size=(3, T))
    end = rng.normal(size=(3, T))
    truths = [GroundTruthSegment(i / T, (i + 3) / T) for i in range(3)]
    total = loss(Tensor(start), Tensor(end), truths, num_frames=T)
    rows = [
        loss(Tensor(start[i : i + 1]), Tensor(end[i : i + 1]), [truths[i]], num_frames=T).data
        for i in range(3)
    ]
    np.testing.assert_allclose(total.data, sum(rows), atol=1e-12)


def test_loss_gradient_flows_to_head_params():
    params, frames = head_setup(seed=6)
    contextual = fuse_and_contextualize(frames, params)
    start, end = span_logits(contextual, params)
    value = loss(start, end, [GroundTruthSegment(start=0.2, end=0.8)], num_frames=5)
    value.backward()
    for name in ("start", "end"):
        assert params[name]["w"].grad is not None
        assert np.any(params[name]["w"].grad != 0.0)


def test_jsonl_round_trip(tmp_path):
    params, frames = head_setup(seed=7)
    (pred,) = predict(fuse_and_contextualize(frames, params), params, max_segments=4)
    path = tmp_path / "predictions.jsonl"
    rows = [
        {
            "query_id": "q-0",
            "video_id": "v-0",
            "segments": [[lo, hi, score] for lo, hi, score in pred.top_segments],
        }
    ]
    write_predictions_jsonl(path, rows)
    assert [json.loads(line) for line in path.read_text().splitlines()] == rows
    # each line must parse standalone and carry array-shaped segments
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert isinstance(parsed["segments"][0], list) and len(parsed["segments"][0]) == 3
