"""Input encoders and the GRU/attention pieces they are built from."""

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.data import QuerySample
from hvsarn.encoders import (
    InputDims,
    encode_query,
    encode_video,
    init_encoder_params,
    self_attention,
)
from hvsarn.params import flatten
from hvsarn.recurrent import bigru, gru_sequence, init_bigru_params, init_gru_params
from hvsarn.tensor import Tensor
from hvsarn.training import gradcheck_tensors
from oracles import as_np, bigru_oracle, gru_sequence_oracle, multi_head_attention_oracle
from test_data import make_video

DIMS = InputDims(feature_dim=5, semantic_dim=4, word_dim=8)


def make_params(seed=0, hidden=6, heads=4, dtype=np.float64):
    return init_encoder_params(np.random.default_rng(seed), DIMS, hidden, heads, dtype)


def make_query(seed=0, n=5):
    rng = np.random.default_rng(seed)
    return QuerySample("q", rng.normal(size=(n, DIMS.word_dim)), n)


# -- GRU -------------------------------------------------------------------------


def test_gru_sequence_matches_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_gru_params(rng, 5, 3, np.float64)
        x = rng.normal(size=(6, 5))
        states, final = gru_sequence(Tensor(x[None]), params)
        ref_states, ref_final = gru_sequence_oracle(x, as_np(params))
        np.testing.assert_allclose(states.data[0], ref_states, atol=1e-10)
        np.testing.assert_allclose(final.data[0, 0], ref_final, atol=1e-10)


def test_gru_reverse_runs_right_to_left():
    rng = np.random.default_rng(3)
    params = init_gru_params(rng, 4, 3, np.float64)
    x = rng.normal(size=(5, 4))
    states, final = gru_sequence(Tensor(x[None]), params, reverse=True)
    ref_states, ref_final = gru_sequence_oracle(x, as_np(params), reverse=True)
    np.testing.assert_allclose(states.data[0], ref_states, atol=1e-10)
    # reversed pass ends at position 0
    np.testing.assert_allclose(states.data[0, 0], ref_final, atol=1e-10)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_matches_oracle_at_length_40(reverse):
    rng = np.random.default_rng(40)
    params = init_gru_params(rng, 7, 5, np.float64)
    x = rng.normal(size=(40, 7))
    states, final = gru_sequence(Tensor(x[None]), params, reverse=reverse)
    ref_states, ref_final = gru_sequence_oracle(x, as_np(params), reverse=reverse)
    np.testing.assert_allclose(states.data[0], ref_states, atol=1e-10)
    np.testing.assert_allclose(final.data[0, 0], ref_final, atol=1e-10)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_batch_rows_match_oracle_per_sample(reverse):
    # S sequences on the leading axis run as independent GRUs
    rng = np.random.default_rng(41)
    params = init_gru_params(rng, 4, 3, np.float64)
    x = rng.normal(size=(5, 9, 4))
    states, final = gru_sequence(Tensor(x), params, reverse=reverse)
    assert states.shape == (5, 9, 3) and final.shape == (5, 1, 3)
    for i in range(5):
        ref_states, ref_final = gru_sequence_oracle(x[i], as_np(params), reverse=reverse)
        np.testing.assert_allclose(states.data[i], ref_states, atol=1e-10)
        np.testing.assert_allclose(final.data[i, 0], ref_final, atol=1e-10)


def test_bigru_concatenates_directions():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_bigru_params(rng, 4, 3, np.float64)
        x = rng.normal(size=(6, 4))
        contextual, final = bigru(Tensor(x[None]), params)
        ref_ctx, ref_final = bigru_oracle(x, as_np(params))
        np.testing.assert_allclose(contextual.data[0], ref_ctx, atol=1e-10)
        np.testing.assert_allclose(final.data[0], ref_final, atol=1e-10)
        assert contextual.shape == (1, 6, 6) and final.shape == (1, 6)


def test_gru_single_step_sequence():
    rng = np.random.default_rng(4)
    params = init_bigru_params(rng, 4, 2, np.float64)
    contextual, final = bigru(Tensor(rng.normal(size=(1, 1, 4))), params)
    assert contextual.shape == (1, 1, 4)
    np.testing.assert_allclose(contextual.data[0, 0], final.data[0], atol=1e-12)


def test_gru_gradcheck():
    rng = np.random.default_rng(5)
    params = init_bigru_params(rng, 3, 2, np.float64)
    x = Tensor(rng.normal(size=(2, 4, 3)))
    probe = Tensor(rng.normal(size=(2, 4, 4)))

    def loss_fn():
        contextual, _ = bigru(x, params)
        return tt.tsum(contextual * probe)

    report = gradcheck_tensors(loss_fn, flatten(params), tolerance=1e-6)
    assert report.passed, report.format()


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_final_state_gradcheck(reverse):
    # encode_query reads only the final state, which is a slice of the states node
    rng = np.random.default_rng(6)
    params = init_gru_params(rng, 3, 2, np.float64)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 1, 2)))

    def loss_fn():
        _, final = gru_sequence(x, params, reverse=reverse)
        return tt.tsum(final * probe)

    report = gradcheck_tensors(loss_fn, {"x": x, **flatten(params)}, tolerance=1e-6)
    assert report.passed, report.format()
    assert all(e.status == "ok" for e in report.entries), report.format()


def test_gru_sequence_node_count_does_not_grow_with_length(monkeypatch):
    result = Tensor.__dict__["_result"].__func__
    built = []

    def counted_result(data, parents, backward):
        out = result(data, parents, backward)
        if out.requires_grad:
            built.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted_result))
    params = init_gru_params(np.random.default_rng(7), 3, 2, np.float64)
    counts = []
    for n in (4, 40):
        built.clear()
        gru_sequence(Tensor(np.ones((2, n, 3))), params)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


# -- video encoder -----------------------------------------------------------------


def test_encode_video_is_sum_of_affine_maps():
    params = make_params()
    videos = [
        make_video(T=3, K=2, d_in=DIMS.feature_dim, d_sem=DIMS.semantic_dim, rng=np.random.default_rng(s))
        for s in range(2)
    ]
    enc = encode_video(videos, params)
    p = as_np(params)
    assert enc.visual.shape == (2, 3, 2, 6)
    for i, video in enumerate(videos):
        feats = video.object_features.astype(np.float64)
        boxes = video.boxes.astype(np.float64)
        sem = video.semantic_embeddings.astype(np.float64)
        ref_visual = (
            feats @ p["visual"]["w"] + p["visual"]["b"] + boxes @ p["box"]["w"] + p["box"]["b"]
        )
        ref_semantic = sem @ p["semantic"]["w"] + p["semantic"]["b"]
        np.testing.assert_allclose(enc.visual.data[i], ref_visual, atol=1e-10)
        np.testing.assert_allclose(enc.semantic.data[i], ref_semantic, atol=1e-10)


def test_encode_video_casts_to_param_dtype():
    params = make_params(dtype=np.float32)
    video = make_video(T=2, K=2, d_in=DIMS.feature_dim, d_sem=DIMS.semantic_dim)
    enc = encode_video([video], params)
    assert enc.visual.dtype == np.float32


def test_encode_video_dim_mismatch():
    params = make_params()
    video = make_video(T=2, K=2, d_in=9, d_sem=DIMS.semantic_dim)
    with pytest.raises(ValueError, match="object_features"):
        encode_video([video], params)


# -- query encoder ------------------------------------------------------------------


def test_self_attention_matches_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = make_params(seed)["attn"]
        x = rng.normal(size=(5, DIMS.word_dim))
        out, attn = self_attention(Tensor(x), params, heads=4)
        ref = multi_head_attention_oracle(x, as_np(params), heads=4)
        np.testing.assert_allclose(out.data, ref, atol=1e-10)
        np.testing.assert_allclose(attn.data.sum(axis=2), 1.0, atol=1e-6)
        assert attn.shape == (4, 5, 5)


def test_encode_query_shapes_and_determinism():
    params = make_params()
    query = make_query()
    enc1 = encode_query(query, params, heads=4)
    enc2 = encode_query(query, params, heads=4)
    assert enc1.sentence.shape == (6,)
    assert enc1.contextual_tokens.shape == (5, 6)
    np.testing.assert_array_equal(enc1.sentence.data, enc2.sentence.data)


def test_encode_query_single_token():
    params = make_params()
    enc = encode_query(make_query(n=1), params, heads=4)
    assert enc.sentence.shape == (6,)
    assert np.all(np.isfinite(enc.sentence.data))


def test_encoder_head_divisibility_checked():
    with pytest.raises(ValueError, match="divisible"):
        init_encoder_params(np.random.default_rng(0), DIMS, 6, 3, np.float64)


def test_encode_query_token_dim_mismatch():
    params = make_params()
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="token dim"):
        encode_query(QuerySample("q", rng.normal(size=(4, 6)), 4), params, heads=2)


def test_encoder_gradcheck():
    params = make_params()
    video = make_video(T=2, K=2, d_in=DIMS.feature_dim, d_sem=DIMS.semantic_dim)
    query = make_query(n=3)
    rng = np.random.default_rng(6)
    probe_v = Tensor(rng.normal(size=(1, 2, 2, 6)))
    probe_q = Tensor(rng.normal(size=6))

    def loss_fn():
        enc_v = encode_video([video], params)
        enc_q = encode_query(query, params, heads=4)
        return tt.tsum(enc_v.visual * probe_v) + tt.tsum(enc_q.sentence * probe_q)

    report = gradcheck_tensors(loss_fn, flatten(params), tolerance=1e-6)
    assert report.passed, report.format()
    # the semantic branch gets no probe here, so its map is legitimately unused
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["semantic/w"] == "unused"
