"""Input encoders and the GRU/attention pieces they are built from."""

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.data import QuerySample
from hvsarn.encoders import (
    InputDims,
    encode_query,
    encode_video,
    encoder_params,
    self_attention,
)
from hvsarn.params import flatten, init_params, xavier_uniform, zero_grads
from hvsarn.recurrent import bigru_params, gru_params, gru_sequence
from hvsarn.tensor import Tensor
from hvsarn.training import gradcheck_tensors
from oracles import as_np, bigru_oracle, gru_sequence_oracle, multi_head_attention_oracle
from test_data import make_video

DIMS = InputDims(feature_dim=5, semantic_dim=4, word_dim=8)


def make_params(seed=0, hidden=6, heads=4, dtype=np.float64):
    return init_params(encoder_params(DIMS, hidden, heads), np.random.default_rng(seed), dtype)


def make_query(seed=0, n=5):
    rng = np.random.default_rng(seed)
    return QuerySample("q", rng.normal(size=(n, DIMS.word_dim)))


# -- GRU -------------------------------------------------------------------------


def per_direction_bigru(x: Tensor, params: dict) -> Tensor:
    """Reference: each direction as its own node and time loop, then a concat."""

    def sigmoid(a):
        e = np.exp(-np.abs(a))
        return np.where(a >= 0, 1.0, e) / (1.0 + e)

    def recurrence(proj, u_zr, u_g, reverse):
        S, n, _ = proj.shape
        hidden = u_g.shape[0]
        proj_zr, proj_g = proj.data[:, :, : 2 * hidden], proj.data[:, :, 2 * hidden :]
        order = range(n - 1, -1, -1) if reverse else range(n)
        states = np.empty((S, n, hidden), dtype=proj.dtype)
        zr_all = np.empty((S, n, 2 * hidden), dtype=proj.dtype)
        g_all = np.empty_like(states)
        h = np.zeros((S, 1, hidden), dtype=proj.dtype)
        for t in order:
            zr = sigmoid(proj_zr[:, t : t + 1] + h @ u_zr.data)
            z, r = zr[:, :, :hidden], zr[:, :, hidden:]
            g = np.tanh(proj_g[:, t : t + 1] + (r * h) @ u_g.data)
            h = (1.0 - z) * h + z * g
            states[:, t : t + 1] = h
            zr_all[:, t : t + 1] = zr
            g_all[:, t : t + 1] = g

        def backward(grad):
            h_prev = np.zeros_like(states)
            if reverse:
                h_prev[:, :-1] = states[:, 1:]
            else:
                h_prev[:, 1:] = states[:, :-1]
            z, r = zr_all[:, :, :hidden], zr_all[:, :, hidden:]
            dag_dh = z * (1.0 - g_all * g_all)
            daz_dh = (g_all - h_prev) * z * (1.0 - z)
            dprev_dh = 1.0 - z
            dar_dm = h_prev * r * (1.0 - r)
            u_zr_t, u_g_t = u_zr.data.T, u_g.data.T
            dproj = np.empty_like(proj.data)
            carry = np.zeros((S, 1, hidden), dtype=proj.dtype)
            for t in reversed(order):
                step = slice(t, t + 1)
                dh = grad[:, step] + carry
                da_g = np.multiply(dh, dag_dh[:, step], out=dproj[:, step, 2 * hidden :])
                dm = da_g @ u_g_t
                np.multiply(dh, daz_dh[:, step], out=dproj[:, step, :hidden])
                np.multiply(dm, dar_dm[:, step], out=dproj[:, step, hidden : 2 * hidden])
                carry = dh * dprev_dh[:, step] + dm * r[:, step] + dproj[:, step, : 2 * hidden] @ u_zr_t
            proj._accumulate(dproj)
            rows = S * n
            u_zr._accumulate(h_prev.reshape(rows, hidden).T @ dproj[:, :, : 2 * hidden].reshape(rows, -1))
            m = (r * h_prev).reshape(rows, hidden)
            u_g._accumulate(m.T @ dproj[:, :, 2 * hidden :].reshape(rows, hidden))

        return Tensor._result(states, (proj, u_zr, u_g), backward)

    halves = [
        recurrence(tt.linear(x, p["w"], p["b"]), p["u_zr"], p["u_g"], reverse)
        for p, reverse in ((params["fwd"], False), (params["bwd"], True))
    ]
    return tt.concat(halves, axis=2)


def test_gru_sequence_matches_oracle():
    # the first half of each position is the left-to-right GRU
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_params(bigru_params(5, 3), rng, np.float64)
        x = rng.normal(size=(6, 5))
        states = gru_sequence(Tensor(x[None]), params)
        ref_states, ref_final = gru_sequence_oracle(x, as_np(params["fwd"]))
        np.testing.assert_allclose(states.data[0, :, :3], ref_states, atol=1e-10)
        np.testing.assert_allclose(states.data[0, -1, :3], ref_final, atol=1e-10)


def test_gru_reverse_runs_right_to_left():
    # the second half of each position is the right-to-left GRU
    rng = np.random.default_rng(3)
    params = init_params(bigru_params(4, 3), rng, np.float64)
    x = rng.normal(size=(5, 4))
    states = gru_sequence(Tensor(x[None]), params)
    ref_states, ref_final = gru_sequence_oracle(x, as_np(params["bwd"]), reverse=True)
    np.testing.assert_allclose(states.data[0, :, 3:], ref_states, atol=1e-10)
    # reversed pass ends at position 0
    np.testing.assert_allclose(states.data[0, 0, 3:], ref_final, atol=1e-10)


def oracle_half(x, params, reverse):
    """The oracle states and final state of one direction, and its columns."""
    hidden = params["fwd"]["u_g"].shape[0]
    direction = "bwd" if reverse else "fwd"
    states, final = gru_sequence_oracle(x, as_np(params[direction]), reverse=reverse)
    columns = slice(hidden, 2 * hidden) if reverse else slice(0, hidden)
    return states, final, columns


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_matches_oracle_at_length_40(reverse):
    rng = np.random.default_rng(40)
    params = init_params(bigru_params(7, 5), rng, np.float64)
    x = rng.normal(size=(40, 7))
    states = gru_sequence(Tensor(x[None]), params)
    ref_states, ref_final, cols = oracle_half(x, params, reverse)
    np.testing.assert_allclose(states.data[0, :, cols], ref_states, atol=1e-10)
    np.testing.assert_allclose(states.data[0, 0 if reverse else -1, cols], ref_final, atol=1e-10)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_batch_rows_match_oracle_per_sample(reverse):
    # S sequences on the leading axis run as independent Bi-GRUs
    rng = np.random.default_rng(41)
    params = init_params(bigru_params(4, 3), rng, np.float64)
    for n in (1, 6, 40):
        x = rng.normal(size=(5, n, 4))
        states = gru_sequence(Tensor(x), params)
        assert states.shape == (5, n, 6)
        for i in range(5):
            ref_states, ref_final, cols = oracle_half(x[i], params, reverse)
            np.testing.assert_allclose(states.data[i, :, cols], ref_states, atol=1e-10)
            np.testing.assert_allclose(states.data[i, 0 if reverse else -1, cols], ref_final, atol=1e-10)


def test_bigru_concatenates_directions():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(bigru_params(4, 3), rng, np.float64)
        x = rng.normal(size=(6, 4))
        contextual = gru_sequence(Tensor(x[None]), params)
        ref_ctx, ref_final = bigru_oracle(x, as_np(params))
        np.testing.assert_allclose(contextual.data[0], ref_ctx, atol=1e-10)
        # final states: forward at the last position, backward at the first
        final = np.concatenate([contextual.data[0, -1, :3], contextual.data[0, 0, 3:]])
        np.testing.assert_allclose(final, ref_final, atol=1e-10)
        assert contextual.shape == (1, 6, 6)


def test_gru_single_step_sequence():
    rng = np.random.default_rng(4)
    params = init_params(bigru_params(4, 2), rng, np.float64)
    x = rng.normal(size=(1, 1, 4))
    contextual = gru_sequence(Tensor(x), params)
    assert contextual.shape == (1, 1, 4)
    # one step: both directions' final states sit at the only position
    _, ref_final = bigru_oracle(x[0], as_np(params))
    np.testing.assert_allclose(contextual.data[0, 0], ref_final, atol=1e-12)


def test_gru_gradcheck():
    rng = np.random.default_rng(5)
    params = init_params(bigru_params(3, 2), rng, np.float64)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 4, 4)))

    def loss_fn():
        return tt.tsum(gru_sequence(x, params) * probe)

    report = gradcheck_tensors(loss_fn, {"x": x, **flatten(params)}, tolerance=1e-6)
    assert report.passed, report.format()
    assert all(e.status == "ok" for e in report.entries), report.format()


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_final_state_gradcheck(reverse):
    # encode_query reads each direction's final state, a position of the
    # states node: the forward one at the last position, the backward one at
    # the first.  Reading one direction leaves the other's weights unused.
    rng = np.random.default_rng(6)
    params = init_params(bigru_params(3, 2), rng, np.float64)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 1, 2)))

    def loss_fn():
        states = gru_sequence(x, params)
        final = states[:, :1, 2:] if reverse else states[:, 3:4, :2]
        return tt.tsum(final * probe)

    report = gradcheck_tensors(loss_fn, {"x": x, **flatten(params)}, tolerance=1e-6)
    assert report.passed, report.format()
    read = "bwd/" if reverse else "fwd/"
    for e in report.entries:
        expected = "ok" if e.name == "x" or e.name.startswith(read) else "unused"
        assert e.status == expected, report.format()


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_gru_sequence_bytes_match_per_direction_loops(S, n):
    # float32 states and every gradient are the bytes of each direction run
    # as its own loop and node
    rng = np.random.default_rng(10 * S + n)
    params = init_params(bigru_params(5, 4), rng, np.float32)
    x_data = rng.normal(size=(S, n, 5)).astype(np.float32)
    probe = rng.normal(size=(S, n, 8)).astype(np.float32)
    results = []
    for run in (gru_sequence, per_direction_bigru):
        zero_grads(params)
        x = Tensor(x_data, requires_grad=True)
        states = run(x, params)
        states.backward(probe)
        grads = {"x": x.grad, **{k: t.grad for k, t in flatten(params).items()}}
        results.append((states.data, grads))
    (states, grads), (ref_states, ref_grads) = results
    assert states.tobytes() == ref_states.tobytes()
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert grads[k].tobytes() == ref_grads[k].tobytes(), k
    # a sample's states in the batch are the bytes of its states alone
    for i in range(S):
        alone = gru_sequence(Tensor(x_data[i : i + 1]), params)
        assert alone.data.tobytes() == states[i : i + 1].tobytes()


def test_gru_sequence_backward_is_pure():
    # a second call of the node's backward adds the same amount again
    rng = np.random.default_rng(8)
    params = init_params(bigru_params(3, 2), rng, np.float64)
    states = gru_sequence(Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True), params)
    g = rng.normal(size=states.shape)
    states._backward(g)
    first = [p.grad.copy() for p in states._parents]
    states._backward(g)
    for p, once in zip(states._parents, first):
        np.testing.assert_array_equal(p.grad - once, once)


def test_gru_init_blocks_equal_gate_by_gate_draws():
    # the stored layout concatenates each gate's own draw: w then u for the
    # update, reset and candidate gates, each with that gate's fans
    params = init_params(gru_params(5, 3), np.random.default_rng(9), np.float32)
    rng = np.random.default_rng(9)
    w, u = [], []
    for _ in range(3):
        w.append(xavier_uniform(rng, (5, 3), np.float32))
        u.append(xavier_uniform(rng, (3, 3), np.float32))
    assert params["w"].data.tobytes() == np.concatenate(w, axis=1).tobytes()
    assert params["u_zr"].data.tobytes() == np.concatenate(u[:2], axis=1).tobytes()
    assert params["u_g"].data.tobytes() == u[2].tobytes()
    assert params["b"].shape == (9,) and not params["b"].data.any()
    # the backward direction continues from the same generator
    bi = init_params(bigru_params(5, 3), np.random.default_rng(9), np.float32)
    again = np.random.default_rng(9)
    init_params(gru_params(5, 3), again, np.float32)
    bwd = init_params(gru_params(5, 3), again, np.float32)
    assert bi["bwd"]["w"].data.tobytes() == bwd["w"].data.tobytes()


def test_gru_sequence_node_count_does_not_grow_with_length(monkeypatch):
    result = Tensor.__dict__["_result"].__func__
    built = []

    def counted_result(data, parents, backward):
        out = result(data, parents, backward)
        if out.requires_grad:
            built.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted_result))
    params = init_params(bigru_params(3, 2), np.random.default_rng(7), np.float64)
    counts = []
    for n in (4, 40):
        built.clear()
        gru_sequence(Tensor(np.ones((2, n, 3))), params)
        counts.append(len(built))
    # two nodes per input projection (matmul, bias add), one for both recurrences
    assert counts == [5, 5], counts


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
    assert enc1.shape == (1, 1, 6)
    np.testing.assert_array_equal(enc1.data, enc2.data)


def test_encode_query_single_token():
    params = make_params()
    enc = encode_query(make_query(n=1), params, heads=4)
    assert enc.shape == (1, 1, 6)
    assert np.all(np.isfinite(enc.data))


def test_encoder_head_divisibility_checked():
    with pytest.raises(ValueError, match="divisible"):
        init_params(encoder_params(DIMS, 6, 3), np.random.default_rng(0), np.float64)


def test_encode_query_token_dim_mismatch():
    params = make_params()
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="token dim"):
        encode_query(QuerySample("q", rng.normal(size=(4, 6))), params, heads=2)


def test_encoder_gradcheck():
    params = make_params()
    video = make_video(T=2, K=2, d_in=DIMS.feature_dim, d_sem=DIMS.semantic_dim)
    query = make_query(n=3)
    rng = np.random.default_rng(6)
    probe_v = Tensor(rng.normal(size=(1, 2, 2, 6)))
    probe_q = Tensor(rng.normal(size=(1, 1, 6)))

    def loss_fn():
        enc_v = encode_video([video], params)
        enc_q = encode_query(query, params, heads=4)
        return tt.tsum(enc_v.visual * probe_v) + tt.tsum(enc_q * probe_q)

    report = gradcheck_tensors(loss_fn, flatten(params), tolerance=1e-6)
    assert report.passed, report.format()
    # the semantic branch gets no probe here, so its map is legitimately unused
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["semantic/w"] == "unused"
