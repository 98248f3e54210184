"""Visual<->semantic enhancement against the straight-line oracle."""

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.cross_space import cross_attention, cross_space_params, enhance_batch
from hvsarn.params import flatten, init_params
from hvsarn.tensor import Tensor
from hvsarn.training import gradcheck_tensors
from oracles import as_np, cross_space_oracle
from test_graph_memory import with_drawn_biases


def enhance_one(source, target, params):
    """One direction on one graph (B = 1): source/target [K, D] -> enhanced [K, D]."""
    K, D = target.shape
    enhanced = enhance_batch(tt.reshape(source, (1, K, D)), tt.reshape(target, (1, K, D)), params)
    return tt.reshape(enhanced, (K, D))


def make_instance(seed, K=4, D=5):
    rng = np.random.default_rng(seed)
    params = with_drawn_biases(init_params(cross_space_params(D), rng, np.float64), seed)
    visual = rng.normal(size=(K, D))
    semantic = rng.normal(size=(K, D))
    return params, visual, semantic


def test_visual_to_semantic_matches_oracle():
    for seed in range(25):
        params, visual, semantic = make_instance(seed)
        out = enhance_one(Tensor(visual), Tensor(semantic), params["v2s"])
        ref = cross_space_oracle(visual, semantic, as_np(params)["v2s"])
        np.testing.assert_allclose(out.data, ref, atol=1e-10)


def test_semantic_to_visual_matches_oracle():
    for seed in range(25):
        params, visual, semantic = make_instance(seed)
        out = enhance_one(Tensor(semantic), Tensor(visual), params["s2v"])
        ref = cross_space_oracle(semantic, visual, as_np(params)["s2v"])
        np.testing.assert_allclose(out.data, ref, atol=1e-10)


def test_enhance_batch_matches_oracle_per_graph_at_scale():
    rng = np.random.default_rng(17)
    B, K, D = 2, 9, 5
    params = with_drawn_biases(init_params(cross_space_params(D), rng, np.float64), 17)
    source = rng.normal(size=(B, K, D))
    target = rng.normal(size=(B, K, D))
    enhanced = enhance_batch(Tensor(source), Tensor(target), params["v2s"])
    attn = cross_attention(Tensor(source), params["v2s"])
    assert enhanced.shape == (B, K, D) and attn.shape == (B, 1, K)
    p = as_np(params)["v2s"]
    for b in range(B):
        ref = cross_space_oracle(source[b], target[b], p)
        np.testing.assert_allclose(enhanced.data[b], ref, atol=1e-10)


def test_directions_have_independent_parameters():
    params, visual, semantic = make_instance(3)
    a = enhance_one(Tensor(visual), Tensor(semantic), params["v2s"]).data
    b = enhance_one(Tensor(visual), Tensor(semantic), params["s2v"]).data
    assert not np.allclose(a, b)


def test_attention_rows_are_simplex():
    for seed in range(10):
        params, visual, semantic = make_instance(seed, K=6)
        attn = cross_attention(Tensor(visual[None]), params["v2s"])
        np.testing.assert_allclose(attn.data.sum(axis=2), 1.0, atol=1e-6)


def test_output_width_restored():
    params, visual, semantic = make_instance(1, K=3, D=5)
    enhanced = enhance_batch(Tensor(visual[None]), Tensor(semantic[None]), params["v2s"])
    assert enhanced.shape == (1, 3, 5)
    assert cross_attention(Tensor(visual[None]), params["v2s"]).shape == (1, 1, 3)


def test_source_permutation_invariance_target_equivariance():
    # sources only enter through the softmax-weighted sum, so shuffling them
    # must not change any output; shuffling targets shuffles outputs.
    rng = np.random.default_rng(9)
    params, visual, semantic = make_instance(8, K=5)
    perm = rng.permutation(5)
    v2s = params["v2s"]
    base = enhance_one(Tensor(visual), Tensor(semantic), v2s).data
    shuffled_src = enhance_one(Tensor(visual[perm]), Tensor(semantic), v2s).data
    np.testing.assert_allclose(shuffled_src, base, atol=1e-10)
    shuffled_tgt = enhance_one(Tensor(visual), Tensor(semantic[perm]), v2s).data
    np.testing.assert_allclose(shuffled_tgt, base[perm], atol=1e-10)


def test_shape_mismatch_raises():
    params, visual, semantic = make_instance(2)
    with pytest.raises(ValueError, match="mismatch"):
        enhance_batch(Tensor(visual[None]), Tensor(semantic[None, :, :3]), params["v2s"])


def test_round_trip_gradcheck():
    rng = np.random.default_rng(5)
    params = init_params(cross_space_params(4), rng, np.float64)
    visual = Tensor(rng.normal(size=(3, 4)))
    semantic = Tensor(rng.normal(size=(3, 4)))
    probe = Tensor(rng.normal(size=(3, 4)))

    def loss_fn():
        s = enhance_one(visual, semantic, params["v2s"])
        v = enhance_one(s, visual, params["s2v"])
        return tt.tsum(v * probe)

    report = gradcheck_tensors(loss_fn, flatten(params), tolerance=1e-6)
    assert report.passed, report.format()
    assert all(e.status == "ok" for e in report.entries), report.format()
