"""Level orchestration: flag contracts, fusion oracle, permutation properties,
and the end-to-end object->fuse->frame gradcheck.
"""

import numpy as np

import hvsarn.tensor as tt
from hvsarn.data import ModelConfig
from hvsarn.encoders import EncodedVideo, InputDims
from hvsarn.hierarchy import (
    FrameRepresentations,
    frame_level_pass,
    frames_from_encoder_mean,
    fuse_objects,
    fusion_attention,
    fusion_params,
    level_params,
    object_level_pass,
)
from hvsarn.model import build_model
from hvsarn.params import flatten, init_params
from hvsarn.tensor import Tensor
from hvsarn.training import gradcheck_tensors
from oracles import as_np, fusion_oracle

D = 6
DIMS = InputDims(feature_dim=5, semantic_dim=4, word_dim=8)


def make_level(seed=0, T=3, K=2, config=None, dtype=np.float64, S=1):
    config = config or ModelConfig(hidden_size=D, reasoning_steps=1)
    rng = np.random.default_rng(seed)
    params = init_params(level_params(config), rng, dtype)
    encoded = EncodedVideo(
        visual=Tensor(rng.normal(size=(S, T, K, D))),
        semantic=Tensor(rng.normal(size=(S, T, K, D))),
    )
    sentence = Tensor(rng.normal(size=(S, 1, D)))
    return config, params, encoded, sentence


def frames_of(rng, S, T):
    return FrameRepresentations(
        visual=Tensor(rng.normal(size=(S, T, D))), semantic=Tensor(rng.normal(size=(S, T, D)))
    )


def test_object_level_shapes():
    config, params, encoded, sentence = make_level(T=4, K=3, S=2)
    visual, semantic = object_level_pass(encoded, sentence, params, config)
    assert visual.shape == (2, 4, 3, D)
    assert semantic.shape == (2, 4, 3, D)


def test_visual_graph_flag_off_keeps_visual_path_inert():
    # with the semantic graph also off, the pass must be a pure identity
    config = ModelConfig(
        hidden_size=D, reasoning_steps=2, use_visual_graph=False, use_semantic_graph=False
    )
    _, params, encoded, sentence = make_level(config=config)
    visual, semantic = object_level_pass(encoded, sentence, params, config)
    np.testing.assert_array_equal(visual.data, encoded.visual.data)
    np.testing.assert_array_equal(semantic.data, encoded.semantic.data)


def test_semantic_graph_flag_off_skips_cross_space():
    config = ModelConfig(hidden_size=D, reasoning_steps=1, use_semantic_graph=False)
    _, params, encoded, sentence = make_level(config=config)
    visual, semantic = object_level_pass(encoded, sentence, params, config)
    np.testing.assert_array_equal(semantic.data, encoded.semantic.data)
    # visual still reasons
    assert not np.allclose(visual.data, encoded.visual.data)


def test_zero_steps_with_cross_space_still_enhances():
    # L=0 disables reasoning but the enhancement hops remain
    config = ModelConfig(hidden_size=D, reasoning_steps=0)
    _, params, encoded, sentence = make_level(config=config)
    visual, semantic = object_level_pass(encoded, sentence, params, config)
    assert not np.allclose(semantic.data, encoded.semantic.data)


def test_frame_level_treats_video_as_one_graph():
    config, params, _, sentence = make_level(seed=2)
    frames = frames_of(np.random.default_rng(3), 1, 5)
    out = frame_level_pass(frames, sentence, params, config)
    assert out.visual.shape == (1, 5, D) and out.semantic.shape == (1, 5, D)
    assert not np.allclose(out.visual.data, frames.visual.data)


def test_frame_level_holds_cross_exactly_with_semantic_graph():
    # both levels build "cross" exactly when the semantic graph is on, and the
    # frame-level hops run exactly when it is there
    base = dict(hidden_size=D, reasoning_steps=1)
    rng = np.random.default_rng(4)
    frames = frames_of(rng, 1, 4)
    sentence = Tensor(rng.normal(size=(1, 1, D)))
    on = ModelConfig(**base)
    off = ModelConfig(**base, use_semantic_graph=False)
    params_on = init_params(level_params(on), np.random.default_rng(5), np.float64)
    params_off = init_params(level_params(off), np.random.default_rng(5), np.float64)
    assert sorted(params_on) == ["cross", "semantic", "visual"]
    assert sorted(params_off) == ["visual"]
    out_on = frame_level_pass(frames, sentence, params_on, on)
    without_cross = {k: v for k, v in params_on.items() if k != "cross"}
    out_without = frame_level_pass(frames, sentence, without_cross, on)
    assert not np.allclose(out_on.visual.data, out_without.visual.data)
    model_on = build_model(on, DIMS)
    model_off = build_model(off, DIMS)
    for level in ("object_level", "frame_level"):
        assert "cross" in model_on.params[level] and "cross" not in model_off.params[level]


def test_fusion_attention_matches_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_params(fusion_params(D), rng, np.float64)
        visual = rng.normal(size=(3, 4, D))
        semantic = rng.normal(size=(3, 4, D))
        sentence = rng.normal(size=D)
        sentences = Tensor(sentence.reshape(1, 1, D))
        attn = fusion_attention(Tensor(visual[None]), sentences, params)
        frames = fuse_objects(Tensor(visual[None]), Tensor(semantic[None]), sentences, params)
        ref_pooled, ref_attn = fusion_oracle(visual, sentence, as_np(params))
        np.testing.assert_allclose(attn.data[0], ref_attn, atol=1e-10)
        np.testing.assert_allclose(frames.visual.data[0], ref_pooled, atol=1e-10)
        np.testing.assert_allclose(frames.semantic.data[0], semantic.mean(axis=1), atol=1e-10)
        np.testing.assert_allclose(attn.data.sum(axis=2), 1.0, atol=1e-6)


def test_fuse_objects_is_permutation_invariant():
    rng = np.random.default_rng(8)
    params = init_params(fusion_params(D), rng, np.float64)
    visual = rng.normal(size=(3, 5, D))
    semantic = rng.normal(size=(3, 5, D))
    sentences = Tensor(rng.normal(size=(1, 1, D)))
    perm = rng.permutation(5)
    a = fuse_objects(Tensor(visual[None]), Tensor(semantic[None]), sentences, params)
    b = fuse_objects(
        Tensor(visual[None, :, perm]), Tensor(semantic[None, :, perm]), sentences, params
    )
    np.testing.assert_allclose(a.visual.data, b.visual.data, atol=1e-10)
    np.testing.assert_allclose(a.semantic.data, b.semantic.data, atol=1e-10)


def test_object_permutation_leaves_frame_representations_unchanged():
    # reasoning is equivariant and fusion invariant, so the composition is invariant
    config, params, encoded, sentence = make_level(seed=9, T=3, K=4, S=2)
    fusion = init_params(fusion_params(D), np.random.default_rng(10), np.float64)
    perm = np.random.default_rng(11).permutation(4)
    v1, s1 = object_level_pass(encoded, sentence, params, config)
    frames1 = fuse_objects(v1, s1, sentence, fusion)
    shuffled = EncodedVideo(
        visual=Tensor(encoded.visual.data[:, :, perm]),
        semantic=Tensor(encoded.semantic.data[:, :, perm]),
    )
    v2, s2 = object_level_pass(shuffled, sentence, params, config)
    frames2 = fuse_objects(v2, s2, sentence, fusion)
    np.testing.assert_allclose(frames1.visual.data, frames2.visual.data, atol=1e-10)
    np.testing.assert_allclose(frames1.semantic.data, frames2.semantic.data, atol=1e-10)


def test_frames_from_encoder_mean():
    _, _, encoded, _ = make_level(T=4, K=3, S=2)
    frames = frames_from_encoder_mean(encoded)
    np.testing.assert_allclose(frames.visual.data, encoded.visual.data.mean(axis=2), atol=1e-12)
    assert frames.semantic.shape == (2, 4, D)


def test_baseline_reasoner_config_plumbs_through():
    config = ModelConfig(hidden_size=D, reasoning_steps=1, reasoner_kind="gcn")
    _, params, encoded, sentence = make_level(config=config)
    assert set(params["visual"].keys()) == {"w", "b"}
    visual, semantic = object_level_pass(encoded, sentence, params, config)
    assert visual.shape == encoded.visual.shape


def test_object_fuse_frame_gradcheck():
    # end-to-end through both levels and the fusion, T=3 K=2 D=6 L=1
    config, params, encoded, sentence = make_level(seed=12)
    fusion = init_params(fusion_params(D), np.random.default_rng(13), np.float64)
    frame_params = init_params(level_params(config), np.random.default_rng(14), np.float64)
    probe = Tensor(np.random.default_rng(15).normal(size=(1, 3, D)))

    named = {}
    named.update({f"object/{k}": v for k, v in flatten(params).items()})
    named.update({f"fusion/{k}": v for k, v in flatten(fusion).items()})
    named.update({f"frame/{k}": v for k, v in flatten(frame_params).items()})

    def loss_fn():
        v, s = object_level_pass(encoded, sentence, params, config)
        frames = fuse_objects(v, s, sentence, fusion)
        out = frame_level_pass(frames, sentence, frame_params, config)
        return tt.tsum(out.visual * probe) + tt.tsum(out.semantic)

    report = gradcheck_tensors(loss_fn, named, tolerance=1e-4)
    assert report.passed, report.format()
