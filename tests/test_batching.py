"""One tape per same-shape group: grouped losses, gradients and predictions
equal the per-sample ones, and a video too short to hold a segment, or of
other input widths than the model's, is rejected."""

import dataclasses

import numpy as np
import pytest

import hvsarn.tensor as tt
from hvsarn.data import ModelConfig, synth_sample
from hvsarn.encoders import InputDims
from hvsarn.evaluation import STANDARD_ABLATIONS, ablation_config
from hvsarn.model import EVAL_CHUNK, build_model, predict_dataset
from hvsarn.params import zero_grads
from hvsarn.training import batch_loss
from test_data import make_video

MIXED = ((8, 3), (8, 3), (12, 2), (5, 4))


def model_for(samples, config, dtype):
    return build_model(config, InputDims.of(*samples[0]), dtype)


def grads(model) -> dict[str, np.ndarray]:
    return {
        name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        for name, t in model.named_parameters().items()
    }


@pytest.mark.parametrize("variant", STANDARD_ABLATIONS)
def test_grouped_loss_and_gradients_equal_per_sample_mean(variant):
    batch = [synth_sample(20 + i, T, K) for i, (T, K) in enumerate(MIXED)]
    config = ablation_config(ModelConfig(hidden_size=6, reasoning_steps=1), variant)
    model = model_for(batch, config, np.float64)

    grouped = batch_loss(model, batch)
    grouped.backward()
    got = grads(model)

    want_loss = 0.0
    want = {name: np.zeros_like(g) for name, g in got.items()}
    for sample in batch:
        zero_grads(model.params)
        single = model.loss([sample])
        single.backward()
        want_loss += float(single.data) / len(batch)
        for name, g in grads(model).items():
            want[name] += g / len(batch)

    np.testing.assert_allclose(float(grouped.data), want_loss, rtol=0, atol=1e-10)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("hidden", [32, 64])
def test_float32_predictions_do_not_depend_on_batch_companions(hidden):
    # two shapes, one of them spread over more than one eval chunk
    shapes = [(16, 4)] * 5 + [(9, 3)] * 3 + [(16, 4)] * (EVAL_CHUNK + 1)
    data = [synth_sample(40 + i, T, K) for i, (T, K) in enumerate(shapes)]
    model = model_for(data, ModelConfig(hidden_size=hidden), np.float32)
    with tt.no_grad():
        alone = [model.forward([sample])[0] for sample in data]
        chunk = model.forward(data[:5])
    together = predict_dataset(model, data)
    assert len(together) == len(data)
    for a, b in zip(alone, chunk + together[5:]):
        assert a.start_logits.data.tobytes() == b.start_logits.data.tobytes()
        assert a.end_logits.data.tobytes() == b.end_logits.data.tobytes()
        assert a.top_segments.tobytes() == b.top_segments.tobytes()
    for a, b in zip(alone, together):
        assert a.top_segments.tobytes() == b.top_segments.tobytes()


def test_forward_rejects_samples_of_different_shape():
    data = [synth_sample(1, 6, 2), synth_sample(2, 7, 2)]
    model = model_for(data, ModelConfig(hidden_size=6), np.float64)
    with pytest.raises(ValueError, match=r"\(num_frames, num_objects\)"):
        model.forward(data)


def test_single_frame_video_is_rejected():
    video, query = synth_sample(3, 4, 2)
    short = make_video(
        T=1, K=2, d_in=video.feature_dim, d_sem=video.semantic_dim, annotation=video.annotation
    )
    model = model_for([(video, query)], ModelConfig(hidden_size=6), np.float64)
    calls = (
        lambda: model.forward([(short, query)]),
        lambda: model.loss([(short, query)]),
        lambda: predict_dataset(model, [(video, query), (short, query)]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="num_frames 1"):
            call()


@pytest.mark.parametrize("field", ["object_features", "semantic_embeddings", "token_embeddings"])
def test_predict_dataset_names_a_sample_of_other_input_widths(field):
    data = [synth_sample(seed, 4, 2) for seed in range(3)]
    model = model_for(data, ModelConfig(hidden_size=6), np.float32)
    video, query = data[1]
    owner = query if field == "token_embeddings" else video
    array = getattr(owner, field)
    wider = dataclasses.replace(owner, **{field: np.concatenate([array, array[..., :1]], -1)})
    data[1] = (video, wider) if owner is query else (wider, query)
    dims = {"object_features": "feature_dim", "semantic_embeddings": "semantic_dim"}
    name = dims.get(field, "word_dim")
    width = getattr(model.dims, name)
    message = f"sample {video.video_id}: {name} {width + 1} != {width} of the model"
    with pytest.raises(ValueError, match=message):
        predict_dataset(model, data)
