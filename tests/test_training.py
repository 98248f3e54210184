"""Optimizer, determinism, checkpoints, and finite-difference verification."""

import dataclasses
import filecmp
import hashlib
import itertools
import json
import os
import re
import tracemalloc
import types
from types import SimpleNamespace

import numpy as np
import pytest

from hvsarn.data import ConfigError, GroundTruthSegment, ModelConfig, synth_sample
from hvsarn.encoders import InputDims
from hvsarn.evaluation import STANDARD_ABLATIONS, ablation_config
from hvsarn.fileio import FormatError
from hvsarn.model import build_model
from hvsarn.params import zero_grads
from hvsarn.tensor import Tensor
from hvsarn.training import (
    TrainHyper,
    TrainingDiverged,
    TrainState,
    adam_update,
    batch_loss,
    gradcheck,
    _gradcheck_sample,
    gradcheck_tensors,
    load_checkpoint,
    save_checkpoint,
    train,
)
from oracles import adam_oracle
from test_data import TABLE_PROBES, table_probe, to_per_tensor_layout
from test_tensor import check_gradient_buffers, recording_result

SMALL = ModelConfig(hidden_size=8, reasoning_steps=1, seed=3)


def tiny_dataset(count=4, T=4, K=2):
    return [synth_sample(seed, T, K, "separable") for seed in range(count)]


def named_data(state):
    return {k: t.data.copy() for k, t in state.model.named_parameters().items()}


def zero_moments(model):
    """Adam's (m, v) pair per parameter, as `train` starts them."""
    named = model.named_parameters()
    return {k: (np.zeros_like(t.data), np.zeros_like(t.data)) for k, t in named.items()}


def test_training_is_deterministic():
    dataset = tiny_dataset()
    hyper = TrainHyper(learning_rate=1e-3, steps=6, batch_size=2)
    state_a, curve_a = train(dataset, SMALL, hyper)
    state_b, curve_b = train(dataset, SMALL, hyper)
    assert curve_a == curve_b
    for name, arr in named_data(state_a).items():
        np.testing.assert_array_equal(arr, named_data(state_b)[name])


def test_zero_learning_rate_leaves_params_at_init():
    dataset = tiny_dataset()
    dims = InputDims.of(*dataset[0])
    reference = build_model(SMALL, dims, np.float32)
    ref = {k: t.data.copy() for k, t in reference.named_parameters().items()}
    state, curve = train(dataset, SMALL, TrainHyper(learning_rate=0.0, steps=5, batch_size=2))
    for name, arr in named_data(state).items():
        np.testing.assert_array_equal(arr, ref[name])
    assert len(curve) == 5
    # loss never moves because the model never moves
    assert max(curve) - min(curve) < 1e-3 or len(set(curve)) <= 5


def test_loss_decreases_on_tiny_overfit():
    dataset = tiny_dataset(count=2)
    _, curve = train(dataset, SMALL, TrainHyper(learning_rate=3e-3, steps=60, batch_size=2))
    assert np.mean(curve[-5:]) < np.mean(curve[:5])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    # an absurd learning rate drives the float32 loss to overflow within a few steps
    dataset = tiny_dataset(count=2)
    with pytest.raises(TrainingDiverged, match="non-finite loss"):
        train(dataset, SMALL, TrainHyper(learning_rate=1e18, steps=50, batch_size=2))


def test_train_input_validation():
    with pytest.raises(ValueError, match="empty dataset"):
        train([], SMALL, TrainHyper(steps=1))
    video, query = synth_sample(0, 4, 2, "separable")
    stripped = video.__class__(
        video_id=video.video_id,
        object_features=video.object_features,
        boxes=video.boxes,
        semantic_embeddings=video.semantic_embeddings,
        annotation=None,
    )
    with pytest.raises(ValueError, match="annotated"):
        train([(stripped, query)], SMALL, TrainHyper(steps=1))
    # step % -1 == 0 holds at every step, so -1 used to checkpoint every step.
    with pytest.raises(ValueError, match="checkpoint_every"):
        train(tiny_dataset(count=2), SMALL, TrainHyper(steps=3), checkpoint_every=-1)
    with pytest.raises(ValueError, match="steps"):
        TrainHyper(steps=-1)
    with pytest.raises(ValueError, match="batch_size"):
        TrainHyper(batch_size=0)
    for rate in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainHyper(learning_rate=rate)
    TrainHyper(learning_rate=0.0)
    TrainHyper(learning_rate=1e18)
    # a float count used to fail in `train` after out_dir was made, and
    # steps=True to train one step; a bool is not an int here
    bad = {"steps": (2.5, True, "3"), "batch_size": (2.0, False, None)}
    bad["learning_rate"] = ("1e-3", True, None)
    for field, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=f"^{field}: expected"):
                TrainHyper(**{field: value})
    TrainHyper(learning_rate=1, steps=0)
    TrainHyper(learning_rate=np.float32(1e-3))


def test_train_hyper_is_frozen():
    # __post_init__ checks hold only if nothing can change a field afterwards
    hyper = TrainHyper(steps=2, batch_size=2)
    for field, value in (("steps", 2.5), ("batch_size", 0), ("learning_rate", float("nan"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(hyper, field, value)
    assert hyper == TrainHyper(steps=2, batch_size=2)


def test_loss_rejects_a_truth_that_collapses_to_one_frame():
    # candidates span two frames (i < j), so a one-frame truth is untrainable
    video, query = synth_sample(0, 4, 2, "separable")
    model = build_model(SMALL, InputDims.of(video, query))
    one_frame = dataclasses.replace(
        video, video_id="one-frame", annotation=GroundTruthSegment(0.3, 0.45)
    )
    with pytest.raises(ValueError, match=r"sample one-frame: .*\(s, e\) = \(1, 1\)"):
        model.loss([(video, query), (one_frame, query)])
    assert np.isfinite(model.loss([(video, query)]).data)


def test_adam_matches_oracle():
    # drive adam_update with a hand-rolled two-tensor "model"
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 2)).astype(np.float64), requires_grad=True)
    y = Tensor(rng.normal(size=(4,)).astype(np.float64), requires_grad=True)
    x0, y0 = x.data.copy(), y.data.copy()
    model = SimpleNamespace(named_parameters=lambda: {"x": x, "y": y})
    state, moments = TrainState(model=model), zero_moments(model)
    grads_x = [rng.normal(size=x.data.shape) for _ in range(7)]
    grads_y = [rng.normal(size=y.data.shape) for _ in range(7)]
    for gx, gy in zip(grads_x, grads_y):
        x.grad, y.grad = gx, gy
        adam_update(state, moments, learning_rate=1e-2)
    np.testing.assert_allclose(x.data, adam_oracle(grads_x, lr=1e-2, x0=x0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(y.data, adam_oracle(grads_y, lr=1e-2, x0=y0), rtol=0, atol=1e-12)
    assert state.step == 7


def test_adam_skips_missing_gradients():
    x = Tensor(np.ones(3))
    model = SimpleNamespace(named_parameters=lambda: {"x": x})
    state = TrainState(model=model)
    x.grad = None
    adam_update(state, zero_moments(model), learning_rate=1.0)
    np.testing.assert_array_equal(x.data, np.ones(3))


def test_adam_leaves_a_parameter_without_a_gradient_and_its_moments_as_they_were():
    # z gets a gradient only in the first step; after that its value and both
    # moments keep their bytes (no decay) while x moves and the step advances.
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    z = Tensor(rng.normal(size=(4,)), requires_grad=True)
    model = SimpleNamespace(named_parameters=lambda: {"x": x, "z": z})
    state, moments = TrainState(model), zero_moments(model)
    m_z, v_z = moments["z"]
    x.grad, z.grad = rng.normal(size=(3, 2)), rng.normal(size=(4,))
    adam_update(state, moments, learning_rate=1e-2)
    pinned = [z.data.tobytes(), m_z.tobytes(), v_z.tobytes()]
    assert m_z.any() and v_z.any()
    for _ in range(3):
        before = x.data.copy()
        x.grad, z.grad = rng.normal(size=(3, 2)), None
        adam_update(state, moments, learning_rate=1e-2)
        assert not np.array_equal(x.data, before)
        assert moments["z"][0] is m_z and moments["z"][1] is v_z
        assert [z.data.tobytes(), m_z.tobytes(), v_z.tobytes()] == pinned
    assert state.step == 4


# -- checkpoints --------------------------------------------------------------


def trained_state(tmp_path, steps=3, dtype=np.float32):
    dataset = tiny_dataset(count=3)
    state, _ = train(dataset, SMALL, TrainHyper(steps=steps, batch_size=2), dtype=dtype)
    return state


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    loaded = load_checkpoint(str(out))
    assert loaded.step == state.step
    assert loaded.model.config == state.model.config
    for name, arr in named_data(state).items():
        np.testing.assert_array_equal(arr, loaded.model.named_parameters()[name].data)


def test_loaded_state_trains_on_like_the_saved_one(tmp_path):
    state = trained_state(tmp_path, steps=2)
    save_checkpoint(str(tmp_path / "ckpt"), state)
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    batch = tiny_dataset(count=2)
    for s in (state, loaded):
        zero_grads(s.model.params)
        batch_loss(s.model, batch).backward()
        adam_update(s, zero_moments(s.model), 1e-3)
        assert s.step == 3
    restored = named_data(loaded)
    assert sorted(restored) == sorted(named_data(state))
    for name, arr in named_data(state).items():
        assert restored[name].tobytes() == arr.tobytes(), name


def test_save_load_save_produces_identical_bytes(tmp_path):
    state = trained_state(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    save_checkpoint(str(first), state)
    save_checkpoint(str(second), load_checkpoint(str(first)))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name


def test_checkpoint_in_float64(tmp_path):
    state = trained_state(tmp_path, dtype=np.float64)
    out = tmp_path / "ckpt64"
    save_checkpoint(str(out), state)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dtype"] == "<f8"
    assert sorted(os.listdir(out)) == ["manifest.json", "tensors.f64"]
    loaded = load_checkpoint(str(out))
    assert next(iter(loaded.model.named_parameters().values())).data.dtype == np.float64


def test_intermediate_checkpoints(tmp_path):
    dataset = tiny_dataset(count=3)
    train(
        dataset,
        SMALL,
        TrainHyper(steps=5, batch_size=2),
        out_dir=str(tmp_path),
        checkpoint_every=2,
    )
    assert (tmp_path / "checkpoint" / "manifest.json").exists()
    assert (tmp_path / "checkpoint_000002" / "manifest.json").exists()
    assert (tmp_path / "checkpoint_000004" / "manifest.json").exists()


def corrupt_manifest(path, mutate):
    manifest = json.loads((path / "manifest.json").read_text())
    mutate(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_load_rejects_wrong_kind(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    corrupt_manifest(out, lambda m: m.update(kind="something-else"))
    with pytest.raises(FormatError, match="not a checkpoint"):
        load_checkpoint(str(out))


@pytest.mark.parametrize("manifest", [[], "x", 3, None], ids=["list", "str", "int", "null"])
def test_load_rejects_manifest_that_is_no_object(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="manifest.json: expected a JSON object, got"):
        load_checkpoint(str(tmp_path))


def test_load_checkpoint_of_a_regular_file_is_a_format_error(tmp_path):
    (tmp_path / "ckpt").write_text("not a checkpoint")
    expected = f"missing file: {tmp_path / 'ckpt' / 'manifest.json'}"
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        load_checkpoint(str(tmp_path / "ckpt"))


def test_load_rejects_unknown_parameter(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)

    def rename(m):
        m["tensors"][0]["name"] = "not_a_real_tensor"

    corrupt_manifest(out, rename)
    with pytest.raises(FormatError, match="unknown tensor 'not_a_real_tensor'"):
        load_checkpoint(str(out))


def test_load_rejects_shape_mismatch(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    manifest = json.loads((out / "manifest.json").read_text())
    entry = next(t for t in manifest["tensors"] if len(t["shape"]) == 2)
    entry["shape"] = [int(np.prod(entry["shape"]))]  # same bytes, wrong shape
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"tensor '{entry['name']}' shape"):
        load_checkpoint(str(out))


def test_load_rejects_missing_tensor(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)

    dropped = {}

    def drop_first_entry(m):
        dropped["name"] = m["tensors"].pop(0)["name"]

    corrupt_manifest(out, drop_first_entry)
    with pytest.raises(FormatError, match="missing tensors") as err:
        load_checkpoint(str(out))
    assert repr(dropped["name"]) in str(err.value)


def saved_checkpoint(tmp_path):
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), trained_state(tmp_path))
    return out


@pytest.mark.parametrize("key", ["format_version", "dtype", "step", "config", "dims", "tensors"])
def test_load_rejects_missing_manifest_key(tmp_path, key):
    out = saved_checkpoint(tmp_path)
    corrupt_manifest(out, lambda m: m.pop(key))
    with pytest.raises(FormatError, match=f"missing key '{key}'"):
        load_checkpoint(str(out))


@pytest.mark.parametrize("key", ["name", "shape"])
def test_load_rejects_tensor_entry_without_key(tmp_path, key):
    out = saved_checkpoint(tmp_path)
    corrupt_manifest(out, lambda m: m["tensors"][3].pop(key))
    with pytest.raises(FormatError, match=f"tensors entry: missing key '{key}'"):
        load_checkpoint(str(out))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda m: m["dims"].pop("word_dim"), "dims: missing key 'word_dim'"),
        (lambda m: m.update(config=["hidden_size"]), "config: expected a JSON object, got list"),
        (lambda m: m.update(dtype="<f2"), "dtype '<f2'"),
        (lambda m: m.update(format_version=99), "format_version 99 is not 6"),
        (lambda m: m.update(format_version=1), "format_version 1 is not 6"),
        (lambda m: m.update(format_version=2), "format_version 2 is not 6"),
        (lambda m: m.update(format_version=4), "format_version 4 is not 6"),
        (lambda m: m.update(step="x"), "step 'x' is not a non-negative integer"),
        (lambda m: m.update(step=-1), "step -1 is not a non-negative integer"),
        (lambda m: m.update(tensors=None), "tensors must be a list"),
        (lambda m: m["tensors"][3].update(shape=None), r"shape None is not \["),
        (
            lambda m: m["tensors"][3].update(shape=["a"]),
            r"shape \['a'\] is not \[",
        ),
        (lambda m: m["tensors"][3].update(name=7), "unknown tensor 7"),
        (lambda m: m["tensors"][3].update(file=None), "has unknown key 'file'"),
        (lambda m: m["tensors"].append(dict(m["tensors"][3])), "is listed twice"),
    ],
    ids=[
        "dims_key",
        "config_type",
        "dtype",
        "format_version",
        "format_version_1",
        "format_version_2",
        "format_version_4",
        "step_type",
        "step_negative",
        "tensors_null",
        "shape_null",
        "shape_item",
        "name_type",
        "file_type",
        "duplicate_tensor",
    ],
)
def test_load_rejects_malformed_field(tmp_path, mutate, message):
    out = saved_checkpoint(tmp_path)
    corrupt_manifest(out, mutate)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(str(out))


@pytest.mark.parametrize("probe", sorted(TABLE_PROBES))
def test_load_rejects_malformed_tensor_table(tmp_path, probe):
    # The samples' table cases, through the same reader.
    out = saved_checkpoint(tmp_path)
    messages = []
    corrupt_manifest(out, lambda m: messages.append(table_probe(probe, m["tensors"], 3, out)))
    with pytest.raises(FormatError, match=messages[0]):
        load_checkpoint(str(out))


def test_load_rejects_a_format_3_checkpoint(tmp_path):
    # The per-tensor layout is rejected by its version, before its table.
    out = saved_checkpoint(tmp_path)
    to_per_tensor_layout(out)
    with pytest.raises(FormatError, match="format_version 3 is not 6"):
        load_checkpoint(str(out))


def test_checkpoint_is_one_blob_of_the_tensors_in_table_order(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    table = json.loads((out / "manifest.json").read_text())["tensors"]
    params = named_data(state)
    assert [e["name"] for e in table] == sorted(params)
    arrays = [params[e["name"]] for e in table]
    assert [e["shape"] for e in table] == [list(a.shape) for a in arrays]
    assert (out / "tensors.f32").read_bytes() == b"".join(a.tobytes() for a in arrays)
    for param in load_checkpoint(str(out)).model.named_parameters().values():
        array = param.data  # each owns its buffer, as a loaded sample tensor does
        assert array.flags.writeable and array.flags.c_contiguous and array.base is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_default_checkpoint_holds_the_parameters_alone(tmp_path, dtype):
    # 87,248 parameters at synth dims and nothing else: no optimizer moments
    dataset = [synth_sample(seed, 4, 2) for seed in range(2)]
    state, _ = train(dataset, ModelConfig(), TrainHyper(steps=1, batch_size=2), dtype=dtype)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["tensors"]) == 112 and manifest["step"] == 1
    (blob,) = out.glob("tensors.*")
    assert blob.stat().st_size == 87_248 * np.dtype(dtype).itemsize


def test_load_rejects_a_format_5_checkpoint(tmp_path):
    # Version 5 stored the parameters and both Adam moment trees, each name
    # under a group prefix; it is rejected by its version, before its table.
    out = saved_checkpoint(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    table = manifest["tensors"]
    groups = ("params", "adam_m", "adam_v")
    manifest["tensors"] = [dict(t, name=f"{g}/{t['name']}") for g in groups for t in table]
    manifest["format_version"] = 5
    (out / "manifest.json").write_text(json.dumps(manifest))
    blob = out / "tensors.f32"
    blob.write_bytes(blob.read_bytes() * 3)
    with pytest.raises(FormatError, match="format_version 5 is not 6"):
        load_checkpoint(str(out))


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        (lambda m: m["dims"].update(word_dim="16"), FormatError, "dims word_dim '16'"),
        (lambda m: m["dims"].update(feature_dim=0), FormatError, "dims feature_dim 0"),
        (lambda m: m["dims"].update(semantic_dim=4.0), FormatError, "dims semantic_dim 4.0"),
        (lambda m: m["config"].update(reasoning_steps=1.5), ConfigError, "reasoning_steps"),
        (lambda m: m["config"].update(use_object_level="no"), ConfigError, "use_object_level"),
        (lambda m: m["config"].update(seed=-1), ConfigError, "seed: must be >= 0"),
    ],
    ids=[
        "word_dim_str",
        "feature_dim_zero",
        "semantic_dim_float",
        "steps_float",
        "switch_str",
        "seed_negative",
    ],
)
def test_load_rejects_wrong_typed_scalar(tmp_path, mutate, error, message):
    out = saved_checkpoint(tmp_path)
    corrupt_manifest(out, mutate)
    with pytest.raises(error, match=message):
        load_checkpoint(str(out))


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    state, _ = train(tiny_dataset(count=2), ModelConfig(), TrainHyper(steps=1, batch_size=2))
    save_checkpoint(str(tmp_path / "ckpt"), state)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint created a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    restored = loaded.model.named_parameters()
    assert sorted(restored) == sorted(named_data(state))
    for name, arr in named_data(state).items():
        assert restored[name].data.tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("variant", STANDARD_ABLATIONS)
def test_every_variant_checkpoint_round_trips_bit_exactly(tmp_path, variant):
    config = ablation_config(SMALL, variant)
    state, _ = train(tiny_dataset(count=2), config, TrainHyper(steps=1, batch_size=2))
    save_checkpoint(str(tmp_path / "ckpt"), state)
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    assert loaded.model.config == config
    restored = loaded.model.named_parameters()
    assert sorted(restored) == sorted(named_data(state))
    for name, arr in named_data(state).items():
        assert restored[name].data.tobytes() == arr.tobytes(), name


# -- parameter tree -------------------------------------------------------------


# sha256 over every variant's fresh tree at the default config.  The values were
# taken from the per-module init functions the specs replaced, so they pin the
# draw order of every group, not only the GRU and graph-memory blocks.  A bias
# draws nothing, so dropping the duplicate box bias gave the digests of the
# earlier trees with that one entry skipped.
FRESH_TREE_DIGESTS = {
    "float32": "86a3df1b3a2705359a7e2cc1eae66d8676500a314a00861dd4a4156841359e0e",
    "float64": "504ddd359a87179cdf1ab0f29a4d913b0f3038c78e43010e76ae746aec998c38",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_fresh_trees_are_pinned(dtype):
    dims = InputDims(feature_dim=10, semantic_dim=6, word_dim=8)
    digest = hashlib.sha256()
    for variant in STANDARD_ABLATIONS:
        model = build_model(ablation_config(ModelConfig(), variant), dims, dtype)
        for name, t in model.named_parameters().items():
            digest.update(f"{variant}/{name}{t.shape}".encode())
            digest.update(t.data.tobytes())
    assert digest.hexdigest() == FRESH_TREE_DIGESTS[np.dtype(dtype).name]


def test_every_variant_parameter_gets_a_gradient():
    # The tree holds only what the config runs and nothing a softmax cancels,
    # so one 64-bit backward pass moves every stored float (K = 3 gives each
    # node two neighbours, so the neighbour softmax has a gradient).  At zero
    # steps no reasoner is built, while the cross-space hops still run.  With
    # the object level off and no step nothing would read the sentence (it
    # reaches the frame level only as the reasoners' controller), so that
    # config is rejected.
    video, query = synth_sample(0, 4, 3, "separable")
    for steps, variant in itertools.product((0, 1), STANDARD_ABLATIONS):
        base = ModelConfig(hidden_size=6, reasoning_steps=steps)
        if (variant, steps) == ("frame_level_only", 0):
            with pytest.raises(ConfigError, match="nothing reads the query"):
                ablation_config(base, variant)
            continue
        config = ablation_config(base, variant)
        model = build_model(config, InputDims.of(video, query), np.float64)
        model.loss([(video, query)]).backward()
        named = model.named_parameters()
        grads = {
            name: np.zeros_like(t.data) if t.grad is None else t.grad
            for name, t in named.items()
        }
        floor = 1e-12 * max(float(np.abs(g).max()) for g in grads.values())
        idle = [name for name, g in grads.items() if not np.all(np.abs(g) > floor)]
        assert not idle, (variant, steps, idle)


def test_every_tape_node_reaches_the_loss(monkeypatch):
    # A node whose backward never runs did work the loss never reads. The
    # backward frees every intermediate gradient, so the test records which
    # nodes' backward ran.
    result = Tensor.__dict__["_result"].__func__
    built, reached = [], set()

    def recorded_result(data, parents, backward):
        out = result(data, parents, backward)
        if out.requires_grad:
            built.append(out)
            node_id = id(out)

            def recorded_backward(g):
                reached.add(node_id)
                backward(g)

            out._node._backward = recorded_backward
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recorded_result))
    S, T, K, D = 2, 6, 3, 8
    samples = [synth_sample(seed, T, K, "separable") for seed in range(S)]
    for variant in STANDARD_ABLATIONS:
        config = ablation_config(ModelConfig(hidden_size=D, reasoning_steps=2), variant)
        model = build_model(config, InputDims.of(*samples[0]), np.float64)
        built.clear()
        reached.clear()
        batch_loss(model, samples).backward()
        dead = [node.shape for node in built if id(node) not in reached]
        assert not dead, (variant, dead)


def tape_nodes(loss):
    """Every node on the tape that ends at `loss`."""
    nodes, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def closure_tensors(fn):
    """The Tensors that fn's closure cells hold, through nested functions and containers."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return found


def test_no_backward_closure_holds_a_tensor():
    # A closure holds its parents' nodes and the arrays it reads. A Tensor in
    # it would keep that tensor's output alive for as long as the tape.
    samples = [synth_sample(seed, 6, 3, "separable") for seed in range(2)]
    ops = set()
    for variant in STANDARD_ABLATIONS:
        config = ablation_config(ModelConfig(hidden_size=8, reasoning_steps=2), variant)
        model = build_model(config, InputDims.of(*samples[0]), np.float64)
        backwards = [n._backward for n in tape_nodes(batch_loss(model, samples)) if n._backward]
        ops.update(fn.__qualname__.split(".")[0] for fn in backwards)
        holding = [fn.__qualname__ for fn in backwards if closure_tensors(fn)]
        assert not holding, (variant, holding)
    assert {"pair_logits", "gru_sequence", "gated_update", "concat", "take"} <= ops


def test_every_gradient_buffer_is_a_c_array_of_its_outputs_shape(monkeypatch):
    # Each node's first gradient is a C array of its output's shape and
    # dtype, in every variant, strided view outputs included. Seeds 0 and 2
    # share a token count, so their query group's final states are strided
    # takes.
    wrong, strided, _ = check_gradient_buffers(monkeypatch)
    samples = [synth_sample(seed, 6, 3, "separable") for seed in range(3)]
    for variant in STANDARD_ABLATIONS:
        config = ablation_config(ModelConfig(hidden_size=8, reasoning_steps=2), variant)
        batch_loss(build_model(config, InputDims.of(*samples[0]), np.float32), samples).backward()
    assert not wrong
    assert {"moveaxis", "broadcast_to", "take"} <= strided


def test_the_tape_holds_well_under_its_node_outputs(monkeypatch):
    # The tape keeps an output only when some backward reads it. When each
    # sum of products was a chain of matmul and add nodes, the tape held
    # 13,117,843 bytes (tracemalloc) at this shape, 0.39x of the 33,708,204
    # bytes its nodes produced. One affine node per sum made the nodes
    # produce ~17.5 MB but held no more. Scoring the graph memory's read and
    # neighbour attention as one node each, which rebuild their [B, K, D]
    # maps in the backward, cut the tape to 9,419,546-9,419,718 bytes (three
    # runs); scoring the object fusion with the read's node, which holds no
    # [S, T, K, D] tanh map either, to 9,160,450-9,160,578 (four runs).  The
    # bound is that plus 1 %.
    samples = [synth_sample(seed, 32, 8, "separable") for seed in range(8)]
    model = build_model(ModelConfig(), InputDims.of(*samples[0]), np.float32)
    produced = [0]

    def record(op, out, backward):
        if out.requires_grad:
            produced[0] += out.data.nbytes

    recording_result(monkeypatch, record)
    tracemalloc.start()
    try:
        loss = batch_loss(model, samples)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 9_252_184, (held, produced[0])


def test_a_repeated_backward_adds_the_gradient_of_one_fresh_tape():
    # The backward frees each intermediate gradient, so a second call starts
    # from the loss again. Not 2 * once: a parameter read in several places
    # adds its parts one after another, which is not a bitwise doubling.
    samples = [synth_sample(seed, 8, 3, "separable") for seed in range(2)]
    config = ModelConfig(hidden_size=8, reasoning_steps=1)

    def grads_after(tape_calls):
        model = build_model(config, InputDims.of(*samples[0]), np.float64)
        for calls in tape_calls:
            loss = batch_loss(model, samples)
            for _ in range(calls):
                loss.backward()
        return {name: t.grad.tobytes() for name, t in model.named_parameters().items()}

    assert grads_after([2]) == grads_after([1, 1])


def test_a_training_step_peaks_within_its_byte_bound():
    # A batch-8 T = 32, K = 8 step, forward and backward, peaked 11.0 MB above
    # its start while each gated layer kept its g and c maps and each
    # cross-space hop its [B, K, 2D] concat; it peaks ~7.2 MB now.  Holding
    # every intermediate gradient until the tape is dropped, rather than
    # freeing each once its node's backward has run, would add most of the
    # tape again.
    samples = [synth_sample(seed, 32, 8, "separable") for seed in range(8)]
    model = build_model(ModelConfig(), InputDims.of(*samples[0]), np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batch_loss(model, samples).backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 8_800_000, peak


def test_a_step_does_not_hold_the_previous_steps_tape():
    # Step n's tape is dropped after its backward, so step n + 1's forward
    # peaks no higher than the first step's (1.84x when it was kept).
    samples = [synth_sample(seed, 32, 8, "separable") for seed in range(8)]

    def peak(steps):
        tracemalloc.start()
        try:
            train(samples, ModelConfig(), TrainHyper(steps=steps, batch_size=8))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, two = peak(1), peak(2)
    assert two <= 1.1 * one, (two, one)


# -- shape limits ---------------------------------------------------------------


def test_forward_and_loss_reject_shapes_past_the_limits():
    config = ModelConfig(hidden_size=6, reasoning_steps=1, max_frames=5, max_objects=2)
    at_limit = synth_sample(0, 5, 2, "separable")
    model = build_model(config, InputDims.of(*at_limit), np.float64)
    model.forward([at_limit])
    assert np.isfinite(model.loss([at_limit]).data)
    for field, (T, K) in (("max_frames", (6, 2)), ("max_objects", (5, 3))):
        sample = synth_sample(0, T, K, "separable")
        for run in (model.forward, model.loss):
            with pytest.raises(ValueError, match=field):
                run([sample])


def test_one_step_at_max_frames():
    # T = max_frames with K = 8: the frame level's pair score is
    # [1, 256, 256, D], blocked in runs of k.  It is not the largest a model
    # runs: at K = max_objects = 64 the object level scores S·T·K² = 1 M
    # pairs for this one sample, against the frame level's 65 k.
    config = ModelConfig(hidden_size=8, reasoning_steps=1, seed=2)
    sample = synth_sample(1, config.max_frames, 8, "separable")
    state, curve = train([sample], config, TrainHyper(steps=1, batch_size=1), np.float64)
    assert len(curve) == 1 and np.isfinite(curve[0])
    assert state.step == 1


# -- gradcheck ----------------------------------------------------------------


def test_gradcheck_tensors_catches_a_wrong_gradient():
    import hvsarn.tensor as tt

    w = Tensor(np.array([0.3, -0.2, 0.5]), requires_grad=True)

    def quadratic():
        return tt.tsum(w * w)

    report = gradcheck_tensors(quadratic, {"w": w}, tolerance=1e-6)
    assert report.passed

    # now corrupt the backward by doubling the stored gradient post hoc:
    # simulate a buggy op with a loss whose tape gradient is wrong
    class Lying:
        def __init__(self):
            self.calls = 0

        def __call__(self):
            out = tt.tsum(w * w)
            # sabotage only the analytic pass (first call, grad-enabled)
            if w.requires_grad and self.calls == 0:
                self.calls += 1
                bad = tt.tsum(w * w * w)  # gradient 3w^2 instead of 2w
                return bad
            return out

    report = gradcheck_tensors(Lying(), {"w": w}, tolerance=1e-6)
    assert not report.passed
    assert report.failures() == ["w"]
    assert "FAIL" in report.format()


def test_gradcheck_reports_unused_tensor():
    import hvsarn.tensor as tt

    used = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    idle = Tensor(np.array([3.0]), requires_grad=True)
    report = gradcheck_tensors(lambda: tt.tsum(used * used), {"used": used, "idle": idle})
    by_name = {e.name: e.status for e in report.entries}
    assert by_name == {"used": "ok", "idle": "unused"}


def test_full_model_gradcheck_passes():
    report = gradcheck(ModelConfig(hidden_size=6, reasoning_steps=1, seed=1))
    assert report.passed, report.format()
    assert report.format().splitlines()[-1].startswith("PASS")


def test_full_model_gradcheck_at_the_smallest_shapes():
    # T = 2, K = 1 and a one-token query: the query GRU takes a single step from the zero state
    video, query = _gradcheck_sample(num_frames=2, num_objects=1, num_tokens=1)
    model = build_model(ModelConfig(hidden_size=6, reasoning_steps=1, seed=1), InputDims.of(video, query), np.float64)
    report = gradcheck_tensors(lambda: model.loss([(video, query)]), model.named_parameters())
    assert report.passed, report.format()


def test_gradcheck_zero_reasoning_lists_no_unused_tensor(tmp_path, capsys):
    # At zero steps the model builds no reasoner, so every tensor it holds
    # reaches the loss; the cross-space hops still run.
    from hvsarn.cli import main

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"hidden_size": 6, "reasoning_steps": 0, "seed": 1}))
    assert main(["gradcheck", "--config", str(config_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert any("/cross/" in row for row in rows)
    assert [row.split()[0] for row in rows if row.split()[-1] == "unused"] == []
