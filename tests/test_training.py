"""Optimizer, determinism, checkpoints, and finite-difference verification."""

import dataclasses
import filecmp
import hashlib
import itertools
import json
import os
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
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)
from oracles import adam_oracle
from test_data import TABLE_PROBES, table_probe, to_per_tensor_layout

SMALL = ModelConfig(hidden_size=8, reasoning_steps=1, seed=3)


def tiny_dataset(count=4, T=4, K=2):
    return [synth_sample(seed, T, K, "separable") for seed in range(count)]


def named_data(state):
    return {k: t.data.copy() for k, t in state.model.named_parameters().items()}


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
    with pytest.raises(ValueError, match="steps"):
        TrainHyper(steps=-1)
    with pytest.raises(ValueError, match="batch_size"):
        TrainHyper(batch_size=0)
    for rate in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainHyper(learning_rate=rate)
    TrainHyper(learning_rate=0.0)
    TrainHyper(learning_rate=1e18)


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
    x = Tensor(rng.normal(size=(3, 2)).astype(np.float64))
    y = Tensor(rng.normal(size=(4,)).astype(np.float64))
    x0, y0 = x.data.copy(), y.data.copy()
    model = SimpleNamespace(named_parameters=lambda: {"x": x, "y": y})
    state = TrainState(
        model=model,
        moments_m={"x": np.zeros_like(x.data), "y": np.zeros_like(y.data)},
        moments_v={"x": np.zeros_like(x.data), "y": np.zeros_like(y.data)},
    )
    grads_x = [rng.normal(size=x.data.shape) for _ in range(7)]
    grads_y = [rng.normal(size=y.data.shape) for _ in range(7)]
    for gx, gy in zip(grads_x, grads_y):
        x.grad, y.grad = gx, gy
        adam_update(state, learning_rate=1e-2)
    np.testing.assert_allclose(x.data, adam_oracle(grads_x, lr=1e-2, x0=x0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(y.data, adam_oracle(grads_y, lr=1e-2, x0=y0), rtol=0, atol=1e-12)
    assert state.step == 7


def test_adam_skips_missing_gradients():
    x = Tensor(np.ones(3))
    model = SimpleNamespace(named_parameters=lambda: {"x": x})
    state = TrainState(model=model, moments_m={"x": np.zeros(3)}, moments_v={"x": np.zeros(3)})
    x.grad = None
    adam_update(state, learning_rate=1.0)
    np.testing.assert_array_equal(x.data, np.ones(3))


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
    for name, arr in state.moments_m.items():
        np.testing.assert_array_equal(arr, loaded.moments_m[name])
    for name, arr in state.moments_v.items():
        np.testing.assert_array_equal(arr, loaded.moments_v[name])


def test_loaded_state_trains_on_like_the_saved_one(tmp_path):
    state = trained_state(tmp_path, steps=2)
    save_checkpoint(str(tmp_path / "ckpt"), state)
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    batch = tiny_dataset(count=2)
    for s in (state, loaded):
        zero_grads(s.model.params)
        batch_loss(s.model, batch).backward()
        adam_update(s, 1e-3)
        assert s.step == 3
    restored = named_data(loaded)
    assert sorted(restored) == sorted(named_data(state))
    for name, arr in named_data(state).items():
        assert restored[name].tobytes() == arr.tobytes(), name
    for saved, back in ((state.moments_m, loaded.moments_m), (state.moments_v, loaded.moments_v)):
        for name, arr in saved.items():
            assert back[name].tobytes() == arr.tobytes(), name


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


def test_load_rejects_unknown_parameter(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)

    def rename(m):
        m["tensors"][0]["name"] = "params/not_a_real_tensor"

    corrupt_manifest(out, rename)
    with pytest.raises(FormatError, match="unknown tensor 'params/not_a_real_tensor'"):
        load_checkpoint(str(out))


def test_load_rejects_shape_mismatch(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    manifest = json.loads((out / "manifest.json").read_text())
    # find a params/ tensor with >1 element and lie about its shape
    for entry in manifest["tensors"]:
        if entry["name"].startswith("params/") and int(np.prod(entry["shape"])) > 1:
            entry["shape"] = [int(np.prod(entry["shape"]))]
            if tuple(entry["shape"]) != tuple(
                state.model.named_parameters()[entry["name"][7:]].data.shape
            ):
                break
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="shape"):
        load_checkpoint(str(out))


def test_load_rejects_unknown_group(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)

    def regroup(m):
        m["tensors"][0]["name"] = "mystery/" + m["tensors"][0]["name"].partition("/")[2]

    corrupt_manifest(out, regroup)
    with pytest.raises(FormatError, match="unknown tensor 'mystery/"):
        load_checkpoint(str(out))


def test_load_rejects_missing_tensor(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)

    def drop_params_entry(m):
        kept = [t for t in m["tensors"] if not t["name"].startswith("params/")]
        dropped = [t for t in m["tensors"] if t["name"].startswith("params/")][1:]
        m["tensors"] = kept + dropped

    corrupt_manifest(out, drop_params_entry)
    with pytest.raises(FormatError, match="missing tensors"):
        load_checkpoint(str(out))


def saved_checkpoint(tmp_path):
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), trained_state(tmp_path))
    return out


def first_entry(manifest, group):
    return next(t for t in manifest["tensors"] if t["name"].startswith(group + "/"))


@pytest.mark.parametrize("group", ["adam_m", "adam_v"])
def test_load_rejects_unknown_optimizer_entry(tmp_path, group):
    out = saved_checkpoint(tmp_path)

    def rename(m):
        first_entry(m, group)["name"] = f"{group}/not_a_real_tensor"

    corrupt_manifest(out, rename)
    with pytest.raises(FormatError, match=f"unknown tensor '{group}/not_a_real_tensor'"):
        load_checkpoint(str(out))


@pytest.mark.parametrize("group", ["adam_m", "adam_v"])
def test_load_rejects_misshaped_optimizer_entry(tmp_path, group):
    out = saved_checkpoint(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    entry = next(
        t
        for t in manifest["tensors"]
        if t["name"].startswith(group + "/") and len(t["shape"]) == 2
    )
    entry["shape"] = [int(np.prod(entry["shape"]))]  # same bytes, wrong shape
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"tensor '{entry['name']}' shape"):
        load_checkpoint(str(out))


@pytest.mark.parametrize("group", ["adam_m", "adam_v"])
def test_load_rejects_missing_optimizer_entry(tmp_path, group):
    out = saved_checkpoint(tmp_path)
    dropped = {}

    def drop(m):
        entry = first_entry(m, group)
        dropped["name"] = entry["name"]
        m["tensors"].remove(entry)

    corrupt_manifest(out, drop)
    with pytest.raises(FormatError, match="missing tensors") as err:
        load_checkpoint(str(out))
    assert dropped["name"] in str(err.value)


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
        (lambda m: m.update(format_version=99), "format_version 99 is not 4"),
        (lambda m: m.update(format_version=1), "format_version 1 is not 4"),
        (lambda m: m.update(format_version=2), "format_version 2 is not 4"),
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
    with pytest.raises(FormatError, match="format_version 3 is not 4"):
        load_checkpoint(str(out))


def test_checkpoint_is_one_blob_of_the_tensors_in_table_order(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    table = json.loads((out / "manifest.json").read_text())["tensors"]
    groups = {"params": named_data(state), "adam_m": state.moments_m, "adam_v": state.moments_v}
    arrays = []
    for entry in table:
        prefix, _, name = entry["name"].partition("/")
        arrays.append(groups[prefix][name])
    assert [e["shape"] for e in table] == [list(a.shape) for a in arrays]
    assert (out / "tensors.f32").read_bytes() == b"".join(a.tobytes() for a in arrays)
    loaded = load_checkpoint(str(out))
    params = {k: t.data for k, t in loaded.model.named_parameters().items()}
    for tree in (params, loaded.moments_m, loaded.moments_v):
        for array in tree.values():  # each owns its buffer, as a loaded sample tensor does
            assert array.flags.writeable and array.flags.c_contiguous and array.base is None


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


def test_checkpoint_restores_both_moment_trees_bit_exactly(tmp_path):
    state = trained_state(tmp_path)
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), state)
    loaded = load_checkpoint(str(out))
    trees = ((state.moments_m, loaded.moments_m), (state.moments_v, loaded.moments_v))
    for saved, restored in trees:
        assert sorted(restored) == sorted(saved)
        assert any(np.any(arr != 0.0) for arr in saved.values())
        for name, arr in saved.items():
            assert restored[name].dtype == arr.dtype
            np.testing.assert_array_equal(restored[name], arr)


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
    for saved, back in ((state.moments_m, loaded.moments_m), (state.moments_v, loaded.moments_v)):
        for name, arr in saved.items():
            assert back[name].tobytes() == arr.tobytes(), name


# -- parameter tree -------------------------------------------------------------


# sha256 over every variant's fresh tree at the default config.  The values were
# taken from the per-module init functions the specs replaced, so they pin the
# draw order of every group, not only the GRU and graph-memory blocks.
FRESH_TREE_DIGESTS = {
    "float32": "93f0e5f1e84a7cf670c689be9baa31a10dfc106cd11533ecbb47559c6b098d43",
    "float64": "0d83b3e482a7107ecfe8de9e9ad1862378f9383ca971448736e5770eac525639",
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
    # A node that gets no gradient did work the loss never reads.
    result = Tensor.__dict__["_result"].__func__
    built = []

    def recorded_result(data, parents, backward):
        out = result(data, parents, backward)
        if out.requires_grad:
            built.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recorded_result))
    S, T, K, D = 2, 6, 3, 8
    samples = [synth_sample(seed, T, K, "separable") for seed in range(S)]
    for variant in STANDARD_ABLATIONS:
        config = ablation_config(ModelConfig(hidden_size=D, reasoning_steps=2), variant)
        model = build_model(config, InputDims.of(*samples[0]), np.float64)
        built.clear()
        batch_loss(model, samples).backward()
        dead = [node.shape for node in built if node.grad is None]
        assert not dead, (variant, dead)


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
    # T = max_frames with K = 8 is the largest pair score a model runs:
    # [1, 256, 256, D] at frame level, blocked in runs of k.
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
