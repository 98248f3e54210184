"""Optimizer, determinism, checkpoints, and finite-difference verification."""

import filecmp
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from hvsarn.data import ModelConfig, synth_sample
from hvsarn.encoders import InputDims
from hvsarn.evaluation import STANDARD_ABLATIONS, ablation_config
from hvsarn.fileio import FormatError
from hvsarn.model import build_model
from hvsarn.tensor import Tensor
from hvsarn.training import (
    TrainHyper,
    TrainingDiverged,
    TrainState,
    adam_update,
    gradcheck,
    _gradcheck_sample,
    gradcheck_tensors,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)
from oracles import adam_oracle

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
        num_frames=video.num_frames,
        num_objects=video.num_objects,
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
    assert any(name.endswith(".f64") for name in os.listdir(out))
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
    with pytest.raises(FormatError, match="unknown parameter"):
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
    with pytest.raises(FormatError, match="unknown tensor group"):
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
    with pytest.raises(FormatError, match=f"unknown optimizer entry '{group}/not_a_real_tensor'"):
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
    with pytest.raises(FormatError, match=f"optimizer entry '{entry['name']}' has shape"):
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


@pytest.mark.parametrize("key", ["name", "shape", "file"])
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
        (lambda m: m.update(format_version=99), "format_version 99 is not 1"),
    ],
    ids=["dims_key", "config_type", "dtype", "format_version"],
)
def test_load_rejects_malformed_field(tmp_path, mutate, message):
    out = saved_checkpoint(tmp_path)
    corrupt_manifest(out, mutate)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(str(out))


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


def test_every_variant_parameter_gets_a_gradient():
    # The tree holds only what the config runs, so one 64-bit backward pass
    # reaches every named parameter (K >= 2 so the neighbor MLP is used).
    video, query = synth_sample(0, 4, 3, "separable")
    for variant in STANDARD_ABLATIONS:
        config = ablation_config(ModelConfig(hidden_size=6, reasoning_steps=1), variant)
        model = build_model(config, InputDims.of(video, query), np.float64)
        model.loss([(video, query)]).backward()
        idle = [name for name, t in model.named_parameters().items() if t.grad is None]
        assert not idle, (variant, idle)


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


def test_gradcheck_zero_reasoning_marks_graph_params_unused():
    report = gradcheck(ModelConfig(hidden_size=6, reasoning_steps=0, seed=1))
    assert report.passed
    statuses = {e.name: e.status for e in report.entries}
    graph_read = [n for n in statuses if "/read/" in n]
    assert graph_read and all(statuses[n] == "unused" for n in graph_read)
