"""Value types, frame quantization, the sample format, and the generator."""

import dataclasses
import json
import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from hvsarn.data import (
    DIFFICULTIES,
    ConfigError,
    GroundTruthSegment,
    ModelConfig,
    QuerySample,
    VideoSample,
    frame_pair_to_fractions,
    load_dataset,
    load_sample,
    save_sample,
    segment_to_frame_indices,
    synth_sample,
    write_dataset,
)
from hvsarn.fileio import FormatError


def make_video(T=3, K=2, d_in=5, d_sem=4, annotation=None, rng=None):
    rng = rng or np.random.default_rng(0)
    x0 = rng.uniform(0, 0.5, size=(T, K))
    y0 = rng.uniform(0, 0.5, size=(T, K))
    boxes = np.stack([x0, y0, x0 + 0.3, y0 + 0.3], axis=-1)
    return VideoSample(
        video_id="v",
        object_features=rng.normal(size=(T, K, d_in)),
        boxes=boxes,
        semantic_embeddings=rng.normal(size=(T, K, d_sem)),
        annotation=annotation,
    )


# -- value types ---------------------------------------------------------------


def test_segment_validation():
    GroundTruthSegment(0.0, 1.0)
    with pytest.raises(FormatError):
        GroundTruthSegment(0.5, 0.5)
    with pytest.raises(FormatError):
        GroundTruthSegment(-0.1, 0.5)
    with pytest.raises(FormatError):
        GroundTruthSegment(0.1, 1.2)


def test_video_sample_validation():
    with pytest.raises(FormatError, match="boxes"):
        VideoSample("v", np.zeros((3, 2, 5)), np.zeros((2, 2, 4)), np.zeros((2, 2, 3)))
    with pytest.raises(FormatError, match="object_features: T = 0 < 1"):
        VideoSample("v", np.zeros((0, 2, 5)), np.zeros((0, 2, 4)), np.zeros((0, 2, 3)))
    bad_boxes = np.zeros((2, 2, 4))
    bad_boxes[0, 0] = [0.5, 0.1, 0.2, 0.4]  # x1 > x2
    with pytest.raises(FormatError, match="boxes"):
        VideoSample("v", np.zeros((2, 2, 5)), bad_boxes, np.zeros((2, 2, 3)))
    with pytest.raises(FormatError, match="NaN"):
        VideoSample("v", np.full((2, 2, 5), np.nan), np.zeros((2, 2, 4)), np.zeros((2, 2, 3)))


def test_sample_arrays_are_frozen_f32():
    video = make_video()
    assert video.object_features.dtype == np.float32
    with pytest.raises(ValueError):
        video.boxes[0, 0, 0] = 0.5


def test_query_sample_validation():
    q = QuerySample("q", np.zeros((4, 8)))
    assert q.word_dim == 8
    with pytest.raises(FormatError):
        QuerySample("q", np.zeros((0, 8)))


# -- frame quantization ----------------------------------------------------------


def test_frame_indices_round_trip_exact():
    # Fractions produced as t/T must map back to t despite float rounding.
    for T in range(2, 130):
        for t0 in range(T - 1):
            for t1 in (t0 + 1, min(t0 + 3, T), T):
                if t1 <= t0:
                    continue
                seg = GroundTruthSegment(t0 / T, t1 / T)
                assert segment_to_frame_indices(seg, T) == (t0, t1 - 1), (t0, t1, T)


def test_frame_indices_interior_values():
    assert segment_to_frame_indices(GroundTruthSegment(0.26, 0.74), 4) == (1, 2)
    assert segment_to_frame_indices(GroundTruthSegment(0.0, 1.0), 1) == (0, 0)
    # end lands exactly on a frame boundary: previous frame is the last inside
    assert segment_to_frame_indices(GroundTruthSegment(0.0, 0.5), 4) == (0, 1)


def test_frame_indices_always_in_range_for_valid_segments():
    # start < end guarantees floor(start*T) <= ceil(end*T) - 1, so conversion
    # never fails on a valid segment, even for tiny slivers near the edges.
    rng = np.random.default_rng(7)
    for _ in range(300):
        T = int(rng.integers(1, 40))
        a, b = sorted(rng.uniform(0, 1, size=2))
        if a == b:
            continue
        s, e = segment_to_frame_indices(GroundTruthSegment(a, b), T)
        assert 0 <= s <= e <= T - 1


def test_fraction_reconstruction():
    assert frame_pair_to_fractions(0, 3, 4) == (0.0, 1.0)
    assert frame_pair_to_fractions(1, 2, 4) == (0.25, 0.75)


# -- config ----------------------------------------------------------------------


def test_config_defaults_round_trip():
    cfg = ModelConfig()
    assert cfg.reasoning_steps == 2
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_removed_cross_space_switch():
    # the frame level now holds cross-space exactly when the semantic graph is on
    assert len(dataclasses.fields(ModelConfig)) == 13
    with pytest.raises(ConfigError, match="cross_space_at_frame_level"):
        ModelConfig.from_dict({**ModelConfig().to_dict(), "cross_space_at_frame_level": False})


def test_config_validation():
    with pytest.raises(ConfigError, match="hidden_size"):
        ModelConfig(hidden_size=7)
    with pytest.raises(ConfigError, match="reasoning_steps"):
        ModelConfig(reasoning_steps=-1)
    with pytest.raises(ConfigError, match="at least one level"):
        ModelConfig(use_object_level=False, use_frame_level=False)
    with pytest.raises(ConfigError, match="two_stream"):
        ModelConfig(two_stream=True, use_object_level=False)
    with pytest.raises(ConfigError, match="reasoner_kind"):
        ModelConfig(reasoner_kind="transformer")
    with pytest.raises(ConfigError, match="unknown config field"):
        ModelConfig.from_dict({"hidden_sizes": 4})
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        ModelConfig(seed=-1)
    # reasoning can be disabled entirely: both graphs off is a valid ablation
    ModelConfig(use_visual_graph=False, use_semantic_graph=False)
    ModelConfig(reasoning_steps=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("use_object_level", "no"),
        ("two_stream", 1),
        ("hidden_size", "8"),
        ("hidden_size", 8.0),
        ("reasoning_steps", 1.5),
        ("reasoning_steps", True),
        ("max_frames", None),
        ("attn_heads", [4]),
        ("reasoner_kind", 3),
        ("max_segments", 2.0),
        ("seed", "0"),
    ],
)
def test_config_rejects_wrong_typed_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field}: expected"):
        ModelConfig.from_dict({field: value})


def test_config_accepts_none_max_segments():
    assert ModelConfig(max_segments=None).max_segments is None
    assert ModelConfig(max_segments=3).max_segments == 3


@pytest.mark.parametrize(
    "fields",
    [
        {"reasoning_steps": 0},
        {"reasoner_kind": "gcn"},
        {"reasoner_kind": "self_attention"},
        {"use_visual_graph": False, "use_semantic_graph": False},
    ],
    ids=["zero_steps", "gcn", "self_attention", "no_graph"],
)
def test_config_rejects_query_blind_frame_level_only(fields):
    # Without the object level the query reaches the model only as the
    # frame-level reasoners' controller.
    with pytest.raises(ConfigError, match="use_object_level: without it nothing reads the query"):
        ModelConfig(use_object_level=False, **fields)
    ModelConfig(**fields)


@pytest.mark.parametrize("kind", ["graph_memory", "gcn_fusion", "memory_network"])
@pytest.mark.parametrize("graphs", [(True, False), (False, True)])
def test_config_accepts_frame_level_only_reading_the_query(kind, graphs):
    ModelConfig(
        use_object_level=False,
        reasoner_kind=kind,
        use_visual_graph=graphs[0],
        use_semantic_graph=graphs[1],
    )


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hidden_size": 8, "seed": 3}))
    cfg = ModelConfig.from_json(path)
    assert cfg.hidden_size == 8 and cfg.seed == 3
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ModelConfig.from_json(path)


# -- sample persistence -----------------------------------------------------------


def test_save_load_round_trip_bit_exact(tmp_path):
    video, query = synth_sample(5, num_frames=4, num_objects=3)
    save_sample((video, query), tmp_path / "s")
    v2, q2 = load_sample(tmp_path / "s")
    assert v2.video_id == video.video_id and q2.query_id == query.query_id
    for a, b in [
        (video.object_features, v2.object_features),
        (video.boxes, v2.boxes),
        (video.semantic_embeddings, v2.semantic_embeddings),
        (query.token_embeddings, q2.token_embeddings),
    ]:
        assert a.tobytes() == b.tobytes()
    assert v2.annotation == video.annotation


def test_round_trip_minimal_t1_k1(tmp_path):
    video = make_video(T=1, K=1)
    query = QuerySample("q", np.random.default_rng(1).normal(size=(1, 6)))
    save_sample((video, query), tmp_path / "s")
    v2, q2 = load_sample(tmp_path / "s")
    assert v2.object_features.tobytes() == video.object_features.tobytes()
    assert (v2.num_frames, v2.num_objects, q2.num_tokens) == (1, 1, 1)


def test_load_errors_name_the_field(tmp_path):
    video, query = synth_sample(2, 4, 2)
    save_sample((video, query), tmp_path / "s")
    (tmp_path / "s" / "tensors.f32").unlink()
    with pytest.raises(FormatError, match="missing blob .*tensors.f32"):
        load_sample(tmp_path / "s")

    save_sample((video, query), tmp_path / "t")
    blob = tmp_path / "t" / "tensors.f32"
    blob.write_bytes(blob.read_bytes()[:-4])  # truncate one float of the last tensor
    with pytest.raises(FormatError, match="token_embeddings"):
        load_sample(tmp_path / "t")

    save_sample((video, query), tmp_path / "u")
    manifest = json.loads((tmp_path / "u" / "manifest.json").read_text())
    del manifest["D_w"]
    (tmp_path / "u" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="D_w"):
        load_sample(tmp_path / "u")


def test_sample_is_one_blob_of_the_tensors_in_table_order(tmp_path):
    video, query = synth_sample(2, 4, 2)
    save_sample((video, query), tmp_path / "s")
    assert sorted(os.listdir(tmp_path / "s")) == ["manifest.json", "tensors.f32"]
    table = json.loads((tmp_path / "s" / "manifest.json").read_text())["tensors"]
    arrays = (video.object_features, video.boxes, video.semantic_embeddings, query.token_embeddings)
    names = ["object_features", "boxes", "semantic_embeddings", "token_embeddings"]
    assert table == [{"name": n, "shape": list(a.shape)} for n, a in zip(names, arrays)]
    assert (tmp_path / "s" / "tensors.f32").read_bytes() == b"".join(a.tobytes() for a in arrays)
    loaded_video, loaded_query = load_sample(tmp_path / "s")
    loaded = (loaded_video.object_features, loaded_video.boxes,
              loaded_video.semantic_embeddings, loaded_query.token_embeddings)
    for array in loaded:  # each tensor owns its buffer, as before the one-blob layout
        assert array.flags.c_contiguous and array.base is None


def test_oversized_blob_is_rejected_before_it_is_read(tmp_path):
    save_sample(synth_sample(2, 4, 2), tmp_path / "s")
    blob = tmp_path / "s" / "tensors.f32"
    needed = blob.stat().st_size
    os.truncate(blob, 64 << 20)  # sparse: no byte of it is written
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            load_sample(tmp_path / "s")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"tensors.f32 holds {64 << 20} bytes, the tensor table needs {needed}" in str(err.value)
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "resize, message",
    [
        # object_features [4, 2, 16] fits; boxes [4, 2, 4] ends at byte 512 + 128
        (lambda size: 520, "holds 520 bytes, too few for tensor 'boxes', which ends at byte 640"),
        (lambda size: 0, "holds 0 bytes, too few for tensor 'object_features'"),
        (lambda size: size + 4, "holds {long} bytes, the tensor table needs {size}"),
    ],
    ids=["short", "empty", "long"],
)
def test_blob_of_the_wrong_size_names_the_tensor_or_both_sizes(tmp_path, resize, message):
    save_sample(synth_sample(2, 4, 2), tmp_path / "s")
    blob = tmp_path / "s" / "tensors.f32"
    size = blob.stat().st_size
    os.truncate(blob, resize(size))
    with pytest.raises(FormatError, match=re.escape(message.format(long=size + 4, size=size))):
        load_sample(tmp_path / "s")


@pytest.mark.parametrize("key, value", [("video_id", 5), ("query_id", ["x"])])
def test_load_rejects_ids_that_are_not_strings(tmp_path, key, value):
    path = saved_manifest_with(tmp_path, lambda m: m.update({key: value}))
    with pytest.raises(FormatError, match=re.escape(f"{key}: {value!r} is not a string")):
        load_sample(path)


def test_samples_reject_ids_that_are_not_strings():
    video = make_video()
    with pytest.raises(FormatError, match="video_id: 5 is not a string"):
        dataclasses.replace(video, video_id=5)
    with pytest.raises(FormatError, match=re.escape("query_id: ['x'] is not a string")):
        QuerySample(["x"], np.zeros((4, 8)))


def to_per_tensor_layout(directory):
    """Rewrite a stored object in the layout before one blob per object: a file
    per tensor, named by a `file` key in its table entry.  A checkpoint in
    that layout was format_version 3."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    (blob,) = directory.glob("tensors.*")
    raw, itemsize, offset = blob.read_bytes(), {".f32": 4, ".f64": 8}[blob.suffix], 0
    for k, entry in enumerate(manifest["tensors"]):
        size = int(np.prod(entry["shape"])) * itemsize
        entry["file"] = f"t{k:05d}{blob.suffix}"
        (directory / entry["file"]).write_bytes(raw[offset : offset + size])
        offset += size
    blob.unlink()
    if "format_version" in manifest:
        manifest["format_version"] = 3
    path.write_text(json.dumps(manifest))


def test_load_sample_in_the_per_tensor_layout_names_the_missing_blob(tmp_path):
    save_sample(synth_sample(2, 4, 2), tmp_path / "s")
    to_per_tensor_layout(tmp_path / "s")
    with pytest.raises(FormatError, match="missing blob .*tensors.f32"):
        load_sample(tmp_path / "s")


def saved_manifest_with(tmp_path, mutate):
    """Save one sample, apply `mutate` to its manifest dict, return the directory."""
    save_sample(synth_sample(2, 4, 2), tmp_path / "s")
    path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))
    return tmp_path / "s"


def test_load_rejects_annotation_without_start(tmp_path):
    path = saved_manifest_with(tmp_path, lambda m: m["annotation"].pop("start"))
    with pytest.raises(FormatError, match="annotation: missing key 'start'"):
        load_sample(path)


def test_load_rejects_annotation_that_is_not_an_object(tmp_path):
    path = saved_manifest_with(tmp_path, lambda m: m.update(annotation="0.1-0.5"))
    with pytest.raises(FormatError, match="annotation: expected a JSON object, got str"):
        load_sample(path)


@pytest.mark.parametrize("key", ["name", "shape"])
def test_load_rejects_tensor_entry_without_key(tmp_path, key):
    path = saved_manifest_with(tmp_path, lambda m: m["tensors"][1].pop(key))
    with pytest.raises(FormatError, match=f"tensors entry: missing key '{key}'"):
        load_sample(path)


# Malformed tensor tables, shared with the checkpoint tests: id -> (mutation
# of the table at entry i, given the object's directory; the message naming
# that entry).  The file_* probes are the entries of the per-tensor layout,
# which named a file: a leftover `file` key is refused whatever it names, and
# no path is taken from the manifest.
TABLE_PROBES = {
    "shape_type": (lambda t, i, d: t[i].update(shape=5), "tensor {name!r} shape 5 is not ["),
    "duplicate": (lambda t, i, d: t.append(dict(t[i])), "tensor {name!r} is listed twice"),
    "unknown": (lambda t, i, d: t.append(dict(t[i], name="extra")), "unknown tensor 'extra'"),
    "unknown_key": (
        lambda t, i, d: t[i].update(offset=0),
        "tensor {name!r} has unknown key 'offset'",
    ),
    "file_type": (lambda t, i, d: t[i].update(file=3), "tensor {name!r} has unknown key 'file'"),
    "file_outside": (
        lambda t, i, d: t[i].update(file="../ok/tensors.f32"),
        "tensor {name!r} has unknown key 'file'",
    ),
    "file_separator": (
        lambda t, i, d: t[i].update(file="ok/tensors.f32"),
        "tensor {name!r} has unknown key 'file'",
    ),
    "file_parent": (
        lambda t, i, d: t[i].update(file=".."),
        "tensor {name!r} has unknown key 'file'",
    ),
    "missing_blob": (lambda t, i, d: (d / "tensors.f32").unlink(), "missing blob"),
}


def table_probe(probe, table, i, directory):
    """Apply TABLE_PROBES[probe] to `table` at entry i of the object stored in
    `directory`, after planting a copy of its blob where the file_* probes
    lead; returns the message regex."""
    for sub in (directory.parent / "ok", directory / "ok"):
        sub.mkdir()
        shutil.copy(directory / "tensors.f32", sub)
    mutate, message = TABLE_PROBES[probe]
    name = table[i]["name"]
    mutate(table, i, directory)
    return re.escape(message.format(name=name))


@pytest.mark.parametrize("probe", sorted(TABLE_PROBES))
def test_load_sample_rejects_malformed_tensor_table(tmp_path, probe):
    messages = []
    path = saved_manifest_with(
        tmp_path, lambda m: messages.append(table_probe(probe, m["tensors"], 1, tmp_path / "s"))
    )
    with pytest.raises(FormatError, match=messages[0]):
        load_sample(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda m: m.update(T=4.0), "T 4.0 is not a non-negative integer"),
        (lambda m: m.update(K="2"), "K '2' is not a non-negative integer"),
        (lambda m: m.update(D_w=True), "D_w True is not a non-negative integer"),
        (lambda m: m.update(N=-1), "N -1 is not a non-negative integer"),
        (lambda m: m["annotation"].update(start="0.1"), "annotation: start '0.1' is not a real"),
        (lambda m: m["annotation"].update(end=None), "annotation: end None is not a real"),
        (lambda m: m.update(tensors={}), "tensors must be a list"),
        (lambda m: m["tensors"].pop(2), "missing tensors ['semantic_embeddings']"),
    ],
    ids=["T_float", "K_str", "D_w_bool", "N_negative", "start_str", "end_null", "table", "missing"],
)
def test_load_sample_rejects_malformed_field(tmp_path, mutate, message):
    path = saved_manifest_with(tmp_path, mutate)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_sample(path)


def test_load_dataset_rejects_sample_names_outside_the_directory(tmp_path):
    write_dataset(tmp_path / "data", count=1, num_frames=4, num_objects=2, seed=0,
                  difficulty="separable")
    shutil.copytree(tmp_path / "data" / "sample_00000", tmp_path / "outside")
    for name in ("../outside", "sub/sample_00000", "..", ".", ""):
        (tmp_path / "data" / "dataset.json").write_text(json.dumps({"samples": [name]}))
        with pytest.raises(FormatError, match="samples must be plain directory names"):
            load_dataset(tmp_path / "data")


# -- synthetic generator -----------------------------------------------------------


def test_synth_deterministic_and_seed_sensitive():
    a1, b1 = synth_sample(3, 8, 4)
    a2, b2 = synth_sample(3, 8, 4)
    assert a1.object_features.tobytes() == a2.object_features.tobytes()
    assert b1.token_embeddings.tobytes() == b2.token_embeddings.tobytes()
    a3, _ = synth_sample(4, 8, 4)
    assert a1.object_features.tobytes() != a3.object_features.tobytes()


def test_synth_annotation_is_frame_aligned():
    for seed in range(30):
        video, _ = synth_sample(seed, 8, 3)
        s_idx, e_idx = segment_to_frame_indices(video.annotation, video.num_frames)
        length = e_idx - s_idx + 1
        assert 2 <= length <= video.num_frames - 1
        lo, hi = frame_pair_to_fractions(s_idx, e_idx, video.num_frames)
        assert (lo, hi) == (video.annotation.start, video.annotation.end)


def test_synth_requires_three_frames():
    # a segment spans at least two frames but never the whole video
    for T in (1, 2):
        with pytest.raises(ValueError, match="num_frames: must be >= 3"):
            synth_sample(0, T, 2)
    video, _ = synth_sample(0, 3, 2)
    assert segment_to_frame_indices(video.annotation, 3) in ((0, 1), (1, 2))


def test_synth_difficulties_differ():
    sep, _ = synth_sample(1, 8, 3, "separable")
    noisy, _ = synth_sample(1, 8, 3, "noisy")
    assert sep.object_features.tobytes() != noisy.object_features.tobytes()
    with pytest.raises(ValueError, match="difficulty"):
        synth_sample(1, 8, 3, "brutal")


def test_synth_plant_is_linearly_separable():
    # Mean feature of in-segment frames vs out-of-segment frames should be
    # separated along a stable direction: nearest-centroid classification of
    # frames should be nearly perfect on the easy difficulty.
    correct = total = 0
    for seed in range(20):
        video, _ = synth_sample(seed, 10, 4, "separable")
        s_idx, e_idx = segment_to_frame_indices(video.annotation, video.num_frames)
        frame_means = video.object_features.mean(axis=1)  # [T, D]
        inside = np.zeros(video.num_frames, dtype=bool)
        inside[s_idx : e_idx + 1] = True
        c_in = frame_means[inside].mean(axis=0)
        c_out = frame_means[~inside].mean(axis=0)
        for t in range(video.num_frames):
            d_in = np.linalg.norm(frame_means[t] - c_in)
            d_out = np.linalg.norm(frame_means[t] - c_out)
            correct += int((d_in < d_out) == inside[t])
            total += 1
    assert correct / total >= 0.95


def test_write_and_load_dataset(tmp_path):
    write_dataset(tmp_path / "data", count=4, num_frames=6, num_objects=2, seed=9,
                  difficulty="noisy")
    samples = load_dataset(tmp_path / "data")
    assert len(samples) == 4
    assert [v.video_id for v, _ in samples] == [f"synth-noisy-{9 + i:06d}" for i in range(4)]
    # order comes from the index; all difficulties recorded
    index = json.loads((tmp_path / "data" / "dataset.json").read_text())
    assert index["difficulty"] in DIFFICULTIES
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "empty")
