"""Command-line surface: argument plumbing, artifacts, precision env, errors.

Everything runs in-process through main(argv) so coverage tools see it and
tmp_path keeps the artifacts isolated.
"""

import dataclasses
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import hvsarn.cli
from hvsarn.cli import main, parse_metric_grid, precision_dtype
from hvsarn.data import (
    ConfigError,
    GroundTruthSegment,
    ModelConfig,
    VideoSample,
    load_dataset,
    save_sample,
)
from hvsarn.model import predict_dataset
from hvsarn.training import load_checkpoint

TINY = ["--lr", "1e-3", "--steps", "4", "--batch-size", "2"]


def synth(out_dir, count=4, frames=4, objects=2, extra=()):
    args = [
        "synth",
        "--out-dir",
        str(out_dir),
        "--count",
        str(count),
        "--frames",
        str(frames),
        "--objects",
        str(objects),
        "--seed",
        "1",
    ]
    return main(args + list(extra))


def test_parse_metric_grid():
    assert parse_metric_grid("1:0.5") == [(1, 0.5)]
    assert parse_metric_grid("1:0.3, 5:0.7") == [(1, 0.3), (5, 0.7)]
    for bad in ("", "1", "x:0.5", "1:2.0", "0:0.5", "1:0"):
        with pytest.raises(ConfigError):
            parse_metric_grid(bad)


def test_precision_env(monkeypatch):
    monkeypatch.delenv("HVSARN_PRECISION", raising=False)
    assert precision_dtype() is np.float32
    monkeypatch.setenv("HVSARN_PRECISION", "64")
    assert precision_dtype() is np.float64
    monkeypatch.setenv("HVSARN_PRECISION", "16")
    with pytest.raises(ConfigError):
        precision_dtype()


def test_synth_writes_dataset_and_manifest(tmp_path, capsys):
    out = tmp_path / "data"
    assert synth(out) == 0
    assert "wrote 4 samples" in capsys.readouterr().out
    dataset = load_dataset(out)
    assert len(dataset) == 4
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 1
    assert manifest["artifacts"] == ["dataset.json"]
    assert manifest["wall_clock_sec"] >= 0
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__


def test_synth_refuses_nonempty_dir_without_force(tmp_path, capsys):
    out = tmp_path / "data"
    assert synth(out) == 0
    assert synth(out) == 1
    assert "--force" in capsys.readouterr().err
    assert synth(out, extra=["--force"]) == 0


def test_synth_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    assert synth(out, extra=["--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed: must be >= 0, got -1")
    assert not out.exists()


def test_synth_rejects_a_negative_count_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    assert synth(out, count=-3) == 1
    assert capsys.readouterr().err.startswith("error: count: must be >= 0, got -3")
    assert not out.exists()


@pytest.mark.parametrize(
    "count, frames, objects, field",
    [(2, 2, 2, "num_frames"), (0, 2, 2, "num_frames"), (2, 4, 0, "num_objects")],
)
def test_synth_rejects_a_bad_shape_before_writing(tmp_path, capsys, count, frames, objects, field):
    out = tmp_path / "data"
    assert synth(out, count=count, frames=frames, objects=objects) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: must be >= ")
    assert not out.exists()


def test_a_hung_git_still_writes_the_manifest(tmp_path, monkeypatch, capsys):
    # git describe runs in the package's checkout, whatever the working
    # directory; a git that outlives its timeout leaves git_describe null.
    calls = []

    def hung_git(args, **kwargs):
        calls.append(kwargs.get("cwd"))
        raise subprocess.TimeoutExpired(args, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung_git)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out-dir", "data", "--count", "1", "--seed", "1"]) == 0
    manifest = json.loads((tmp_path / "data" / "run_manifest.json").read_text())
    assert manifest["git_describe"] is None
    assert calls == [os.path.dirname(os.path.abspath(hvsarn.cli.__file__))]


def test_full_pipeline(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HVSARN_PRECISION", raising=False)
    data, run, scored = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
    assert synth(data) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]) == 0

    curve = json.loads((run / "loss_curve.json").read_text())
    assert len(curve) == 4 and all(np.isfinite(v) for v in curve)
    state = load_checkpoint(str(run / "checkpoint"))
    assert state.step == 4

    assert (
        main(
            [
                "eval",
                "--checkpoint",
                str(run / "checkpoint"),
                "--data-dir",
                str(data),
                "--out-dir",
                str(scored),
                "--metrics",
                "1:0.5,5:0.5",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "R@1,IoU=0.5:" in out and "R@5,IoU=0.5:" in out

    lines = (scored / "predictions.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 4
    for record in records:
        assert set(record) == {"query_id", "video_id", "segments"}
        for seg in record["segments"]:
            assert isinstance(seg, list) and len(seg) == 3
            assert 0.0 <= seg[0] < seg[1] <= 1.0
    # JSON round-trips a float exactly, so the file holds the ranking itself
    predictions = predict_dataset(state.model, load_dataset(str(data)))
    assert [r["segments"] for r in records] == [p.top_segments.tolist() for p in predictions]

    tsv = (scored / "metrics.tsv").read_text().strip().split("\n")
    assert tsv[0] == "model\tR@1,IoU=0.5\tR@5,IoU=0.5"
    assert tsv[1].startswith("model\t")
    metrics = json.loads((scored / "metrics.json").read_text())
    assert metrics["count"] == 4

    manifest = json.loads((scored / "run_manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["config"]["metrics"] == ["1:0.5", "5:0.5"]
    assert (manifest["python"], manifest["numpy"]) == (platform.python_version(), np.__version__)


def test_train_precision_64(tmp_path, monkeypatch):
    data, run = tmp_path / "data", tmp_path / "run64"
    assert synth(data) == 0
    monkeypatch.setenv("HVSARN_PRECISION", "64")
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]) == 0
    manifest = json.loads((run / "checkpoint" / "manifest.json").read_text())
    assert manifest["dtype"] == "<f8"
    assert sorted(os.listdir(run / "checkpoint")) == ["manifest.json", "tensors.f64"]


def test_invalid_precision_exits_nonzero(tmp_path, monkeypatch, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    monkeypatch.setenv("HVSARN_PRECISION", "banana")
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]) == 1
    assert "HVSARN_PRECISION" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["-1e-3", "nan", "inf"])
def test_invalid_learning_rate_exits_nonzero(tmp_path, capsys, rate):
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    capsys.readouterr()
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), f"--lr={rate}"]) == 1
    assert capsys.readouterr().err.startswith("error: learning_rate")
    assert not run.exists()


def test_train_of_zero_steps_writes_every_artifact(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    args = ["train", "--data-dir", str(data), "--out-dir", str(run), *TINY, "--steps", "0"]
    assert main(args) == 0
    assert json.loads((run / "loss_curve.json").read_text()) == []
    assert load_checkpoint(str(run / "checkpoint")).step == 0
    manifest = json.loads((run / "run_manifest.json").read_text())
    assert manifest["artifacts"] == ["checkpoint", "loss_curve.json"]
    assert manifest["config"]["hyper"]["steps"] == 0


def test_train_manifest_lists_every_checkpoint(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    args = ["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]
    assert main(args + ["--steps", "5", "--checkpoint-every", "2"]) == 0
    manifest = json.loads((run / "run_manifest.json").read_text())
    written = ["checkpoint", "checkpoint_000002", "checkpoint_000004", "loss_curve.json"]
    assert manifest["artifacts"] == written
    assert sorted(os.listdir(run)) == written + ["run_manifest.json"]


def test_train_rejects_a_negative_checkpoint_interval(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    capsys.readouterr()
    args = ["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]
    assert main(args + ["--checkpoint-every", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoint_every: must be >= 0, got -1")
    assert not run.exists()


def rewrite_sample(data, index, **changes):
    """Save sample `index` of the dataset in `data` again with `changes` to its video."""
    video, query = load_dataset(data)[index]
    name = json.loads((data / "dataset.json").read_text())["samples"][index]
    save_sample((dataclasses.replace(video, **changes), query), data / name)
    return video


@pytest.mark.parametrize("field", ["max_frames", "max_objects", "one_frame"])
def test_train_rejects_samples_past_the_limits_before_writing(tmp_path, capsys, field):
    # synth writes T = 4, K = 2; the config's limit sits one below, or one
    # sample's annotation maps to frame 1 alone, which no segment fits.
    data, run, config = tmp_path / "data", tmp_path / "run", tmp_path / "config.json"
    assert synth(data) == 0
    limits = {"max_frames": 3, "max_objects": 1}
    if field == "one_frame":
        video = rewrite_sample(data, 1, annotation=GroundTruthSegment(0.3, 0.45))
        message = f"sample {video.video_id}: annotation maps to the single frame (s, e) = (1, 1)"
        config.write_text(json.dumps(ModelConfig().to_dict()))
    else:
        message = f"exceeds config.{field} {limits[field]}"
        config.write_text(json.dumps({**ModelConfig().to_dict(), field: limits[field]}))
    capsys.readouterr()
    args = ["train", "--data-dir", str(data), "--out-dir", str(run), "--config", str(config)]
    assert main(args + TINY) == 1
    assert message in capsys.readouterr().err
    assert not run.exists()


def test_train_rejects_samples_of_other_input_widths_before_writing(tmp_path, capsys):
    # the model's widths come from the first sample; a wider later one used
    # to fail only in its first batch, after a checkpoint was written
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    video, _ = load_dataset(data)[1]
    wider = np.concatenate([video.object_features, video.object_features[..., :1]], axis=-1)
    rewrite_sample(data, 1, object_features=wider)
    capsys.readouterr()
    args = ["train", "--data-dir", str(data), "--out-dir", str(run), "--checkpoint-every", "1"]
    assert main(args + TINY) == 1
    err = capsys.readouterr().err
    assert f"error: sample {video.video_id}: feature_dim 17 != 16 of the first sample" in err
    assert not run.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m hvsarn` is `hvsarn` without an install; a failed command exits 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(hvsarn.cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = ["eval", "--checkpoint", "missing", "--data-dir", "missing", "--out-dir", "out"]
    done = subprocess.run(
        [sys.executable, "-m", "hvsarn", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ")


def test_eval_of_empty_dataset_prints_error(tmp_path, capsys):
    data, empty, run = tmp_path / "data", tmp_path / "empty", tmp_path / "run"
    assert synth(data) == 0 and synth(empty, count=0) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]) == 0
    capsys.readouterr()
    scored = tmp_path / "eval"
    args = ["eval", "--checkpoint", str(run / "checkpoint"), "--data-dir", str(empty)]
    assert main([*args, "--out-dir", str(scored)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: recall over an empty sample list")
    assert "R@" not in captured.out
    assert not scored.exists()  # the metrics are computed before anything is written


def test_seed_flag_overrides_config(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    assert (
        main(["train", "--data-dir", str(data), "--out-dir", str(run), "--seed", "9", *TINY]) == 0
    )
    manifest = json.loads((run / "run_manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["config"]["model"]["seed"] == 9


def test_config_file_round_trip(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"hidden_size": 8, "reasoning_steps": 0}))
    data, run = tmp_path / "data", tmp_path / "run"
    assert synth(data) == 0
    assert (
        main(
            [
                "train",
                "--data-dir",
                str(data),
                "--out-dir",
                str(run),
                "--config",
                str(config_path),
                *TINY,
            ]
        )
        == 0
    )
    manifest = json.loads((run / "checkpoint" / "manifest.json").read_text())
    assert manifest["config"]["hidden_size"] == 8
    assert manifest["config"]["reasoning_steps"] == 0


def test_gradcheck_command(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"hidden_size": 4, "reasoning_steps": 0}))
    assert main(["gradcheck", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS (tolerance 0.0001" in out
    assert "max_rel_err" in out


def test_ablate_single_variant(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "ablation"
    assert synth(data) == 0
    assert (
        main(
            [
                "ablate",
                "--data-dir",
                str(data),
                "--out-dir",
                str(out),
                "--ablation",
                "no_reasoning",
                "--metrics",
                "1:0.5",
                *TINY,
            ]
        )
        == 0
    )
    table = (out / "ablation.tsv").read_text().strip().split("\n")
    assert table[0] == "model\tR@1,IoU=0.5"
    assert table[1].startswith("no_reasoning\t")
    report = json.loads((out / "ablation.json").read_text())
    assert set(report) == {"no_reasoning"}
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["ablations"] == ["no_reasoning"]


def test_errors_exit_nonzero(tmp_path, capsys):
    # missing dataset directory
    assert main(["train", "--data-dir", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    # checkpoint directory that is not a checkpoint
    bogus = tmp_path / "bogus"
    bogus.mkdir()
    (bogus / "manifest.json").write_text(json.dumps({"kind": "other"}))
    data = tmp_path / "data"
    assert synth(data) == 0
    assert (
        main(
            [
                "eval",
                "--checkpoint",
                str(bogus),
                "--data-dir",
                str(data),
                "--out-dir",
                str(tmp_path / "e"),
            ]
        )
        == 1
    )
    assert "not a checkpoint" in capsys.readouterr().err


def test_eval_of_malformed_checkpoint_prints_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert synth(data) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "run"), *TINY]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["dtype"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(
        ["eval", "--checkpoint", str(ckpt), "--data-dir", str(data), "--out-dir", str(tmp_path / "e")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing key 'dtype'" in err


def test_eval_of_checkpoint_manifest_that_is_no_object_prints_error(tmp_path, capsys):
    data, bogus, scored = tmp_path / "data", tmp_path / "bogus", tmp_path / "e"
    assert synth(data) == 0
    bogus.mkdir()
    (bogus / "manifest.json").write_text("[]")
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(bogus), "--data-dir", str(data), "--out-dir", str(scored)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a JSON object, got list" in err
    assert not scored.exists()


@pytest.mark.parametrize(
    "extra, frames, message",
    [
        (["--metrics", "1:2"], 4, "error: bad metric spec '1:2'"),
        ([], 300, "error: num_frames 300 exceeds config.max_frames 256"),
    ],
    ids=["metric_spec", "too_many_frames"],
)
def test_failed_eval_leaves_no_out_dir(tmp_path, capsys, extra, frames, message):
    data, queries, run = tmp_path / "data", tmp_path / "queries", tmp_path / "run"
    assert synth(data) == 0 and synth(queries, count=2, frames=frames) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]) == 0
    capsys.readouterr()
    scored = tmp_path / "eval"
    args = ["eval", "--checkpoint", str(run / "checkpoint"), "--data-dir", str(queries)]
    assert main([*args, "--out-dir", str(scored), *extra]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not scored.exists()


def test_eval_of_samples_of_other_input_widths_leaves_no_out_dir(tmp_path, capsys):
    # the model's widths are the checkpoint's, not the first sample's
    data, queries, run = tmp_path / "data", tmp_path / "queries", tmp_path / "run"
    assert synth(data) == 0 and synth(queries, count=3) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(run), *TINY]) == 0
    video, _ = load_dataset(queries)[1]
    wider = np.concatenate([video.object_features, video.object_features[..., :1]], axis=-1)
    rewrite_sample(queries, 1, object_features=wider)
    capsys.readouterr()
    scored = tmp_path / "eval"
    args = ["eval", "--checkpoint", str(run / "checkpoint"), "--data-dir", str(queries)]
    assert main([*args, "--out-dir", str(scored)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sample {video.video_id}: feature_dim 17 != 16 of the model")
    assert not scored.exists()


@pytest.mark.parametrize(
    "metrics, frames, message",
    [
        ("x", 4, "error: bad metric spec 'x'"),
        ("1:0.5", 300, "error: num_frames 300 exceeds config.max_frames 256"),
    ],
    ids=["metric_spec", "too_many_frames"],
)
def test_failed_ablate_leaves_no_out_dir(tmp_path, capsys, metrics, frames, message):
    data, out = tmp_path / "data", tmp_path / "ablation"
    assert synth(data, count=2, frames=frames) == 0
    capsys.readouterr()
    args = ["ablate", "--data-dir", str(data), "--out-dir", str(out), "--metrics", metrics]
    assert main([*args, "--ablation", "no_reasoning", *TINY]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "index", [{}, {"samples": "sample_0"}, {"samples": [0]}], ids=["missing", "string", "int_entry"]
)
def test_train_on_malformed_dataset_index_prints_error(tmp_path, capsys, index):
    data = tmp_path / "data"
    assert synth(data) == 0
    (data / "dataset.json").write_text(json.dumps(index))
    capsys.readouterr()
    rc = main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "run"), *TINY])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda m: m["tensors"][1].update(file="../sample_00000/tensors.f32"),
            "'boxes' has unknown key 'file'",
        ),
        (lambda m: m["tensors"][1].update(shape=5), "'boxes' shape 5 is not [4, 2, 4]"),
        (lambda m: m.update(T=4.0), "T 4.0"),
        (lambda m: m["annotation"].update(start="0.1"), "annotation: start '0.1'"),
    ],
    ids=["file_outside", "shape_type", "T_float", "start_str"],
)
def test_eval_on_dataset_with_malformed_sample_prints_error(tmp_path, capsys, mutate, message):
    data = tmp_path / "data"
    assert synth(data) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "run"), *TINY]) == 0
    manifest_path = data / "sample_00002" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(tmp_path / "run" / "checkpoint"),
            "--data-dir",
            str(data),
            "--out-dir",
            str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample_00002" in err and message in err


def test_gradcheck_with_wrong_typed_config_prints_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"hidden_size": "8"}))
    assert main(["gradcheck", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hidden_size: expected int")


def test_eval_of_single_frame_video_prints_error(tmp_path, capsys):
    # such a sample loads, but no segment fits in one frame
    data = tmp_path / "data"
    assert synth(data) == 0
    assert main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "run"), *TINY]) == 0
    video, query = load_dataset(data)[0]
    short = VideoSample(
        video_id="one-frame",
        object_features=video.object_features[:1],
        boxes=video.boxes[:1],
        semantic_embeddings=video.semantic_embeddings[:1],
        annotation=GroundTruthSegment(0.0, 1.0),
    )
    short_dir = tmp_path / "short"
    save_sample((short, query), short_dir / "sample_0")
    (short_dir / "dataset.json").write_text(json.dumps({"samples": ["sample_0"]}))
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(tmp_path / "run" / "checkpoint"),
            "--data-dir",
            str(short_dir),
            "--out-dir",
            str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "num_frames 1" in err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
