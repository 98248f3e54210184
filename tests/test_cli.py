"""Command-line surface: argument plumbing, artifacts, precision env, errors.

Everything runs in-process through main(argv) so coverage tools see it and
tmp_path keeps the artifacts isolated.
"""

import json
import os

import numpy as np
import pytest

from hvsarn.cli import main, parse_metric_grid, precision_dtype
from hvsarn.data import ConfigError, GroundTruthSegment, VideoSample, load_dataset, save_sample
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


def test_synth_refuses_nonempty_dir_without_force(tmp_path, capsys):
    out = tmp_path / "data"
    assert synth(out) == 0
    assert synth(out) == 1
    assert "--force" in capsys.readouterr().err
    assert synth(out, extra=["--force"]) == 0


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

    tsv = (scored / "metrics.tsv").read_text().strip().split("\n")
    assert tsv[0] == "model\tR@1,IoU=0.5\tR@5,IoU=0.5"
    assert tsv[1].startswith("model\t")
    metrics = json.loads((scored / "metrics.json").read_text())
    assert metrics["count"] == 4

    manifest = json.loads((scored / "run_manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["config"]["metrics"] == ["1:0.5", "5:0.5"]


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
