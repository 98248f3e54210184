"""Command-line entry points: synth / train / eval / gradcheck / ablate.

Every command that produces artifacts writes them under --out-dir along with
a run_manifest.json recording the command, the effective configuration, the
seed, the artifact list, wall-clock time, and the git revision when one is
available. HVSARN_PRECISION={32,64} picks the float width for training and
ablation runs (gradient checking always runs in 64-bit).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import numpy as np

from .data import (
    DIFFICULTIES,
    ConfigError,
    ModelConfig,
    load_dataset,
    write_dataset,
)
from .evaluation import (
    DEFAULT_METRIC_GRID,
    STANDARD_ABLATIONS,
    ablation_report,
    evaluate_predictions,
    metrics_table,
    write_metrics_tsv,
)
from .fileio import FormatError, atomic_write_json
from .localization import write_predictions_jsonl
from .model import predict_dataset
from .training import TrainHyper, TrainingDiverged, gradcheck, load_checkpoint, train


def precision_dtype():
    value = os.environ.get("HVSARN_PRECISION", "32")
    if value == "32":
        return np.float32
    if value == "64":
        return np.float64
    raise ConfigError(f"HVSARN_PRECISION must be '32' or '64', got {value!r}")


def parse_metric_grid(text: str) -> list[tuple[int, float]]:
    """Parse '1:0.3,5:0.7' into [(1, 0.3), (5, 0.7)]."""
    grid = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n_text, m_text = part.split(":")
            n, m = int(n_text), float(m_text)
        except ValueError:
            raise ConfigError(f"bad metric spec {part!r}; expected n:m like 1:0.5") from None
        if n < 1 or not 0.0 < m <= 1.0:
            raise ConfigError(f"bad metric spec {part!r}: need n >= 1 and 0 < m <= 1")
        grid.append((n, m))
    if not grid:
        raise ConfigError(f"empty metric grid {text!r}")
    return grid


def _git_describe() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def write_run_manifest(out_dir, command, config, seed, artifacts, started) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifacts": sorted(artifacts),
        "wall_clock_sec": round(time.time() - started, 3),
        "git_describe": _git_describe(),
    }
    atomic_write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


def _load_config(args) -> ModelConfig:
    config = ModelConfig.from_json(args.config) if args.config else ModelConfig()
    if getattr(args, "seed", None) is not None:
        config = ModelConfig.from_dict({**config.to_dict(), "seed": args.seed})
    return config


def _hyper(args) -> TrainHyper:
    return TrainHyper(learning_rate=args.lr, steps=args.steps, batch_size=args.batch_size)


# -- commands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    started = time.time()
    if os.path.isdir(args.out_dir) and os.listdir(args.out_dir) and not args.force:
        raise ConfigError(f"{args.out_dir} exists and is not empty (pass --force to overwrite)")
    write_dataset(
        args.out_dir,
        count=args.count,
        num_frames=args.frames,
        num_objects=args.objects,
        seed=args.seed,
        difficulty=args.difficulty,
    )
    print(f"wrote {args.count} samples to {args.out_dir}")
    write_run_manifest(
        args.out_dir,
        "synth",
        {
            "count": args.count,
            "frames": args.frames,
            "objects": args.objects,
            "difficulty": args.difficulty,
        },
        args.seed,
        ["dataset.json"],
        started,
    )
    return 0


def cmd_train(args) -> int:
    started = time.time()
    config = _load_config(args)
    hyper = _hyper(args)
    dataset = load_dataset(args.data_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    state, curve = train(
        dataset,
        config,
        hyper,
        dtype=precision_dtype(),
        out_dir=args.out_dir,
        checkpoint_every=args.checkpoint_every,
        log=print,
    )
    atomic_write_json(os.path.join(args.out_dir, "loss_curve.json"), curve)
    print(f"final loss {curve[-1]:.4f} after {state.step} steps")
    write_run_manifest(
        args.out_dir,
        "train",
        {
            "model": config.to_dict(),
            "hyper": {"lr": args.lr, "steps": args.steps, "batch_size": args.batch_size},
            "data_dir": args.data_dir,
        },
        config.seed,
        ["checkpoint", "loss_curve.json"],
        started,
    )
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    grid = parse_metric_grid(args.metrics) if args.metrics else list(DEFAULT_METRIC_GRID)
    state = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data_dir)
    truths = [video.annotation for video, _ in dataset]
    if any(t is None for t in truths):
        raise ConfigError(f"{args.data_dir}: evaluation needs annotated samples")
    predictions = predict_dataset(state.model, dataset)
    os.makedirs(args.out_dir, exist_ok=True)

    records = []
    for (video, query), pred in zip(dataset, predictions):
        records.append(
            {
                "query_id": query.query_id,
                "video_id": video.video_id,
                "segments": [[s, e, score] for s, e, score in pred.top_segments],
            }
        )
    write_predictions_jsonl(os.path.join(args.out_dir, "predictions.jsonl"), records)

    report = evaluate_predictions(predictions, truths, grid)
    write_metrics_tsv(os.path.join(args.out_dir, "metrics.tsv"), {"model": report}, grid)
    atomic_write_json(os.path.join(args.out_dir, "metrics.json"), report.to_dict())
    for (n, m) in grid:
        print(f"R@{n},IoU={m:g}: {report.recall(n, m):.4f}")
    write_run_manifest(
        args.out_dir,
        "eval",
        {
            "checkpoint": args.checkpoint,
            "data_dir": args.data_dir,
            "metrics": [f"{n}:{m:g}" for n, m in grid],
        },
        state.model.config.seed,
        ["predictions.jsonl", "metrics.tsv", "metrics.json"],
        started,
    )
    return 0


def cmd_gradcheck(args) -> int:
    config = None
    if args.config:
        config = ModelConfig.from_json(args.config)
    report = gradcheck(config=config, tolerance=args.tolerance)
    print(report.format())
    return 0 if report.passed else 1


def cmd_ablate(args) -> int:
    started = time.time()
    base = _load_config(args)
    names = [args.ablation] if args.ablation else list(STANDARD_ABLATIONS)
    dataset = load_dataset(args.data_dir)
    grid = parse_metric_grid(args.metrics) if args.metrics else list(DEFAULT_METRIC_GRID)
    reports = ablation_report(
        base, names, dataset, _hyper(args), grid=grid, dtype=precision_dtype()
    )
    os.makedirs(args.out_dir, exist_ok=True)
    write_metrics_tsv(os.path.join(args.out_dir, "ablation.tsv"), reports, grid)
    atomic_write_json(
        os.path.join(args.out_dir, "ablation.json"),
        {name: report.to_dict() for name, report in reports.items()},
    )
    print(metrics_table(reports, grid), end="")
    write_run_manifest(
        args.out_dir,
        "ablate",
        {
            "model": base.to_dict(),
            "ablations": names,
            "hyper": {"lr": args.lr, "steps": args.steps, "batch_size": args.batch_size},
            "data_dir": args.data_dir,
        },
        base.seed,
        ["ablation.tsv", "ablation.json"],
        started,
    )
    return 0


# -- parser ------------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="model config JSON (defaults to the stock config)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.add_argument("--steps", type=int, default=500, help="optimization steps")
    p.add_argument("--batch-size", type=int, default=8, help="samples per step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvsarn",
        description="Hierarchical graph-memory localization of sentences in videos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty", choices=DIFFICULTIES, default="separable")
    p.add_argument("--force", action="store_true", help="overwrite a non-empty --out-dir")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="fit a model to a dataset")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    _add_train_flags(p)
    p.add_argument(
        "--checkpoint-every", type=int, default=0, help="also checkpoint every N steps"
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--metrics", help="grid as n:m[,n:m...], e.g. 1:0.5,5:0.7")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--config", help="model config JSON")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and score architecture variants")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--ablation",
        choices=STANDARD_ABLATIONS,
        help="run a single named variant (default: all of them)",
    )
    p.add_argument("--metrics", help="grid as n:m[,n:m...]")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
