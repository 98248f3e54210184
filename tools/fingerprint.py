"""Record a tree's output, gradient and training bytes on a fixed grid, and
compare two such records entry by entry.

    python tools/fingerprint.py run --src DIR --out F.npz [--point NAME ...]
    python tools/fingerprint.py compare A.npz B.npz

`run` imports `hvsarn` from DIR/src, so the tool in one tree measures any
other checkout, such as a parent commit checked out beside it with
`git worktree add ../parent HEAD~1`.  It reads that tree only through
`build_model`, `InputDims.of`, `Model.loss`, `predict_dataset`,
`named_parameters` and `train`, plus the constructors of its data and
configs (`synth_sample`, `ModelConfig`, `TrainHyper`, `STANDARD_ABLATIONS`
and `ablation_config`): names that trees as old as `cfb4daf` already have.

The grid, each point in float32 and float64 on synth seeds 0-7
("separable"):
  - the default config at (T, K) = (32, 8) and (128, 4);
  - every `STANDARD_ABLATIONS` variant at (8, 3), with 1 and with 2
    reasoning steps.

At each point it records the summed loss of the batch of 8, the start/end
logits and `top_segments` of that batch and of its first query alone, the
gradient of the loss in every parameter, and the losses and final
parameters of 3 Adam steps at batch 8.

`compare` prints, for each point and group (the outputs, then the gradients
and the trained parameters of each parameter prefix), `equal` when every
entry in it holds the same bytes, and otherwise max|B - A| / max|A| for each
entry that moved.  It exits 1 when any entry moved or is missing on one
side.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

SEEDS = range(8)
ADAM_STEPS = 3
DTYPES = {"f32": np.float32, "f64": np.float64}
_DEFAULT_SHAPES = ((32, 8), (128, 4))
_VARIANT_SHAPE = (8, 3)
KINDS = ("outputs", "grad", "adam/param")  # how compare tallies the entries of a point


def grid(hvsarn) -> dict:
    """{point name: (variant, reasoning steps or None for the default, T, K, dtype)}."""
    points = {}
    for tag, dtype in DTYPES.items():
        for T, K in _DEFAULT_SHAPES:
            points[f"default-{T}x{K}-{tag}"] = ("full", None, T, K, dtype)
        T, K = _VARIANT_SHAPE
        for variant in hvsarn.STANDARD_ABLATIONS:
            for steps in (1, 2):
                points[f"{variant}-{T}x{K}-r{steps}-{tag}"] = (variant, steps, T, K, dtype)
    return points


def import_tree(src: str):
    """The `hvsarn` package of the checkout at `src`."""
    package = os.path.realpath(os.path.join(src, "src"))
    sys.path.insert(0, package)
    import hvsarn

    if not os.path.realpath(hvsarn.__file__).startswith(package + os.sep):
        raise SystemExit(f"hvsarn was already imported from {hvsarn.__file__}, not from {package}")
    return hvsarn


def _predictions(prefix: str, predictions) -> dict:
    return {
        f"{prefix}/start_logits": np.stack([p.start_logits.data for p in predictions]),
        f"{prefix}/end_logits": np.stack([p.end_logits.data for p in predictions]),
        f"{prefix}/top_segments": np.stack([p.top_segments for p in predictions]),
    }


def record(hvsarn, variant: str, steps, T: int, K: int, dtype) -> dict:
    """The entries of one grid point, by name."""
    config = hvsarn.ablation_config(hvsarn.ModelConfig(), variant)
    if steps is not None:
        config = hvsarn.ModelConfig.from_dict({**config.to_dict(), "reasoning_steps": steps})
    samples = [hvsarn.synth_sample(seed, T, K) for seed in SEEDS]
    model = hvsarn.build_model(config, hvsarn.InputDims.of(*samples[0]), dtype)
    loss = model.loss(samples)
    loss.backward()
    entries = {"loss": loss.data}
    entries.update(_predictions("batch", hvsarn.predict_dataset(model, samples)))
    entries.update(_predictions("one", hvsarn.predict_dataset(model, samples[:1])))
    for name, param in model.named_parameters().items():
        entries[f"grad/{name}"] = param.grad
    hyper = hvsarn.TrainHyper(steps=ADAM_STEPS, batch_size=len(samples))
    state, curve = hvsarn.train(samples, config, hyper, dtype=dtype)
    entries["adam/losses"] = np.asarray(curve)
    for name, param in state.model.named_parameters().items():
        entries[f"adam/param/{name}"] = param.data
    return entries


def run(src: str, out: str, names=None) -> None:
    hvsarn = import_tree(src)
    points = grid(hvsarn)
    unknown = sorted(set(names or ()) - set(points))
    if unknown:
        raise SystemExit(f"unknown grid point(s) {unknown}; the grid is {list(points)}")
    arrays = {}
    for name in names or points:
        for key, value in record(hvsarn, *points[name]).items():
            arrays[f"{name}/{key}"] = np.asarray(value)
    np.savez(out, **arrays)


def _split(entry: str) -> tuple[str, str, str]:
    """(kind, group, leaf) of an entry key within its point, e.g.
    ("grad", "grad encoder/attn", "wq") for `grad/encoder/attn/wq`."""
    for kind in KINDS[1:]:
        if entry.startswith(kind + "/"):
            prefix, _, leaf = entry[len(kind) + 1 :].rpartition("/")
            return kind, f"{kind} {prefix}", leaf
    return "outputs", "outputs", entry


def moved(a: np.ndarray, b: np.ndarray):
    """None when a and b hold the same bytes, else max|b - a| / max|a|
    (inf when their shapes or dtypes differ, or a is all zero)."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if a.dtype != b.dtype or a.shape != b.shape:
        return np.inf
    ref = np.abs(a.astype(np.float64)).max(initial=0.0)
    delta = np.abs(b.astype(np.float64) - a).max(initial=0.0)
    return delta / ref if ref > 0 else np.inf


def compare(a_path: str, b_path: str) -> int:
    with np.load(a_path) as fa, np.load(b_path) as fb:
        a, b = dict(fa), dict(fb)
    points: dict[str, dict[str, list[str]]] = {}
    for key in list(a) + [k for k in b if k not in a]:
        point, _, entry = key.partition("/")
        points.setdefault(point, {}).setdefault(_split(entry)[1], []).append(entry)
    total = equal = 0
    for point, groups in points.items():
        # per kind: [entries, equal entries, (worst move, its entry)]
        tally = {kind: [0, 0, (0.0, "")] for kind in KINDS}
        for group, entries in groups.items():
            lines = []
            for entry in entries:
                key, (kind, _, leaf) = f"{point}/{entry}", _split(entry)
                counts = tally[kind]
                counts[0] += 1
                if key not in a or key not in b:
                    lines.append(f"{point} {group}: {leaf} only in {a_path if key in a else b_path}")
                elif (rel := moved(a[key], b[key])) is None:
                    counts[1] += 1
                else:
                    lines.append(f"{point} {group}: {leaf} {rel:.2g}")
                    counts[2] = max(counts[2], (rel, entry.partition(kind + "/")[2] or entry))
            print("\n".join(lines) or f"{point} {group}: equal ({len(entries)})")
        parts = []
        for kind, (n, same, (rel, worst)) in tally.items():
            if n:
                worst = f", worst {rel:.2g} ({worst})" if worst else ""
                parts.append(f"{kind} {same} of {n} equal{worst}")
            total, equal = total + n, equal + same
        print(f"{point}: " + "; ".join(parts))
    print(f"all: {equal} of {total} entries equal at {len(points)} points")
    return 0 if equal == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="record the grid for the tree at --src")
    p.add_argument("--src", required=True, help="a checkout; hvsarn is imported from its src/")
    p.add_argument("--out", required=True, help="the .npz file to write")
    p.add_argument("--point", action="append", help="record only this grid point (repeatable)")
    p = sub.add_parser("compare", help="compare two records, B against the reference A")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.src, args.out, args.point)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
