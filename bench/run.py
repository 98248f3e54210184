"""hvsarn benchmark entry point.

    python3 bench/run.py --workload train_short --seed 1 --seconds 55 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in.  With ``--trace 0`` the last stdout line is a
JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run.  Lines before it are a readable
report: the environment record, every metric with its unit and sample
count, and the error rate.  Inputs and checkpoints go to a scratch
directory under ``.bench_work/`` that is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the model's matrices are at most a few hundred wide, and a
# single thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train.samples_per_s": "1/s",
    "train.loss_end": "nats",
    "eval.queries_per_s": "1/s",
    "eval.latency_s.p90": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(REPO_ROOT),
    }


def import_package():
    """Import hvsarn from this checkout's src/, refusing any other copy."""
    src = REPO_ROOT / "src"
    if not (src / "hvsarn" / "__init__.py").is_file():
        sys.exit(f"bench: no hvsarn package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import hvsarn

    if Path(hvsarn.__file__).resolve().parent != (src / "hvsarn").resolve():
        sys.exit(f"bench: imported hvsarn from {hvsarn.__file__}, not {src}")
    return hvsarn


def report_lines(metrics, units) -> list[str]:
    lines = []
    for name, value in metrics.items():
        text = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:42s} {text:>14s} {units[name]}")
    return lines


def main(argv=None) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    import numpy as np

    from session import Session, WORKLOADS
    from tracing import layer_metric_names

    args = parse_args(argv, sorted(WORKLOADS))
    hv = import_package()
    print("env " + json.dumps(environment(np), sort_keys=True))
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    scratch = REPO_ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        session = Session(hv, workload, args.seed, args.seconds, work_dir)
        if args.trace:
            metrics = session.trace()
            units = dict(layer_metric_names())
            samples = "fixed work: a warm-up cycle, then untraced, traced, traced and untraced cycles"
        else:
            metrics, counts = session.measure()
            units = END_TO_END_UNITS
            samples = "details: " + ", ".join(f"{k} {v}" for k, v in counts.items())
    finally:
        shutil.rmtree(work_dir)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass

    for line in report_lines(metrics, units):
        print(line)
    print(f"  {samples}")
    error_rate = session.failed / session.attempted if session.attempted else 1.0
    print(f"  error_rate {error_rate:.6g} ({session.failed} failed / {session.attempted} attempted)")
    for problem in session.problems:
        print(f"  failure: {problem}")
    correct = session.failed == 0 and all(v is not None for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
