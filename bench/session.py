"""One benchmarked session: write the inputs, then set up, train and evaluate in cycles.

Every workload runs the same user pipeline through the package's public
API.  One cycle is: load the datasets and a checkpoint (set-up), call
``train()`` from scratch with the same seed, load the checkpoint it wrote,
score the eval set with ``predict_dataset`` + ``evaluate_predictions``, and
time each query alone in a closed loop with one client.  Cycles repeat for
the run's seconds.  The host's speed drifts over seconds, so interleaving
the phases lets every metric sample the whole run instead of one stretch
of it.  The workloads differ in video length T, object count K, and how
much of a cycle each phase takes.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import invalid_prediction, report_mismatches, segments_digest
from tracing import SPANS, Tracer

BATCH = 8
SETUPS_PER_CYCLE = 3
# p90 is reported, so a run takes at least 100 latency samples: ten beyond it.
MIN_LATENCY_SAMPLES = 100
# API entry points; their self time is glue, not work inside a layer.
ENTRY_SPANS = ("training.train", "model.predict_dataset")


@dataclass(frozen=True)
class Workload:
    name: str
    train_shapes: tuple[tuple[int, int], ...]  # (T, K) per training sample
    eval_shapes: tuple[tuple[int, int], ...]  # (T, K) per eval query
    steps: int  # train() steps per call; the train set is exactly one epoch of them


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_short",
            train_shapes=((32, 8),) * (4 * BATCH),
            eval_shapes=((32, 8),) * 50,
            steps=4,
        ),
        # One step per call: a T=128 step takes ~4 s, and a cycle must leave
        # room for the eval round inside the run.
        Workload(
            name="train_long",
            train_shapes=((128, 4),) * BATCH,
            eval_shapes=((128, 4),) * 25,
            steps=1,
        ),
    )
}


def _write_split(hv, shapes, sample_seeds, order, out_dir: Path) -> None:
    names = []
    for i, idx in enumerate(order):
        T, K = shapes[idx]
        name = f"sample_{i:05d}"
        hv.save_sample(hv.synth_sample(int(sample_seeds[idx]), T, K), out_dir / name)
        names.append(name)
    (out_dir / "dataset.json").write_text(json.dumps({"count": len(names), "samples": names}))


@dataclass
class Timings:
    setup: list[float] = field(default_factory=list)
    train: list[float] = field(default_factory=list)  # seconds per train() call
    passes: list[float] = field(default_factory=list)  # seconds per whole-set eval pass
    latencies: list[float] = field(default_factory=list)  # seconds per single query


class Session:
    """Runs one workload in a scratch directory and counts attempted/failed operations."""

    def __init__(self, hv, workload: Workload, seed: int, seconds: float, work_dir: Path):
        self.hv = hv
        self.work = workload
        self.seconds = seconds
        self.train_dir = work_dir / "train"
        self.eval_dir = work_dir / "eval"
        self.fixture_dir = work_dir / "fixture"
        self.run_dir = work_dir / "run"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.loss_end: float | None = None
        self.digests: dict[int, bytes] = {}
        self.config = hv.ModelConfig()
        self._write_inputs(seed)

    # -- inputs and set-up -------------------------------------------------

    def _write_inputs(self, seed: int) -> None:
        """Synthesize both splits from the seed and write them as dataset directories."""
        hv, work = self.hv, self.work
        rng = np.random.default_rng([seed, 0x48_56_53])
        train_seeds = rng.integers(0, 2**31, size=len(work.train_shapes))
        eval_seeds = rng.integers(0, 2**31, size=len(work.eval_shapes))
        eval_order = rng.permutation(len(work.eval_shapes))
        _write_split(hv, work.train_shapes, train_seeds, range(len(work.train_shapes)), self.train_dir)
        _write_split(hv, work.eval_shapes, eval_seeds, eval_order, self.eval_dir)
        # A steps=0 train() writes the initial checkpoint; set-up loads it.
        train_set = hv.load_dataset(self.train_dir)
        hyper = hv.TrainHyper(steps=0, batch_size=BATCH)
        hv.train(train_set, self.config, hyper, out_dir=str(self.fixture_dir))

    def setup(self):
        """Load both datasets and a checkpoint; returns (seconds, train set, eval set)."""
        hv = self.hv
        start = time.perf_counter()
        train_set = hv.load_dataset(self.train_dir)
        eval_set = hv.load_dataset(self.eval_dir)
        hv.load_checkpoint(str(self.fixture_dir / "checkpoint"))
        return time.perf_counter() - start, train_set, eval_set

    # -- operations ----------------------------------------------------------

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(why)

    def train_call(self, train_set) -> float | None:
        """One train() from scratch; each of its steps is an attempted operation."""
        steps = self.work.steps
        self.attempted += steps
        hyper = self.hv.TrainHyper(steps=steps, batch_size=BATCH)
        start = time.perf_counter()
        try:
            _, curve = self.hv.train(train_set, self.config, hyper, out_dir=str(self.run_dir))
        except Exception as err:  # a failed operation is counted; the run goes on
            self._fail(steps, f"train() raised {err!r}")
            return None
        elapsed = time.perf_counter() - start
        bad = sum(1 for value in curve if not math.isfinite(value)) + steps - len(curve)
        if bad:
            self._fail(bad, f"train() curve {curve} has non-finite or missing steps")
            return elapsed
        if self.loss_end is None:
            self.loss_end = curve[-1]
        elif curve[-1] != self.loss_end:
            self._fail(1, f"final loss {curve[-1]!r} != {self.loss_end!r} with the same seed")
        return elapsed

    def _check_query(self, index: int, prediction, video) -> None:
        why = invalid_prediction(prediction, video.num_frames, self.config.max_segments)
        digest = segments_digest(prediction)
        if why is not None:
            self._fail(1, f"query {index}: {why}")
        elif self.digests.setdefault(index, digest) != digest:
            self._fail(1, f"query {index}: top_segments differ between passes")

    def eval_pass(self, model, eval_set) -> float | None:
        """predict_dataset + evaluate_predictions over the whole eval set."""
        count = len(eval_set)
        self.attempted += count
        truths = [video.annotation for video, _ in eval_set]
        start = time.perf_counter()
        try:
            predictions = self.hv.predict_dataset(model, eval_set)
            report = self.hv.evaluate_predictions(predictions, truths)
        except Exception as err:  # a failed operation is counted; the run goes on
            self._fail(count, f"eval pass raised {err!r}")
            return None
        elapsed = time.perf_counter() - start
        mismatches = report_mismatches(report, predictions, truths)
        if mismatches:
            self._fail(count, f"evaluate_predictions: {mismatches[:2]}")
            return elapsed
        for index, (prediction, (video, _)) in enumerate(zip(predictions, eval_set)):
            self._check_query(index, prediction, video)
        return elapsed

    def latency_pass(self, model, eval_set) -> list[float]:
        """Closed loop, one client: predict_dataset(model, [sample]) per query."""
        latencies = []
        for index, sample in enumerate(eval_set):
            self.attempted += 1
            start = time.perf_counter()
            try:
                (prediction,) = self.hv.predict_dataset(model, [sample])
            except Exception as err:  # a failed operation is counted; the run goes on
                self._fail(1, f"query {index} raised {err!r}")
                continue
            latencies.append(time.perf_counter() - start)
            self._check_query(index, prediction, sample[0])
        return latencies

    def cycle(self, timings: Timings, setups: int) -> None:
        """Set-up `setups` times, one train() call, then one eval round."""
        for _ in range(setups):
            elapsed, train_set, eval_set = self.setup()
            timings.setup.append(elapsed)
        elapsed = self.train_call(train_set)
        if elapsed is not None:
            timings.train.append(elapsed)
        try:
            model = self.hv.load_checkpoint(str(self.run_dir / "checkpoint")).model
        except Exception as err:  # a failed operation is counted; the run goes on
            self._fail(2 * len(eval_set), f"load_checkpoint of the trained model raised {err!r}")
            return
        elapsed = self.eval_pass(model, eval_set)
        if elapsed is not None:
            timings.passes.append(elapsed)
        timings.latencies.extend(self.latency_pass(model, eval_set))

    # -- runs ------------------------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """The untraced run: end-to-end metrics, and details for the report.

        The details are the sample count behind each metric and the median
        latency.  The median is not gated: this host alternates between two
        speeds, and at one query shape the median flips between them.
        """
        timings = Timings()
        at_least = max(2, math.ceil(MIN_LATENCY_SAMPLES / len(self.work.eval_shapes)))
        cycles = 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if cycles >= at_least and elapsed + elapsed / cycles > self.seconds:
                break
            self.cycle(timings, SETUPS_PER_CYCLE)
            cycles += 1

        lat = timings.latencies
        metrics = {
            "setup_s": statistics.median(timings.setup),
            "train.samples_per_s": _rate(len(timings.train) * self.work.steps * BATCH, timings.train),
            "train.loss_end": self.loss_end,
            "eval.queries_per_s": _rate(len(timings.passes) * len(self.work.eval_shapes), timings.passes),
            "eval.latency_s.p90": float(np.percentile(lat, 90)) if lat else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = {
            "latency_p50_s": round(float(np.percentile(lat, 50)), 6) if lat else None,
            "cycles": cycles,
            "setups": len(timings.setup),
            "train_calls": len(timings.train),
            "eval_passes": len(timings.passes),
            "latency_samples": len(lat),
        }
        return metrics, counts

    def trace(self) -> dict:
        """The traced run: a warm-up cycle, then untraced, traced, traced, untraced cycles.

        The order cancels a steady drift in host speed out of the overhead.
        Per-layer figures are per traced cycle; both traced cycles do the same work.
        """
        self.cycle(Timings(), 1)
        tracer = Tracer()
        plain_s = traced_s = 0.0
        for traced in (False, True, True, False):
            start = time.perf_counter()
            if traced:
                with tracer:
                    self.cycle(Timings(), 1)
                traced_s += time.perf_counter() - start
            else:
                self.cycle(Timings(), 1)
                plain_s += time.perf_counter() - start
        metrics = {}
        for _, _, name in SPANS:
            metrics[f"{name}.s"] = tracer.self_time(name) / 2
            metrics[f"{name}.calls"] = tracer.calls[name] // 2
        for name, count in tracer.counts.items():
            metrics[name] = count // 2
        metrics["trace.overhead"] = traced_s / plain_s - 1.0
        in_layers = sum(tracer.self_time(name) for _, _, name in SPANS if name not in ENTRY_SPANS)
        metrics["trace.self_share"] = in_layers / traced_s
        return metrics

def _rate(count: int, durations: list[float]) -> float | None:
    """Items per second over all timed calls together."""
    return count / sum(durations) if durations else None

