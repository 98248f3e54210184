"""Optimization loop, checkpointing, and gradient verification.

The trainer is deliberately plain: Adam over every parameter tensor, batches
drawn by reshuffled-epoch order from a seeded generator, loss averaged over
the batch. A batch is grouped by (num_frames, num_objects) and each group
runs as one tape with a leading sample axis; the group losses are summed
and divided by the batch size. Identical seeds and hyperparameters give
bit-identical curves.

A `TrainState` is the model and its step count, and a checkpoint holds
exactly that: the parameters in one blob, the step in the manifest. The
Adam moments live only inside `train`'s loop and are never written; a run
is reproduced by running it again with the same seed.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tt
from .data import ModelConfig, group_by_shape
from .encoders import InputDims
from .fileio import (
    DTYPE_CODES,
    FormatError,
    atomic_write_json,
    is_int,
    read_json,
    read_tensors,
    require_keys,
    write_tensors,
)
from .model import Model, build_model, check_loss_sample, model_params
from .params import flatten, param_shapes, tree_from, zero_grads
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass(frozen=True)
class TrainHyper:
    learning_rate: float = 1e-3
    steps: int = 500
    batch_size: int = 8

    def __post_init__(self) -> None:
        for name in ("steps", "batch_size"):  # a bool is not an int here
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name}: expected int, got {getattr(self, name)!r}")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise ValueError(f"learning_rate: expected a real number, got {rate!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainState:
    model: Model
    step: int = 0


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def adam_update(
    state: TrainState, moments: dict[str, tuple[np.ndarray, np.ndarray]], learning_rate: float
) -> None:
    """One Adam step over accumulated gradients; `moments` maps each
    parameter name to its (m, v) pair, updated in place.

    A parameter without a gradient is skipped: it keeps its value and both
    moments (no decay), while the step count still advances."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - _ADAM_BETA1**t
    bias2 = 1.0 - _ADAM_BETA2**t
    for name, param in state.model.named_parameters().items():
        g = param.grad
        if g is None:
            continue
        m, v = moments[name]
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        step_size = learning_rate / bias1
        param.data -= (step_size * m / (np.sqrt(v / bias2) + _ADAM_EPS)).astype(
            param.data.dtype, copy=False
        )


def _batch_order(count: int, seed: int):
    """Reshuffled-epoch index stream: each epoch is a permutation read from its end."""
    rng = np.random.default_rng([seed, count, 0x0B_A7C4])
    while True:
        yield from (int(i) for i in rng.permutation(count)[::-1])


def batch_loss(model: Model, samples) -> Tensor:
    """Mean span loss over `samples`, one tape per (num_frames, num_objects) group."""
    total: Tensor | None = None
    for group in group_by_shape([(video.num_frames, video.num_objects) for video, _ in samples]):
        group_loss = model.loss([samples[i] for i in group])
        total = group_loss if total is None else total + group_loss
    if total is None:
        raise ValueError("cannot compute the loss of an empty batch")
    return total * (1.0 / len(samples))


def intermediate_checkpoints(steps: int, checkpoint_every: int) -> dict[int, str]:
    """The checkpoints `train` writes before its final one, by step: one
    every `checkpoint_every` steps before the last, none for 0."""
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every: must be >= 0, got {checkpoint_every}")
    saves = range(checkpoint_every, steps, checkpoint_every) if checkpoint_every else ()
    return {step: f"checkpoint_{step:06d}" for step in saves}


def train(
    dataset,
    config: ModelConfig,
    hyper: TrainHyper | None = None,
    dtype=np.float32,
    out_dir: str | None = None,
    checkpoint_every: int = 0,
    log=None,
) -> tuple[TrainState, list[float]]:
    """Fit a model to `dataset`; returns the final state and the loss curve.

    `out_dir`, when given, receives a final checkpoint (and intermediate ones
    every `checkpoint_every` steps); it is created only after the arguments
    and every sample have been checked.
    """
    if hyper is None:
        hyper = TrainHyper()
    checkpoints = intermediate_checkpoints(hyper.steps, checkpoint_every)
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    dims = InputDims.of(*dataset[0])
    for video, query in dataset:
        check_loss_sample(config, video)
        dims.check(video, query, "the first sample")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    model = build_model(config, dims, dtype)
    state = TrainState(model)
    named = model.named_parameters()
    moments = {k: (np.zeros_like(t.data), np.zeros_like(t.data)) for k, t in named.items()}
    order = _batch_order(len(dataset), config.seed)
    curve: list[float] = []

    for step in range(1, hyper.steps + 1):
        batch = [dataset[next(order)] for _ in range(hyper.batch_size)]
        zero_grads(model.params)
        mean_loss = batch_loss(model, batch)
        value = float(mean_loss.data)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss {value!r} at step {step}")
        mean_loss.backward()
        del mean_loss  # the tape, so the next step's forward does not run beside it
        adam_update(state, moments, hyper.learning_rate)
        curve.append(value)
        if log is not None and (step % max(1, hyper.steps // 10) == 0 or step == 1):
            log(f"step {step}/{hyper.steps} loss {value:.4f}")
        if out_dir and step in checkpoints:
            save_checkpoint(os.path.join(out_dir, checkpoints[step]), state)

    if out_dir:
        save_checkpoint(os.path.join(out_dir, "checkpoint"), state)
    return state, curve


# -- checkpoints -------------------------------------------------------------

_CHECKPOINT_KIND = "hvsarn-checkpoint"
_FORMAT_VERSION = 6


def save_checkpoint(out_dir: str, state: TrainState) -> None:
    """Write the model's parameters and the step as manifest.json plus one raw blob.

    Round-trips are bit-exact: the blob holds the tensors' native
    little-endian bytes, in `flatten` order, and nothing is re-derived on load.
    """
    os.makedirs(out_dir, exist_ok=True)
    named = state.model.named_parameters()
    code = next(iter(named.values())).data.dtype.newbyteorder("<").str
    if code not in DTYPE_CODES:
        raise ValueError(f"unsupported checkpoint dtype {code}")
    tensors = write_tensors(out_dir, {k: t.data for k, t in named.items()}, code)

    manifest = {
        "kind": _CHECKPOINT_KIND,
        "format_version": _FORMAT_VERSION,
        "dtype": code,
        "step": state.step,
        "config": state.model.config.to_dict(),
        "dims": asdict(state.model.dims),
        "tensors": tensors,
    }
    atomic_write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_checkpoint(in_dir: str) -> TrainState:
    manifest = read_json(os.path.join(in_dir, "manifest.json"))
    where = f"{in_dir}: manifest.json"
    require_keys(manifest, (), where)
    if manifest.get("kind") != _CHECKPOINT_KIND:
        raise FormatError(f"{in_dir}: not a checkpoint (kind={manifest.get('kind')!r})")
    require_keys(manifest, ("format_version", "dtype", "step", "config", "dims", "tensors"), where)
    if manifest["format_version"] != _FORMAT_VERSION:
        raise FormatError(
            f"{where}: format_version {manifest['format_version']!r} is not {_FORMAT_VERSION}"
        )
    code = manifest["dtype"]
    if code not in DTYPE_CODES:
        raise FormatError(f"{where}: dtype {code!r} not in {sorted(DTYPE_CODES)}")
    require_keys(manifest["config"], (), f"{where}: config")
    config = ModelConfig.from_dict(manifest["config"])
    dim_names = ("feature_dim", "semantic_dim", "word_dim")
    require_keys(manifest["dims"], dim_names, f"{where}: dims")
    for key in dim_names:
        value = manifest["dims"][key]
        if not (is_int(value) and value > 0):
            raise FormatError(f"{where}: dims {key} {value!r} is not a positive integer")
    dims = InputDims(*(manifest["dims"][k] for k in dim_names))
    step = manifest["step"]
    if not is_int(step) or step < 0:
        raise FormatError(f"{where}: step {step!r} is not a non-negative integer")
    # The table is checked against the config's parameter names and shapes;
    # nothing is drawn, and tree_from copies each read-only blob view once.
    shapes = param_shapes(model_params(config, dims))
    arrays = read_tensors(in_dir, manifest["tensors"], flatten(shapes), code, where)
    return TrainState(Model(config, dims, tree_from(shapes, arrays)), step)


# -- gradient verification ---------------------------------------------------


@dataclass
class GradcheckEntry:
    name: str
    max_rel_err: float
    status: str  # "ok" | "fail" | "unused"


@dataclass
class GradcheckReport:
    entries: list[GradcheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def failures(self) -> list[str]:
        return [e.name for e in self.entries if e.status == "fail"]

    def format(self) -> str:
        width = max((len(e.name) for e in self.entries), default=4)
        lines = [f"{'tensor'.ljust(width)}  max_rel_err  status"]
        for e in self.entries:
            lines.append(f"{e.name.ljust(width)}  {e.max_rel_err:11.3e}  {e.status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} (tolerance {self.tolerance:g}, {len(self.entries)} tensors)")
        return "\n".join(lines)


_FD_STEP = 1e-5  # central-difference half-width


def gradcheck_tensors(
    loss_fn, named: dict[str, Tensor], tolerance: float = 1e-4
) -> GradcheckReport:
    """Compare tape gradients of `loss_fn()` against central finite differences.

    Works in whatever dtype the tensors carry; call it on a 64-bit model or
    the differences will drown in rounding noise. The per-tensor error is
    max|analytic - fd| relative to the tensor's largest gradient magnitude,
    floored at 1e-3 so that parameters whose true gradient vanishes by
    symmetry (e.g. a bias shared by every logit of a softmax) register FD
    cancellation noise (~1e-11) as zero rather than as a failure. A tensor
    whose analytic gradient is absent/zero and whose FD probes all come back
    zero is flagged "unused" rather than failed.
    """
    for t in named.values():
        t.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
        for name, t in named.items()
    }

    entries = []
    with tt.no_grad():
        for name in sorted(named):
            t = named[name]
            flat = t.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + _FD_STEP
                hi = float(loss_fn().data)
                flat[i] = saved - _FD_STEP
                lo = float(loss_fn().data)
                flat[i] = saved
                fd[i] = (hi - lo) / (2.0 * _FD_STEP)
            a = analytic[name].reshape(-1)
            scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(fd))), 1e-3)
            rel = float(np.max(np.abs(a - fd))) / scale
            if np.all(a == 0.0) and np.all(np.abs(fd) < 1e-10):
                entries.append(GradcheckEntry(name, 0.0, "unused"))
            else:
                status = "ok" if rel < tolerance else "fail"
                entries.append(GradcheckEntry(name, rel, status))
    return GradcheckReport(entries=entries, tolerance=tolerance)


def _gradcheck_sample(seed: int = 7, num_frames: int = 3, num_objects: int = 3, num_tokens: int = 3):
    """Tiny hand-sized instance for FD verification (small dims keep it fast).

    K = 3 gives each object two neighbours, so the object-level neighbour
    softmax, and with it the neighbour MLP, has a gradient.
    """
    from .data import GroundTruthSegment, QuerySample, VideoSample

    rng = np.random.default_rng([seed, num_frames, num_objects])
    feature_dim, semantic_dim, word_dim = 5, 4, 8
    x0 = rng.uniform(0.0, 0.4, size=(num_frames, num_objects))
    y0 = rng.uniform(0.0, 0.4, size=(num_frames, num_objects))
    w = rng.uniform(0.2, 0.5, size=(num_frames, num_objects))
    h = rng.uniform(0.2, 0.5, size=(num_frames, num_objects))
    boxes = np.stack([x0, y0, x0 + w, y0 + h], axis=2)
    video = VideoSample(
        video_id=f"gradcheck-{seed}",
        object_features=rng.normal(size=(num_frames, num_objects, feature_dim)),
        boxes=boxes,
        semantic_embeddings=rng.normal(size=(num_frames, num_objects, semantic_dim)),
        annotation=GroundTruthSegment(0.34, 1.0),
    )
    query = QuerySample(f"gradcheck-{seed}-q", rng.normal(size=(num_tokens, word_dim)))
    return video, query


def gradcheck(config: ModelConfig | None = None, tolerance: float = 1e-4) -> GradcheckReport:
    """End-to-end FD check of the full network loss on a tiny 64-bit instance."""
    if config is None:
        config = ModelConfig(hidden_size=6, reasoning_steps=1)
    video, query = _gradcheck_sample()
    dims = InputDims.of(video, query)
    model = build_model(config, dims, np.float64)
    named = model.named_parameters()
    return gradcheck_tensors(lambda: model.loss([(video, query)]), named, tolerance=tolerance)
