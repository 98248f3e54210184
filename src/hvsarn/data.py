"""Core value types, the on-disk sample format, and the synthetic generator.

A sample directory looks like::

    sample_000042/
      manifest.json   # ids, dims, annotation, tensor table
      tensors.f32     # the four tensors below, back to back in table order,
                      # little-endian float32, row-major:
                      #   object_features      [T, K, D_in]
                      #   boxes                [T, K, 4]      normalized x1,y1,x2,y2
                      #   semantic_embeddings  [T, K, D_sem]  class/attribute word vectors
                      #   token_embeddings     [N, D_w]       query word vectors

manifest.json carries {video_id, query_id, T, K, N, D_in, D_sem, D_w,
annotation:{start,end}|null, tensors:[{name, shape}]}.  The ids are strings.
Feature dims are data properties, not package constants, so they live in the
manifest as integers.  The tensor table (`fileio.read_tensors`) lists the
four tensors above once each, with the shapes the dims imply, and is checked
against them before the blob is read.  In memory a `VideoSample` or
`QuerySample` holds only its ids, arrays and annotation: every size is read
from the arrays, so no count can disagree with them.

A dataset directory holds sample directories plus a dataset.json index whose
`samples` list names them; `load_dataset` reads the index and nothing else.

Annotations are fractions of video duration in [0, 1]; conversion to frame
indices is `segment_to_frame_indices` and is the only place that rounding
happens.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import (
    FormatError,
    atomic_write_json,
    is_int,
    is_plain_name,
    read_json,
    read_tensors,
    require_keys,
    write_tensors,
)

REASONER_KINDS = ("graph_memory", "gcn", "gcn_fusion", "self_attention", "memory_network")
# The reasoner kinds whose layers read the controller; gcn and
# self_attention see only the nodes.
CONTROLLER_KINDS = ("graph_memory", "gcn_fusion", "memory_network")
DIFFICULTIES = ("separable", "noisy")

# Dims used by the synthetic generator (real data carries its own in the manifest).
SYNTH_FEATURE_DIM = 16
SYNTH_SEMANTIC_DIM = 12
SYNTH_WORD_DIM = 16

_VOCAB_SEED = 0x5EED
_NUM_PROTOTYPES = 8
_NUM_SEMANTIC_WORDS = 16


class ConfigError(ValueError):
    """A ModelConfig field is out of contract."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _frozen_f32(x, field: str, shape=None) -> np.ndarray:
    """The one copy of a sample array: float32, C-order, read-only."""
    arr = np.array(x, dtype=np.float32, order="C")
    if shape is not None and arr.shape != tuple(shape):
        raise FormatError(f"{field}: expected shape {tuple(shape)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{field}: contains NaN or Inf")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GroundTruthSegment:
    """Target segment as fractions of video duration, 0 <= start < end <= 1."""

    start: float
    end: float

    def __post_init__(self):
        for key, value in (("start", self.start), ("end", self.end)):
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            _require(real, f"annotation: {key} {value!r} is not a real number")
        _require(0.0 <= self.start, f"annotation: start {self.start} < 0")
        _require(self.end <= 1.0, f"annotation: end {self.end} > 1")
        _require(self.start < self.end, f"annotation: start {self.start} >= end {self.end}")


@dataclass(frozen=True)
class VideoSample:
    """One video's per-object arrays; T, K and the dims are read from them."""

    video_id: str
    object_features: np.ndarray  # [T, K, D_in]
    boxes: np.ndarray  # [T, K, 4]
    semantic_embeddings: np.ndarray  # [T, K, D_sem]
    annotation: GroundTruthSegment | None = None

    def __post_init__(self):
        _require(isinstance(self.video_id, str), f"video_id: {self.video_id!r} is not a string")
        feats = _frozen_f32(self.object_features, "object_features")
        object.__setattr__(self, "object_features", feats)
        _require(feats.ndim == 3, f"object_features: shape {feats.shape} is not [T, K, D_in]")
        T, K = feats.shape[:2]
        _require(T >= 1, f"object_features: T = {T} < 1")
        _require(K >= 1, f"object_features: K = {K} < 1")
        object.__setattr__(self, "boxes", _frozen_f32(self.boxes, "boxes", (T, K, 4)))
        b = self.boxes
        _require(bool(np.all(b >= 0.0) and np.all(b <= 1.0)), "boxes: coordinates outside [0, 1]")
        _require(bool(np.all(b[..., 0] <= b[..., 2])), "boxes: x1 > x2")
        _require(bool(np.all(b[..., 1] <= b[..., 3])), "boxes: y1 > y2")
        sem = _frozen_f32(self.semantic_embeddings, "semantic_embeddings")
        object.__setattr__(self, "semantic_embeddings", sem)
        _require(
            sem.ndim == 3 and sem.shape[:2] == (T, K),
            f"semantic_embeddings: leading dims {sem.shape[:2]} != ({T}, {K})",
        )

    @property
    def num_frames(self) -> int:
        return self.object_features.shape[0]

    @property
    def num_objects(self) -> int:
        return self.object_features.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.object_features.shape[2]

    @property
    def semantic_dim(self) -> int:
        return self.semantic_embeddings.shape[2]


@dataclass(frozen=True)
class QuerySample:
    """One query's token vectors; N and D_w are read from them."""

    query_id: str
    token_embeddings: np.ndarray  # [N, D_w]

    def __post_init__(self):
        _require(isinstance(self.query_id, str), f"query_id: {self.query_id!r} is not a string")
        tok = _frozen_f32(self.token_embeddings, "token_embeddings")
        object.__setattr__(self, "token_embeddings", tok)
        _require(tok.ndim == 2, f"token_embeddings: shape {tok.shape} is not [N, D_w]")
        _require(tok.shape[0] >= 1, f"token_embeddings: N = {tok.shape[0]} < 1")

    @property
    def num_tokens(self) -> int:
        return self.token_embeddings.shape[0]

    @property
    def word_dim(self) -> int:
        return self.token_embeddings.shape[1]


Sample = tuple[VideoSample, QuerySample]


@dataclass(frozen=True)
class ModelConfig:
    """Model hyperparameters plus the ablation switches.

    `use_visual_graph` / `use_semantic_graph` gate the graph-memory reasoning
    in each space; with both off the encoder features flow straight through
    fusion and the head (the "no reasoning" ablation).

    The switches also decide which parameter groups `build_model` creates:
    `use_object_level` builds `object_level` and `fusion`, `use_frame_level`
    builds `frame_level`; within a level, `use_visual_graph` builds `visual`
    and `use_semantic_graph` builds `semantic` plus the cross-space `cross`.
    `reasoning_steps=0` disables reasoning and builds neither reasoner; the
    cross-space hops still run, so `cross` stays.

    Without the object level only the frame level's reasoners read the query,
    so they must run: `reasoning_steps > 0`, a `CONTROLLER_KINDS` kind, a graph.
    """

    hidden_size: int = 32
    reasoning_steps: int = 2
    max_frames: int = 256
    max_objects: int = 64
    use_object_level: bool = True
    use_frame_level: bool = True
    use_visual_graph: bool = True
    use_semantic_graph: bool = True
    two_stream: bool = False
    reasoner_kind: str = "graph_memory"
    attn_heads: int = 4
    max_segments: int | None = None
    seed: int = 0

    def __post_init__(self):
        for field in dataclasses.fields(self):  # a bool is not an int here
            value, hint = getattr(self, field.name), _CONFIG_TYPES[field.name]
            if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
                raise ConfigError(f"{field.name}: expected {field.type}, got {value!r}")
        if self.hidden_size < 2 or self.hidden_size % 2 != 0:
            raise ConfigError(f"hidden_size: must be an even integer >= 2, got {self.hidden_size}")
        if self.reasoning_steps < 0:
            raise ConfigError(f"reasoning_steps: must be >= 0, got {self.reasoning_steps}")
        if self.max_frames < 1:
            raise ConfigError(f"max_frames: must be >= 1, got {self.max_frames}")
        if self.max_objects < 1:
            raise ConfigError(f"max_objects: must be >= 1, got {self.max_objects}")
        if not (self.use_object_level or self.use_frame_level):
            raise ConfigError(
                "use_object_level/use_frame_level: at least one level must be enabled"
            )
        if self.two_stream and not (self.use_object_level and self.use_frame_level):
            raise ConfigError("two_stream: requires both hierarchy levels enabled")
        if self.reasoner_kind not in REASONER_KINDS:
            raise ConfigError(f"reasoner_kind: {self.reasoner_kind!r} not in {REASONER_KINDS}")
        if not self.use_object_level and not (
            self.reasoning_steps > 0
            and self.reasoner_kind in CONTROLLER_KINDS
            and (self.use_visual_graph or self.use_semantic_graph)
        ):
            raise ConfigError(
                "use_object_level: without it nothing reads the query unless reasoning_steps > 0,"
                f" reasoner_kind is in {CONTROLLER_KINDS}"
                " and use_visual_graph or use_semantic_graph is on"
            )
        if self.attn_heads < 1:
            raise ConfigError(f"attn_heads: must be >= 1, got {self.attn_heads}")
        if self.max_segments is not None and self.max_segments < 1:
            raise ConfigError(f"max_segments: must be None or >= 1, got {self.max_segments}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(obj: dict) -> "ModelConfig":
        unknown = set(obj) - set(_CONFIG_TYPES)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        return ModelConfig(**obj)

    @staticmethod
    def from_json(path: str | Path) -> "ModelConfig":
        try:
            obj = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON ({err})") from err
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return ModelConfig.from_dict(obj)


_CONFIG_TYPES = typing.get_type_hints(ModelConfig)


def _snap_to_int(x: float) -> float:
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return float(nearest)
    return x


def segment_to_frame_indices(segment: GroundTruthSegment, num_frames: int) -> tuple[int, int]:
    """Map fractional (start, end) to inclusive frame indices (s_idx, e_idx).

    s_idx = floor(start*T), e_idx = min(ceil(end*T) - 1, T - 1).  For any
    valid segment e_idx >= s_idx.  Products within one part in 1e9 of an
    integer are snapped to it first, so fractions written as t/T recover t
    exactly despite float rounding (e.g. 15/22 * 22 = 14.999999999999998).
    """
    T = num_frames
    s_idx = int(np.floor(_snap_to_int(segment.start * T)))
    e_idx = min(int(np.ceil(_snap_to_int(segment.end * T))) - 1, T - 1)
    if not (0 <= s_idx <= e_idx <= T - 1):
        raise ValueError(
            f"segment {segment} maps to frames ({s_idx}, {e_idx}) outside [0, {T - 1}]; "
            "num_frames too small"
        )
    return s_idx, e_idx


def frame_pair_to_fractions(i: int, j: int, num_frames: int) -> tuple[float, float]:
    """Inverse of the frame quantization: candidate (i, j), i < j exclusive-end.

    Also applies elementwise to integer index arrays.
    """
    return i / num_frames, (j + 1) / num_frames


# -- persistence -------------------------------------------------------------

def save_sample(sample: Sample, path: str | Path) -> None:
    """Write one sample directory; tensor payloads round-trip bit-exactly."""
    video, query = sample
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    tensors = {
        "object_features": video.object_features,
        "boxes": video.boxes,
        "semantic_embeddings": video.semantic_embeddings,
        "token_embeddings": query.token_embeddings,
    }
    manifest = {
        "video_id": video.video_id,
        "query_id": query.query_id,
        "T": video.num_frames,
        "K": video.num_objects,
        "N": query.num_tokens,
        "D_in": video.feature_dim,
        "D_sem": video.semantic_dim,
        "D_w": query.word_dim,
        "annotation": None
        if video.annotation is None
        else {"start": video.annotation.start, "end": video.annotation.end},
        "tensors": write_tensors(path, tensors, "<f4"),
    }
    atomic_write_json(path / "manifest.json", manifest)


def load_sample(path: str | Path) -> Sample:
    """Read and validate one sample directory; raises FormatError naming the field."""
    path = Path(path)
    manifest = read_json(path / "manifest.json")
    where = f"{path}: manifest.json"
    dim_keys = ("T", "K", "N", "D_in", "D_sem", "D_w")
    require_keys(manifest, ("video_id", "query_id", *dim_keys, "tensors"), where)
    for key in dim_keys:
        if not (is_int(manifest[key]) and manifest[key] >= 0):
            raise FormatError(f"{where}: {key} {manifest[key]!r} is not a non-negative integer")
    T, K, N = manifest["T"], manifest["K"], manifest["N"]
    expected_shapes = {
        "object_features": (T, K, manifest["D_in"]),
        "boxes": (T, K, 4),
        "semantic_embeddings": (T, K, manifest["D_sem"]),
        "token_embeddings": (N, manifest["D_w"]),
    }
    arrays = read_tensors(path, manifest["tensors"], expected_shapes, "<f4", where)
    ann = manifest.get("annotation")
    if ann is not None:
        require_keys(ann, ("start", "end"), f"{where}: annotation")
    try:
        annotation = None if ann is None else GroundTruthSegment(ann["start"], ann["end"])
        video = VideoSample(
            video_id=manifest["video_id"],
            object_features=arrays["object_features"],
            boxes=arrays["boxes"],
            semantic_embeddings=arrays["semantic_embeddings"],
            annotation=annotation,
        )
        query = QuerySample(manifest["query_id"], arrays["token_embeddings"])
    except FormatError as err:  # name the sample as well as the field
        raise FormatError(f"{path}: {err}") from err
    return video, query


# -- synthetic generator ------------------------------------------------------


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _synth_basis():
    """Fixed seeded vocabulary shared by every synthetic sample.

    Returns (query prototypes [P, D_w], semantic word vectors [V, D_sem],
    feature-space signatures [P, D_in], global in-segment direction [D_in]).
    Signatures are orthogonalized against the global direction, so frame
    membership and query identity are independent cues.
    """
    rng = np.random.default_rng(_VOCAB_SEED)
    protos = rng.normal(size=(_NUM_PROTOTYPES, SYNTH_WORD_DIM))
    protos = np.stack([_unit(p) for p in protos])
    words = rng.normal(size=(_NUM_SEMANTIC_WORDS, SYNTH_SEMANTIC_DIM))
    words = np.stack([_unit(w) for w in words])
    proj = rng.normal(size=(SYNTH_WORD_DIM, SYNTH_FEATURE_DIM)) / np.sqrt(SYNTH_WORD_DIM)
    anchor = _unit(rng.normal(size=SYNTH_FEATURE_DIM))
    sigs = []
    for p in protos:
        s = p @ proj
        s = s - (s @ anchor) * anchor
        sigs.append(_unit(s))
    return protos, words, np.stack(sigs), anchor


_BASIS = _synth_basis()


def synth_sample(
    seed: int, num_frames: int, num_objects: int, difficulty: str = "separable"
) -> Sample:
    """Deterministic synthetic (video, query) pair with a learnable plant.

    Frames inside the ground-truth segment carry a fixed anchor direction
    (so in/out membership is linearly separable) plus a signature tied to the
    query prototype; frames outside carry a distractor prototype's signature.
    Pinning the correct segment therefore rewards comparing object content
    against the query.  `noisy` keeps the same plant at ~1/3 the SNR.
    """
    if num_frames < 3:
        raise ValueError(f"num_frames: must be >= 3, got {num_frames}")
    if num_objects < 1:
        raise ValueError(f"num_objects: must be >= 1, got {num_objects}")
    if difficulty not in DIFFICULTIES:
        raise ValueError(f"difficulty: {difficulty!r} not in {DIFFICULTIES}")
    T, K = num_frames, num_objects
    protos, words, sigs, anchor = _BASIS
    rng = np.random.default_rng([abs(int(seed)), T, K, DIFFICULTIES.index(difficulty)])

    if difficulty == "separable":
        anchor_gain, sig_gain, noise = 2.0, 2.0, 0.5
    else:
        anchor_gain, sig_gain, noise = 1.0, 1.0, 1.0

    pid = int(rng.integers(0, _NUM_PROTOTYPES))
    distractor = int((pid + 1 + rng.integers(0, _NUM_PROTOTYPES - 1)) % _NUM_PROTOTYPES)

    # segments span 25-60% of the video, at least two frames but never all of it
    min_len = max(2, round(0.25 * T))
    max_len = min(max(min_len, round(0.6 * T)), T - 1)
    length = int(rng.integers(min_len, max_len + 1))
    t0 = int(rng.integers(0, T - length + 1))
    inside = np.zeros(T, dtype=bool)
    inside[t0 : t0 + length] = True

    feats = noise * rng.normal(size=(T, K, SYNTH_FEATURE_DIM))
    feats[inside] += anchor_gain * anchor + sig_gain * sigs[pid]
    feats[~inside] += sig_gain * sigs[distractor]

    sem = 0.1 * noise * rng.normal(size=(T, K, SYNTH_SEMANTIC_DIM))
    sem[inside] += words[pid % _NUM_SEMANTIC_WORDS]
    sem[~inside] += words[distractor % _NUM_SEMANTIC_WORDS]

    x1 = rng.uniform(0.0, 0.8, size=(T, K))
    y1 = rng.uniform(0.0, 0.8, size=(T, K))
    w = rng.uniform(0.05, 0.2, size=(T, K))
    h = rng.uniform(0.05, 0.2, size=(T, K))
    boxes = np.stack([x1, y1, x1 + w, y1 + h], axis=-1)

    n_tokens = int(rng.integers(4, 9))
    tokens = protos[pid] + 0.1 * noise * rng.normal(size=(n_tokens, SYNTH_WORD_DIM))

    tag = f"synth-{difficulty}-{seed:06d}"
    video = VideoSample(
        video_id=tag,
        object_features=feats,
        boxes=boxes,
        semantic_embeddings=sem,
        annotation=GroundTruthSegment(t0 / T, (t0 + length) / T),
    )
    query = QuerySample(query_id=tag, token_embeddings=tokens)
    return video, query


# -- dataset directories ------------------------------------------------------


def write_dataset(
    out_dir: str | Path, count: int, num_frames: int, num_objects: int, seed: int, difficulty: str
) -> list[Path]:
    """Write `count` synthetic samples plus a dataset.json index."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(count):
        name = f"sample_{i:05d}"
        save_sample(synth_sample(seed + i, num_frames, num_objects, difficulty), out_dir / name)
        names.append(name)
    atomic_write_json(
        out_dir / "dataset.json",
        {
            "count": count,
            "frames": num_frames,
            "objects": num_objects,
            "seed": seed,
            "difficulty": difficulty,
            "samples": names,
        },
    )
    return [out_dir / n for n in names]


def load_dataset(data_dir: str | Path) -> list[Sample]:
    """Load the samples a dataset directory's dataset.json lists, in index order."""
    index = Path(data_dir) / "dataset.json"
    manifest = read_json(index)
    require_keys(manifest, ("samples",), str(index))
    names = manifest["samples"]
    if not (isinstance(names, list) and all(is_plain_name(n) for n in names)):
        raise FormatError(f"{index}: samples must be plain directory names, got {names!r}")
    return [load_sample(index.parent / n) for n in names]
