"""Manifest + raw-blob persistence shared by samples and checkpoints.

A stored object is a directory holding one JSON manifest plus one binary
file per tensor.  Blobs are little-endian IEEE floats, row-major, with the
dtype recorded in the manifest ("<f4" or "<f8").  The representation is
byte-exact: load(save(x)) returns identical buffers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

DTYPE_CODES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class FormatError(Exception):
    """A stored sample/checkpoint violates the on-disk contract."""


def require_keys(obj, keys, where: str) -> None:
    """Raise FormatError unless `obj` is a JSON object holding every key."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing key {key!r}")


def atomic_write_json(path: Path | str, obj) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def read_json(path: Path | str) -> dict:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"missing file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: not valid JSON ({err})") from err


def write_blob(path: Path | str, array: np.ndarray, code: str) -> None:
    Path(path).write_bytes(np.ascontiguousarray(array, dtype=DTYPE_CODES[code]).tobytes())


def read_blob(path: Path | str, shape, code: str, field: str) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"{field}: missing file {path}")
    dtype = DTYPE_CODES[code]
    raw = path.read_bytes()
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{field}: blob {path.name} holds {len(raw)} bytes, "
            f"manifest shape {list(shape)} needs {expected}"
        )
    # Over a bytearray the array is writable: a loaded checkpoint's parameters
    # and optimizer moments are updated in place.
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)
