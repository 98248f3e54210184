"""Manifest + raw-blob persistence shared by samples and checkpoints.

A stored object is a directory holding one JSON manifest plus one binary
file per tensor.  Blobs are little-endian IEEE floats, row-major, with the
dtype recorded in the manifest ("<f4" or "<f8").  The representation is
byte-exact: load(save(x)) returns identical buffers.

This module owns the manifest's tensor table `[{name, shape, file}]`:
`write_tensors` writes it, and `read_tensors` checks every entry before it
reads any blob.  A `file` is a plain name inside the object's directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

DTYPE_CODES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class FormatError(Exception):
    """A stored sample/checkpoint violates the on-disk contract."""


def is_int(value) -> bool:
    """True for a JSON integer (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_plain_name(name) -> bool:
    """True for a string naming an entry of its directory: no separator, not "", "." or ".."."""
    return isinstance(name, str) and name not in ("", ".", "..") and os.path.basename(name) == name


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
    try:
        with open(path, "rb") as blob:
            raw = blob.read()
    except (FileNotFoundError, IsADirectoryError):
        raise FormatError(f"{field}: missing file {path}") from None
    dtype = DTYPE_CODES[code]
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{field}: blob {os.path.basename(path)} holds {len(raw)} bytes, "
            f"manifest shape {list(shape)} needs {expected}"
        )
    # Over a bytearray the array is writable: a loaded checkpoint's parameters
    # and optimizer moments are updated in place.
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


def write_tensors(directory, arrays: dict, code: str, files) -> list[dict]:
    """Write each array of `arrays` as a blob under the matching name of
    `files`, in order; returns the manifest's tensor table."""
    table = []
    for (name, array), file in zip(arrays.items(), files, strict=True):
        write_blob(os.path.join(directory, file), array, code)
        table.append({"name": name, "shape": list(array.shape), "file": file})
    return table


def read_tensors(directory, table, expected: dict, code: str, where: str) -> dict:
    """{name: array} from the tensor table in `directory`; `table` must list each
    name of `expected` ({name: shape tuple}) once, with that shape, in a
    plain-named file.  Every entry is checked before any blob is read."""
    if not isinstance(table, list):
        raise FormatError(f"{where}: tensors must be a list, got {table!r}")
    files: dict[str, str] = {}
    for entry in table:
        require_keys(entry, ("name", "shape", "file"), f"{where}: tensors entry")
        name, shape, file = entry["name"], entry["shape"], entry["file"]
        if not (isinstance(name, str) and name in expected):
            raise FormatError(f"{where}: unknown tensor {name!r}")
        if name in files:
            raise FormatError(f"{where}: tensor {name!r} is listed twice")
        ints = isinstance(shape, list) and all(is_int(n) for n in shape)
        if not ints or tuple(shape) != expected[name]:
            want = list(expected[name])
            raise FormatError(f"{where}: tensor {name!r} shape {shape!r} is not {want}")
        if not is_plain_name(file):
            raise FormatError(f"{where}: tensor {name!r} file {file!r} is not a plain file name")
        files[name] = file
    missing = [name for name in expected if name not in files]
    if missing:
        raise FormatError(f"{where}: missing tensors {missing[:4]}")
    return {
        name: read_blob(os.path.join(directory, file), expected[name], code, name)
        for name, file in files.items()
    }
