"""Manifest + raw-blob persistence shared by samples and checkpoints.

A stored object is a directory holding one JSON manifest plus one blob: the
object's tensors back to back, in the order of the manifest's tensor table.
The blob's name is fixed by the dtype recorded in the manifest: "<f4" is
stored in `tensors.f32`, "<f8" in `tensors.f64`.  Each tensor is little-endian
IEEE floats, row-major.  The representation is byte-exact: load(save(x))
returns identical buffers.

This module owns the manifest's tensor table `[{name, shape}]`:
`write_tensors` writes it, and `read_tensors` checks every entry, then the
blob's size, before it reads a byte.  No path is taken from a manifest.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

DTYPE_CODES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
BLOB_NAMES = {"<f4": "tensors.f32", "<f8": "tensors.f64"}


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


def _read(fd: int, size: int) -> bytes:
    """The next `size` bytes of the open file `fd`, fewer only at its end.
    The readers use descriptors, not file objects: making a file object
    takes about as long as reading a sample's manifest."""
    data = os.read(fd, size)
    while len(data) < size:
        more = os.read(fd, size - len(data))
        if not more:
            break
        data += more
    return data


def read_json(path: Path | str) -> dict:
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            text = _read(fd, os.fstat(fd).st_size)  # a directory raises here
        finally:
            os.close(fd)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise FormatError(f"missing file: {path}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FormatError(f"{path}: not valid JSON ({err})") from err


def write_blob(path: Path | str, arrays, code: str) -> None:
    """Write `arrays` back to back: one open, one write per array, no concatenation."""
    dtype = DTYPE_CODES[code]
    with open(path, "wb") as blob:
        for array in arrays:
            blob.write(memoryview(np.ascontiguousarray(array, dtype=dtype)))


def read_blob(path: Path | str, shapes: dict, code: str, where: str) -> dict:
    """{name: read-only array} for `shapes` ({name: shape tuple}, in blob
    order) from the blob at `path`.  Its size is checked before a byte is
    read; the arrays are views of one buffer."""
    dtype = DTYPE_CODES[code]
    sizes = [math.prod(shape) * dtype.itemsize for shape in shapes.values()]
    expected = sum(sizes)
    name = os.path.basename(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        held = os.fstat(fd).st_size
        if held < expected:
            end = 0
            for tensor, size in zip(shapes, sizes):
                end += size
                if end > held:
                    raise FormatError(
                        f"{where}: blob {name} holds {held} bytes, "
                        f"too few for tensor {tensor!r}, which ends at byte {end}"
                    )
        if held > expected:
            raise FormatError(
                f"{where}: blob {name} holds {held} bytes, the tensor table needs {expected}"
            )
        raw = _read(fd, held)
    finally:
        os.close(fd)
    # Read-only views of the one read: the caller copies each tensor it keeps.
    flat, arrays, start = np.frombuffer(raw, dtype=dtype), {}, 0
    for (tensor, shape), size in zip(shapes.items(), sizes):
        end = start + size // dtype.itemsize
        arrays[tensor] = flat[start:end].reshape(shape)
        start = end
    return arrays


def write_tensors(directory, arrays: dict, code: str) -> list[dict]:
    """Write `arrays` into the directory's blob, in order; returns the
    manifest's tensor table."""
    write_blob(os.path.join(directory, BLOB_NAMES[code]), arrays.values(), code)
    return [{"name": name, "shape": list(array.shape)} for name, array in arrays.items()]


def read_tensors(directory, table, expected: dict, code: str, where: str) -> dict:
    """{name: read-only array} from the tensor table and the blob in `directory`;
    `table` must list each name of `expected` ({name: shape tuple}) once,
    with that shape and no other key.  A missing blob is reported before the
    table is checked, so an object stored with a file per tensor names it;
    the table must hold before the blob is read."""
    path = os.path.join(directory, BLOB_NAMES[code])
    if not os.path.isfile(path):
        raise FormatError(f"{where}: missing blob {path}")
    if not isinstance(table, list):
        raise FormatError(f"{where}: tensors must be a list, got {table!r}")
    shapes: dict[str, tuple] = {}
    for entry in table:
        if not (isinstance(entry, dict) and entry.keys() == {"name", "shape"}):
            require_keys(entry, ("name", "shape"), f"{where}: tensors entry")
            extra = sorted(set(entry) - {"name", "shape"})
            raise FormatError(f"{where}: tensor {entry['name']!r} has unknown key {extra[0]!r}")
        name, shape = entry["name"], entry["shape"]
        if not (isinstance(name, str) and name in expected):
            raise FormatError(f"{where}: unknown tensor {name!r}")
        if name in shapes:
            raise FormatError(f"{where}: tensor {name!r} is listed twice")
        # type(n) is int: a JSON 4.0 or true equals an int but is not one
        ints = isinstance(shape, list) and all(type(n) is int for n in shape)
        if not ints or tuple(shape) != expected[name]:
            want = list(expected[name])
            raise FormatError(f"{where}: tensor {name!r} shape {shape!r} is not {want}")
        shapes[name] = expected[name]
    missing = [name for name in expected if name not in shapes]
    if missing:
        raise FormatError(f"{where}: missing tensors {missing[:4]}")
    return read_blob(path, shapes, code, where)
