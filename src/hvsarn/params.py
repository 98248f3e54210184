"""Parameter trees: declared specs, seeded initialization, flattening, and grad plumbing.

Parameters live in nested dicts of Tensors.  Names are joined with "/" when
flattened, which is the naming used by the optimizer, the checkpoint format,
and the gradient-check report.

Each module declares its parameters as a spec, and only this module reads
one.  A spec is a dict of sub-specs or, at a leaf group, an ordered list of
(name, shape) entries; entry order is draw order.  A 1-D entry is a zero
bias.  A 2-D entry is one Xavier draw with fans from its shape; its columns
are appended to the named tensor, so repeated names lay their draws side by
side.  A tuple of names splits the draw's rows among them, and a None part
is drawn and dropped.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Fan-based uniform init; fans are taken from the last two axes."""
    fan_in, fan_out = shape[-2], shape[-1]
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _layout(group: list) -> tuple[dict[str, tuple], list]:
    """A leaf group's {name: shape}, and per entry its shape and, per row
    part, the (name, first column) it fills; a None name fills nothing."""
    shapes: dict[str, tuple] = {}
    entries = []
    for names, shape in group:
        parts = names if isinstance(names, tuple) else (names,)
        places = []
        for name in parts:
            start = shapes[name][-1] if name in shapes else 0
            places.append((name, start))
            if name is not None:
                shapes[name] = tuple(n // len(parts) for n in shape[:-1]) + (start + shape[-1],)
        entries.append((shape, places))
    return shapes, entries


def init_params(spec: dict | list, rng: np.random.Generator, dtype) -> dict:
    """Draw the tree of `spec` from `rng`, entry by entry in spec order."""
    if isinstance(spec, dict):
        return {key: init_params(sub, rng, dtype) for key, sub in spec.items()}
    shapes, entries = _layout(spec)
    arrays = {name: np.empty(shape, dtype) for name, shape in shapes.items()}
    for shape, places in entries:
        drawn = np.zeros(shape, dtype) if len(shape) == 1 else xavier_uniform(rng, shape, dtype)
        for (name, start), part in zip(places, np.split(drawn, len(places))):
            if name is not None:
                arrays[name][..., start : start + shape[-1]] = part
    return {name: Tensor(array, requires_grad=True) for name, array in arrays.items()}


def param_shapes(spec: dict | list, prefix: str = "") -> dict[str, tuple]:
    """{flattened name: shape} of the tree `spec` declares, in `flatten` order; draws nothing."""
    if isinstance(spec, list):
        return {prefix + name: shape for name, shape in sorted(_layout(spec)[0].items())}
    shapes: dict[str, tuple] = {}
    for key in sorted(spec):
        shapes.update(param_shapes(spec[key], f"{prefix}{key}/"))
    return shapes


def tree_from(spec: dict | list, arrays: dict[str, np.ndarray], prefix: str = "") -> dict:
    """The tree of `spec` holding a copy of each of `arrays`, named as `flatten` names them."""
    if isinstance(spec, dict):
        return {key: tree_from(sub, arrays, f"{prefix}{key}/") for key, sub in spec.items()}
    names = _layout(spec)[0]
    return {name: Tensor(arrays[prefix + name].copy(), requires_grad=True) for name in names}


def flatten(tree: dict, prefix: str = "") -> dict[str, Tensor]:
    """Flatten a nested dict of Tensors into {"a/b/c": tensor} (sorted keys)."""
    flat: dict[str, Tensor] = {}
    for key in sorted(tree):
        value = tree[key]
        name = f"{prefix}/{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, name))
        elif isinstance(value, Tensor):
            flat[name] = value
        else:
            raise TypeError(f"unexpected leaf {name}: {type(value)!r}")
    return flat


def zero_grads(tree: dict) -> None:
    for t in flatten(tree).values():
        t.zero_grad()
