"""Parameter trees: seeded initialization, flattening, and grad plumbing.

Parameters live in nested dicts of Tensors.  Names are joined with "/" when
flattened, which is the naming used by the optimizer, the checkpoint format,
and the gradient-check report.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Fan-based uniform init; fans are taken from the last two axes."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def weight(rng: np.random.Generator, shape, dtype) -> Tensor:
    return Tensor(xavier_uniform(rng, shape, dtype), requires_grad=True)


def zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


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

