"""Minimal reverse-mode autodiff over numpy arrays.

Just enough tape machinery for the model in this package: add, neg and mul
with broadcasting (plus division by a constant), batched matmul, tanh,
stable (log-)softmax, sum/mean reductions, concat, indexing (`take`), and
reshape/swapaxes/broadcast_to.
Dtype is inherited from the operands, so the same code runs in float32
for training and float64 for finite-difference verification.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

# Per thread (and per asyncio task): a no_grad block in one thread leaves
# the tape on in every other.
_grad_enabled = contextvars.ContextVar("hvsarn_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (forward-only evaluation)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def records(parents) -> bool:
    """True when an op on `parents` goes on the tape (some parent needs a gradient)."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if records(parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray):
        # An intermediate node's gradient lives only until its backward has
        # run (see `backward`); a leaf's accumulates across backward calls.
        if self.grad is None:
            # Copy into a buffer laid out like the data; keeping g's own layout
            # would change the summation order of later matmuls.
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Backpropagate from this tensor; defaults to d(self)/d(self) = 1.

        Each node with a backward drops its `.grad` as soon as that backward
        has run, so the pass holds gradients only for the live frontier of
        the tape. Afterwards only leaves (parameters and inputs created with
        `requires_grad`) keep `.grad`, and a second backward on the same
        tape adds the same gradient to them again.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        # Iterative topological order (graphs can be deep for long sequences).
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar ----------------------------------------------------

    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return add(self, self._lift(other))

    def __sub__(self, other):
        return add(self, neg(self._lift(other)))

    def __rsub__(self, other):
        return add(self._lift(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, self._lift(other))

    def __rmul__(self, other):
        return mul(self._lift(other), self)

    def __truediv__(self, other):
        return mul(self, self._lift(1.0 / other))

    def __getitem__(self, idx):
        return take(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


# -- primitives ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(-g)

    return Tensor._result(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            if b.ndim == 2:
                # A weight shared by a stack of matrices: one [m, rows] @ [rows, p]
                # product instead of a [batch, m, p] stack summed afterwards.
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            b._accumulate(gb)

    return Tensor._result(out_data, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - y * y))

    return Tensor._result(y, (a,), backward)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a numpy array, exp of a non-positive argument only.

    The numerator exp(min(x, 0)) is exactly e for x < 0 and exactly 1 for
    x >= 0, so this is the branch-per-sign form without a mask."""
    e = np.exp(-np.abs(x))
    return np.exp(np.minimum(x, 0)) / (1.0 + e)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        s = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - s))

    return Tensor._result(y, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def backward(g):
        a._accumulate(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return Tensor._result(y, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor._result(out_data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(n))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._result(out_data, tuple(tensors), backward)


def take(a: Tensor, idx) -> Tensor:
    out_data = a.data[idx]

    def backward(g):
        # np.add.at sums the rows of repeated fancy indices, where
        # `a.grad[idx] += g` would keep only one of them.
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return Tensor._result(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return Tensor._result(a.data.reshape(shape), (a,), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def backward(g):
        a._accumulate(np.swapaxes(g, ax1, ax2))

    return Tensor._result(np.swapaxes(a.data, ax1, ax2), (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    out_data = np.broadcast_to(a.data, shape)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))

    return Tensor._result(out_data, (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: x [..., m] @ w [m, p] (+ b [p]), x.ndim >= 2."""
    y = matmul(x, w)
    if b is not None:
        y = add(y, b)
    return y
