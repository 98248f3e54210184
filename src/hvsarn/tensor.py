"""Minimal reverse-mode autodiff over numpy arrays.

Just enough tape machinery for the model in this package: add, neg and mul
with broadcasting (plus division by a constant), batched matmul, `affine`
(a sum of products with 2-D weights plus a bias, as one node; `linear` is
its one-product case), tanh, stable (log-)softmax, sum/mean reductions,
concat, indexing (`take`), and reshape/moveaxis/broadcast_to.
Dtype is inherited from the operands, so the same code runs in float32
for training and float64 for finite-difference verification.

The tape links `_Node`s, not values. A `Tensor` is a value (`.data`) plus,
when it requires a gradient, its node. A node holds its gradient, its
parent nodes, its backward closure, and the shape and dtype of its
gradient; it references no `Tensor` and no output array.
Each backward closure holds its parents' nodes and exactly the arrays it
reads: a matmul, an affine or a mul its operands, a tanh or (log-)softmax
its own output, an add or a reshape only shapes. So the tape keeps only
what some backward reads, and an output that none reads is freed as soon
as the forward drops its last reference to it. `affine_sum`,
`affine_terms` and `affine_backward` are affine's forward sum, saved
operands and backward, for a node (such as the graph memory's attention
scores and gated update) that starts or ends in a sum of products and
rebuilds the rest from those operands.

A weight shared by a stack of matrices gets one BLAS product per gradient:
dx = g @ W^T over all rows of g at once, dW = x^T g likewise, and a bias
gradient sums the leading axes as one ones @ rows product. numpy would run
the first as a stack of small products, and its sum over leading axes
costs about as much as a GEMM.

A node's gradient is a C-ordered array of its output's shape and dtype,
whatever the strides of the output itself. Its first part is copied into a
new such array, except when the backward hands its array over
(`owned=True`): then the node keeps that array, if it already is one.
A backward hands over only an array it allocated for that one parent
(matmul's and affine's products, tanh's and softmax's results, and
`gated_update`'s and the attention scores' gradients); `add`, which passes
one `g` to both parents, never does, so no two nodes ever share a gradient
buffer.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

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
    return _grad_enabled.get() and any(p._node is not None for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        # The leading axes as one ones @ rows product: numpy's sum over them
        # costs about as much as a GEMM of the same rows.
        lead, kept = math.prod(grad.shape[:extra]), grad.shape[extra:]
        rows = grad.reshape(lead, math.prod(kept))
        grad = (np.ones(lead, dtype=grad.dtype) @ rows).reshape(kept)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _matmul_rows(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g [..., n] @ w [n, p] as one 2-D product over all rows of a C-contiguous
    g, where numpy would run a stack of small products."""
    if g.ndim > 2 and g.flags.c_contiguous:
        return (g.reshape(-1, g.shape[-1]) @ w).reshape(g.shape[:-1] + (w.shape[-1],))
    return g @ w


class _Node:
    """One vertex of the tape: a gradient, the parents it flows to, and how."""

    __slots__ = ("grad", "_parents", "_backward", "shape", "dtype")

    def __init__(self, data: np.ndarray, parents: tuple = (), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.shape = data.shape
        self.dtype = data.dtype

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        # An intermediate node's gradient lives only until its backward has
        # run (see `Tensor.backward`); a leaf's accumulates across backward calls.
        if self.grad is None:
            if owned and g.shape == self.shape and g.dtype == self.dtype and g.flags.c_contiguous:
                # A fresh C array made for this node alone: keep it.
                self.grad = g
                return
            # Copy into a new C array: g may be (a view of) another node's
            # gradient, which a later `+=` here must not write into.
            self.grad = np.empty(self.shape, self.dtype)
            self.grad[...] = g
        else:
            self.grad += g


class Tensor:
    """A value and, when it requires a gradient, its node on the tape.

    A leaf made with `requires_grad` gets a parent-less node at once; an op's
    result gets one from `_result` only when the op goes on the tape. `grad`
    reads and writes the node's gradient.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self._node = _Node(self.data) if requires_grad else None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if records(parents):
            nodes = tuple(p._node for p in parents if p._node is not None)
            out._node = _Node(out.data, nodes, backward)
        return out

    # -- the node ----------------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ValueError("only a tensor that requires grad holds a gradient")

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

        `grad`, when given, must have this tensor's shape. Each node with a
        backward drops its `.grad` as soon as that backward has run, so the
        pass holds gradients only for the live frontier of the tape.
        Afterwards only leaves (parameters and inputs created with
        `requires_grad`) keep `.grad`, and a second backward on the same
        tape adds the same gradient to them again.
        """
        root = self._node
        if root is None:
            raise ValueError("backward() on a tensor that does not require grad")
        grad = np.asarray(np.ones_like(self.data) if grad is None else grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {grad.shape} does not match the tensor's shape {self.data.shape}"
            )
        # Iterative topological order (graphs can be deep for long sequences).
        order, seen, stack = [], set(), [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in seen:
                    stack.append((p, False))
        root._accumulate(grad)
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
#
# Each backward closure holds the parents' nodes (None for a parent that
# needs no gradient) and only the arrays it reads.


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    an, bn = a._node, b._node

    def backward(g):
        if an is not None:
            an._accumulate(_unbroadcast(g, an.shape))
        if bn is not None:
            bn._accumulate(_unbroadcast(g, bn.shape))

    return Tensor._result(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    an = a._node

    def backward(g):
        an._accumulate(-g)

    return Tensor._result(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    an, bn = a._node, b._node
    # Each operand's gradient reads the other operand alone.
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward(g):
        if an is not None:
            an._accumulate(_unbroadcast(g * b_data, an.shape))
        if bn is not None:
            bn._accumulate(_unbroadcast(g * a_data, bn.shape))

    return Tensor._result(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    if b.ndim == 2:
        # A weight shared by a stack of matrices: affine's node, whose
        # gradients are one 2-D product each over all rows.
        return affine(((a, b),))
    out_data = a.data @ b.data
    an, bn = a._node, b._node
    # Each operand's gradient reads the other operand alone.
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward(g):
        if an is not None:
            an._accumulate(_unbroadcast(g @ np.swapaxes(b_data, -1, -2), an.shape), owned=True)
        if bn is not None:
            bn._accumulate(_unbroadcast(np.swapaxes(a_data, -1, -2) @ g, bn.shape), owned=True)

    return Tensor._result(out_data, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    an = a._node
    y = np.tanh(a.data)

    def backward(g):
        # g * (1 - y^2) in one buffer
        dx = np.multiply(y, y)
        np.subtract(1.0, dx, out=dx)
        an._accumulate(np.multiply(g, dx, out=dx), owned=True)

    return Tensor._result(y, (a,), backward)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a numpy array, exp of a non-positive argument only.

    The numerator exp(min(x, 0)) is exactly e for x < 0 and exactly 1 for
    x >= 0, so this is the branch-per-sign form without a mask."""
    # asarray: for a 0-d input the ufuncs return scalars, which out= rejects
    e = np.asarray(np.abs(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    y = np.asarray(np.minimum(x, 0))
    np.exp(y, out=y)
    return np.divide(y, e, out=y)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    an = a._node
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        # y * (g - sum(g * y)) in one buffer
        dx = np.multiply(g, y)
        s = dx.sum(axis=axis, keepdims=True)
        np.subtract(g, s, out=dx)
        an._accumulate(np.multiply(y, dx, out=dx), owned=True)

    return Tensor._result(y, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    an = a._node
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def backward(g):
        an._accumulate(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return Tensor._result(y, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    an = a._node

    def backward(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        an._accumulate(np.broadcast_to(g, an.shape))

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
    nodes = [t._node for t in tensors]

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                node._accumulate(g[tuple(idx)])

    return Tensor._result(out_data, tuple(tensors), backward)


def take(a: Tensor, idx) -> Tensor:
    out_data = a.data[idx]
    an = a._node

    def backward(g):
        # np.add.at sums the rows of repeated fancy indices, where
        # `a.grad[idx] += g` would keep only one of them.
        if an.grad is None:
            an.grad = np.zeros(an.shape, an.dtype)
        np.add.at(an.grad, idx, g)

    return Tensor._result(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    an = a._node

    def backward(g):
        an._accumulate(g.reshape(an.shape))

    return Tensor._result(a.data.reshape(shape), (a,), backward)


def moveaxis(a: Tensor, source: int, destination: int) -> Tensor:
    an = a._node

    def backward(g):
        an._accumulate(np.moveaxis(g, destination, source))

    return Tensor._result(np.moveaxis(a.data, source, destination), (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    an = a._node

    def backward(g):
        an._accumulate(_unbroadcast(g, an.shape))

    return Tensor._result(np.broadcast_to(a.data, shape), (a,), backward)


def _fits(shape: tuple, into: tuple) -> bool:
    """True when an array of `shape` broadcasts to `into` without growing it."""
    if shape == into:
        return True
    return len(shape) <= len(into) and all(n in (1, m) for n, m in zip(shape[::-1], into[::-1]))


def affine_sum(pairs, bias=None) -> np.ndarray:
    """((x1 @ W1 + x2 @ W2) + ...) + bias over arrays, for pairs ((x1, W1), (x2, W2), ...).

    Each x has ndim >= 2 and each W is 2-D [m, p]; the products broadcast
    against each other, and bias, when given, is [p].  Each product is formed
    in turn and added, in order, into the first buffer of the full output
    shape, so the bytes are those of the same sum built from `matmul` and
    `add`, and at most two products are alive at once.  `affine` and the
    graph memory's `gated_update` form their sums here, the latter again in
    its backward.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("affine needs at least one (x, W) term")
    width = pairs[0][1].shape[-1]
    for x, w in pairs:
        if x.ndim < 2:
            raise ValueError(f"affine requires x with ndim >= 2, got x {x.shape} for W {w.shape}")
        if w.ndim != 2 or x.shape[-1] != w.shape[0] or w.shape[1] != width:
            raise ValueError(
                f"affine term x {x.shape} @ W {w.shape} does not fit: "
                f"W must be 2-D [{x.shape[-1]}, {width}]"
            )
    if bias is not None and bias.shape != (width,):
        raise ValueError(f"affine bias {bias.shape} does not fit the output width {width}")
    out = pairs[0][0] @ pairs[0][1]
    # Every product is a fresh array, so a sum of two of one dtype may go
    # into whichever of them has the full shape.
    for x, w in pairs[1:]:
        p = x @ w
        if p.dtype == out.dtype and _fits(p.shape, out.shape):
            np.add(out, p, out=out)
        elif p.dtype == out.dtype and _fits(out.shape, p.shape):
            out = np.add(out, p, out=p)
        else:
            out = out + p
    if bias is not None:
        out = np.add(out, bias, out=out if bias.dtype == out.dtype else None)
    return out


def affine(terms, b: Tensor | None = None) -> Tensor:
    """((x1 @ W1 + x2 @ W2) + ...) + b as one node, for terms ((x1, W1), (x2, W2), ...).

    The forward is `affine_sum` over the operands' arrays.  The backward
    forms each term's gradient straight from g: g summed down to the
    product's shape, then dx = g_i @ W^T and dW = x^T g_i over all rows.
    """
    terms = tuple(terms)
    out_data = affine_sum(((x.data, w.data) for x, w in terms), None if b is None else b.data)
    parents = sum(terms, ()) + (() if b is None else (b,))
    if not records(parents):  # off the tape: skip building the backward
        return Tensor(out_data)
    saved = affine_terms(terms)
    bn = None if b is None else b._node

    def backward(g):
        affine_backward(g, saved, bn)

    return Tensor._result(out_data, parents, backward)


def affine_terms(terms) -> tuple:
    """What `affine_backward` needs of each (x, W) term: both nodes, the
    operand arrays their gradients read (each reads the other's alone), and
    the product's shape."""
    return tuple(
        (
            x._node,
            w._node,
            x.data if w._node is not None else None,
            w.data if x._node is not None else None,
            x.shape[:-1] + w.shape[-1:],
        )
        for x, w in terms
    )


def affine_backward(g: np.ndarray, saved: tuple, bias_node=None) -> None:
    """Hand g, the gradient of a sum of products plus a bias, to the parents
    that `affine_terms` saved and to the bias's node: for each term,
    g_i = g summed down to the product's shape, dx = g_i @ W^T and
    dW = x^T g_i over all rows."""
    for xn, wn, x_data, w_data, shape in saved:
        if xn is None and wn is None:
            continue
        gi = _unbroadcast(g, shape)
        if xn is not None:
            xn._accumulate(_matmul_rows(gi, w_data.T), owned=True)
        if wn is not None:
            gw = x_data.reshape(-1, x_data.shape[-1]).T @ gi.reshape(-1, shape[-1])
            wn._accumulate(gw, owned=True)
    if bias_node is not None:
        bias_node._accumulate(_unbroadcast(g, bias_node.shape), owned=True)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: x [..., m] @ w [m, p] (+ b [p]), x.ndim >= 2."""
    return affine(((x, w),), b)
