"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a tape: every differentiable operation appends one node to the
active :class:`Graph`, and ``backward`` walks the tape in exact reverse
append order, accumulating gradients additively into ``Tensor.grad``. A
grad is allocated when its first contribution arrives, and a node whose
output received no gradient is skipped. Each node's backward function, and
with it every array the node saved for the backward pass, is released as
soon as it has run, so a graph runs backward once.

The model's layers are each one hand-written node recorded with
:func:`fused`; the few structural ops here (``matmul``, ``add``, ``concat``,
``slice_cols``, ``gather_cols``) join them. Operations run fine without an
active graph (plain forward evaluation); a graph is only needed when
gradients are wanted:

    g = Graph()
    with g:
        loss = matmul(w, x)     # w: [1 x n], x: [n x 1], both requires_grad
    g.backward(loss)            # x.grad now holds w.T, w.grad holds x.T

A graph and the tensors recorded on it belong to one thread (the active
graph is thread-local); independent graphs may run concurrently in other
threads, and tensors not attached to any graph are plain values, safe to
share read-only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in tensor data."""


class DegenerateMaskError(ValueError):
    """A softmax row has no unmasked position left."""


class GraphError(RuntimeError):
    """Backward was asked for something the graph cannot provide."""


_state = threading.local()


def _active_graph():
    return getattr(_state, "graph", None)


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    ``grad`` is lazily allocated: it stays ``None`` until a backward pass
    touches the tensor, after which it has the same shape as ``data``. An
    owner may make both views into larger buffers (``model.FlatParams``).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor created with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    __slots__ = ("out", "parents", "backward_fn", "op")
    out: Tensor
    parents: tuple
    backward_fn: object
    op: str


class Graph:
    """Append-only op tape; context manager makes it the recording target."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._index: dict[int, int] = {}
        self._spent = False

    def __enter__(self) -> "Graph":
        stack = getattr(_state, "stack", None)
        if stack is None:
            stack = _state.stack = []
        stack.append(self)
        _state.graph = self
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _state.stack
        stack.pop()
        _state.graph = stack[-1] if stack else None
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, out: Tensor, parents: tuple, backward_fn, op: str) -> None:
        self._index[id(out)] = len(self._nodes)
        self._nodes.append(_Node(out, parents, backward_fn, op))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

        Gradients accumulate additively across fan-out; recorded tensors not
        on the path to ``loss`` end up with all-zero grad. A grad that is
        still None is allocated when the first contribution to it arrives, a
        node whose output received no gradient is skipped, and each node's
        backward function is dropped as soon as it has run, which releases
        the activations it saved while the pass goes on. So a graph runs
        backward once: a second call raises :class:`GraphError`.
        """
        if self._spent:
            raise GraphError("backward already ran on this graph and released its saved "
                             "activations; record the forward pass again on a new Graph")
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        pos = self._index.get(id(loss))
        if pos is None:
            raise GraphError("loss tensor was not produced under this graph")
        self._spent = True
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0
        skipped = []
        for node in reversed(self._nodes[: pos + 1]):
            if node.out.grad is None:
                skipped.append(node)
                continue
            for p in node.parents:
                if p.requires_grad and p.grad is None:
                    p.grad = np.zeros_like(p.data)
            node.backward_fn(node.out.grad)
            node.backward_fn = None
        for node in skipped:
            for t in (node.out, *node.parents):
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)


def fused(op: str, data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Record ``data``, computed from ``parents``, as one tape node named
    ``op``. ``backward_fn(g)`` receives the output gradient and must add into
    ``grad`` of every parent that requires grad."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    g = _active_graph()
    if g is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        g._record(out, parents, backward_fn, op)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return fused("matmul", data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from e

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return fused("add", data, (a, b), bwd)


def concat(tensors: list, axis: int) -> Tensor:
    """Concatenate 2-D tensors along axis 0 (rows) or 1 (columns)."""
    if axis not in (0, 1):
        raise ShapeError(f"concat axis must be 0 or 1, got {axis}")
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                if axis == 0:
                    t.grad += g[lo:hi, :]
                else:
                    t.grad += g[:, lo:hi]

    return fused("concat", data, tuple(tensors), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-D tensor, got shape {x.data.shape}")
    if not (0 <= start < stop <= x.data.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for shape {x.data.shape}")
    data = x.data[:, start:stop].copy()

    def bwd(g):
        if x.requires_grad:
            x.grad[:, start:stop] += g

    return fused("slice_cols", data, (x,), bwd)


def gather_cols(x: Tensor, index) -> Tensor:
    """Columns ``x[:, index]`` for a 1-D integer ``index``; an entry of -1
    gives a zero column."""
    index = np.asarray(index, dtype=np.intp)
    if x.data.ndim != 2 or index.ndim != 1:
        raise ShapeError(f"gather_cols needs a 2-D tensor and a 1-D index, got "
                         f"{x.data.shape} and {index.shape}")
    if index.size and not (-1 <= index.min() and index.max() < x.data.shape[1]):
        raise ShapeError(f"column index out of range for shape {x.data.shape}")
    live = index >= 0
    data = np.zeros((x.data.shape[0], index.size))
    data[:, live] = x.data[:, index[live]]

    def bwd(g):
        if x.requires_grad:
            np.add.at(x.grad, (slice(None), index[live]), g[:, live])

    return fused("gather_cols", data, (x,), bwd)


def masked_softmax(x: np.ndarray, mask=None) -> np.ndarray:
    """Softmax over the last axis of an array. Only the positions where the
    boolean ``mask`` (same shape, or None for all) is True take part: the
    others get exactly 0, and each row is stabilized by subtracting its max
    over the kept positions. A row with no kept position raises
    :class:`DegenerateMaskError`. Fused layers call this on plain arrays."""
    if mask is None:
        shifted = x - x.max(axis=-1, keepdims=True)
    else:
        if mask.shape != x.shape:
            raise ShapeError(f"mask shape {mask.shape} does not match input {x.shape}")
        if not mask.any(axis=-1).all():
            raise DegenerateMaskError("softmax row with every position masked out")
        neg = np.where(mask, x, -np.inf)
        shifted = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(shifted)  # exp(-inf) == 0, so masked positions drop out exactly
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a softmax over the last axis, given its
    output ``probs`` and the gradient ``g`` at that output."""
    inner = (g * probs).sum(axis=-1, keepdims=True)
    return probs * (g - inner)
