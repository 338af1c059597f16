"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a tape: every differentiable operation appends one node to the
active :class:`Graph`, and ``backward`` walks the tape in exact reverse
append order, accumulating gradients additively into ``Tensor.grad``. A
grad is allocated when its first contribution arrives, and a node whose
output received no gradient is skipped. Each node's backward function, and
with it every array the node saved for the backward pass, is released as
soon as it has run, and so is the grad of the node's output unless that
output is the loss: only the leaves (tensors no node produced) and the loss
keep their grads. So a graph runs backward once.

Each layer of the model is one hand-written node recorded with
:func:`fused`, and :func:`gather_cols` is the one structural op beside them;
:func:`split_cols` cuts a tensor into column views, such as a recurrence's steps,
and :func:`split_rows` an array into row tensors, such as its keep rows.
Operations run fine without an active graph (plain forward evaluation); a
graph is only needed when gradients are wanted:

    g = Graph()
    with g:
        loss = gather_cols(x, [2])   # x: [1 x n], requires_grad; loss: [1 x 1]
    g.backward(loss)                 # x.grad: 1 in column 2, 0 elsewhere

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
    touches the tensor, after which it has the same shape as ``data``. Both
    may be views into larger buffers (``model.FlatParams``, :func:`split_cols`).
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
    """Append-only op tape; ``with`` makes it the recording target, then restores the outer one."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __enter__(self) -> "Graph":
        self._outer = _active_graph()
        _state.graph = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.graph = self._outer
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, out: Tensor, parents: tuple, backward_fn, op: str) -> None:
        self._nodes.append(_Node(out, parents, backward_fn, op))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

        Gradients accumulate additively across fan-out. A grad that is still
        None is allocated when the first contribution to it arrives, so a
        tensor off the path to ``loss`` keeps the grad it had (None if it
        never had one). A node whose output received no gradient is
        skipped. Each node's backward function is dropped as soon as it has
        run, which releases the activations it saved while the pass goes on,
        and so is its output's grad, which nothing reads again: after the
        pass only the leaves and ``loss`` hold grads. So a graph runs
        backward once: a second call raises :class:`GraphError`.
        """
        if self._spent:
            raise GraphError("backward already ran on this graph and released its saved "
                             "activations; record the forward pass again on a new Graph")
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not any(node.out is loss for node in self._nodes):
            raise GraphError("loss tensor was not produced under this graph")
        self._spent = True
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0
        for node in reversed(self._nodes):
            if node.out.grad is None:
                continue
            for p in node.parents:
                if p.requires_grad and p.grad is None:
                    p.grad = np.zeros_like(p.data)
            node.backward_fn(node.out.grad)
            node.backward_fn = None
            if node.out is not loss:
                node.out.grad = None


def _wrap(data: np.ndarray) -> Tensor:
    """``data`` as a Tensor without grad, unchecked."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    return out


def split_cols(x: Tensor, parts: int) -> list:
    """``x`` [rows x parts*w] as ``parts`` tensors of w columns, recording no
    node. Their ``data`` are views into ``x.data``; if ``x`` requires grad (on
    a tape), their ``grad`` are views into ``x.grad``, bound to zeros here if
    None and never rebound, so what a node adds into a part reaches ``x``."""
    if x.data.ndim != 2 or parts < 1 or x.data.shape[1] % parts:
        raise ShapeError(f"split_cols cannot cut shape {x.data.shape} into {parts} parts")
    shape = (x.data.shape[0], parts, x.data.shape[1] // parts)   # a view, as it splits an axis
    out = [_wrap(cols) for cols in x.data.reshape(shape).swapaxes(0, 1)]
    if x.requires_grad:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        for part, grad in zip(out, x.grad.reshape(shape).swapaxes(0, 1)):
            part.requires_grad, part.grad = True, grad
    return out


def split_rows(data: np.ndarray) -> list:
    """The rows of a 2-D array as [1 x cols] tensors without grad, recording
    no node: views into ``data``, not checked for finite values, so for
    values finite by construction."""
    return [_wrap(row) for row in data[:, None]]


def fused(op: str, data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Record ``data``, computed from ``parents``, as one tape node named
    ``op`` if a graph is active and some parent requires grad.
    ``backward_fn(g)`` receives the output gradient and must add into
    ``grad`` of every parent that requires grad: of every parameter, so a
    layer checks ``requires_grad`` only on an input that can lack one."""
    out = _wrap(data)
    g = _active_graph()
    if g is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        g._record(out, parents, backward_fn, op)
    return out


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
