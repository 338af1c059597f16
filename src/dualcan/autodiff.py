"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a tape: every differentiable operation appends one node to the
active :class:`Graph`, and ``backward`` walks the tape in exact reverse
append order, accumulating gradients additively into ``Tensor.grad``. A
grad is allocated when its first contribution arrives, and a node whose
output received no gradient is skipped. Each node's backward function, and
with it every array the node saved for the backward pass, is released as
soon as it has run, so a graph runs backward once.

Operations run fine without an active graph (plain forward evaluation); a
graph is only needed when gradients are wanted:

    g = Graph()
    with g:
        loss = sum_all(mul(x, x))
    g.backward(loss)        # x.grad now holds 2*x

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

_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle finite-value validation of every op result (off by default)."""
    global _debug_checks
    _debug_checks = bool(enabled)


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

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Zero ``grad`` in place, so a grad that is a view stays one; a grad
        never allocated stays None."""
        if self.grad is not None:
            self.grad.fill(0.0)

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


def backward(loss: Tensor) -> None:
    """Run the active graph's backward pass from ``loss``."""
    g = _active_graph()
    if g is None:
        raise GraphError("no active graph; run the forward pass inside `with Graph():`")
    g.backward(loss)


def fused(op: str, data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Record ``data``, computed from ``parents``, as one tape node named
    ``op``. ``backward_fn(g)`` receives the output gradient and must add into
    ``grad`` of every parent that requires grad."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    if _debug_checks and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast") from e

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g, b.data.shape)

    return fused("sub", data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from e

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return fused("mul", data, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    data = x.data * c

    def bwd(g):
        if x.requires_grad:
            x.grad += g * c

    return fused("scale", data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.grad += (1.0 - data * data) * g

    return fused("tanh", data, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        if x.requires_grad:
            x.grad += data * (1.0 - data) * g

    return fused("sigmoid", data, (x,), bwd)


def log(x: Tensor, floor: float = 0.0) -> Tensor:
    """Natural log; values below ``floor`` are clamped before the log.

    Gradient is 1/x on the unclamped region and 0 where the clamp binds.
    """
    clamped = np.maximum(x.data, floor) if floor > 0.0 else x.data
    data = np.log(clamped)

    def bwd(g):
        if x.requires_grad:
            if floor > 0.0:
                live = (x.data >= floor).astype(np.float64)
                x.grad += live * g / np.maximum(x.data, floor)
            else:
                x.grad += g / x.data

    return fused("log", data, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a 1x1 tensor."""
    data = np.array([[x.data.sum()]])

    def bwd(g):
        if x.requires_grad:
            x.grad += g[0, 0]

    return fused("sum", data, (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.data.size)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {x.data.shape}")
    data = x.data.T.copy()

    def bwd(g):
        if x.requires_grad:
            x.grad += g.T

    return fused("transpose", data, (x,), bwd)


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


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice_rows needs a 2-D tensor, got shape {x.data.shape}")
    if not (0 <= start < stop <= x.data.shape[0]):
        raise ShapeError(f"row slice [{start}:{stop}] out of range for shape {x.data.shape}")
    data = x.data[start:stop, :].copy()

    def bwd(g):
        if x.requires_grad:
            x.grad[start:stop, :] += g

    return fused("slice_rows", data, (x,), bwd)


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


def softmax_rows(x: Tensor, mask=None) -> Tensor:
    """Row-wise softmax with optional boolean keep-mask.

    Masked-out positions (mask False) get exactly 0 and contribute nothing
    to the normalization; each row is stabilized by subtracting its max over
    the kept positions. A row with no kept position raises
    :class:`DegenerateMaskError`.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got shape {x.data.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim == 1:
            mask = mask.reshape(1, -1)
    data = masked_softmax(x.data, mask)

    def bwd(g):
        if x.requires_grad:
            x.grad += softmax_backward(data, g)

    return fused("softmax_rows", data, (x,), bwd)


def masked_softmax(x: np.ndarray, mask=None) -> np.ndarray:
    """Softmax over the last axis of an array, keeping the positions where
    the boolean ``mask`` (same shape, or None for all) is True; see
    :func:`softmax_rows`. Fused layers call this on plain arrays."""
    if mask is None:
        mask = np.ones(x.shape, dtype=bool)
    elif mask.shape != x.shape:
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


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    coord: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list
    max_rel_err: float
    worst: GradCheckEntry | None

    def passed(self, tol: float) -> bool:
        return self.max_rel_err <= tol

    def summary(self) -> str:
        lines = [f"{e.name}: max rel err {e.max_rel_err:.3e} at {e.coord}" for e in self.entries]
        lines.append(f"overall max rel err: {self.max_rel_err:.3e}")
        return "\n".join(lines)


def _rel_err(a: float, b: float) -> float:
    diff = abs(a - b)
    # a disagreement below 1e-10 is indistinguishable from finite-difference
    # noise; report it absolutely (covers the both-gradients-zero case)
    if diff < 1e-10:
        return diff
    return diff / max(abs(a), abs(b))


def grad_check(f, params, h: float = 1e-5, max_coords: int | None = None,
               seed: int = 0) -> GradCheckReport:
    """Compare autodiff gradients of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument function returning a scalar
    Tensor built from ``params`` (a mapping name -> Tensor). Every coordinate
    of every parameter is checked unless ``max_coords`` caps the per-tensor
    sample (sampled coordinates are drawn with a fixed seed, at least 32 per
    tensor when sampling kicks in).
    """
    if not (1e-7 <= h <= 1e-4):
        raise ValueError(f"step h={h} outside [1e-7, 1e-4]")
    named = list(params.items())
    for _, p in named:
        p.zero_grad()
    g = Graph()
    with g:
        loss = f()
    if loss.data.size != 1:
        raise GraphError("grad_check needs a scalar-valued f")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("f evaluated to a non-finite value")
    g.backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in named}

    def evaluate() -> float:
        out = f()
        val = float(out.data.reshape(-1)[0])
        if not np.isfinite(val):
            raise NonFiniteError("f evaluated to a non-finite value during finite differences")
        return val

    rng = np.random.default_rng(seed)
    entries = []
    for name, p in named:
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            idx = np.sort(rng.choice(n, size=max(32, max_coords), replace=False))
        else:
            idx = np.arange(n)
        worst = GradCheckEntry(name, -1.0, (), 0.0, 0.0)
        ana_flat = analytic[name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = evaluate()
            flat[i] = orig - h
            lm = evaluate()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            err = _rel_err(ana_flat[i], fd)
            if err > worst.max_rel_err:
                coord = tuple(np.unravel_index(i, p.data.shape))
                worst = GradCheckEntry(name, err, coord, float(ana_flat[i]), fd)
        entries.append(worst)
    top = max(entries, key=lambda e: e.max_rel_err) if entries else None
    return GradCheckReport(entries, top.max_rel_err if top else 0.0, top)
