"""Tape ops and a finite-difference gradient checker that only tests use.

The model records each layer as one hand-written ``fused`` node, so the
package keeps only those and ``gather_cols``. The ops here compose the tape
references that the fused layers are checked against (``matmul``, ``add``,
``concat``, ``tanh``, ``softmax_rows`` and the rest), and :func:`grad_check`
compares a tape's gradients with central differences. :func:`gru_out` and
:func:`unpadded` state the ``keep``, ``out`` and ``plan`` that
``gru_sequence`` requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualcan.autodiff import (
    Graph,
    GraphError,
    NonFiniteError,
    ShapeError,
    Tensor,
    fused,
    masked_softmax,
    softmax_backward,
)
from dualcan.layers import step_plan


def zero_grad(t: Tensor) -> None:
    """Zero ``t.grad`` in place, so a grad that is a view stays one; a grad
    never allocated stays None."""
    if t.grad is not None:
        t.grad.fill(0.0)


def gru_out(columns: list, p) -> np.ndarray:
    """A fresh [h x T*B] output buffer for a recurrence with params ``p``
    over ``columns``."""
    return np.empty((p.hidden_size, len(columns) * columns[0].shape[1]))


def unpadded(columns: list, p) -> dict:
    """``gru_sequence``'s ``keep``, ``out`` and ``plan`` for columns with no
    padding: T all-ones [1 x B] keep rows, a fresh output buffer and the step
    plan of an all-True mask."""
    mask = np.ones((columns[0].shape[1], len(columns)), dtype=bool)       # [B x T]
    keep = [Tensor(np.ones((1, mask.shape[0]))) for _ in columns]
    return {"keep": keep, "out": gru_out(columns, p), "plan": step_plan(columns, mask)}


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


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
        zero_grad(p)
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
