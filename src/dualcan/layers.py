"""Parameterized building blocks: a GRU recurrence, bidirectional sequence encoding,
additive word attention, and the co-attention block that fuses two sentence
sequences through an affinity matrix.

All layers are pure functions of (inputs, params). Parameters are plain
Tensors with ``requires_grad=True``; masks are numpy boolean arrays (True
marks a real, non-padding position).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DegenerateMaskError,
    ShapeError,
    Tensor,
    add,
    concat,
    fused,
    matmul,
    mul,
    slice_cols,
    slice_rows,
    softmax_rows,
    tanh,
    transpose,
)


def uniform_init(rows: int, cols: int, rng: np.random.Generator) -> Tensor:
    """Weight matrix drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(cols)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


def zeros_init(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)), requires_grad=True)


@dataclass
class GruParams:
    """Weights for one GRU direction: per gate an input matrix [h x in],
    a recurrent matrix [h x h], and a bias column [h x 1]."""

    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_reset.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_reset.shape[1]

    @staticmethod
    def create(input_size: int, hidden_size: int, rng: np.random.Generator) -> "GruParams":
        def w():
            return uniform_init(hidden_size, input_size, rng)

        def u():
            return uniform_init(hidden_size, hidden_size, rng)

        def b():
            return zeros_init(hidden_size, 1)

        return GruParams(w(), u(), b(), w(), u(), b(), w(), u(), b())

    def named(self) -> dict:
        return {
            "reset.w": self.w_reset, "reset.u": self.u_reset, "reset.b": self.b_reset,
            "update.w": self.w_update, "update.u": self.u_update, "update.b": self.b_update,
            "cand.w": self.w_cand, "cand.u": self.u_cand, "cand.b": self.b_cand,
        }


@dataclass
class WordAttentionParams:
    """Additive attention over word states: proj [h x 2h], bias [h x 1],
    context [1 x h]."""

    proj: Tensor
    bias: Tensor
    context: Tensor

    @staticmethod
    def create(hidden_size: int, rng: np.random.Generator) -> "WordAttentionParams":
        return WordAttentionParams(
            proj=uniform_init(hidden_size, 2 * hidden_size, rng),
            bias=zeros_init(hidden_size, 1),
            context=uniform_init(1, hidden_size, rng),
        )

    def named(self) -> dict:
        return {"proj": self.proj, "bias": self.bias, "context": self.context}


@dataclass
class CoAttentionParams:
    """Affinity and interaction weights; primary is the news side."""

    w_affinity: Tensor      # [2h x 2h]
    w_primary: Tensor       # [2h x 2h]
    w_secondary: Tensor     # [2h x 2h]
    score_primary: Tensor   # [1 x 2h]
    score_secondary: Tensor  # [1 x 2h]

    @staticmethod
    def create(hidden_size: int, rng: np.random.Generator) -> "CoAttentionParams":
        d = 2 * hidden_size
        return CoAttentionParams(
            w_affinity=uniform_init(d, d, rng),
            w_primary=uniform_init(d, d, rng),
            w_secondary=uniform_init(d, d, rng),
            score_primary=uniform_init(1, d, rng),
            score_secondary=uniform_init(1, d, rng),
        )

    def named(self) -> dict:
        return {
            "w_affinity": self.w_affinity,
            "w_primary": self.w_primary,
            "w_secondary": self.w_secondary,
            "score_primary": self.score_primary,
            "score_secondary": self.score_secondary,
        }


@dataclass
class CoAttentionOutput:
    affinity: Tensor             # [E x N]
    interaction_primary: Tensor  # [2h x N]
    interaction_secondary: Tensor  # [2h x E]
    attn_primary: Tensor         # [1 x N]
    attn_secondary: Tensor       # [1 x E]
    pooled_primary: Tensor       # [1 x 2h]
    pooled_secondary: Tensor     # [1 x 2h]


def gru_sequence(columns: list, p: GruParams, keep: list | None = None,
                 reverse: bool = False) -> list:
    """Run a GRU over a list of T [in x B] columns from a zero initial state.

    Returns the state after each position, in position order. ``keep`` is an
    optional list of T [1 x B] float tensors; a step computes the cell
    ``h + z * (cand - h)`` and moves to ``h + keep * (cell - h)``, so where
    ``keep`` is 0 the state passes through unchanged (padding positions do
    not advance the recurrence).

    The whole recurrence is one tape node: the gate inputs of every step come
    from one stacked [3h x in] @ [in x T*B] product, each step does one
    stacked [2h x h] reset/update product, and the backward pass is
    hand-written BPTT that forms the weight and input gradients with one
    matmul each. The node's output stacks the states as [h x T*B]; the
    returned list is cut from it.
    """
    if not columns:
        raise ShapeError("gru_sequence over an empty sequence")
    n, batch, h = len(columns), columns[0].shape[1], p.hidden_size
    for col in columns:
        if col.shape != (p.input_size, batch):
            raise ShapeError(f"gru_sequence column of shape {col.shape}, expected "
                             f"{p.input_size} rows (params) and {batch} columns (batch)")
    if keep is not None and (len(keep) != n or any(k.shape != (1, batch) for k in keep)):
        raise ShapeError(f"gru_sequence keep needs {n} rows of shape (1, {batch})")
    weights = tuple(p.named().values())   # reset, update, cand: w, u, b each
    w = np.concatenate([p.w_reset.data, p.w_update.data, p.w_cand.data])   # [3h x in]
    u_rz = np.concatenate([p.u_reset.data, p.u_update.data])              # [2h x h]
    b_rz = np.concatenate([p.b_reset.data, p.b_update.data])
    u_c, b_c = p.u_cand.data, p.b_cand.data
    x = np.concatenate([col.data for col in columns], axis=1)                 # [in x T*B]
    x_gates = (w @ x).reshape(3 * h, n, batch)
    k = None if keep is None else np.concatenate([kt.data for kt in keep])  # [T x B]
    order = range(n - 1, -1, -1) if reverse else range(n)
    # per step t: the carried state before it, both gates, the candidate, the
    # state after it
    prev, gates, cand, states = (np.empty((rows, n, batch)) for rows in (h, 2 * h, h, h))
    state = np.zeros((h, batch))
    for t in order:
        prev[:, t] = state
        a = x_gates[:2 * h, t] + u_rz @ state
        a += b_rz
        rz = gates[:, t] = 1.0 / (1.0 + np.exp(-a))
        c = cand[:, t] = np.tanh(x_gates[2 * h:, t] + u_c @ (rz[:h] * state) + b_c)
        cell = state + rz[h:] * (c - state)
        state = cell if k is None else state + k[t] * (cell - state)
        states[:, t] = state

    def backward(grad):
        g = grad.reshape(h, n, batch)
        d_pre = np.empty((3 * h, n, batch))     # gate pre-activation gradients
        carry = np.zeros((h, batch))
        for t in reversed(order):
            d_state = g[:, t] + carry
            d_cell = d_state if k is None else k[t] * d_state
            r, z, c, s = gates[:h, t], gates[h:, t], cand[:, t], prev[:, t]
            d_pre[2 * h:, t] = d_cand = d_cell * z * (1.0 - c * c)
            d_rs = u_c.T @ d_cand
            d_pre[:h, t] = d_rs * s * r * (1.0 - r)
            d_pre[h:2 * h, t] = d_cell * (c - s) * z * (1.0 - z)
            carry = d_state - d_cell * z + d_rs * r + u_rz.T @ d_pre[:2 * h, t]
        d_pre = d_pre.reshape(3 * h, n * batch)
        d_w = d_pre @ x.T                                                  # [3h x in]
        d_u = np.concatenate([d_pre[:2 * h] @ prev.reshape(h, -1).T,
                              d_pre[2 * h:] @ (gates[:h] * prev).reshape(h, -1).T])  # [3h x h]
        d_b = d_pre.sum(axis=1, keepdims=True)                             # [3h x 1]
        for i, tensor in enumerate(weights):
            if tensor.requires_grad:
                gate = slice(i // 3 * h, (i // 3 + 1) * h)
                tensor.grad += (d_w, d_u, d_b)[i % 3][gate]
        if any(col.requires_grad for col in columns):
            d_x = w.T @ d_pre
            for t, col in enumerate(columns):
                if col.requires_grad:
                    col.grad += d_x[:, t * batch:(t + 1) * batch]

    out = fused("gru_sequence", states.reshape(h, n * batch), (*columns, *weights), backward)
    return [slice_cols(out, t * batch, (t + 1) * batch) for t in range(n)]


def bigru(columns: list, p_fwd: GruParams, p_bwd: GruParams, keep: list | None = None) -> list:
    """Bidirectional GRU over a list of T [in x B] columns -> T states [2h x B].

    State t stacks the forward state after steps 1..t on the backward state
    after steps T..t; both directions start from zero. ``keep`` is passed to
    both recurrences, so where it is 0 a column neither advances them nor
    changes the carried states.
    """
    fwd = gru_sequence(columns, p_fwd, keep)
    bwd = gru_sequence(columns, p_bwd, keep, reverse=True)
    return [concat([f, b], axis=0) for f, b in zip(fwd, bwd)]


def word_attention(states: list, mask, p: WordAttentionParams):
    """Pool T word states [2h x B] into one vector per batch column.

    Scores come from a tanh projection of each state against a learned
    context vector; a softmax over each row of the boolean ``mask`` [B x T]
    turns them into weights, and a row with no real word raises
    :class:`DegenerateMaskError`. Returns (pooled [2h x B], weights [B x T]).
    """
    scores = transpose(concat([matmul(p.context, tanh(add(matmul(p.proj, s), p.bias)))
                               for s in states], axis=0))
    weights = softmax_rows(scores, mask)
    weights_t = transpose(weights)
    pooled = None
    for t, s in enumerate(states):
        term = mul(s, slice_rows(weights_t, t, t + 1))
        pooled = term if pooled is None else add(pooled, term)
    return pooled, weights


def co_attention(s: Tensor, d: Tensor, mask_s, mask_d, p: CoAttentionParams) -> CoAttentionOutput:
    """Fuse a primary sequence S [2h x N] with a secondary sequence D [2h x E].

    The affinity matrix F = tanh(D^T Wr S) couples every secondary column to
    every primary column; the interaction maps mix each side with the
    affinity-weighted other side; masked softmax rows give one attention
    distribution per side, and the pooled vectors are the attention-weighted
    column averages.
    """
    if s.shape[0] != d.shape[0]:
        raise ShapeError(f"co_attention feature dims differ: S {s.shape} vs D {d.shape}")
    if s.shape[0] != p.w_affinity.shape[0]:
        raise ShapeError(f"co_attention params sized {p.w_affinity.shape} for features {s.shape[0]}")
    n, e = s.shape[1], d.shape[1]
    ms = None if mask_s is None else np.asarray(mask_s, dtype=bool)
    md = None if mask_d is None else np.asarray(mask_d, dtype=bool)
    if ms is not None and ms.shape != (n,):
        raise ShapeError(f"mask_s shape {ms.shape} does not match N={n}")
    if md is not None and md.shape != (e,):
        raise ShapeError(f"mask_d shape {md.shape} does not match E={e}")
    if ms is not None and not ms.any():
        raise DegenerateMaskError("co_attention primary side fully masked")
    if md is not None and not md.any():
        raise DegenerateMaskError("co_attention secondary side fully masked")

    affinity = tanh(matmul(matmul(transpose(d), p.w_affinity), s))      # [E x N]
    proj_s = matmul(p.w_primary, s)                                      # [2h x N]
    proj_d = matmul(p.w_secondary, d)                                    # [2h x E]
    inter_s = tanh(add(proj_s, matmul(proj_d, affinity)))                # [2h x N]
    inter_d = tanh(add(proj_d, matmul(proj_s, transpose(affinity))))     # [2h x E]
    attn_s = softmax_rows(matmul(p.score_primary, inter_s), None if ms is None else ms.reshape(1, -1))
    attn_d = softmax_rows(matmul(p.score_secondary, inter_d), None if md is None else md.reshape(1, -1))
    pooled_s = matmul(attn_s, transpose(s))                              # [1 x 2h]
    pooled_d = matmul(attn_d, transpose(d))                              # [1 x 2h]
    return CoAttentionOutput(affinity, inter_s, inter_d, attn_s, attn_d, pooled_s, pooled_d)

