"""Parameterized building blocks: a GRU recurrence, bidirectional sequence encoding,
additive word attention, and the co-attention block that fuses two sentence
sequences through an affinity matrix.

All layers are pure functions of (inputs, params). Parameters are plain
Tensors with ``requires_grad=True``; masks are numpy boolean arrays (True
marks a real, non-padding position).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import (
    DegenerateMaskError,
    ShapeError,
    Tensor,
    concat,
    fused,
    masked_softmax,
    softmax_backward,
)


def uniform_init(rows: int, cols: int, rng: np.random.Generator | None) -> Tensor:
    """Weight matrix drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); with no
    ``rng``, a read-only zero view that allocates nothing and only lays out a
    tensor whose values are loaded later (``model.restore_params``)."""
    if rng is None:
        return Tensor(np.broadcast_to(0.0, (rows, cols)), requires_grad=True)
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
    def create(input_size: int, hidden_size: int, rng: np.random.Generator | None) -> "GruParams":
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
    def create(hidden_size: int, rng: np.random.Generator | None) -> "WordAttentionParams":
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
    def create(hidden_size: int, rng: np.random.Generator | None) -> "CoAttentionParams":
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
    """One co-attention block over a batch of B samples. Only ``pooled`` is
    on the tape; the maps are plain arrays, one slice per sample."""

    pooled: Tensor                    # [4h x B]: pooled primary over pooled secondary
    affinity: np.ndarray              # [B x E x N]
    interaction_primary: np.ndarray   # [B x 2h x N]
    interaction_secondary: np.ndarray  # [B x 2h x E]
    attn_primary: np.ndarray          # [B x N]
    attn_secondary: np.ndarray        # [B x E]


def gru_sequence(columns: list, p: GruParams, keep: list | None = None,
                 reverse: bool = False) -> Tensor:
    """Run a GRU over a list of T [in x B] columns from a zero initial state.

    Returns the states after every position as one [h x T*B] tensor, in
    position order: column t*B + b is the state of sequence b after step t.
    ``keep`` is an optional list of T [1 x B] float tensors; a step computes
    the cell ``h + z * (cand - h)`` and moves to ``h + keep * (cell - h)``,
    so where ``keep`` is 0 the state passes through unchanged (padding
    positions do not advance the recurrence).

    The whole recurrence is one tape node, packed like cuDNN's
    variable-length sequences: step t works, forward and in BPTT, only on
    its live prefix, the columns up to the last one whose keep is non-zero
    at that step; the columns past it carry their state. With columns sorted
    by descending length, as the word encoder passes them, the live prefix
    is exactly the sentences still running. The gate inputs of every live
    column-step come from one stacked [3h x in] product with the three
    biases folded in, each step does one stacked [2h x h] reset/update
    product, and the stored activations are packed [rows x R], R the total
    of the live prefixes, so the weight and input gradients are one matmul
    each over live column-steps only. A step whose prefix keeps every column
    at exactly 1 takes the cell as its state without the keep blend.

    The node saves only the gates, the candidates and its own output.
    Backpropagation rebuilds the packed input, the stacked weights and the
    state before each live column-step from the parents and the output, and
    computes the step-independent factors of the gate gradients once over
    all live column-steps, so each BPTT step is a few products.
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
    if keep is None:
        k, live, blend = None, [batch] * n, [False] * n
    else:
        k = np.concatenate([kt.data for kt in keep])                      # [T x B]
        moves, partial = k != 0.0, k != 1.0
        # live[t]: columns up to the last one that moves at step t;
        # blend[t]: some column of that prefix keeps neither 0 nor 1 exactly
        live = np.where(moves.any(axis=1), batch - np.argmax(moves[:, ::-1], axis=1), 0)
        first_partial = np.where(partial.any(axis=1), np.argmax(partial, axis=1), batch)
        live, blend = live.tolist(), (first_partial < live).tolist()
    # the live column-steps of step t are packed columns start[t] .. start[t + 1] - 1
    start = [0, *accumulate(live)]

    # backward rebuilds these from the parents instead of keeping them
    def stacked(*tensors):
        return np.concatenate([t.data for t in tensors])

    def packed_x():
        return np.concatenate([col.data[:, :width] for col, width in zip(columns, live)],
                              axis=1)                                     # [in x R]

    x_gates = stacked(p.w_reset, p.w_update, p.w_cand) @ packed_x()       # [3h x R]
    x_gates += stacked(p.b_reset, p.b_update, p.b_cand)
    u_rz = stacked(p.u_reset, p.u_update)                                 # [2h x h]
    order = range(n - 1, -1, -1) if reverse else range(n)
    # stored per live column-step: both gates and the candidate; and per
    # step the state of every column after it, which is the output
    gates, cand = np.empty((2 * h, start[-1])), np.empty((h, start[-1]))
    states = np.empty((h, n, batch))
    state = np.zeros((h, batch))
    for t in order:
        width = live[t]
        if width:
            packed = slice(start[t], start[t + 1])
            s = state[:, :width]
            a = u_rz @ s
            a += x_gates[:2 * h, packed]
            rz = gates[:, packed] = 1.0 / (1.0 + np.exp(-a))
            c = p.u_cand.data @ (rz[:h] * s)
            c += x_gates[2 * h:, packed]
            c = cand[:, packed] = np.tanh(c)
            cell = s + rz[h:] * (c - s)
            if blend[t]:
                cell = s + k[t, :width] * (cell - s)
            if width == batch:
                state = cell
            else:
                state[:, :width] = cell
        states[:, t] = state

    def backward(grad):
        # the carried state before each live column-step, packed like gates
        zero, back = np.zeros((h, batch)), 1 if reverse else -1
        prev = np.concatenate([(zero if t == order[0] else states[:, t + back])[:, :width]
                               for t, width in enumerate(live)], axis=1)  # [h x R]
        r, z = gates[:h], gates[h:]
        # the step-independent factors of the three gate pre-activation gradients
        f_cand = z * (1.0 - cand * cand)
        f_reset = prev * r * (1.0 - r)
        f_update = (cand - prev) * z * (1.0 - z)
        u_rz_t, u_c_t = stacked(p.u_reset, p.u_update).T, p.u_cand.data.T
        g = grad.reshape(h, n, batch)
        d_pre = np.empty((3 * h, start[-1]))    # gate pre-activation gradients, packed
        carry = np.zeros((h, batch))
        for t in reversed(order):
            carry += g[:, t]
            width = live[t]
            if not width:
                continue
            packed = slice(start[t], start[t + 1])
            d_state = carry[:, :width]
            d_cell = k[t, :width] * d_state if blend[t] else d_state
            d_cand = np.multiply(d_cell, f_cand[:, packed], out=d_pre[2 * h:, packed])
            d_rs = u_c_t @ d_cand
            np.multiply(d_rs, f_reset[:, packed], out=d_pre[:h, packed])
            np.multiply(d_cell, f_update[:, packed], out=d_pre[h:2 * h, packed])
            d_prev = d_state - d_cell * z[:, packed] + d_rs * r[:, packed] \
                + u_rz_t @ d_pre[:2 * h, packed]
            if width == batch:
                carry = d_prev
            else:
                carry[:, :width] = d_prev
        del f_cand, f_reset, f_update   # before the products below allocate theirs
        d_w = d_pre @ packed_x().T                                         # [3h x in]
        d_u = np.concatenate([d_pre[:2 * h] @ prev.T,
                              d_pre[2 * h:] @ (r * prev).T])               # [3h x h]
        d_b = d_pre.sum(axis=1, keepdims=True)                             # [3h x 1]
        for i, tensor in enumerate(weights):
            if tensor.requires_grad:
                gate = slice(i // 3 * h, (i // 3 + 1) * h)
                tensor.grad += (d_w, d_u, d_b)[i % 3][gate]
        if any(col.requires_grad for col in columns):
            d_x = stacked(p.w_reset, p.w_update, p.w_cand).T @ d_pre
            for t, col in enumerate(columns):
                if col.requires_grad:
                    col.grad[:, :live[t]] += d_x[:, start[t]:start[t + 1]]

    return fused("gru_sequence", states.reshape(h, n * batch), (*columns, *weights), backward)


def bigru(columns: list, p_fwd: GruParams, p_bwd: GruParams, keep: list | None = None) -> Tensor:
    """Bidirectional GRU over a list of T [in x B] columns -> states [2h x T*B].

    Column t*B + b stacks the forward state of sequence b after steps 1..t on
    its backward state after steps T..t; both directions start from zero.
    ``keep`` is passed to both recurrences, so where it is 0 a column neither
    advances them nor changes the carried states.
    """
    return concat([gru_sequence(columns, p_fwd, keep),
                   gru_sequence(columns, p_bwd, keep, reverse=True)], axis=0)


def _columns(x: np.ndarray) -> np.ndarray:
    """[B x rows x K] per-sample blocks -> [rows x B*K], column b*K + k."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _blocks(x: np.ndarray, batch: int) -> np.ndarray:
    """[rows x B*K] -> [B x rows x K], the inverse of :func:`_columns`."""
    return x.reshape(x.shape[0], batch, -1).transpose(1, 0, 2)


def word_attention(states: Tensor, mask, p: WordAttentionParams):
    """Pool the word states of B sequences into one vector per sequence.

    ``states`` [2h x T*B] holds word t of sequence b in column t*B + b, the
    layout :func:`bigru` returns. Scores come from a tanh projection of each
    state against a learned context vector; a softmax over each row of the
    boolean ``mask`` [B x T] turns them into weights, and a row with no real
    word raises :class:`DegenerateMaskError`. Returns (pooled [2h x B],
    weights [B x T]); pooled is one tape node with a hand-written backward
    pass, and the weights are a plain array.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"word_attention mask must be [B x T], got shape {mask.shape}")
    batch, n = mask.shape
    rows = p.proj.shape[1]
    if states.shape != (rows, n * batch):
        raise ShapeError(f"word_attention states of shape {states.shape}, expected "
                         f"({rows}, {n * batch}) for a [{batch} x {n}] mask")
    s = states.data
    key = np.tanh(p.proj.data @ s + p.bias.data)                              # [h x T*B]
    weights = masked_softmax((p.context.data @ key).reshape(n, batch).T, mask)  # [B x T]
    s3 = s.reshape(rows, n, batch)
    pooled = (s3 * weights.T).sum(axis=1)                                     # [2h x B]

    def backward(g):
        d_scores = softmax_backward(weights, (s3 * g[:, None, :]).sum(axis=0).T)
        d_scores = d_scores.T.reshape(1, n * batch)
        d_pre = (p.context.data.T @ d_scores) * (1.0 - key * key)             # [h x T*B]
        if states.requires_grad:
            states.grad += (g[:, None, :] * weights.T).reshape(rows, -1) + p.proj.data.T @ d_pre
        if p.proj.requires_grad:
            p.proj.grad += d_pre @ s.T
        if p.bias.requires_grad:
            p.bias.grad += d_pre.sum(axis=1, keepdims=True)
        if p.context.requires_grad:
            p.context.grad += d_scores @ key.T

    out = fused("word_attention", pooled, (states, p.proj, p.bias, p.context), backward)
    return out, weights


def co_attention(s: Tensor, d: Tensor, mask_s, mask_d, p: CoAttentionParams) -> CoAttentionOutput:
    """Fuse a primary sequence S [2h x N] with a secondary sequence D [2h x E]
    in each of B samples.

    ``s`` [2h x B*N] holds the primary sequence of sample b in columns
    b*N .. b*N + N-1, and ``d`` [2h x B*E] the secondary one likewise; the
    boolean masks [B x N] and [B x E] mark the real columns, and a mask row
    with none raises :class:`DegenerateMaskError`. Per sample, the affinity
    matrix F = tanh(D^T Wr S) couples every secondary column to every
    primary column; the interaction maps mix each side with the
    affinity-weighted other side; masked softmax rows give one attention
    distribution per side, and the pooled vectors are the attention-weighted
    column averages. The whole batch is one tape node: batched 3-D products
    forward and a hand-written backward pass.
    """
    ms, md = np.asarray(mask_s, dtype=bool), np.asarray(mask_d, dtype=bool)
    if ms.ndim != 2 or md.ndim != 2 or ms.shape[0] != md.shape[0]:
        raise ShapeError(f"co_attention masks must be [B x N] and [B x E], got "
                         f"{ms.shape} and {md.shape}")
    batch, n, e = ms.shape[0], ms.shape[1], md.shape[1]
    k = p.w_affinity.shape[0]
    if s.shape != (k, batch * n) or d.shape != (k, batch * e):
        raise ShapeError(f"co_attention S {s.shape} and D {d.shape} do not match params "
                         f"sized {k} and masks {ms.shape}, {md.shape}")
    wa, wp, wd = p.w_affinity.data, p.w_primary.data, p.w_secondary.data
    s3, d3 = _blocks(s.data, batch), _blocks(d.data, batch)      # [B x 2h x N], [B x 2h x E]
    affinity = np.tanh((d3.transpose(0, 2, 1) @ wa) @ s3)        # [B x E x N]
    proj_s, proj_d = _blocks(wp @ s.data, batch), _blocks(wd @ d.data, batch)
    inter_s = np.tanh(proj_s + proj_d @ affinity)                        # [B x 2h x N]
    inter_d = np.tanh(proj_d + proj_s @ affinity.transpose(0, 2, 1))     # [B x 2h x E]
    attn_s = masked_softmax((p.score_primary.data @ inter_s)[:, 0], ms)    # [B x N]
    attn_d = masked_softmax((p.score_secondary.data @ inter_d)[:, 0], md)  # [B x E]
    pooled = np.concatenate([(s3 @ attn_s[:, :, None])[:, :, 0].T,
                             (d3 @ attn_d[:, :, None])[:, :, 0].T])       # [4h x B]

    def backward(g):
        g_s, g_d = g[:k].T, g[k:].T                                     # [B x 2h]
        d_sc_s = softmax_backward(attn_s, (g_s[:, None, :] @ s3)[:, 0])   # [B x N]
        d_sc_d = softmax_backward(attn_d, (g_d[:, None, :] @ d3)[:, 0])   # [B x E]
        d_pre_s = p.score_primary.data.T * d_sc_s[:, None, :] * (1.0 - inter_s * inter_s)
        d_pre_d = p.score_secondary.data.T * d_sc_d[:, None, :] * (1.0 - inter_d * inter_d)
        d_proj_s = _columns(d_pre_s + d_pre_d @ affinity)                  # [2h x B*N]
        d_proj_d = _columns(d_pre_d + d_pre_s @ affinity.transpose(0, 2, 1))  # [2h x B*E]
        d_aff = proj_d.transpose(0, 2, 1) @ d_pre_s + d_pre_d.transpose(0, 2, 1) @ proj_s
        d_m = d_aff * (1.0 - affinity * affinity)   # at the affinity pre-activation D^T Wr S
        d_m_s = _columns(d3 @ d_m)                                        # [2h x B*N]
        if s.requires_grad:
            s.grad += _columns(g_s[:, :, None] * attn_s[:, None, :]) + wp.T @ d_proj_s \
                + wa.T @ d_m_s
        if d.requires_grad:
            d.grad += _columns(g_d[:, :, None] * attn_d[:, None, :]) + wd.T @ d_proj_d \
                + _columns(_blocks(wa @ s.data, batch) @ d_m.transpose(0, 2, 1))
        if p.w_affinity.requires_grad:
            p.w_affinity.grad += d_m_s @ s.data.T
        if p.w_primary.requires_grad:
            p.w_primary.grad += d_proj_s @ s.data.T
        if p.w_secondary.requires_grad:
            p.w_secondary.grad += d_proj_d @ d.data.T
        if p.score_primary.requires_grad:
            p.score_primary.grad += d_sc_s.reshape(1, -1) @ _columns(inter_s).T
        if p.score_secondary.requires_grad:
            p.score_secondary.grad += d_sc_d.reshape(1, -1) @ _columns(inter_d).T

    out = fused("co_attention", pooled, (s, d, *p.named().values()), backward)
    return CoAttentionOutput(out, affinity, inter_s, inter_d, attn_s, attn_d)
