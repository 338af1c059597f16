"""Parameterized building blocks: a GRU recurrence, bidirectional sequence encoding,
additive word attention, and the co-attention block that fuses two sentence
sequences through an affinity matrix.

All layers are pure functions of (inputs, params). Parameters are plain
Tensors with ``requires_grad=True``, so a backward pass adds into every
parameter's grad. It checks ``requires_grad`` only on the two inputs that can
lack one, :func:`gru_sequence`'s columns (frozen word embeddings) and
:func:`co_attention`'s ``d`` (a source with no sentence in the batch); every
other input recorded on a tape must have one. Masks are numpy boolean arrays
(True marks a real, non-padding position).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import (
    DegenerateMaskError,
    ShapeError,
    Tensor,
    fused,
    masked_softmax,
    softmax_backward,
    split_rows,
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


@dataclass
class StepPlan:
    """The step schedule of a recurrence over T [in x B] columns: decided from
    its boolean mask by :func:`step_plan`, and only read by :func:`gru_sequence`.

    At step t the columns ``cols[t]`` advance: a slice where they are a
    prefix (no column advances after one that does not), an index array
    otherwise, and the very entry of the last step before t that advanced
    where they are its columns, so two consecutive advancing steps share one
    object exactly when their columns are equal. Their inputs are packed
    columns ``start[t]`` .. ``start[t + 1] - 1`` of ``x``, the [in x R] inputs
    of all R column-steps in position order, R = ``start[-1]``. The plan does
    not depend on the direction, so both directions of a :func:`bigru` share one.
    """

    cols: list
    start: list
    x: np.ndarray


def _packed(blocks: list, cols: list) -> np.ndarray:
    """The columns ``cols[t]`` of each [rows x B] array ``blocks[t]`` side by
    side, in position order. The result is F-ordered where every block is
    F- and not C-contiguous, and C-ordered otherwise, so its layout follows
    that of the blocks and not the mask: gemm can round a product with the
    two layouts of one operand differently."""
    packed = np.concatenate([block[:, c] for block, c in zip(blocks, cols)], axis=1)
    if all(block.flags.fnc for block in blocks):
        return np.asfortranarray(packed)
    return np.ascontiguousarray(packed)


def step_plan(columns: list, mask: np.ndarray) -> StepPlan:
    """The :class:`StepPlan` of a recurrence over ``columns`` whose column b
    advances at step t where the boolean ``mask`` [B x T] is True. Columns of
    different shapes cannot be packed and raise :class:`ShapeError`. A step's
    columns are compared with the last advancing step's once, here: by width
    for two prefixes, element by element only for two index arrays."""
    if any(col.data.shape != columns[0].data.shape for col in columns):
        raise ShapeError("bigru columns must all have one [in x B] shape")
    moves = mask.T                                                        # [T x B]
    widths = moves.sum(axis=1).tolist()
    gaps = (moves[:, 1:] > moves[:, :-1]).any(axis=1).tolist()
    cols, last = [], None   # last: the entry of the last step that advanced
    for row, w, gap in zip(moves, widths, gaps):
        c = np.flatnonzero(row) if gap else slice(0, w)
        if w and type(c) is type(last) and (np.array_equal(c, last) if gap else last.stop == w):
            c = last
        cols.append(c)
        last = c if w else last
    return StepPlan(cols, [0, *accumulate(widths)], _packed([col.data for col in columns], cols))


def gru_sequence(columns: list, p: GruParams, keep: list, reverse: bool = False, *,
                 out: np.ndarray, plan: StepPlan) -> Tensor:
    """Run a GRU over a list of T [in x B] columns from a zero initial state.

    Returns the states after every position as one [h x T*B] tensor, in
    position order: column t*B + b is the state of sequence b after step t.
    ``plan`` is the :class:`StepPlan` that :func:`step_plan` builds from these
    same ``columns`` and a [B x T] mask, and it alone sets the schedule: at
    step t the columns ``plan.cols[t]`` advance to the cell
    ``h + z * (cand - h)`` and every other column carries its state unchanged
    (padding positions do not advance the recurrence). ``keep``, T [1 x B]
    rows of 0s and 1s that are 1 exactly there, only restates the plan for
    tools that count column-steps; :func:`bigru` builds both from its mask.

    The whole recurrence is one tape node, packed like cuDNN's
    variable-length sequences but by column set rather than prefix: step t
    packs, computes and writes back, forward and in BPTT, exactly the
    columns that advance at it. The gate
    inputs of every column-step come from one stacked [3h x in] product
    with the three biases folded in, and each step does one stacked
    [2h x h] reset/update product. The reset and update rows of these
    weights and biases are negated once per call, so a step's sigmoid is
    ``1 / (1 + exp(e))`` of the negated pre-activation ``e`` without
    negating it again. The step products go through ``ndarray.dot`` and that
    division through ``np.reciprocal``, numpy's cheapest calls for the same
    bits: ``dot`` hands 2-D float64 operands to the same BLAS gemm (gemv for
    one column) as ``@``, and IEEE division is correctly rounded, so
    ``reciprocal(x)`` is ``1.0 / x``, ``1 / inf = 0`` included. Each step
    keeps its gates and candidate arrays as it makes them; backward packs
    them once into [rows x R] blocks, R the number of column-steps, so the
    weight and input gradients are one matmul each over those column-steps
    only.

    Each step reads the state of its advancing columns as a contiguous
    array: where its ``cols`` entry is the one of the last step that advanced,
    in run order, that step's new cell, which nothing has changed since;
    otherwise a copy of them out of the carried state.

    ``out`` is a C-contiguous [h x T*B] array that the states are written
    into and that becomes the output's data (:func:`bigru` passes each
    direction one half of its buffer).

    The node saves only the gates, the candidates and its own output, not
    the plan's packed input. Backpropagation rebuilds the packed input, the
    stacked weights and the state before each column-step from the parents
    and the output, and computes the step-independent factors of the gate
    gradients once over all column-steps, so each BPTT step is a few
    products.
    """
    if not columns:
        raise ShapeError("gru_sequence over an empty sequence")
    n, batch, h = len(columns), columns[0].shape[1], p.hidden_size
    expected = (p.input_size, batch)
    for col in columns:
        if col.data.shape != expected:
            raise ShapeError(f"gru_sequence column of shape {col.shape}, expected "
                             f"{p.input_size} rows (params) and {batch} columns (batch)")
    if len(keep) != n or any(k.data.shape != (1, batch) for k in keep):
        raise ShapeError(f"gru_sequence keep needs {n} rows of shape (1, {batch})")
    if out.shape != (h, n * batch) or not out.flags.c_contiguous:
        raise ShapeError(f"gru_sequence out must be a C-contiguous ({h}, {n * batch}) array, "
                         f"got shape {out.shape}")
    if len(plan.cols) != n or plan.x.shape != (p.input_size, plan.start[-1]):
        raise ShapeError(f"gru_sequence plan must cover {n} steps of {p.input_size}-row "
                         f"columns, got {len(plan.cols)} steps and a packed input of "
                         f"shape {plan.x.shape}")
    # backward keeps these lists but not the plan, so not its packed input
    cols, start = plan.cols, plan.start
    weights = tuple(p.named().values())   # reset, update, cand: w, u, b each

    # backward rebuilds these from the parents instead of keeping them
    def stacked(*tensors):
        return np.concatenate([t.data for t in tensors])

    # the reset and update rows negated, once, in the fresh stacked copies:
    # exp of the negated pre-activation then needs no per-step negation, and
    # as negation is exact and rounding sign-symmetric it is the same number
    w_x = stacked(p.w_reset, p.w_update, p.w_cand)                        # [3h x in]
    b_x = stacked(p.b_reset, p.b_update, p.b_cand)                        # [3h x 1]
    neg_u_rz = stacked(p.u_reset, p.u_update)                             # [2h x h]
    w_x[:2 * h] *= -1.0
    b_x[:2 * h] *= -1.0
    neg_u_rz *= -1.0
    x_gates = w_x @ plan.x                                                # [3h x R]
    x_gates += b_x
    del w_x, b_x   # not held through the steps
    x_rz, x_c, u_c = x_gates[:2 * h], x_gates[2 * h:], p.u_cand.data
    order = range(n - 1, -1, -1) if reverse else range(n)
    # kept per step that advances a column, in run order: both gates and the
    # candidate; and per step the state of every column after it, the output
    rz_steps, cand_steps = [], []
    states = out.reshape(h, n, batch)   # a view, as out is C-contiguous
    state = np.zeros((h, batch))
    last = None   # the columns of the last step that advanced, in run order
    for t in order:
        if start[t] < start[t + 1]:
            packed = slice(start[t], start[t + 1])
            s = cell if cols[t] is last else np.ascontiguousarray(state[:, cols[t]])
            rz = neg_u_rz.dot(s)
            rz += x_rz[:, packed]
            np.exp(rz, rz)
            rz += 1.0
            np.reciprocal(rz, rz)
            c = u_c.dot(rz[:h] * s)
            c += x_c[:, packed]
            np.tanh(c, c)
            rz_steps.append(rz)
            cand_steps.append(c)
            cell = c - s
            cell *= rz[h:]
            cell += s
            state[:, cols[t]] = cell
            last = cols[t]
        states[:, t] = state

    def pack(steps, rows):
        # the kept steps as one [rows x R] block in position order; the list
        # is emptied, so each step is held once
        if reverse:
            steps.reverse()
        block = np.concatenate(steps, axis=1) if steps else np.empty((rows, 0))
        steps.clear()
        return block

    def backward(grad):
        gates, cand = pack(rz_steps, 2 * h), pack(cand_steps, h)
        # the carried state before each column-step, packed like gates
        zero, back = np.zeros((h, batch)), 1 if reverse else -1
        prev = _packed([zero if t == order[0] else states[:, t + back]
                        for t in range(n)], cols)                          # [h x R]
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
            if start[t] == start[t + 1]:
                continue
            packed = slice(start[t], start[t + 1])
            d_state = carry[:, cols[t]]
            d_cand = np.multiply(d_state, f_cand[:, packed], d_pre[2 * h:, packed])
            d_rs = u_c_t.dot(d_cand)
            np.multiply(d_rs, f_reset[:, packed], d_pre[:h, packed])
            np.multiply(d_state, f_update[:, packed], d_pre[h:2 * h, packed])
            carry[:, cols[t]] = d_state - d_state * z[:, packed] + d_rs * r[:, packed] \
                + u_rz_t.dot(d_pre[:2 * h, packed])
        del f_cand, f_reset, f_update   # before the products below allocate theirs
        d_w = d_pre @ _packed([col.data for col in columns], cols).T      # [3h x in]
        d_u = np.concatenate([d_pre[:2 * h] @ prev.T,
                              d_pre[2 * h:] @ (r * prev).T])               # [3h x h]
        d_b = d_pre.sum(axis=1, keepdims=True)                             # [3h x 1]
        for i, tensor in enumerate(weights):
            gate = slice(i // 3 * h, (i // 3 + 1) * h)
            tensor.grad += (d_w, d_u, d_b)[i % 3][gate]
        if any(col.requires_grad for col in columns):
            d_x = stacked(p.w_reset, p.w_update, p.w_cand).T @ d_pre
            for t, col in enumerate(columns):
                if col.requires_grad:
                    col.grad[:, cols[t]] += d_x[:, start[t]:start[t + 1]]

    return fused("gru_sequence", out, (*columns, *weights), backward)


def bigru(columns: list, p_fwd: GruParams, p_bwd: GruParams, mask) -> Tensor:
    """Bidirectional GRU over a list of T [in x B] columns -> states [2h x T*B].

    Column t*B + b stacks the forward state of sequence b after steps 1..t on
    its backward state after steps T..t; both directions start from zero.
    The boolean ``mask`` [B x T] sets which columns advance at each step of
    both recurrences, so a False position neither advances them nor changes
    the carried states, and each step packs only the columns that advance: a
    False position costs no cell, also between two True ones.

    :func:`step_plan` decides that schedule from the mask, once for both
    directions, as it does not depend on the direction; neither node keeps
    it. Both also get the mask as T [1 x B] keep rows of 0s and 1s, views of
    one float copy of ``mask.T``, which only restate the plan for tools that
    count column-steps. Each direction writes its states straight into its
    half of one [2h x T*B] buffer, so the stacked output is no second copy of
    them; the one node on top only splits the gradient between the halves.
    """
    if not columns:
        raise ShapeError("bigru over an empty sequence")
    h, n, batch = p_fwd.hidden_size, len(columns), columns[0].shape[1]
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (batch, n):
        raise ShapeError(f"bigru mask must be [B x T] = [{batch} x {n}], got shape {mask.shape}")
    plan = step_plan(columns, mask)
    keep = split_rows(mask.T.astype(np.float64, order="C"))              # T of [1 x B]
    states = np.empty((2 * h, n * batch))
    fwd = gru_sequence(columns, p_fwd, keep, out=states[:h], plan=plan)
    bwd = gru_sequence(columns, p_bwd, keep, reverse=True, out=states[h:], plan=plan)

    def backward(g):
        fwd.grad += g[:h]
        bwd.grad += g[h:]

    return fused("bigru", states, (fwd, bwd), backward)


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

    def tanh_key():
        key = p.proj.data @ s
        key += p.bias.data
        return np.tanh(key, out=key)                                          # [h x T*B]

    weights = masked_softmax((p.context.data @ tanh_key()).reshape(n, batch).T, mask)  # [B x T]
    s3 = s.reshape(rows, n, batch)
    pooled = np.einsum("rtb,bt->rb", s3, weights)                             # [2h x B]

    def backward(g):
        # the key is recomputed here rather than held from forward to backward
        key = tanh_key()
        d_scores = softmax_backward(weights, np.einsum("rtb,rb->bt", s3, g))
        d_scores = d_scores.T.reshape(1, n * batch)
        d_pre = (p.context.data.T @ d_scores) * (1.0 - key * key)             # [h x T*B]
        states.grad += (g[:, None, :] * weights.T).reshape(rows, -1) + p.proj.data.T @ d_pre
        p.proj.grad += d_pre @ s.T
        p.bias.grad += d_pre.sum(axis=1, keepdims=True)
        p.context.grad += d_scores @ key.T

    out = fused("word_attention", pooled, (states, p.proj, p.bias, p.context), backward)
    return out, weights


def co_attention(s: Tensor, d: Tensor, mask_s, mask_d, p: CoAttentionParams) -> CoAttentionOutput:
    """Fuse a primary sequence S [2h x N] with a secondary sequence D [2h x E]
    in each of B samples.

    ``s`` [2h x B*N] holds the primary sequence of sample b in columns
    b*N .. b*N + N-1, and ``d`` [2h x B*E] the secondary one likewise; the
    boolean masks [B x N] and [B x E] mark the real columns. A mask row with
    none, on either side, attends over all of that sample's columns on that
    side: where they are zero, as the encoder pads a side with no sentence,
    its weights are uniform and it pools to zero. Per sample, the affinity
    matrix F = tanh(D^T Wr S) couples every secondary column to every primary
    column; the interaction maps mix each side with the affinity-weighted
    other side; masked softmax rows give one attention distribution per side,
    and the pooled vectors are the attention-weighted column averages. The
    whole batch is one tape node: batched 3-D products forward and a
    hand-written backward pass.
    """
    ms, md = np.asarray(mask_s, dtype=bool), np.asarray(mask_d, dtype=bool)
    if ms.ndim != 2 or md.ndim != 2 or ms.shape[0] != md.shape[0]:
        raise ShapeError(f"co_attention masks must be [B x N] and [B x E], got "
                         f"{ms.shape} and {md.shape}")
    ms, md = (m | ~m.any(axis=1, keepdims=True) for m in (ms, md))
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
        s.grad += _columns(g_s[:, :, None] * attn_s[:, None, :]) + wp.T @ d_proj_s \
            + wa.T @ d_m_s
        if d.requires_grad:
            d.grad += _columns(g_d[:, :, None] * attn_d[:, None, :]) + wd.T @ d_proj_d \
                + _columns(_blocks(wa @ s.data, batch) @ d_m.transpose(0, 2, 1))
        p.w_affinity.grad += d_m_s @ s.data.T
        p.w_primary.grad += d_proj_s @ s.data.T
        p.w_secondary.grad += d_proj_d @ d.data.T
        p.score_primary.grad += d_sc_s.reshape(1, -1) @ _columns(inter_s).T
        p.score_secondary.grad += d_sc_d.reshape(1, -1) @ _columns(inter_d).T

    out = fused("co_attention", pooled, (s, d, *p.named().values()), backward)
    return CoAttentionOutput(out, affinity, inter_s, inter_d, attn_s, attn_d)
