import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcan import autodiff as ad
from dualcan import layers, model

from oracles import (
    bigru_loops,
    co_attention_loops,
    coattn_params_arrays,
    gru_cell_loops,
    gru_params_arrays,
    word_attention_loops,
)
from tape_ops import (add, concat, grad_check, gru_out, matmul, mul, sigmoid, slice_cols,
                      slice_rows, softmax_rows, sub, sum_all, tanh, transpose, unpadded,
                      zero_grad)


def make_gru(input_size, hidden, seed=7):
    return layers.GruParams.create(input_size, hidden, np.random.default_rng(seed))


def zero_gru(input_size, hidden):
    p = make_gru(input_size, hidden)
    for t in p.named().values():
        t.data[:] = 0.0
    return p


# ---------------------------------------------------------------------------
# gru_sequence: one GRU cell per step
# ---------------------------------------------------------------------------


def gru_cell(x, h_prev, p):
    """Tape-composed reference for one step: h = (1 - z) * h_prev + z * h_cand."""
    r = sigmoid(add(add(matmul(p.w_reset, x), matmul(p.u_reset, h_prev)), p.b_reset))
    z = sigmoid(add(add(matmul(p.w_update, x), matmul(p.u_update, h_prev)), p.b_update))
    cand = tanh(add(add(matmul(p.w_cand, x), matmul(p.u_cand, mul(r, h_prev))), p.b_cand))
    return add(h_prev, mul(z, sub(cand, h_prev)))


def masked_step(x, h, p, keep_t):
    """Reference step where keep_t = 0 columns carry the previous state."""
    return add(h, mul(keep_t, sub(gru_cell(x, h, p), h)))


def gru_sequence_reference(columns, p, keep, reverse=False):
    h = ad.Tensor(np.zeros((p.hidden_size, columns[0].shape[1])))
    states = [None] * len(columns)
    order = range(len(columns) - 1, -1, -1) if reverse else range(len(columns))
    for t in order:
        h = states[t] = masked_step(columns[t], h, p, keep[t])
    return concat(states, axis=1)


def fused_gru(columns, p, keep, reverse=False):
    """``layers.gru_sequence`` into a fresh output buffer, with the step plan
    of ``columns`` and the [B x T] mask of the 1s in ``keep``."""
    mask = np.concatenate([k.data for k in keep]).T == 1.0
    return layers.gru_sequence(columns, p, keep, reverse, out=gru_out(columns, p),
                               plan=layers.step_plan(columns, mask))


def columns_of(seq):
    """Split [in x T] into T [in x 1] column tensors."""
    return [ad.Tensor(seq[:, t:t + 1]) for t in range(seq.shape[1])]


def keep_rows(mask):
    """[B x T] boolean mask -> T keep rows [1 x B]."""
    return [ad.Tensor(mask[:, t].astype(float).reshape(1, -1)) for t in range(mask.shape[1])]


def per_sequence(out, steps, batch):
    """[rows x T*B] states -> [B x rows x T]: entry j is sequence j, step by step."""
    return out.data.reshape(-1, steps, batch).transpose(2, 0, 1)


def test_gru_cell_zero_params_zero_state_gives_zero():
    p = zero_gru(2, 3)
    columns = [ad.Tensor(np.ones((2, 1)))]
    out = layers.gru_sequence(columns, p, **unpadded(columns, p))
    npt.assert_array_equal(out.data, np.zeros((3, 1)))


def test_gru_cell_output_is_convex_combination(rng):
    # h stays inside (-1, 1) whenever h_prev does: each new state is a convex
    # mix of the previous one and a tanh value
    p = make_gru(2, 4)
    columns = columns_of(rng.uniform(-2, 2, (2, 6)))
    out = layers.gru_sequence(columns, p, **unpadded(columns, p))
    assert out.shape == (4, 6)
    assert (np.abs(out.data) < 1.0).all()


def test_gru_cell_matches_formula_oracle():
    # the second step starts from the state the first one reached
    p = make_gru(2, 1, seed=13)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    columns = columns_of(x)
    out = layers.gru_sequence(columns, p, **unpadded(columns, p))
    first = gru_cell_loops(x[:, 0], np.zeros(1), *gru_params_arrays(p))
    second = gru_cell_loops(x[:, 1], first, *gru_params_arrays(p))
    npt.assert_allclose(out.data[:, 0], first, atol=1e-12)
    npt.assert_allclose(out.data[:, 1], second, atol=1e-12)


def test_gru_cell_random_matches_oracle(rng):
    p = make_gru(3, 5, seed=21)
    x = rng.uniform(-2, 2, (3, 4))
    columns = columns_of(x)
    out = layers.gru_sequence(columns, p, **unpadded(columns, p))
    h = np.zeros(5)
    for t in range(4):
        h = gru_cell_loops(x[:, t], h, *gru_params_arrays(p))
        npt.assert_allclose(out.data[:, t], h, atol=1e-12)


def test_gru_cell_column_batch_equals_per_column(rng):
    p = make_gru(3, 4, seed=2)
    x = rng.uniform(-1, 1, (3, 5, 3))                  # [in x B x T]
    columns = [ad.Tensor(x[:, :, t]) for t in range(3)]
    batched = per_sequence(layers.gru_sequence(columns, p, **unpadded(columns, p)), 3, 5)
    for j in range(5):
        columns = columns_of(x[:, j, :])
        single = layers.gru_sequence(columns, p, **unpadded(columns, p))
        npt.assert_allclose(batched[j], single.data, atol=1e-12)


def test_gru_cell_shape_errors():
    p = make_gru(2, 3)
    with pytest.raises(ad.ShapeError):        # input rows do not match the params
        columns = [ad.Tensor(np.zeros((5, 1)))]
        layers.gru_sequence(columns, p, **unpadded(columns, p))
    with pytest.raises(ad.ShapeError):        # columns of different batch sizes
        columns = [ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3)))]
        layers.gru_sequence(columns, p, **unpadded(columns, p))
    two = [ad.Tensor(np.zeros((2, 2)))] * 2
    for keep in ([ad.Tensor(np.ones((1, 3)))] * 2,     # keep row of another batch size
                 [ad.Tensor(np.ones((2, 2)))] * 2,     # keep of two rows
                 [ad.Tensor(np.ones((1, 2)))]):        # one keep row for two steps
        with pytest.raises(ad.ShapeError):
            fused_gru(two, p, keep)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("batch,steps", [(1, 5), (4, 1), (1, 1), (3, 6)])
def test_gru_sequence_matches_loop_oracle(rng, batch, steps, reverse):
    p = make_gru(3, 4, seed=61)
    seqs = rng.uniform(-1, 1, (batch, 3, steps))       # [B x in x T]
    mask = rng.uniform(size=(batch, steps)) < 0.6
    mask[:, steps // 2] = True
    out = fused_gru([ad.Tensor(seqs[:, :, t].T) for t in range(steps)], p, keep_rows(mask),
                    reverse=reverse)
    rows = slice(4, 8) if reverse else slice(0, 4)     # bigru_loops stacks fwd on bwd
    got = per_sequence(out, steps, batch)
    for j in range(batch):
        npt.assert_allclose(got[j], bigru_loops(seqs[j], p, p, list(mask[j]))[rows], atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_keep_zero_carries_state_bit_identical(rng, reverse):
    p = make_gru(2, 3, seed=62)
    mask = np.array([[False, True, False, False, True, False],
                     [True, False, True, True, False, False]])
    columns = [ad.Tensor(rng.uniform(-1, 1, (2, 2))) for _ in range(6)]
    out = fused_gru(columns, p, keep_rows(mask), reverse=reverse)
    states = out.data.reshape(3, 6, 2)                  # [h x T x B]
    order = list(range(5, -1, -1)) if reverse else list(range(6))
    before = np.zeros((3, 2))
    for t in order:
        for j in range(2):
            if not mask[j, t]:
                npt.assert_array_equal(states[:, t, j], before[:, j])
        before = states[:, t]
    assert (before != 0.0).all()


def test_gru_sequence_records_one_node(rng):
    p = make_gru(2, 3, seed=63)
    g = ad.Graph()
    with g:
        columns = columns_of(rng.uniform(-1, 1, (2, 5)))
        out = layers.gru_sequence(columns, p, **unpadded(columns, p))
    assert [node.op for node in g._nodes] == ["gru_sequence"]
    assert out.shape == (3, 5)


def test_gru_sequence_node_holds_only_gates_candidates_and_states(rng):
    h, d, batch, steps = 32, 24, 12, 20
    p = make_gru(d, h, seed=67)
    lengths = np.sort(rng.integers(1, steps + 1, batch))[::-1]
    mask = np.arange(steps) < lengths[:, None]                # [B x T], length-sorted
    columns = [ad.Tensor(rng.uniform(-1, 1, (d, batch)), requires_grad=True)
               for _ in range(steps)]
    keep = keep_rows(mask)
    g = ad.Graph()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with g:
            out = fused_gru(columns, p, keep)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    live = int(mask.sum())   # each step computes exactly its real columns
    # the output states [h x T*B], gates [2h x R] and candidates [h x R]; the
    # packed input, previous states and stacked weights would add over 80 KB
    stored = out.data.nbytes + 3 * h * live * 8
    assert stored <= held <= stored + 16_384, (held, stored)


def _weighted_sum(out, weights):
    return sum_all(mul(out, ad.Tensor(weights)))


def _tape_gradients(runs, tensors, loss_of):
    """Gradients of ``loss_of(run)`` at ``tensors`` for each run, in order."""
    grads = []
    for run in runs:
        for t in tensors:
            zero_grad(t)
        g = ad.Graph()
        with g:
            loss = loss_of(run)
        g.backward(loss)
        grads.append([t.grad.copy() for t in tensors])
    return grads


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_gradients_match_tape_reference(rng, reverse):
    p = make_gru(3, 4, seed=64)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(5)]
    mask = np.array([[True, True, False, True, False],
                     [False, True, True, True, True],
                     [True, False, False, False, False]])
    keep = keep_rows(mask)
    weights = np.hstack([rng.uniform(-1, 1, (4, 3)) for _ in range(5)])
    tensors = list(p.named().values()) + columns
    grads = _tape_gradients(
        (fused_gru, gru_sequence_reference), tensors,
        lambda run: _weighted_sum(run(columns, p, keep, reverse=reverse), weights))
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)
    # an input at a step its column does not keep gets exactly zero gradient
    npt.assert_array_equal(grads[0][len(p.named()) + 4][:, 2], 0.0)


# keep [B x T] per case; a step computes exactly the columns whose keep is 1
PACKED_KEEPS = {
    # sorted, with a middle step where no column moves
    "idle-middle-step": [[1, 1, 0, 1, 1],
                         [1, 1, 0, 1, 0],
                         [1, 0, 0, 0, 0]],
    # unsorted: column 1 stops after step 1 and moves again at step 2, and
    # column 0 stops while columns 1 and 2 move at steps 3 and 4
    "stop-and-restart": [[1, 1, 1, 0, 0],
                         [1, 0, 1, 1, 0],
                         [1, 1, 0, 1, 1]],
    # no column moves at any step: no column-step at all
    "all-idle": [[0, 0, 0, 0, 0]] * 3,
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", PACKED_KEEPS)
def test_gru_sequence_packed_prefixes_match_tape_reference(rng, case, reverse):
    p = make_gru(3, 4, seed=66)
    keep_array = np.array(PACKED_KEEPS[case], dtype=float)
    keep = [ad.Tensor(keep_array[:, t].reshape(1, -1)) for t in range(5)]
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(5)]
    weights = np.hstack([rng.uniform(-1, 1, (4, 3)) for _ in range(5)])
    npt.assert_allclose(fused_gru(columns, p, keep, reverse=reverse).data,
                        gru_sequence_reference(columns, p, keep, reverse=reverse).data,
                        rtol=0, atol=1e-12)
    tensors = list(p.named().values()) + columns
    grads = _tape_gradients(
        (fused_gru, gru_sequence_reference), tensors,
        lambda run: _weighted_sum(run(columns, p, keep, reverse=reverse), weights))
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)


def gru_sequence_steps(columns, p, keep, reverse):
    """A plain step loop in the operation order of the straightforward
    recurrence: one stacked input product over the columns each step
    advances plus the biases, then per step, on exactly those columns, the
    sigmoid as 1 / (1 + exp(-a)), tanh and ``s + z * (c - s)``.

    The operands are laid out as the layer's: the state a step reads is
    C-ordered, and the packed input is F-ordered where every column is F- and
    not C-contiguous and C-ordered otherwise. ``a[:, m]`` alone is F-ordered
    whatever the mask, and at h = 100 and up OpenBLAS's gemm can round a
    product with an F-ordered operand differently."""
    n, batch, h = len(columns), columns[0].shape[1], p.hidden_size
    moves = [np.flatnonzero(kt.data[0]) for kt in keep]
    starts = np.cumsum([0] + [m.size for m in moves])
    packed = np.concatenate([col.data[:, m] for col, m in zip(columns, moves)], axis=1)
    fortran = all(np.isfortran(col.data) for col in columns)
    packed = np.asfortranarray(packed) if fortran else np.ascontiguousarray(packed)
    x = np.concatenate([p.w_reset.data, p.w_update.data, p.w_cand.data]) @ packed \
        + np.concatenate([p.b_reset.data, p.b_update.data, p.b_cand.data])
    u_rz = np.concatenate([p.u_reset.data, p.u_update.data])
    state, states = np.zeros((h, batch)), np.empty((h, n, batch))
    for t in (reversed(range(n)) if reverse else range(n)):
        m = moves[t]
        if m.size:
            s, x_t = np.ascontiguousarray(state[:, m]), x[:, starts[t]:starts[t + 1]]
            rz = 1.0 / (1.0 + np.exp(-(u_rz @ s + x_t[:2 * h])))
            c = np.tanh(p.u_cand.data @ (rz[:h] * s) + x_t[2 * h:])
            state[:, m] = s + rz[h:] * (c - s)
        states[:, t] = state
    return states.reshape(h, n * batch)


BIT_KEEPS = {
    **PACKED_KEEPS,
    "one-column": [[1, 1, 0, 1, 0]],
    # length-sorted, as the word encoder passes them: full-width first steps
    "eight-columns": (np.arange(5) < np.array([5, 5, 4, 3, 3, 2, 1, 1])[:, None]).tolist(),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", BIT_KEEPS)
def test_gru_sequence_equals_a_plain_step_loop_bit_for_bit(rng, case, reverse):
    keep_array = np.array(BIT_KEEPS[case], dtype=float)           # [B x T]
    batch, steps = keep_array.shape
    p = make_gru(5, 6, seed=68)
    columns = [ad.Tensor(rng.uniform(-2, 2, (5, batch))) for _ in range(steps)]
    keep = [ad.Tensor(keep_array[:, t].reshape(1, -1)) for t in range(steps)]
    npt.assert_array_equal(fused_gru(columns, p, keep, reverse=reverse).data,
                           gru_sequence_steps(columns, p, keep, reverse))
    ones = unpadded(columns, p)
    npt.assert_array_equal(layers.gru_sequence(columns, p, reverse=reverse, **ones).data,
                           gru_sequence_steps(columns, p, ones["keep"], reverse))


# [B x T] keeps at the paper's widths, where the step products take other
# gemm and gemv kernel paths than at h = 5
WIDE_KEEPS = {
    "length-sorted": (np.arange(4) < np.array([4, 4, 3, 2, 1])[:, None]).tolist(),
    "holed": [[1, 1, 1, 1],
              [1, 0, 0, 1],
              [0, 1, 1, 1]],
    "one-column": [[1, 1, 0, 1]],
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", WIDE_KEEPS)
@pytest.mark.parametrize("width", [100, 300])   # gossipcop and coaid: h = d
def test_gru_sequence_equals_a_plain_step_loop_bit_for_bit_at_paper_widths(
        rng, width, case, reverse):
    keep = keep_rows(np.array(WIDE_KEEPS[case], dtype=bool))
    batch, steps = keep[0].shape[1], len(keep)
    p = make_gru(width, width, seed=69)
    columns = [ad.Tensor(rng.uniform(-2, 2, (width, batch))) for _ in range(steps)]
    npt.assert_array_equal(fused_gru(columns, p, keep, reverse=reverse).data,
                           gru_sequence_steps(columns, p, keep, reverse))


def word_encoder_columns(rng, width, steps, batch):
    """``steps`` [width x batch] columns cut as ``model._word_encode_blocks``
    cuts its looked-up block: F-ordered views of one step-major [d x T*B]
    transpose."""
    block = ad.Tensor(rng.uniform(-2, 2, (steps * batch, width)).T)
    return ad.split_cols(block, steps)


# [B x T] masks at h = d = 100 whose packed input takes each layout
LAYOUT_MASKS = {
    # no step advances a prefix: every step's columns are an index array
    "all-index-C-ordered": [[0, 0, 0, 0],
                            [1, 1, 1, 1],
                            [1, 0, 1, 1],
                            [0, 1, 1, 0]],
    # length-sorted sentences, as the word encoder packs them
    "word-encoder-F-ordered": (np.arange(4) < np.array([4, 4, 3, 2, 1])[:, None]).tolist(),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", LAYOUT_MASKS)
def test_gru_sequence_packs_in_the_columns_layout_bit_for_bit_at_h_100(rng, case, reverse):
    mask = np.array(LAYOUT_MASKS[case], dtype=bool)
    batch, steps = mask.shape
    p = make_gru(100, 100, seed=77)
    fortran = case == "word-encoder-F-ordered"
    if fortran:
        columns = word_encoder_columns(rng, 100, steps, batch)
    else:
        columns = [ad.Tensor(rng.uniform(-2, 2, (100, batch))) for _ in range(steps)]
    assert all(np.isfortran(col.data) == fortran for col in columns)
    x = layers.step_plan(columns, mask).x
    assert (x.flags.f_contiguous, x.flags.c_contiguous) == (fortran, not fortran)
    keep = keep_rows(mask)
    npt.assert_array_equal(fused_gru(columns, p, keep, reverse=reverse).data,
                           gru_sequence_steps(columns, p, keep, reverse))


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_equals_a_plain_step_loop_bit_for_bit_when_gates_saturate(rng, reverse):
    # pre-activations of thousands: exp overflows to inf and a gate reads
    # 1 / inf = 0, in the fused step as in the plain loop
    keep = keep_rows(np.array(BIT_KEEPS["stop-and-restart"], dtype=bool))
    p = make_gru(5, 6, seed=70)
    for t in p.named().values():
        t.data *= 1e3
    columns = [ad.Tensor(rng.uniform(-2, 2, (5, 3))) for _ in range(len(keep))]
    with np.errstate(over="ignore"):
        fused = fused_gru(columns, p, keep, reverse=reverse).data
        plain = gru_sequence_steps(columns, p, keep, reverse)
    assert np.isfinite(fused).all()
    npt.assert_array_equal(fused, plain)


# [B x T] keeps where the columns that advance change between steps that
# advance: a step reads the last such step's cell only where they are the same
COLUMN_CHANGES = {
    # columns 3, 2 and 1 stop in turn: equal prefixes, then narrower ones
    "narrowing-prefix": [[1, 1, 1, 1, 1],
                         [1, 1, 1, 1, 0],
                         [1, 1, 0, 0, 0],
                         [1, 0, 0, 0, 0]],
    # columns 1 and 2 start late: wider prefixes, then equal ones
    "widening-prefix": [[1, 1, 1, 1, 1],
                        [0, 1, 1, 1, 1],
                        [0, 0, 0, 1, 1]],
    # two idle steps between two full-width steps, then a hole
    "idle-between-equal-widths": [[1, 0, 0, 1, 1],
                                  [1, 0, 0, 1, 0],
                                  [1, 0, 0, 1, 1]],
    # column 1 sits out steps 1 and 2, the same index array twice, and reopens
    "hole-reopens": [[1, 1, 1, 1],
                     [1, 0, 0, 1],
                     [1, 1, 1, 1]],
    # one column advances at each step, but never the same one twice running
    "same-width-other-columns": [[1, 0, 1, 0],
                                 [0, 1, 0, 1]],
    "one-column-gaps": [[1, 0, 1, 1, 0, 1]],
    "one-column-every-step": [[1, 1, 1, 1]],
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", COLUMN_CHANGES)
def test_gru_sequence_reads_each_steps_state_bit_for_bit(rng, case, reverse):
    keep = keep_rows(np.array(COLUMN_CHANGES[case], dtype=bool))
    batch, steps = keep[0].shape[1], len(keep)
    p = make_gru(4, 5, seed=74)
    columns = [ad.Tensor(rng.uniform(-2, 2, (4, batch))) for _ in range(steps)]
    npt.assert_array_equal(fused_gru(columns, p, keep, reverse=reverse).data,
                           gru_sequence_steps(columns, p, keep, reverse))


def test_bigru_passes_float_keep_rows_of_its_mask(rng, monkeypatch):
    mask = np.array([[True, True, False, True], [True, False, False, False],
                     [False, True, True, True]])
    passed, real = [], layers.gru_sequence

    def recording(columns, p, keep, *args, **kwargs):
        passed.append(keep)
        return real(columns, p, keep, *args, **kwargs)

    monkeypatch.setattr(layers, "gru_sequence", recording)
    columns = [ad.Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(4)]
    layers.bigru(columns, make_gru(2, 3, seed=75), make_gru(2, 3, seed=76), mask)
    assert len(passed) == 2
    for keep in passed:
        # the rows perfbench's useful-step count sums, one [1 x B] row per step
        assert [(k.data.shape, k.data.dtype) for k in keep] == [((1, 3), np.float64)] * 4
        npt.assert_array_equal(np.concatenate([k.data for k in keep]), mask.T)
        # views of one [T x B] array
        assert all(k.data.base is keep[0].data.base is not None for k in keep)
        assert keep[0].data.base.shape == (4, 3)


def test_gru_sequence_without_a_graph_holds_only_its_output(rng):
    h, d, batch, steps = 32, 24, 12, 20
    p = make_gru(d, h, seed=69)
    lengths = np.sort(rng.integers(1, steps + 1, batch))[::-1]
    keep = keep_rows(np.arange(steps) < lengths[:, None])
    columns = [ad.Tensor(rng.uniform(-1, 1, (d, batch))) for _ in range(steps)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fused_gru(columns, p, keep)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # gates and candidates alone would be 3h * R * 8 bytes, over 100 KB
    assert out.data.nbytes <= held <= out.data.nbytes + 1024, (held, out.data.nbytes)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_grad_check_with_input_columns(rng, reverse):
    p = make_gru(3, 2, seed=65)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True) for _ in range(4)]
    keep = keep_rows(np.array([[True, False, True, True], [True, True, True, False]]))
    weights = np.hstack([rng.uniform(-1, 1, (2, 2)) for _ in range(4)])

    def f():
        return _weighted_sum(fused_gru(columns, p, keep, reverse=reverse), weights)

    params = dict(p.named())
    params.update((f"x{t}", c) for t, c in enumerate(columns))
    report = grad_check(f, params, h=1e-5)
    assert report.passed(1e-4), report.summary()


# ---------------------------------------------------------------------------
# bigru
# ---------------------------------------------------------------------------


def test_bigru_single_step_concatenates_both_cells(rng):
    pf, pb = make_gru(2, 3, seed=3), make_gru(2, 3, seed=4)
    x = rng.uniform(-1, 1, (2, 1))
    out = layers.bigru([ad.Tensor(x)], pf, pb, np.ones((1, 1), bool))
    f = gru_cell(ad.Tensor(x), ad.Tensor(np.zeros((3, 1))), pf)
    b = gru_cell(ad.Tensor(x), ad.Tensor(np.zeros((3, 1))), pb)
    assert out.shape == (6, 1)
    npt.assert_allclose(out.data, np.vstack([f.data, b.data]), atol=1e-15)


def test_bigru_zero_params_zero_output(rng):
    pf, pb = zero_gru(2, 3), zero_gru(2, 3)
    out = layers.bigru(columns_of(rng.uniform(-1, 1, (2, 4))), pf, pb, np.ones((1, 4), bool))
    npt.assert_array_equal(out.data, np.zeros((6, 4)))


def test_bigru_matches_loop_oracle(rng):
    # column t*B + j of the states is step t of sequence j
    pf, pb = make_gru(3, 2, seed=5), make_gru(3, 2, seed=6)
    seqs = rng.uniform(-1, 1, (4, 3, 3))              # [B x in x T]
    out = layers.bigru([ad.Tensor(seqs[:, :, t].T) for t in range(3)], pf, pb,
                       np.ones((4, 3), bool))
    got = per_sequence(out, 3, 4)
    for j in range(4):
        npt.assert_allclose(got[j], bigru_loops(seqs[j], pf, pb), atol=1e-12)


def test_bigru_masked_matches_loop_oracle(rng):
    pf, pb = make_gru(2, 2, seed=8), make_gru(2, 2, seed=9)
    seqs = rng.uniform(-1, 1, (3, 2, 5))              # [B x in x T]
    masks = np.array([[True, True, False, True, False],
                      [True, False, False, False, False],
                      [True, True, True, True, True]])
    out = layers.bigru([ad.Tensor(seqs[:, :, t].T) for t in range(5)], pf, pb, masks)
    got = per_sequence(out, 5, 3)
    for j in range(3):
        npt.assert_allclose(got[j], bigru_loops(seqs[j], pf, pb, list(masks[j])), atol=1e-12)


def test_bigru_empty_sequence_errors(monkeypatch):
    pf, pb = make_gru(2, 2), make_gru(2, 2)

    def no_buffer(*args, **kwargs):
        raise AssertionError("bigru allocated its buffer")

    monkeypatch.setattr(layers.np, "empty", no_buffer)
    with pytest.raises(ad.ShapeError, match="bigru over an empty sequence"):
        layers.bigru([], pf, pb, np.ones((1, 0), bool))


def test_bigru_rejects_a_mask_of_the_wrong_shape(rng):
    pf, pb = make_gru(2, 2), make_gru(2, 2)
    columns = [ad.Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(4)]   # B = 3, T = 4
    for mask in (np.ones(4, bool), np.ones((4, 3), bool), np.ones((3, 5), bool)):
        with pytest.raises(ad.ShapeError, match="bigru mask must be"):
            layers.bigru(columns, pf, pb, mask)


def stacked(columns, pf, pb, mask):
    """The two recurrences over explicit keep rows and a concat node, as
    bigru ran before its buffer."""
    return concat([fused_gru(columns, pf, keep_rows(mask)),
                   fused_gru(columns, pb, keep_rows(mask), reverse=True)], axis=0)


def test_bigru_writes_both_recurrences_into_its_output(rng):
    pf, pb = make_gru(3, 4, seed=12), make_gru(3, 4, seed=13)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(5)]
    mask = np.array([[True, True, True, True, False],
                     [True, True, False, False, False],
                     [True, False, False, False, False]])
    weights = rng.uniform(-1, 1, (8, 15))
    g = ad.Graph()
    with g:
        out = layers.bigru(columns, pf, pb, mask)
    assert [node.op for node in g._nodes] == ["gru_sequence", "gru_sequence", "bigru"]
    fwd, bwd = (node.out for node in g._nodes[:2])
    assert np.shares_memory(out.data, fwd.data) and np.shares_memory(out.data, bwd.data)
    assert out.data.flags.c_contiguous and out.data.shape == (8, 15)
    npt.assert_array_equal(out.data, stacked(columns, pf, pb, mask).data)
    tensors = list(pf.named().values()) + list(pb.named().values()) + columns
    grads = _tape_gradients((layers.bigru, stacked), tensors,
                            lambda run: _weighted_sum(run(columns, pf, pb, mask), weights))
    for buffered, concatenated in zip(*grads):
        npt.assert_array_equal(buffered, concatenated)


@pytest.mark.parametrize("case", PACKED_KEEPS)
def test_bigru_mask_equals_explicit_keep_rows_bit_for_bit(rng, case):
    mask = np.array(PACKED_KEEPS[case], dtype=bool)                    # [B x T]
    batch, steps = mask.shape
    pf, pb = make_gru(3, 4, seed=14), make_gru(3, 4, seed=15)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, batch)), requires_grad=True)
               for _ in range(steps)]
    npt.assert_array_equal(layers.bigru(columns, pf, pb, mask).data,
                           stacked(columns, pf, pb, mask).data)
    weights = rng.uniform(-1, 1, (8, steps * batch))
    tensors = list(pf.named().values()) + list(pb.named().values()) + columns
    grads = _tape_gradients((layers.bigru, stacked), tensors,
                            lambda run: _weighted_sum(run(columns, pf, pb, mask), weights))
    for from_mask, from_keep_rows in zip(*grads):
        npt.assert_array_equal(from_mask, from_keep_rows)


def test_bigru_rejects_columns_of_different_shapes(rng):
    pf, pb = make_gru(2, 2), make_gru(2, 2)
    mask = np.array([[True, False], [False, True], [True, True]])       # B = 3, T = 2
    for second in (np.zeros((3, 3)), np.zeros((2, 2))):                  # rows, then batch
        columns = [ad.Tensor(rng.uniform(-1, 1, (2, 3))), ad.Tensor(second)]
        with pytest.raises(ad.ShapeError, match="bigru columns must all have one"):
            layers.bigru(columns, pf, pb, mask)


def bigru_memory_inputs(rng):
    """Two directions at h = 32 over 10 steps of 24 length-sorted input
    columns of 24 rows that require grad, and the mask."""
    h, d, batch, steps = 32, 24, 24, 10
    pf, pb = make_gru(d, h, seed=71), make_gru(d, h, seed=72)
    lengths = np.sort(rng.integers(1, steps + 1, batch))[::-1]
    mask = np.arange(steps) < lengths[:, None]                            # [B x T]
    columns = [ad.Tensor(rng.uniform(-1, 1, (d, batch)), requires_grad=True)
               for _ in range(steps)]
    return columns, pf, pb, mask


def traced_bigru(columns, pf, pb, mask, graph):
    """``bigru``'s output and the bytes held after it returns, under ``graph``
    when one is given."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if graph is None:
            out = layers.bigru(columns, pf, pb, mask)
        else:
            with graph:
                out = layers.bigru(columns, pf, pb, mask)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return out, held


def test_bigru_nodes_hold_only_gates_candidates_and_states(rng):
    columns, pf, pb, mask = bigru_memory_inputs(rng)
    out, held = traced_bigru(columns, pf, pb, mask, ad.Graph())
    live = int(mask.sum())
    # the [2h x T*B] output and each direction's gates [2h x R] and candidates
    # [h x R]; the shared plan's packed input [24 x R] alone would add over
    # 16 KB
    stored = out.data.nbytes + 2 * 3 * 32 * live * 8
    assert 24 * live * 8 > 16_384
    assert stored <= held <= stored + 16_384, (held, stored)


def test_bigru_without_a_graph_holds_only_its_output(rng):
    columns, pf, pb, mask = bigru_memory_inputs(rng)
    out, held = traced_bigru(columns, pf, pb, mask, None)
    assert out.data.nbytes <= held <= out.data.nbytes + 1024, (held, out.data.nbytes)


def check_step_plan(rng, mask):
    """The plan of ``mask`` [B x T] against the mask itself, and
    ``gru_sequence`` given it against the plain step loop, bit for bit, and
    its gradients against the tape reference, in both directions."""
    batch, steps = mask.shape
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, batch)), requires_grad=True)
               for _ in range(steps)]
    keep = keep_rows(mask)
    plan = layers.step_plan(columns, mask)
    moving = [np.flatnonzero(mask[:, t]) for t in range(steps)]
    assert np.diff(plan.start).tolist() == [m.size for m in moving]
    for c, m in zip(plan.cols, moving):
        assert isinstance(c, slice) == np.array_equal(m, np.arange(m.size))
        npt.assert_array_equal(np.arange(batch)[c], m)
    assert plan.start[0] == 0
    npt.assert_array_equal(plan.x, np.concatenate(
        [col.data[:, m] for col, m in zip(columns, moving)], axis=1))
    # consecutive advancing steps share one entry exactly where their columns
    # are equal, so gru_sequence compares them by identity
    advancing = [t for t in range(steps) if moving[t].size]
    for a, b in zip(advancing, advancing[1:]):
        assert (plan.cols[a] is plan.cols[b]) == np.array_equal(mask[:, a], mask[:, b])
    # the keep rows bigru passes restate its plan: 1 exactly at cols[t]
    with mock.patch.object(layers, "gru_sequence", wraps=layers.gru_sequence) as spy:
        layers.bigru(columns, make_gru(3, 4, seed=73), make_gru(3, 4, seed=75), mask)
    assert spy.call_count == 2
    for call in spy.call_args_list:
        rows, passed = np.concatenate([k.data for k in call.args[2]]), call.kwargs["plan"]
        assert rows.sum() == passed.start[-1] == plan.start[-1]
        for row, c in zip(rows, passed.cols):
            npt.assert_array_equal(np.flatnonzero(row), np.arange(batch)[c])
    # step_plan itself refuses columns it could not pack
    for odd in ((4, batch), (3, batch + 1)) if steps > 1 else ():        # rows, then batch
        with pytest.raises(ad.ShapeError, match="bigru columns must all have one"):
            layers.step_plan([*columns[:-1], ad.Tensor(np.zeros(odd))], mask)

    p = make_gru(3, 4, seed=73)
    weights = rng.uniform(-1, 1, (4, steps * batch))
    tensors = list(p.named().values()) + columns
    for reverse in (False, True):
        npt.assert_array_equal(fused_gru(columns, p, keep, reverse).data,
                               gru_sequence_steps(columns, p, keep, reverse))
        grads = _tape_gradients(
            (fused_gru, gru_sequence_reference), tensors,
            lambda run: _weighted_sum(run(columns, p, keep, reverse), weights))
        for fused_grad, reference_grad in zip(*grads):
            npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)


@pytest.mark.parametrize("case", PACKED_KEEPS)
def test_step_plan_of_packed_keeps(rng, case):
    check_step_plan(rng, np.array(PACKED_KEEPS[case], dtype=bool))


@settings(max_examples=60, deadline=None)
@given(mask=st.integers(1, 6).flatmap(lambda batch: st.lists(
    st.lists(st.booleans(), min_size=batch, max_size=batch), min_size=1, max_size=6)))
def test_step_plan_of_drawn_masks(mask):
    # drawn [T x B] rows: holes, idle steps and unsorted rows all occur
    check_step_plan(np.random.default_rng(len(mask)), np.array(mask, dtype=bool).T)


def test_encode_samples_builds_one_step_plan_per_bigru(tiny_setup, monkeypatch):
    hp, params, _, emb, samples = tiny_setup
    built = []
    real = layers.step_plan

    def counting(columns, mask):
        built.append(len(columns))
        return real(columns, mask)

    monkeypatch.setattr(layers, "step_plan", counting)
    model.encode_samples(samples, params, emb, hp)
    assert len(built) == 4     # one per bigru: 3 word-level sources, 1 sentence level


def test_gru_sequence_rejects_an_out_of_the_wrong_shape(rng):
    p = make_gru(2, 3)
    columns = columns_of(rng.uniform(-1, 1, (2, 4)))
    for out in (np.empty((3, 5)), np.empty((4, 3)).T):
        with pytest.raises(ad.ShapeError, match="out must be a C-contiguous"):
            layers.gru_sequence(columns, p, **{**unpadded(columns, p), "out": out})


def test_gru_sequence_rejects_the_plan_of_other_columns(rng):
    p = make_gru(2, 3)
    columns = columns_of(rng.uniform(-1, 1, (2, 4)))
    for other in (columns[:3], columns_of(rng.uniform(-1, 1, (5, 4)))):   # steps, then rows
        with pytest.raises(ad.ShapeError, match="plan must cover 4 steps of 2-row"):
            layers.gru_sequence(columns, p, **{**unpadded(columns, p),
                                               "plan": unpadded(other, p)["plan"]})


def test_gru_hidden_stays_in_unit_interval(rng):
    # from a zero initial state every component remains inside (-1, 1)
    pf, pb = make_gru(3, 4, seed=10), make_gru(3, 4, seed=11)
    for _ in range(10):
        seq = rng.uniform(-5, 5, (3, 6))
        out = layers.bigru(columns_of(seq), pf, pb, np.ones((1, 6), bool))
        assert (np.abs(out.data) < 1.0).all()


# ---------------------------------------------------------------------------
# word_attention
# ---------------------------------------------------------------------------


def make_attn(hidden, seed=17):
    return layers.WordAttentionParams.create(hidden, np.random.default_rng(seed))


def word_attention_reference(states, mask, p):
    """Tape-composed reference over T word states [2h x B]: one score row and
    one weighted add per step."""
    scores = transpose(concat([matmul(p.context, tanh(add(matmul(p.proj, s), p.bias)))
                               for s in states], axis=0))
    weights = softmax_rows(scores, mask)
    weights_t = transpose(weights)
    pooled = None
    for t, s in enumerate(states):
        term = mul(s, slice_rows(weights_t, t, t + 1))
        pooled = term if pooled is None else add(pooled, term)
    return pooled, weights


def word_states(v):
    """[B x 2h x T] per-sequence states -> [2h x T*B], column t*B + j."""
    return np.hstack([v[:, :, t].T for t in range(v.shape[2])])


def mixed_mask(rng, batch, steps):
    """A random [B x T] mask with at least one real position per row."""
    mask = rng.uniform(size=(batch, steps)) < 0.6
    mask[np.arange(batch), rng.integers(0, steps, batch)] = True
    return mask


def test_word_attention_single_position(rng):
    p = make_attn(2)
    v = rng.uniform(-1, 1, (4, 1))
    pooled, weights = layers.word_attention(ad.Tensor(v), np.array([[True]]), p)
    npt.assert_array_equal(weights, [[1.0]])
    npt.assert_allclose(pooled.data, v, atol=1e-15)


def test_word_attention_identical_columns_uniform(rng):
    p = make_attn(3)
    col = rng.uniform(-1, 1, (6, 1))
    v = np.repeat(col, 4, axis=1)
    mask = np.array([[True, True, True, False]])
    pooled, weights = layers.word_attention(ad.Tensor(v), mask, p)
    npt.assert_allclose(weights[0, :3], [1 / 3] * 3, atol=1e-12)
    assert weights[0, 3] == 0.0


def test_word_attention_matches_loop_oracle(rng):
    # column t*B + j of the states is word t of sentence j, with mask row j
    p = make_attn(2, seed=23)
    v = rng.uniform(-1, 1, (3, 4, 4))                 # [B x 2h x T]
    mask = np.array([[True, False, True, True],
                     [False, True, False, False],
                     [True, True, True, True]])
    pooled, weights = layers.word_attention(ad.Tensor(word_states(v)), mask, p)
    assert weights.shape == (3, 4) and pooled.shape == (4, 3)
    for j in range(3):
        exp_pooled, exp_alpha = word_attention_loops(
            v[j], list(mask[j]), p.proj.data, p.bias.data.reshape(-1), p.context.data)
        npt.assert_allclose(weights[j], exp_alpha, atol=1e-12)
        npt.assert_allclose(pooled.data[:, j], exp_pooled, atol=1e-12)


@pytest.mark.parametrize("batch,steps", [(1, 5), (4, 1), (1, 1), (5, 6)])
def test_word_attention_mixed_batch_matches_loop_oracle(rng, batch, steps):
    p = make_attn(3, seed=24)
    v = rng.uniform(-2, 2, (batch, 6, steps))
    mask = mixed_mask(rng, batch, steps)
    pooled, weights = layers.word_attention(ad.Tensor(word_states(v)), mask, p)
    for j in range(batch):
        exp_pooled, exp_alpha = word_attention_loops(
            v[j], list(mask[j]), p.proj.data, p.bias.data.reshape(-1), p.context.data)
        npt.assert_allclose(weights[j], exp_alpha, rtol=0, atol=1e-12)
        npt.assert_allclose(pooled.data[:, j], exp_pooled, rtol=0, atol=1e-12)


def test_word_attention_node_holds_no_key(rng):
    h, batch, steps = 32, 12, 20
    p = make_attn(h, seed=27)
    states = ad.Tensor(rng.uniform(-1, 1, (2 * h, steps * batch)), requires_grad=True)
    mask = mixed_mask(rng, batch, steps)
    g = ad.Graph()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with g:
            pooled, weights = layers.word_attention(states, mask, p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # pooled [2h x B] and weights [B x T]; the tanh key [h x T*B] alone
    # would add 61,440 bytes
    stored = pooled.data.nbytes + weights.nbytes
    assert stored <= held <= stored + 16_384, (held, stored)


def test_word_attention_records_one_node(rng):
    p = make_attn(2, seed=25)
    states = ad.Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    g = ad.Graph()
    with g:
        layers.word_attention(states, np.ones((2, 3), dtype=bool), p)
    assert [node.op for node in g._nodes] == ["word_attention"]


@pytest.mark.parametrize("batch,steps", [(1, 4), (3, 1), (4, 5)])
def test_word_attention_gradients_match_tape_reference(rng, batch, steps):
    p = make_attn(3, seed=26)
    states = ad.Tensor(rng.uniform(-1, 1, (6, steps * batch)), requires_grad=True)
    mask = mixed_mask(rng, batch, steps)
    weights = rng.uniform(-1, 1, (6, batch))

    def fused(states):
        return layers.word_attention(states, mask, p)[0]

    def reference(states):
        steps_of = [slice_cols(states, t * batch, (t + 1) * batch) for t in range(steps)]
        return word_attention_reference(steps_of, mask, p)[0]

    tensors = list(p.named().values()) + [states]
    grads = _tape_gradients((fused, reference), tensors,
                            lambda run: _weighted_sum(run(states), weights))
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)
    # a padded word gets exactly zero gradient
    pad = np.flatnonzero(~mask.T.reshape(-1))
    npt.assert_array_equal(grads[0][-1][:, pad], 0.0)


def test_word_attention_grad_check(rng):
    p = make_attn(2, seed=27)
    states = ad.Tensor(rng.uniform(-1, 1, (4, 3 * 2)), requires_grad=True)
    mask = np.array([[True, False, True], [True, True, False]])
    weights = rng.uniform(-1, 1, (4, 2))
    params = {f"attn.{key}": t for key, t in p.named().items()}
    params["states"] = states
    report = grad_check(
        lambda: _weighted_sum(layers.word_attention(states, mask, p)[0], weights), params, h=1e-5)
    assert report.passed(1e-4), report.summary()


def test_word_attention_fully_masked_errors(rng):
    p = make_attn(2)
    mask = np.array([[True, False, False], [False, False, False]])
    with pytest.raises(ad.DegenerateMaskError):
        layers.word_attention(ad.Tensor(rng.uniform(-1, 1, (4, 6))), mask, p)


def test_word_attention_shape_errors(rng):
    p = make_attn(2)
    states = ad.Tensor(rng.uniform(-1, 1, (4, 6)))
    for mask in (np.ones((2, 2), dtype=bool),     # 4 columns for 6 states
                 np.ones(6, dtype=bool)):         # not a [B x T] mask
        with pytest.raises(ad.ShapeError):
            layers.word_attention(states, mask, p)
    with pytest.raises(ad.ShapeError):            # rows do not match the params
        layers.word_attention(ad.Tensor(np.zeros((6, 6))), np.ones((2, 3), dtype=bool), p)


def test_word_attention_weights_sum_to_one_masked_zero(rng):
    p = make_attn(2, seed=29)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        v = rng.uniform(-2, 2, (4, m))
        mask = rng.uniform(size=m) < 0.7
        if not mask.any():
            mask[0] = True
        _, weights = layers.word_attention(ad.Tensor(v), mask.reshape(1, -1), p)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert (weights[0, ~mask] == 0.0).all()


def test_word_attention_ignores_masked_column_values(rng):
    p = make_attn(2, seed=31)
    v = rng.uniform(-1, 1, (4, 4))
    mask = np.array([[True, False, True, False]])
    pooled_a, weights_a = layers.word_attention(ad.Tensor(v), mask, p)
    v2 = v.copy()
    v2[:, ~mask[0]] = rng.uniform(50, 60, (4, 2))
    pooled_b, weights_b = layers.word_attention(ad.Tensor(v2), mask, p)
    npt.assert_array_equal(pooled_a.data, pooled_b.data)
    npt.assert_array_equal(weights_a, weights_b)


# ---------------------------------------------------------------------------
# co_attention
# ---------------------------------------------------------------------------


def make_coattn(hidden, seed=37):
    return layers.CoAttentionParams.create(hidden, np.random.default_rng(seed))


def co_attention_reference(s, d, mask_s, mask_d, p):
    """Tape-composed reference for one sample: S [2h x N] and D [2h x E] with
    1-D masks; returns the pooled vectors stacked as [4h x 1]."""
    affinity = tanh(matmul(matmul(transpose(d), p.w_affinity), s))     # [E x N]
    proj_s = matmul(p.w_primary, s)
    proj_d = matmul(p.w_secondary, d)
    inter_s = tanh(add(proj_s, matmul(proj_d, affinity)))
    inter_d = tanh(add(proj_d, matmul(proj_s, transpose(affinity))))
    attn_s = softmax_rows(matmul(p.score_primary, inter_s), mask_s.reshape(1, -1))
    attn_d = softmax_rows(matmul(p.score_secondary, inter_d), mask_d.reshape(1, -1))
    return concat([matmul(s, transpose(attn_s)), matmul(d, transpose(attn_d))], axis=0)


def one(mask):
    """A 1-D mask as the [1 x K] mask of a batch of one."""
    return np.asarray(mask, dtype=bool).reshape(1, -1)


def coattn_batch(rng, batch, n, e, two_h):
    """Random S [2h x B*N] and D [2h x B*E] with masks; with B > 1, sample 1
    has an all-pad secondary side (zero columns under an all-real mask, which
    is what co_attention makes of an empty mask row)."""
    s = rng.uniform(-2, 2, (two_h, batch * n))
    d = rng.uniform(-2, 2, (two_h, batch * e))
    mask_s, mask_d = mixed_mask(rng, batch, n), mixed_mask(rng, batch, e)
    if batch > 1:
        d[:, e:2 * e] = 0.0
        mask_d[1] = True
    return s, d, mask_s, mask_d


def test_co_attention_singletons(rng):
    p = make_coattn(2)
    s = rng.uniform(-1, 1, (4, 1))
    d = rng.uniform(-1, 1, (4, 1))
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), one([True]), one([True]), p)
    npt.assert_array_equal(out.attn_primary, [[1.0]])
    npt.assert_array_equal(out.attn_secondary, [[1.0]])
    npt.assert_allclose(out.pooled.data[:4], s, atol=1e-15)
    npt.assert_allclose(out.pooled.data[4:], d, atol=1e-15)


def test_co_attention_zero_secondary_side(rng):
    p = make_coattn(2)
    s = rng.uniform(-1, 1, (4, 3))
    d = np.zeros((4, 2))
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), one([True] * 3), one([True] * 2), p)
    npt.assert_array_equal(out.affinity[0], np.zeros((2, 3)))
    npt.assert_allclose(out.interaction_primary[0], np.tanh(p.w_primary.data @ s), atol=1e-12)
    npt.assert_allclose(out.attn_secondary, [[0.5, 0.5]], atol=1e-12)


def test_co_attention_matches_index_loop_oracle(rng):
    p = make_coattn(3, seed=41)
    s = rng.uniform(-1, 1, (6, 3))
    d = rng.uniform(-1, 1, (6, 2))
    mask_s = np.array([True, True, False])
    mask_d = np.array([True, True])
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), one(mask_s), one(mask_d), p)
    aff, inter_s, inter_d, attn_s, attn_d, pooled_s, pooled_d = co_attention_loops(
        s, d, list(mask_s), list(mask_d), *coattn_params_arrays(p))
    npt.assert_allclose(out.affinity[0], aff, atol=1e-12)
    npt.assert_allclose(out.interaction_primary[0], inter_s, atol=1e-12)
    npt.assert_allclose(out.interaction_secondary[0], inter_d, atol=1e-12)
    npt.assert_allclose(out.attn_primary[0], attn_s, atol=1e-12)
    npt.assert_allclose(out.attn_secondary[0], attn_d, atol=1e-12)
    npt.assert_allclose(out.pooled.data[:6, 0], pooled_s, atol=1e-12)
    npt.assert_allclose(out.pooled.data[6:, 0], pooled_d, atol=1e-12)


@pytest.mark.parametrize("batch,n,e", [(1, 3, 4), (4, 1, 1), (1, 1, 1), (5, 4, 3)])
def test_co_attention_mixed_batch_matches_loop_oracle(rng, batch, n, e):
    p = make_coattn(2, seed=42)
    s, d, mask_s, mask_d = coattn_batch(rng, batch, n, e, 4)
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), mask_s, mask_d, p)
    assert out.pooled.shape == (8, batch)
    for j in range(batch):
        exp = co_attention_loops(s[:, j * n:(j + 1) * n], d[:, j * e:(j + 1) * e],
                                 list(mask_s[j]), list(mask_d[j]), *coattn_params_arrays(p))
        for got, want in ((out.affinity[j], exp[0]), (out.interaction_primary[j], exp[1]),
                          (out.interaction_secondary[j], exp[2]), (out.attn_primary[j], exp[3]),
                          (out.attn_secondary[j], exp[4]), (out.pooled.data[:4, j], exp[5]),
                          (out.pooled.data[4:, j], exp[6])):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    if batch > 1:   # the all-pad side pools to zero under uniform weights
        npt.assert_allclose(out.attn_secondary[1], np.full(e, 1.0 / e), atol=1e-15)
        npt.assert_array_equal(out.pooled.data[4:, 1], 0.0)


@pytest.mark.parametrize("primary", [True, False], ids=["primary", "secondary"])
def test_co_attention_empty_row_attends_over_every_column(rng, primary):
    # a mask row with no real column, on either side, reads as a row of all
    # real columns in forward and backward; over zero columns, as the encoder
    # gives a side with no sentence, its weights are uniform and it pools to 0
    p = make_coattn(2, seed=47)
    batch, n, e = 3, 3, 4
    s_arr, d_arr, mask_s, mask_d = coattn_batch(rng, batch, n, e, 4)
    weights = rng.uniform(-1, 1, (8, batch))
    mask = mask_s if primary else mask_d
    empty, full = mask.copy(), mask.copy()
    empty[0], full[0] = False, True

    def call(s, d, row_mask):
        masks = (row_mask, mask_d) if primary else (mask_s, row_mask)
        return layers.co_attention(s, d, *masks, p)

    s, d = ad.Tensor(s_arr.copy(), requires_grad=True), ad.Tensor(d_arr.copy(), requires_grad=True)
    tensors = list(p.named().values()) + [s, d]
    grads = _tape_gradients([empty, full], tensors,
                            lambda row_mask: _weighted_sum(call(s, d, row_mask).pooled, weights))
    for empty_grad, full_grad in zip(*grads):
        npt.assert_array_equal(empty_grad, full_grad)

    width, half = (n, slice(0, 4)) if primary else (e, slice(4, 8))
    (s_arr if primary else d_arr)[:, :width] = 0.0              # sample 0's side
    out, out_full = (call(ad.Tensor(s_arr), ad.Tensor(d_arr), m) for m in (empty, full))
    npt.assert_array_equal(out.pooled.data, out_full.pooled.data)
    attn = out.attn_primary if primary else out.attn_secondary
    npt.assert_array_equal(attn[0], np.full(width, 1.0 / width))
    npt.assert_array_equal(out.pooled.data[half, 0], 0.0)


def test_co_attention_records_one_node(rng):
    p = make_coattn(2, seed=43)
    s, d, mask_s, mask_d = coattn_batch(rng, 3, 2, 3, 4)
    g = ad.Graph()
    with g:
        layers.co_attention(ad.Tensor(s, requires_grad=True), ad.Tensor(d), mask_s, mask_d, p)
    assert [node.op for node in g._nodes] == ["co_attention"]


@pytest.mark.parametrize("batch,n,e", [(1, 3, 2), (3, 1, 1), (4, 3, 4)])
def test_co_attention_gradients_match_tape_reference(rng, batch, n, e):
    p = make_coattn(2, seed=45)
    s_arr, d_arr, mask_s, mask_d = coattn_batch(rng, batch, n, e, 4)
    s, d = ad.Tensor(s_arr, requires_grad=True), ad.Tensor(d_arr, requires_grad=True)
    weights = rng.uniform(-1, 1, (8, batch))

    def fused():
        return layers.co_attention(s, d, mask_s, mask_d, p).pooled

    def reference():
        return concat([co_attention_reference(
            slice_cols(s, j * n, (j + 1) * n), slice_cols(d, j * e, (j + 1) * e),
            mask_s[j], mask_d[j], p) for j in range(batch)], axis=1)

    tensors = list(p.named().values()) + [s, d]
    grads = _tape_gradients((fused, reference), tensors,
                            lambda run: _weighted_sum(run(), weights))
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)


def test_co_attention_grad_check(rng):
    p = make_coattn(2, seed=46)
    s_arr, d_arr, mask_s, mask_d = coattn_batch(rng, 3, 3, 2, 4)
    s, d = ad.Tensor(s_arr, requires_grad=True), ad.Tensor(d_arr, requires_grad=True)
    weights = rng.uniform(-1, 1, (8, 3))
    params = {f"co.{key}": t for key, t in p.named().items()}
    params.update(s=s, d=d)
    report = grad_check(
        lambda: _weighted_sum(layers.co_attention(s, d, mask_s, mask_d, p).pooled, weights),
        params, h=1e-5)
    assert report.passed(1e-4), report.summary()


def test_co_attention_permutation_equivariance(rng):
    p = make_coattn(2, seed=43)
    s = rng.uniform(-1, 1, (4, 3))
    d = rng.uniform(-1, 1, (4, 4))
    mask_s = np.array([True, True, True])
    mask_d = np.array([True, True, True, False])
    base = layers.co_attention(ad.Tensor(s), ad.Tensor(d), one(mask_s), one(mask_d), p)
    perm = np.array([2, 0, 1, 3])
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d[:, perm]),
                              one(mask_s), one(mask_d[perm]), p)
    npt.assert_allclose(out.attn_secondary[0], base.attn_secondary[0, perm], atol=1e-12)
    npt.assert_allclose(out.pooled.data[4:], base.pooled.data[4:], atol=1e-12)
    npt.assert_allclose(out.attn_primary, base.attn_primary, atol=1e-12)
    npt.assert_allclose(out.pooled.data[:4], base.pooled.data[:4], atol=1e-12)


def test_co_attention_primary_permutation_equivariance(rng):
    p = make_coattn(2, seed=44)
    s = rng.uniform(-1, 1, (4, 4))
    d = rng.uniform(-1, 1, (4, 3))
    mask_s = np.array([True, True, False, True])
    mask_d = np.array([True, True, True])
    base = layers.co_attention(ad.Tensor(s), ad.Tensor(d), one(mask_s), one(mask_d), p)
    perm = np.array([3, 1, 0, 2])
    out = layers.co_attention(ad.Tensor(s[:, perm]), ad.Tensor(d),
                              one(mask_s[perm]), one(mask_d), p)
    npt.assert_allclose(out.attn_primary[0], base.attn_primary[0, perm], atol=1e-12)
    npt.assert_allclose(out.pooled.data[:4], base.pooled.data[:4], atol=1e-12)
    npt.assert_allclose(out.attn_secondary, base.attn_secondary, atol=1e-12)
    npt.assert_allclose(out.pooled.data[4:], base.pooled.data[4:], atol=1e-12)


def test_co_attention_pooled_in_convex_hull(rng):
    # weights are nonnegative, sum to one, and reproduce the pooled vector
    p = make_coattn(2, seed=47)
    s = rng.uniform(-1, 1, (4, 5))
    d = rng.uniform(-1, 1, (4, 3))
    mask_s = np.array([True, False, True, True, False])
    mask_d = np.array([True, True, True])
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), one(mask_s), one(mask_d), p)
    w = out.attn_primary[0]
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w[~mask_s] == 0.0).all()
    npt.assert_allclose(out.pooled.data[:4, 0], s @ w, atol=1e-12)


def test_co_attention_errors():
    p = make_coattn(2)
    s = ad.Tensor(np.zeros((4, 2)))
    d = ad.Tensor(np.zeros((6, 2)))
    with pytest.raises(ad.ShapeError):          # feature rows differ
        layers.co_attention(s, d, one([True, True]), one([True, True]), p)
    d_ok = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError):          # masks of different batch sizes
        layers.co_attention(s, d_ok, one([True, True]), np.ones((2, 1), dtype=bool), p)
    with pytest.raises(ad.ShapeError):          # 1-D masks
        layers.co_attention(s, d_ok, np.array([True, True]), np.array([True, True]), p)
    # a secondary row with no real column is no error: it attends over both
    # (zero) columns, uniformly
    out = layers.co_attention(s, d_ok, one([True, True]), one([False, False]), p)
    npt.assert_array_equal(out.attn_secondary, [[0.5, 0.5]])


# ---------------------------------------------------------------------------
# layer gradients
# ---------------------------------------------------------------------------


def test_all_layer_gradients_pass_grad_check(rng):
    pf, pb = make_gru(3, 2, seed=51), make_gru(3, 2, seed=52)
    attn = make_attn(2, seed=53)
    co = make_coattn(2, seed=54)
    seq = columns_of(rng.uniform(-1, 1, (3, 4)))
    d_side = ad.Tensor(rng.uniform(-1, 1, (4, 3)))
    mask_seq = np.array([True, True, True, False])
    mask_d = np.array([True, True, False])

    def f():
        states = layers.bigru(seq, pf, pb, one(mask_seq))
        pooled, _ = layers.word_attention(states, one(mask_seq), attn)
        out = layers.co_attention(concat([pooled, pooled, pooled, pooled], axis=1),
                                  d_side, one(mask_seq), one(mask_d), co)
        return sum_all(out.pooled)

    params = {}
    for prefix, group in (("fwd", pf), ("bwd", pb)):
        for key, t in group.named().items():
            params[f"{prefix}.{key}"] = t
    for key, t in attn.named().items():
        params[f"attn.{key}"] = t
    for key, t in co.named().items():
        params[f"co.{key}"] = t
    report = grad_check(f, params, h=1e-5)
    assert report.passed(1e-5), report.summary()
