import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dualcan import autodiff as ad
from dualcan import layers

from oracles import (
    bigru_loops,
    co_attention_loops,
    coattn_params_arrays,
    gru_cell_loops,
    gru_params_arrays,
    word_attention_loops,
)
from tape_ops import (grad_check, mul, sigmoid, slice_rows, softmax_rows, sub, sum_all, tanh,
                      transpose, zero_grad)


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
    r = sigmoid(ad.add(ad.add(ad.matmul(p.w_reset, x), ad.matmul(p.u_reset, h_prev)),
                          p.b_reset))
    z = sigmoid(ad.add(ad.add(ad.matmul(p.w_update, x), ad.matmul(p.u_update, h_prev)),
                          p.b_update))
    cand = tanh(ad.add(ad.add(ad.matmul(p.w_cand, x),
                                 ad.matmul(p.u_cand, mul(r, h_prev))), p.b_cand))
    return ad.add(h_prev, mul(z, sub(cand, h_prev)))


def masked_step(x, h, p, keep_t):
    """Reference step where keep_t = 0 columns carry the previous state."""
    cell = gru_cell(x, h, p)
    return cell if keep_t is None else ad.add(h, mul(keep_t, sub(cell, h)))


def gru_sequence_reference(columns, p, keep=None, reverse=False):
    h = ad.Tensor(np.zeros((p.hidden_size, columns[0].shape[1])))
    states = [None] * len(columns)
    order = range(len(columns) - 1, -1, -1) if reverse else range(len(columns))
    for t in order:
        h = states[t] = masked_step(columns[t], h, p, None if keep is None else keep[t])
    return ad.concat(states, axis=1)


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
    out = layers.gru_sequence([ad.Tensor(np.ones((2, 1)))], p)
    npt.assert_array_equal(out.data, np.zeros((3, 1)))


def test_gru_cell_output_is_convex_combination(rng):
    # h stays inside (-1, 1) whenever h_prev does: each new state is a convex
    # mix of the previous one and a tanh value
    p = make_gru(2, 4)
    out = layers.gru_sequence(columns_of(rng.uniform(-2, 2, (2, 6))), p)
    assert out.shape == (4, 6)
    assert (np.abs(out.data) < 1.0).all()


def test_gru_cell_matches_formula_oracle():
    # the second step starts from the state the first one reached
    p = make_gru(2, 1, seed=13)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = layers.gru_sequence(columns_of(x), p)
    first = gru_cell_loops(x[:, 0], np.zeros(1), *gru_params_arrays(p))
    second = gru_cell_loops(x[:, 1], first, *gru_params_arrays(p))
    npt.assert_allclose(out.data[:, 0], first, atol=1e-12)
    npt.assert_allclose(out.data[:, 1], second, atol=1e-12)


def test_gru_cell_random_matches_oracle(rng):
    p = make_gru(3, 5, seed=21)
    x = rng.uniform(-2, 2, (3, 4))
    out = layers.gru_sequence(columns_of(x), p)
    h = np.zeros(5)
    for t in range(4):
        h = gru_cell_loops(x[:, t], h, *gru_params_arrays(p))
        npt.assert_allclose(out.data[:, t], h, atol=1e-12)


def test_gru_cell_column_batch_equals_per_column(rng):
    p = make_gru(3, 4, seed=2)
    x = rng.uniform(-1, 1, (3, 5, 3))                  # [in x B x T]
    batched = per_sequence(layers.gru_sequence([ad.Tensor(x[:, :, t]) for t in range(3)], p),
                           3, 5)
    for j in range(5):
        single = layers.gru_sequence(columns_of(x[:, j, :]), p)
        npt.assert_allclose(batched[j], single.data, atol=1e-12)


def test_gru_cell_shape_errors():
    p = make_gru(2, 3)
    with pytest.raises(ad.ShapeError):        # input rows do not match the params
        layers.gru_sequence([ad.Tensor(np.zeros((5, 1)))], p)
    with pytest.raises(ad.ShapeError):        # columns of different batch sizes
        layers.gru_sequence([ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3)))], p)
    two = [ad.Tensor(np.zeros((2, 2)))] * 2
    for keep in ([ad.Tensor(np.ones((1, 3)))] * 2,     # keep row of another batch size
                 [ad.Tensor(np.ones((2, 2)))] * 2,     # keep of two rows
                 [ad.Tensor(np.ones((1, 2)))]):        # one keep row for two steps
        with pytest.raises(ad.ShapeError):
            layers.gru_sequence(two, p, keep)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("batch,steps", [(1, 5), (4, 1), (1, 1), (3, 6)])
def test_gru_sequence_matches_loop_oracle(rng, batch, steps, reverse):
    p = make_gru(3, 4, seed=61)
    seqs = rng.uniform(-1, 1, (batch, 3, steps))       # [B x in x T]
    mask = rng.uniform(size=(batch, steps)) < 0.6
    mask[:, steps // 2] = True
    out = layers.gru_sequence([ad.Tensor(seqs[:, :, t].T) for t in range(steps)], p,
                              keep_rows(mask), reverse=reverse)
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
    out = layers.gru_sequence(columns, p, keep_rows(mask), reverse=reverse)
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
        out = layers.gru_sequence(columns_of(rng.uniform(-1, 1, (2, 5))), p)
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
            out = layers.gru_sequence(columns, p, keep)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    live = int(mask.sum())   # each step's live prefix is exactly its real columns
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
        (layers.gru_sequence, gru_sequence_reference), tensors,
        lambda run: _weighted_sum(run(columns, p, keep, reverse=reverse), weights))
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)
    # an input at a step its column does not keep gets exactly zero gradient
    npt.assert_array_equal(grads[0][len(p.named()) + 4][:, 2], 0.0)


# keep [B x T] per case; the live prefix of a step ends at its last moving column
PACKED_KEEPS = {
    # sorted, with a middle step where no column moves (live prefix 0)
    "idle-middle-step": [[1, 1, 0, 1, 1],
                         [1, 1, 0, 1, 0],
                         [1, 0, 0, 0, 0]],
    # unsorted: column 1 stops after step 1 and moves again at step 2, and
    # column 0 stops inside the live prefix of steps 3 and 4
    "stop-and-restart": [[1, 1, 1, 0, 0],
                         [1, 0, 1, 1, 0],
                         [1, 1, 0, 1, 1]],
    # fractional keep values blend the cell into the carried state
    "fractional-keep": [[1, 0.5, 1, 1, 0.25],
                        [1, 1, 0.75, 0, 0],
                        [0.5, 1, 0, 0, 0]],
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", PACKED_KEEPS)
def test_gru_sequence_packed_prefixes_match_tape_reference(rng, case, reverse):
    p = make_gru(3, 4, seed=66)
    keep_array = np.array(PACKED_KEEPS[case], dtype=float)
    keep = [ad.Tensor(keep_array[:, t].reshape(1, -1)) for t in range(5)]
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(5)]
    weights = np.hstack([rng.uniform(-1, 1, (4, 3)) for _ in range(5)])
    npt.assert_allclose(layers.gru_sequence(columns, p, keep, reverse=reverse).data,
                        gru_sequence_reference(columns, p, keep, reverse=reverse).data,
                        rtol=0, atol=1e-12)
    tensors = list(p.named().values()) + columns
    grads = _tape_gradients(
        (layers.gru_sequence, gru_sequence_reference), tensors,
        lambda run: _weighted_sum(run(columns, p, keep, reverse=reverse), weights))
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_grad_check_with_input_columns(rng, reverse):
    p = make_gru(3, 2, seed=65)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True) for _ in range(4)]
    keep = keep_rows(np.array([[True, False, True, True], [True, True, True, False]]))
    weights = np.hstack([rng.uniform(-1, 1, (2, 2)) for _ in range(4)])

    def f():
        return _weighted_sum(layers.gru_sequence(columns, p, keep, reverse=reverse), weights)

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
    out = layers.bigru([ad.Tensor(x)], pf, pb)
    f = gru_cell(ad.Tensor(x), ad.Tensor(np.zeros((3, 1))), pf)
    b = gru_cell(ad.Tensor(x), ad.Tensor(np.zeros((3, 1))), pb)
    assert out.shape == (6, 1)
    npt.assert_allclose(out.data, np.vstack([f.data, b.data]), atol=1e-15)


def test_bigru_zero_params_zero_output(rng):
    pf, pb = zero_gru(2, 3), zero_gru(2, 3)
    out = layers.bigru(columns_of(rng.uniform(-1, 1, (2, 4))), pf, pb)
    npt.assert_array_equal(out.data, np.zeros((6, 4)))


def test_bigru_matches_loop_oracle(rng):
    # column t*B + j of the states is step t of sequence j
    pf, pb = make_gru(3, 2, seed=5), make_gru(3, 2, seed=6)
    seqs = rng.uniform(-1, 1, (4, 3, 3))              # [B x in x T]
    out = layers.bigru([ad.Tensor(seqs[:, :, t].T) for t in range(3)], pf, pb)
    got = per_sequence(out, 3, 4)
    for j in range(4):
        npt.assert_allclose(got[j], bigru_loops(seqs[j], pf, pb), atol=1e-12)


def test_bigru_masked_matches_loop_oracle(rng):
    pf, pb = make_gru(2, 2, seed=8), make_gru(2, 2, seed=9)
    seqs = rng.uniform(-1, 1, (3, 2, 5))              # [B x in x T]
    masks = np.array([[True, True, False, True, False],
                      [True, False, False, False, False],
                      [True, True, True, True, True]])
    keep = [ad.Tensor(masks[:, t].astype(float).reshape(1, -1)) for t in range(5)]
    out = layers.bigru([ad.Tensor(seqs[:, :, t].T) for t in range(5)], pf, pb, keep)
    got = per_sequence(out, 5, 3)
    for j in range(3):
        npt.assert_allclose(got[j], bigru_loops(seqs[j], pf, pb, list(masks[j])), atol=1e-12)


def test_bigru_empty_sequence_errors():
    pf, pb = make_gru(2, 2), make_gru(2, 2)
    with pytest.raises(ad.ShapeError):
        layers.bigru([], pf, pb)


def test_gru_hidden_stays_in_unit_interval(rng):
    # from a zero initial state every component remains inside (-1, 1)
    pf, pb = make_gru(3, 4, seed=10), make_gru(3, 4, seed=11)
    for _ in range(10):
        seq = rng.uniform(-5, 5, (3, 6))
        out = layers.bigru(columns_of(seq), pf, pb)
        assert (np.abs(out.data) < 1.0).all()


# ---------------------------------------------------------------------------
# word_attention
# ---------------------------------------------------------------------------


def make_attn(hidden, seed=17):
    return layers.WordAttentionParams.create(hidden, np.random.default_rng(seed))


def word_attention_reference(states, mask, p):
    """Tape-composed reference over T word states [2h x B]: one score row and
    one weighted add per step."""
    scores = transpose(ad.concat([ad.matmul(p.context, tanh(ad.add(ad.matmul(p.proj, s),
                                                                         p.bias)))
                                     for s in states], axis=0))
    weights = softmax_rows(scores, mask)
    weights_t = transpose(weights)
    pooled = None
    for t, s in enumerate(states):
        term = mul(s, slice_rows(weights_t, t, t + 1))
        pooled = term if pooled is None else ad.add(pooled, term)
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
        steps_of = [ad.slice_cols(states, t * batch, (t + 1) * batch) for t in range(steps)]
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
    affinity = tanh(ad.matmul(ad.matmul(transpose(d), p.w_affinity), s))     # [E x N]
    proj_s = ad.matmul(p.w_primary, s)
    proj_d = ad.matmul(p.w_secondary, d)
    inter_s = tanh(ad.add(proj_s, ad.matmul(proj_d, affinity)))
    inter_d = tanh(ad.add(proj_d, ad.matmul(proj_s, transpose(affinity))))
    attn_s = softmax_rows(ad.matmul(p.score_primary, inter_s), mask_s.reshape(1, -1))
    attn_d = softmax_rows(ad.matmul(p.score_secondary, inter_d), mask_d.reshape(1, -1))
    return ad.concat([ad.matmul(s, transpose(attn_s)), ad.matmul(d, transpose(attn_d))],
                     axis=0)


def one(mask):
    """A 1-D mask as the [1 x K] mask of a batch of one."""
    return np.asarray(mask, dtype=bool).reshape(1, -1)


def coattn_batch(rng, batch, n, e, two_h):
    """Random S [2h x B*N] and D [2h x B*E] with masks; with B > 1, sample 1
    has an all-pad secondary side (zero columns under an all-real mask, the
    model's fallback)."""
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
        return ad.concat([co_attention_reference(
            ad.slice_cols(s, j * n, (j + 1) * n), ad.slice_cols(d, j * e, (j + 1) * e),
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
    with pytest.raises(ad.DegenerateMaskError):
        layers.co_attention(s, d_ok, one([True, True]), one([False, False]), p)


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
    keep = [ad.Tensor([[float(m)]]) for m in mask_seq]
    mask_d = np.array([True, True, False])

    def f():
        states = layers.bigru(seq, pf, pb, keep)
        pooled, _ = layers.word_attention(states, one(mask_seq), attn)
        out = layers.co_attention(ad.concat([pooled, pooled, pooled, pooled], axis=1),
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
