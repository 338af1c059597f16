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
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(p.w_reset, x), ad.matmul(p.u_reset, h_prev)),
                          p.b_reset))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(p.w_update, x), ad.matmul(p.u_update, h_prev)),
                          p.b_update))
    cand = ad.tanh(ad.add(ad.add(ad.matmul(p.w_cand, x),
                                 ad.matmul(p.u_cand, ad.mul(r, h_prev))), p.b_cand))
    return ad.add(h_prev, ad.mul(z, ad.sub(cand, h_prev)))


def masked_step(x, h, p, keep_t):
    """Reference step where keep_t = 0 columns carry the previous state."""
    cell = gru_cell(x, h, p)
    return cell if keep_t is None else ad.add(h, ad.mul(keep_t, ad.sub(cell, h)))


def gru_sequence_reference(columns, p, keep=None, reverse=False):
    h = ad.Tensor(np.zeros((p.hidden_size, columns[0].shape[1])))
    states = [None] * len(columns)
    order = range(len(columns) - 1, -1, -1) if reverse else range(len(columns))
    for t in order:
        h = states[t] = masked_step(columns[t], h, p, None if keep is None else keep[t])
    return states


def columns_of(seq):
    """Split [in x T] into T [in x 1] column tensors."""
    return [ad.Tensor(seq[:, t:t + 1]) for t in range(seq.shape[1])]


def keep_rows(mask):
    """[B x T] boolean mask -> T keep rows [1 x B]."""
    return [ad.Tensor(mask[:, t].astype(float).reshape(1, -1)) for t in range(mask.shape[1])]


def test_gru_cell_zero_params_zero_state_gives_zero():
    p = zero_gru(2, 3)
    out = layers.gru_sequence([ad.Tensor(np.ones((2, 1)))], p)
    assert len(out) == 1
    npt.assert_array_equal(out[0].data, np.zeros((3, 1)))


def test_gru_cell_output_is_convex_combination(rng):
    # h stays inside (-1, 1) whenever h_prev does: each new state is a convex
    # mix of the previous one and a tanh value
    p = make_gru(2, 4)
    out = layers.gru_sequence(columns_of(rng.uniform(-2, 2, (2, 6))), p)
    assert all((np.abs(s.data) < 1.0).all() for s in out)


def test_gru_cell_matches_formula_oracle():
    # the second step starts from the state the first one reached
    p = make_gru(2, 1, seed=13)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = layers.gru_sequence(columns_of(x), p)
    first = gru_cell_loops(x[:, 0], np.zeros(1), *gru_params_arrays(p))
    second = gru_cell_loops(x[:, 1], first, *gru_params_arrays(p))
    npt.assert_allclose(out[0].data[:, 0], first, atol=1e-12)
    npt.assert_allclose(out[1].data[:, 0], second, atol=1e-12)


def test_gru_cell_random_matches_oracle(rng):
    p = make_gru(3, 5, seed=21)
    x = rng.uniform(-2, 2, (3, 4))
    out = layers.gru_sequence(columns_of(x), p)
    h = np.zeros(5)
    for t in range(4):
        h = gru_cell_loops(x[:, t], h, *gru_params_arrays(p))
        npt.assert_allclose(out[t].data[:, 0], h, atol=1e-12)


def test_gru_cell_column_batch_equals_per_column(rng):
    p = make_gru(3, 4, seed=2)
    x = rng.uniform(-1, 1, (3, 5, 3))                  # [in x B x T]
    batched = layers.gru_sequence([ad.Tensor(x[:, :, t]) for t in range(3)], p)
    for j in range(5):
        single = layers.gru_sequence(columns_of(x[:, j, :]), p)
        for t in range(3):
            npt.assert_allclose(batched[t].data[:, j:j + 1], single[t].data, atol=1e-12)


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
    for j in range(batch):
        got = np.hstack([s.data[:, j:j + 1] for s in out])
        npt.assert_allclose(got, bigru_loops(seqs[j], p, p, list(mask[j]))[rows], atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_keep_zero_carries_state_bit_identical(rng, reverse):
    p = make_gru(2, 3, seed=62)
    mask = np.array([[False, True, False, False, True, False],
                     [True, False, True, True, False, False]])
    columns = [ad.Tensor(rng.uniform(-1, 1, (2, 2))) for _ in range(6)]
    out = layers.gru_sequence(columns, p, keep_rows(mask), reverse=reverse)
    order = list(range(5, -1, -1)) if reverse else list(range(6))
    before = np.zeros((3, 2))
    for t in order:
        for j in range(2):
            if not mask[j, t]:
                npt.assert_array_equal(out[t].data[:, j], before[:, j])
        before = out[t].data
    assert (before != 0.0).all()


def test_gru_sequence_records_one_node(rng):
    p = make_gru(2, 3, seed=63)
    g = ad.Graph()
    with g:
        out = layers.gru_sequence(columns_of(rng.uniform(-1, 1, (2, 5))), p)
    ops = [node.op for node in g._nodes]
    assert ops == ["gru_sequence"] + ["slice_cols"] * 5
    assert len(out) == 5


def _weighted_state_sum(states, weights):
    total = None
    for s, w in zip(states, weights):
        term = ad.sum_all(ad.mul(s, w))
        total = term if total is None else ad.add(total, term)
    return total


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_gradients_match_tape_reference(rng, reverse):
    p = make_gru(3, 4, seed=64)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(5)]
    mask = np.array([[True, True, False, True, False],
                     [False, True, True, True, True],
                     [True, False, False, False, False]])
    keep = keep_rows(mask)
    weights = [ad.Tensor(rng.uniform(-1, 1, (4, 3))) for _ in range(5)]
    tensors = list(p.named().values()) + columns
    grads = []
    for run in (layers.gru_sequence, gru_sequence_reference):
        for t in tensors:
            t.zero_grad()
        g = ad.Graph()
        with g:
            loss = _weighted_state_sum(run(columns, p, keep, reverse=reverse), weights)
        g.backward(loss)
        grads.append([t.grad.copy() for t in tensors])
    for fused_grad, reference_grad in zip(*grads):
        npt.assert_allclose(fused_grad, reference_grad, rtol=0, atol=1e-10)
    # an input at a step its column does not keep gets exactly zero gradient
    npt.assert_array_equal(grads[0][len(p.named()) + 4][:, 2], 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_grad_check_with_input_columns(rng, reverse):
    p = make_gru(3, 2, seed=65)
    columns = [ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True) for _ in range(4)]
    keep = keep_rows(np.array([[True, False, True, True], [True, True, True, False]]))
    weights = [ad.Tensor(rng.uniform(-1, 1, (2, 2))) for _ in range(4)]

    def f():
        return _weighted_state_sum(layers.gru_sequence(columns, p, keep, reverse=reverse),
                                   weights)

    params = dict(p.named())
    params.update((f"x{t}", c) for t, c in enumerate(columns))
    report = ad.grad_check(f, params, h=1e-5)
    assert report.passed(1e-4), report.summary()


# ---------------------------------------------------------------------------
# bigru
# ---------------------------------------------------------------------------


def stacked(states):
    return np.hstack([s.data for s in states])


def test_bigru_single_step_concatenates_both_cells(rng):
    pf, pb = make_gru(2, 3, seed=3), make_gru(2, 3, seed=4)
    x = rng.uniform(-1, 1, (2, 1))
    out = layers.bigru([ad.Tensor(x)], pf, pb)
    f = gru_cell(ad.Tensor(x), ad.Tensor(np.zeros((3, 1))), pf)
    b = gru_cell(ad.Tensor(x), ad.Tensor(np.zeros((3, 1))), pb)
    assert len(out) == 1
    npt.assert_allclose(out[0].data, np.vstack([f.data, b.data]), atol=1e-15)


def test_bigru_zero_params_zero_output(rng):
    pf, pb = zero_gru(2, 3), zero_gru(2, 3)
    out = layers.bigru(columns_of(rng.uniform(-1, 1, (2, 4))), pf, pb)
    npt.assert_array_equal(stacked(out), np.zeros((6, 4)))


def test_bigru_matches_loop_oracle(rng):
    # batch column j of every step belongs to sequence j
    pf, pb = make_gru(3, 2, seed=5), make_gru(3, 2, seed=6)
    seqs = rng.uniform(-1, 1, (4, 3, 3))              # [B x in x T]
    out = layers.bigru([ad.Tensor(seqs[:, :, t].T) for t in range(3)], pf, pb)
    for j in range(4):
        got = np.hstack([s.data[:, j:j + 1] for s in out])
        npt.assert_allclose(got, bigru_loops(seqs[j], pf, pb), atol=1e-12)


def test_bigru_masked_matches_loop_oracle(rng):
    pf, pb = make_gru(2, 2, seed=8), make_gru(2, 2, seed=9)
    seqs = rng.uniform(-1, 1, (3, 2, 5))              # [B x in x T]
    masks = np.array([[True, True, False, True, False],
                      [True, False, False, False, False],
                      [True, True, True, True, True]])
    keep = [ad.Tensor(masks[:, t].astype(float).reshape(1, -1)) for t in range(5)]
    out = layers.bigru([ad.Tensor(seqs[:, :, t].T) for t in range(5)], pf, pb, keep)
    for j in range(3):
        got = np.hstack([s.data[:, j:j + 1] for s in out])
        npt.assert_allclose(got, bigru_loops(seqs[j], pf, pb, list(masks[j])), atol=1e-12)


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
        assert (np.abs(stacked(out)) < 1.0).all()


# ---------------------------------------------------------------------------
# word_attention
# ---------------------------------------------------------------------------


def make_attn(hidden, seed=17):
    return layers.WordAttentionParams.create(hidden, np.random.default_rng(seed))


def test_word_attention_single_position(rng):
    p = make_attn(2)
    v = rng.uniform(-1, 1, (4, 1))
    pooled, weights = layers.word_attention(columns_of(v), np.array([[True]]), p)
    npt.assert_array_equal(weights.data, [[1.0]])
    npt.assert_allclose(pooled.data, v, atol=1e-15)


def test_word_attention_identical_columns_uniform(rng):
    p = make_attn(3)
    col = rng.uniform(-1, 1, (6, 1))
    v = np.repeat(col, 4, axis=1)
    mask = np.array([[True, True, True, False]])
    pooled, weights = layers.word_attention(columns_of(v), mask, p)
    npt.assert_allclose(weights.data[0, :3], [1 / 3] * 3, atol=1e-12)
    assert weights.data[0, 3] == 0.0


def test_word_attention_matches_loop_oracle(rng):
    # batch column j of every state is one sentence with mask row j
    p = make_attn(2, seed=23)
    v = rng.uniform(-1, 1, (3, 4, 4))                 # [B x 2h x T]
    mask = np.array([[True, False, True, True],
                     [False, True, False, False],
                     [True, True, True, True]])
    pooled, weights = layers.word_attention([ad.Tensor(v[:, :, t].T) for t in range(4)],
                                            mask, p)
    assert weights.shape == (3, 4) and pooled.shape == (4, 3)
    for j in range(3):
        exp_pooled, exp_alpha = word_attention_loops(
            v[j], list(mask[j]), p.proj.data, p.bias.data.reshape(-1), p.context.data)
        npt.assert_allclose(weights.data[j], exp_alpha, atol=1e-12)
        npt.assert_allclose(pooled.data[:, j], exp_pooled, atol=1e-12)


def test_word_attention_fully_masked_errors(rng):
    p = make_attn(2)
    mask = np.array([[True, False, False], [False, False, False]])
    with pytest.raises(ad.DegenerateMaskError):
        layers.word_attention([ad.Tensor(rng.uniform(-1, 1, (4, 2))) for _ in range(3)],
                              mask, p)


def test_word_attention_weights_sum_to_one_masked_zero(rng):
    p = make_attn(2, seed=29)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        v = rng.uniform(-2, 2, (4, m))
        mask = rng.uniform(size=m) < 0.7
        if not mask.any():
            mask[0] = True
        _, weights = layers.word_attention(columns_of(v), mask.reshape(1, -1), p)
        assert abs(weights.data.sum() - 1.0) <= 1e-12
        assert (weights.data[0, ~mask] == 0.0).all()


def test_word_attention_ignores_masked_column_values(rng):
    p = make_attn(2, seed=31)
    v = rng.uniform(-1, 1, (4, 4))
    mask = np.array([[True, False, True, False]])
    pooled_a, weights_a = layers.word_attention(columns_of(v), mask, p)
    v2 = v.copy()
    v2[:, ~mask[0]] = rng.uniform(50, 60, (4, 2))
    pooled_b, weights_b = layers.word_attention(columns_of(v2), mask, p)
    npt.assert_array_equal(pooled_a.data, pooled_b.data)
    npt.assert_array_equal(weights_a.data, weights_b.data)


# ---------------------------------------------------------------------------
# co_attention
# ---------------------------------------------------------------------------


def make_coattn(hidden, seed=37):
    return layers.CoAttentionParams.create(hidden, np.random.default_rng(seed))


def test_co_attention_singletons(rng):
    p = make_coattn(2)
    s = rng.uniform(-1, 1, (4, 1))
    d = rng.uniform(-1, 1, (4, 1))
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d),
                              np.array([True]), np.array([True]), p)
    npt.assert_array_equal(out.attn_primary.data, [[1.0]])
    npt.assert_array_equal(out.attn_secondary.data, [[1.0]])
    npt.assert_allclose(out.pooled_primary.data, s.T, atol=1e-15)
    npt.assert_allclose(out.pooled_secondary.data, d.T, atol=1e-15)


def test_co_attention_zero_secondary_side(rng):
    p = make_coattn(2)
    s = rng.uniform(-1, 1, (4, 3))
    d = np.zeros((4, 2))
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d),
                              np.array([True] * 3), np.array([True] * 2), p)
    npt.assert_array_equal(out.affinity.data, np.zeros((2, 3)))
    npt.assert_allclose(out.interaction_primary.data,
                        np.tanh(p.w_primary.data @ s), atol=1e-12)
    npt.assert_allclose(out.attn_secondary.data, [[0.5, 0.5]], atol=1e-12)


def test_co_attention_matches_index_loop_oracle(rng):
    p = make_coattn(3, seed=41)
    s = rng.uniform(-1, 1, (6, 3))
    d = rng.uniform(-1, 1, (6, 2))
    mask_s = np.array([True, True, False])
    mask_d = np.array([True, True])
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), mask_s, mask_d, p)
    aff, inter_s, inter_d, attn_s, attn_d, pooled_s, pooled_d = co_attention_loops(
        s, d, list(mask_s), list(mask_d), *coattn_params_arrays(p))
    npt.assert_allclose(out.affinity.data, aff, atol=1e-12)
    npt.assert_allclose(out.interaction_primary.data, inter_s, atol=1e-12)
    npt.assert_allclose(out.interaction_secondary.data, inter_d, atol=1e-12)
    npt.assert_allclose(out.attn_primary.data[0], attn_s, atol=1e-12)
    npt.assert_allclose(out.attn_secondary.data[0], attn_d, atol=1e-12)
    npt.assert_allclose(out.pooled_primary.data[0], pooled_s, atol=1e-12)
    npt.assert_allclose(out.pooled_secondary.data[0], pooled_d, atol=1e-12)


def test_co_attention_permutation_equivariance(rng):
    p = make_coattn(2, seed=43)
    s = rng.uniform(-1, 1, (4, 3))
    d = rng.uniform(-1, 1, (4, 4))
    mask_s = np.array([True, True, True])
    mask_d = np.array([True, True, True, False])
    base = layers.co_attention(ad.Tensor(s), ad.Tensor(d), mask_s, mask_d, p)
    perm = np.array([2, 0, 1, 3])
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d[:, perm]),
                              mask_s, mask_d[perm], p)
    npt.assert_allclose(out.attn_secondary.data[0], base.attn_secondary.data[0, perm],
                        atol=1e-12)
    npt.assert_allclose(out.pooled_secondary.data, base.pooled_secondary.data, atol=1e-12)
    npt.assert_allclose(out.attn_primary.data, base.attn_primary.data, atol=1e-12)
    npt.assert_allclose(out.pooled_primary.data, base.pooled_primary.data, atol=1e-12)


def test_co_attention_primary_permutation_equivariance(rng):
    p = make_coattn(2, seed=44)
    s = rng.uniform(-1, 1, (4, 4))
    d = rng.uniform(-1, 1, (4, 3))
    mask_s = np.array([True, True, False, True])
    mask_d = np.array([True, True, True])
    base = layers.co_attention(ad.Tensor(s), ad.Tensor(d), mask_s, mask_d, p)
    perm = np.array([3, 1, 0, 2])
    out = layers.co_attention(ad.Tensor(s[:, perm]), ad.Tensor(d),
                              mask_s[perm], mask_d, p)
    npt.assert_allclose(out.attn_primary.data[0], base.attn_primary.data[0, perm],
                        atol=1e-12)
    npt.assert_allclose(out.pooled_primary.data, base.pooled_primary.data, atol=1e-12)
    npt.assert_allclose(out.attn_secondary.data, base.attn_secondary.data, atol=1e-12)
    npt.assert_allclose(out.pooled_secondary.data, base.pooled_secondary.data, atol=1e-12)


def test_co_attention_pooled_in_convex_hull(rng):
    # weights are nonnegative, sum to one, and reproduce the pooled vector
    p = make_coattn(2, seed=47)
    s = rng.uniform(-1, 1, (4, 5))
    d = rng.uniform(-1, 1, (4, 3))
    mask_s = np.array([True, False, True, True, False])
    mask_d = np.array([True, True, True])
    out = layers.co_attention(ad.Tensor(s), ad.Tensor(d), mask_s, mask_d, p)
    w = out.attn_primary.data[0]
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w[~mask_s] == 0.0).all()
    npt.assert_allclose(out.pooled_primary.data[0], s @ w, atol=1e-12)


def test_co_attention_errors():
    p = make_coattn(2)
    s = ad.Tensor(np.zeros((4, 2)))
    d = ad.Tensor(np.zeros((6, 2)))
    with pytest.raises(ad.ShapeError):
        layers.co_attention(s, d, None, None, p)
    d_ok = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ad.DegenerateMaskError):
        layers.co_attention(s, d_ok, np.array([True, True]), np.array([False, False]), p)


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
        pooled, _ = layers.word_attention(states, mask_seq.reshape(1, -1), attn)
        out = layers.co_attention(ad.concat([pooled, pooled, pooled, pooled], axis=1),
                                  d_side, mask_seq, mask_d, co)
        return ad.sum_all(ad.add(out.pooled_primary, out.pooled_secondary))

    params = {}
    for prefix, group in (("fwd", pf), ("bwd", pb)):
        for key, t in group.named().items():
            params[f"{prefix}.{key}"] = t
    for key, t in attn.named().items():
        params[f"attn.{key}"] = t
    for key, t in co.named().items():
        params[f"co.{key}"] = t
    report = ad.grad_check(f, params, h=1e-5)
    assert report.passed(1e-5), report.summary()
