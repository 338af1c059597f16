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
# gru_cell
# ---------------------------------------------------------------------------


def test_gru_cell_zero_params_zero_state_gives_zero():
    p = zero_gru(2, 3)
    out = layers.gru_cell(ad.Tensor(np.ones((2, 1))), ad.Tensor(np.zeros((3, 1))), p)
    npt.assert_array_equal(out.data, np.zeros((3, 1)))


def test_gru_cell_output_is_convex_combination(rng):
    # h stays inside (-1, 1) whenever h_prev does: new state is a convex mix
    # of h_prev and a tanh value
    p = make_gru(2, 4)
    h_prev = rng.uniform(-0.99, 0.99, (4, 1))
    out = layers.gru_cell(ad.Tensor(rng.uniform(-2, 2, (2, 1))), ad.Tensor(h_prev), p)
    assert (np.abs(out.data) < 1.0).all()


def test_gru_cell_matches_formula_oracle():
    p = make_gru(2, 1, seed=13)
    x = np.array([[1.0], [0.0]])
    h_prev = np.array([[0.5]])
    out = layers.gru_cell(ad.Tensor(x), ad.Tensor(h_prev), p)
    expected = gru_cell_loops(x[:, 0], h_prev[:, 0], *gru_params_arrays(p))
    npt.assert_allclose(out.data[:, 0], expected, atol=1e-12)


def test_gru_cell_random_matches_oracle(rng):
    p = make_gru(3, 5, seed=21)
    x = rng.uniform(-2, 2, (3, 1))
    h_prev = rng.uniform(-1, 1, (5, 1))
    out = layers.gru_cell(ad.Tensor(x), ad.Tensor(h_prev), p)
    expected = gru_cell_loops(x[:, 0], h_prev[:, 0], *gru_params_arrays(p))
    npt.assert_allclose(out.data[:, 0], expected, atol=1e-12)


def test_gru_cell_column_batch_equals_per_column(rng):
    p = make_gru(3, 4, seed=2)
    x = rng.uniform(-1, 1, (3, 5))
    h_prev = rng.uniform(-1, 1, (4, 5))
    batched = layers.gru_cell(ad.Tensor(x), ad.Tensor(h_prev), p)
    for j in range(5):
        single = layers.gru_cell(ad.Tensor(x[:, j:j + 1]), ad.Tensor(h_prev[:, j:j + 1]), p)
        npt.assert_allclose(batched.data[:, j:j + 1], single.data, atol=1e-12)


def test_gru_cell_shape_errors():
    p = make_gru(2, 3)
    with pytest.raises(ad.ShapeError):
        layers.gru_cell(ad.Tensor(np.zeros((5, 1))), ad.Tensor(np.zeros((3, 1))), p)
    with pytest.raises(ad.ShapeError):
        layers.gru_cell(ad.Tensor(np.zeros((2, 1))), ad.Tensor(np.zeros((4, 1))), p)


# ---------------------------------------------------------------------------
# bigru
# ---------------------------------------------------------------------------


def columns_of(seq):
    """Split [in x T] into T [in x 1] column tensors."""
    return [ad.Tensor(seq[:, t:t + 1]) for t in range(seq.shape[1])]


def stacked(states):
    return np.hstack([s.data for s in states])


def test_bigru_single_step_concatenates_both_cells(rng):
    pf, pb = make_gru(2, 3, seed=3), make_gru(2, 3, seed=4)
    x = rng.uniform(-1, 1, (2, 1))
    out = layers.bigru([ad.Tensor(x)], pf, pb)
    zero = ad.Tensor(np.zeros((3, 1)))
    f = layers.gru_cell(ad.Tensor(x), zero, pf)
    b = layers.gru_cell(ad.Tensor(x), zero, pb)
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
