import ast
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dualcan import autodiff as ad

from oracles import central_difference, matmul_loops, softmax_loops
from tape_ops import (grad_check, log, mul, scale, sigmoid, slice_rows, softmax_rows, sub, sum_all,
                      tanh, transpose, zero_grad)


def test_tensor_rejects_non_finite():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([[1.0, np.nan]])
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([[np.inf]])


def test_tensor_scalar_becomes_1x1():
    t = ad.Tensor(3.0)
    assert t.shape == (1, 1)
    assert t.item() == 3.0


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(ad.Tensor(np.eye(2)), a)
    npt.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
    npt.assert_array_equal(out.data, [[11.0]])


def test_matmul_matches_triple_loop(rng):
    a = rng.uniform(-2, 2, (5, 4))
    b = rng.uniform(-2, 2, (4, 3))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    npt.assert_allclose(out.data, matmul_loops(a, b), atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))


def test_matmul_gradients(rng):
    a = ad.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(ad.matmul(a, b))
    g.backward(loss)
    for tensor in (a, b):
        def f(t=tensor):
            return float((a.data @ b.data).sum())
        npt.assert_allclose(tensor.grad, central_difference(f, tensor.data), rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# tanh / sigmoid / log
# ---------------------------------------------------------------------------


def test_tanh_zero_and_odd_symmetry(rng):
    assert tanh(ad.Tensor([[0.0]])).data[0, 0] == 0.0
    x = rng.uniform(-2, 2, (1, 7))
    npt.assert_allclose(tanh(ad.Tensor(-x)).data, -tanh(ad.Tensor(x)).data, atol=1e-15)
    assert (np.abs(tanh(ad.Tensor(x)).data) < 1.0).all()


def test_tanh_gradient_matches_central_difference():
    x = ad.Tensor([[0.5]], requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(tanh(x))
    g.backward(loss)
    fd = central_difference(lambda: float(np.tanh(x.data).sum()), x.data, h=1e-6)
    assert abs(x.grad[0, 0] - fd[0, 0]) < 1e-8


@pytest.mark.parametrize("op,ref", [
    (sigmoid, lambda v: 1.0 / (1.0 + np.exp(-v))),
    (tanh, np.tanh),
])
def test_elementwise_gradients(op, ref, rng):
    x = ad.Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(op(x))
    g.backward(loss)
    fd = central_difference(lambda: float(ref(x.data).sum()), x.data)
    npt.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-9)


def test_log_floor_clamps_and_zeroes_gradient():
    x = ad.Tensor([[1e-15, 0.5]], requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(log(x, floor=1e-12))
    assert loss.data[0, 0] == pytest.approx(np.log(1e-12) + np.log(0.5))
    g.backward(loss)
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_on_equal_inputs():
    out = softmax_rows(ad.Tensor([[0.0, 0.0, 0.0]]))
    npt.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_single_element():
    out = softmax_rows(ad.Tensor([[4.2]]))
    npt.assert_array_equal(out.data, [[1.0]])


def test_softmax_mask_hides_position():
    out = softmax_rows(ad.Tensor([[2.0, 1.0, 1.0]]), mask=[False, True, True])
    npt.assert_allclose(out.data, [[0.0, 0.5, 0.5]], atol=1e-15)
    assert out.data[0, 0] == 0.0


def test_softmax_all_masked_raises():
    with pytest.raises(ad.DegenerateMaskError):
        softmax_rows(ad.Tensor([[1.0, 2.0]]), mask=[False, False])


def test_softmax_sums_to_one_and_shift_invariant(rng):
    for _ in range(50):
        n = int(rng.integers(1, 8))
        x = rng.uniform(-2, 2, (1, n))
        mask = rng.uniform(size=n) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        out = softmax_rows(ad.Tensor(x), mask).data
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax_rows(ad.Tensor(x + 3.7), mask).data
        npt.assert_allclose(out, shifted, atol=1e-12)
        npt.assert_allclose(out[0], softmax_loops(x[0], list(mask)), atol=1e-12)


def test_masked_softmax_without_mask_equals_all_true_mask(rng):
    x = rng.uniform(-30, 30, (4, 5))
    npt.assert_array_equal(ad.masked_softmax(x), ad.masked_softmax(x, np.ones(x.shape, bool)))
    mask = np.ones(x.shape, bool)
    mask[2] = False
    with pytest.raises(ad.DegenerateMaskError):
        ad.masked_softmax(x, mask)


def test_softmax_gradient_matches_central_difference(rng):
    x = ad.Tensor(rng.uniform(-2, 2, (2, 4)), requires_grad=True)
    mask = np.array([[True, True, False, True], [True, True, True, True]])
    weights = rng.uniform(-1, 1, (2, 4))

    def value():
        outs = []
        for r in range(2):
            outs.append(softmax_loops(x.data[r], list(mask[r])))
        return float((np.array(outs) * weights).sum())

    g = ad.Graph()
    with g:
        loss = sum_all(mul(softmax_rows(x, mask), ad.Tensor(weights)))
    g.backward(loss)
    npt.assert_allclose(x.grad, central_difference(value, x.data), rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def test_concat_then_slice_round_trips_bit_exact(rng):
    a = ad.Tensor(rng.uniform(-2, 2, (3, 2)))
    b = ad.Tensor(rng.uniform(-2, 2, (3, 5)))
    joined = ad.concat([a, b], axis=1)
    back_a = ad.slice_cols(joined, 0, 2)
    back_b = ad.slice_cols(joined, 2, 7)
    npt.assert_array_equal(back_a.data, a.data)
    npt.assert_array_equal(back_b.data, b.data)
    rows = ad.concat([transpose(a), transpose(b)], axis=0)
    npt.assert_array_equal(slice_rows(rows, 2, 7).data, b.data.T)


def test_concat_gradient_splits(rng):
    a = ad.Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    w = rng.uniform(-1, 1, (2, 5))
    g = ad.Graph()
    with g:
        loss = sum_all(mul(ad.concat([a, b], axis=1), ad.Tensor(w)))
    g.backward(loss)
    npt.assert_allclose(a.grad, w[:, :2], atol=1e-15)
    npt.assert_allclose(b.grad, w[:, 2:], atol=1e-15)


def test_slice_out_of_range():
    with pytest.raises(ad.ShapeError):
        ad.slice_cols(ad.Tensor(np.zeros((2, 3))), 2, 5)


def test_gather_cols_values_zero_columns_and_gradient(rng):
    x = ad.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = rng.uniform(-1, 1, (3, 4))
    g = ad.Graph()
    with g:
        out = ad.gather_cols(x, [2, -1, 0, 2])
        loss = sum_all(mul(out, ad.Tensor(w)))
    g.backward(loss)
    npt.assert_array_equal(out.data, np.stack([x.data[:, 2], np.zeros(3), x.data[:, 0],
                                               x.data[:, 2]], axis=1))
    expected = np.zeros((3, 4))
    expected[:, 0] = w[:, 2]
    expected[:, 2] = w[:, 0] + w[:, 3]      # a column picked twice sums both gradients
    npt.assert_allclose(x.grad, expected, atol=1e-15)
    for bad in ([4], [-2], [[0]]):
        with pytest.raises(ad.ShapeError):
            ad.gather_cols(x, bad)


def test_broadcast_add_gradient_sums(rng):
    x = ad.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    bias = ad.Tensor(rng.uniform(-1, 1, (3, 1)), requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(ad.add(x, bias))
    g.backward(loss)
    npt.assert_array_equal(x.grad, np.ones((3, 4)))
    npt.assert_array_equal(bias.grad, np.full((3, 1), 4.0))


def test_mul_row_broadcast_gradient(rng):
    x = ad.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    row = ad.Tensor(rng.uniform(-1, 1, (1, 4)), requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(mul(x, row))
    g.backward(loss)
    npt.assert_allclose(x.grad, np.broadcast_to(row.data, (3, 4)), atol=1e-15)
    npt.assert_allclose(row.grad, x.data.sum(axis=0, keepdims=True), atol=1e-15)


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones(rng):
    x = ad.Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(x)
    g.backward(loss)
    npt.assert_array_equal(x.grad, np.ones((3, 5)))


def test_backward_square_gives_two_x():
    x = ad.Tensor([[1.5]], requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(mul(x, x))
    g.backward(loss)
    assert x.grad[0, 0] == pytest.approx(3.0)


def test_backward_accumulates_across_fanout():
    x = ad.Tensor([[2.0]], requires_grad=True)
    g = ad.Graph()
    with g:
        y = ad.add(x, x)
        loss = sum_all(ad.add(y, x))
    g.backward(loss)
    assert x.grad[0, 0] == 3.0


def test_zero_grad_zeroes_in_place_and_keeps_unallocated_grad_none():
    x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    zero_grad(x)
    assert x.grad is None
    g = ad.Graph()
    with g:
        loss = sum_all(mul(x, x))
    g.backward(loss)
    grad = x.grad
    zero_grad(x)
    assert x.grad is grad
    npt.assert_array_equal(grad, [[0.0, 0.0]])


def test_backward_off_path_gets_zero_grad():
    x = ad.Tensor([[1.0]], requires_grad=True)
    y = ad.Tensor([[1.0]], requires_grad=True)
    g = ad.Graph()
    with g:
        _branch = tanh(y)  # recorded but never feeds the loss
        loss = sum_all(x)
    g.backward(loss)
    assert x.grad[0, 0] == 1.0
    npt.assert_array_equal(y.grad, [[0.0]])


def test_second_backward_on_one_graph_raises_and_keeps_first_grads():
    x = ad.Tensor([[2.0]], requires_grad=True)
    g = ad.Graph()
    with g:
        t = tanh(x)
        loss = sum_all(mul(t, t))
    g.backward(loss)
    first = x.grad.copy()
    npt.assert_allclose(first, 2.0 * np.tanh(2.0) * (1.0 - np.tanh(2.0) ** 2), rtol=1e-15)
    with pytest.raises(ad.GraphError, match="already ran on this graph"):
        g.backward(loss)
    npt.assert_array_equal(x.grad, first)


def test_backward_releases_what_a_node_saved():
    x = ad.Tensor([[0.5, -1.0]], requires_grad=True)

    def scaled(x):
        saved = np.array([[3.0, 4.0]])

        def backward(g):
            x.grad += g * saved

        return ad.fused("scaled", x.data * saved, (x,), backward), weakref.ref(saved)

    g = ad.Graph()
    with g:
        y, saved = scaled(x)
        loss = sum_all(y)
    assert saved() is not None
    g.backward(loss)
    # the graph is still referenced, but the node's backward has run
    assert len(g) == 2 and saved() is None
    npt.assert_array_equal(x.grad, [[3.0, 4.0]])


def test_backward_rejects_non_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    g = ad.Graph()
    with g:
        y = tanh(x)
    with pytest.raises(ad.GraphError):
        g.backward(y)


def test_backward_rejects_foreign_tensor():
    g = ad.Graph()
    with g:
        pass
    with pytest.raises(ad.GraphError):
        g.backward(ad.Tensor([[1.0]], requires_grad=True))


def test_loss_grad_wrt_itself_is_one():
    x = ad.Tensor([[2.0]], requires_grad=True)
    g = ad.Graph()
    with g:
        loss = sum_all(mul(x, x))
    g.backward(loss)
    assert loss.grad[0, 0] == 1.0


def test_all_ops_match_central_differences_on_random_inputs(rng):
    """Every differentiable op agrees with finite differences within 1e-6."""
    specs = {
        "matmul": lambda a, b: ad.matmul(a, b),
        "add": ad.add,
        "sub": sub,
        "mul": mul,
    }
    for name, op in specs.items():
        if name == "matmul":
            a = ad.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
            b = ad.Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        else:
            a = ad.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
            b = ad.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        w = rng.uniform(-1, 1, op(a, b).data.shape)

        def value():
            return float((op(a, b).data * w).sum())

        zero_grad(a), zero_grad(b)
        g = ad.Graph()
        with g:
            loss = sum_all(mul(op(a, b), ad.Tensor(w)))
        g.backward(loss)
        for t in (a, b):
            rel = np.abs(t.grad - central_difference(value, t.data))
            assert rel.max() < 1e-6, f"{name}: {rel.max()}"
    unary = {
        "tanh": (tanh, (-2, 2)),
        "sigmoid": (sigmoid, (-2, 2)),
        "transpose": (transpose, (-2, 2)),
        "scale": (lambda t: scale(t, -1.7), (-2, 2)),
        "log": (lambda t: log(t), (0.1, 2)),
        "sum": (sum_all, (-2, 2)),
        "slice_rows": (lambda t: slice_rows(t, 1, 3), (-2, 2)),
        "slice_cols": (lambda t: ad.slice_cols(t, 0, 2), (-2, 2)),
        "concat_self": (lambda t: ad.concat([t, tanh(t)], axis=0), (-2, 2)),
        "softmax": (lambda t: softmax_rows(t), (-2, 2)),
    }
    for name, (op, (lo, hi)) in unary.items():
        x = ad.Tensor(rng.uniform(lo, hi, (3, 4)), requires_grad=True)
        w = rng.uniform(-1, 1, op(x).data.shape)

        def value():
            return float((op(x).data * w).sum())

        g = ad.Graph()
        with g:
            loss = sum_all(mul(op(x), ad.Tensor(w)))
        g.backward(loss)
        rel = np.abs(x.grad - central_difference(value, x.data))
        assert rel.max() < 1e-6, f"{name}: {rel.max()}"


def test_forward_replay_is_bit_identical(rng):
    x = rng.uniform(-2, 2, (4, 4))
    w = rng.uniform(-2, 2, (4, 4))

    def run():
        t = ad.Tensor(x)
        return softmax_rows(ad.matmul(tanh(ad.matmul(ad.Tensor(w), t)), t)).data

    first = run()
    second = run()
    npt.assert_array_equal(first, second)


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------


def test_grad_check_quadratic_form(rng):
    q = rng.uniform(-1, 1, (4, 4))
    x = ad.Tensor(rng.uniform(-1, 1, (4, 1)), requires_grad=True)

    def f():
        return sum_all(mul(x, ad.matmul(ad.Tensor(q), x)))

    report = grad_check(f, {"x": x}, h=1e-5)
    assert report.max_rel_err < 1e-9
    # analytic check: grad = (Q + Q^T) x
    g = ad.Graph()
    zero_grad(x)
    with g:
        loss = f()
    g.backward(loss)
    npt.assert_allclose(x.grad, (q + q.T) @ x.data, rtol=1e-10)


def test_grad_check_tanh_chain(rng):
    x = ad.Tensor(rng.uniform(-1, 1, (3, 1)), requires_grad=True)
    w = [ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True) for _ in range(5)]

    def f():
        out = x
        for wi in w:
            out = tanh(ad.matmul(wi, out))
        return sum_all(out)

    params = {"x": x, **{f"w{i}": wi for i, wi in enumerate(w)}}
    report = grad_check(f, params, h=1e-5)
    assert report.max_rel_err < 1e-6


def test_grad_check_constant_function_passes():
    x = ad.Tensor([[1.0, 2.0]], requires_grad=True)

    def f():
        return sum_all(scale(x, 0.0))

    report = grad_check(f, {"x": x}, h=1e-5)
    assert report.max_rel_err < 1e-10
    assert report.passed(1e-10)


def test_grad_check_rejects_bad_step():
    x = ad.Tensor([[1.0]], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: sum_all(x), {"x": x}, h=1e-2)


def test_grad_check_reports_worst_coordinate(rng):
    x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)

    def f():
        return sum_all(mul(x, x))

    report = grad_check(f, {"x": x}, h=1e-5)
    assert report.worst is not None
    assert report.worst.name == "x"
    assert len(report.worst.coord) == 2
    assert "max rel err" in report.summary()


def test_grad_check_sampling_caps_coordinates(rng):
    x = ad.Tensor(rng.uniform(-1, 1, (20, 20)), requires_grad=True)

    def f():
        return sum_all(mul(x, x))

    report = grad_check(f, {"x": x}, h=1e-5, max_coords=32)
    assert report.max_rel_err < 1e-8


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    """An op only tests call belongs in tests/tape_ops.py, not in the package."""
    package = Path(ad.__file__).parent
    tree = ast.parse((package / "autodiff.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in package.glob("*.py"):
        if path.name != "autodiff.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                    used.update(alias.name for alias in node.names)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "autodiff"):
                    used.add(node.attr)
    assert public and sorted(public - used) == []
