import math

import numpy as np
import pytest

from metacl import autodiff as ad
from metacl.autodiff import (
    MASK_FILL,
    Tensor,
    backward,
    grad_only,
    matmul,
    relu,
    sgd_step,
    zero_grads,
)
from metacl.errors import ContractError, DimensionError

from helpers import check_gradients, finite_difference_grad
from reference import (
    div,
    gather_rows,
    l2_distance,
    mask_cols,
    slice_cols,
    soft_cross_entropy,
    softmax_cross_entropy,
    sqrt,
    sub,
    tsum,
)


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity_left():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_identity_times_column():
    out = matmul(Tensor(np.eye(2)), Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    check_gradients(lambda: tsum(matmul(a, b)), [a, b], rtol=1e-5)


# ---------------------------------------------------------------------------
# relu

def test_relu_sign_cases():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_identity_on_positives():
    x = np.array([0.5, 1.0, 3.0])
    np.testing.assert_array_equal(relu(Tensor(x)).data, x)


def test_relu_subgradient():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    backward(tsum(relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_relu_passes_nan_and_keeps_zero_sign():
    out = relu(Tensor([np.nan, -0.0, -np.inf, np.inf])).data
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out[1:], [0.0, 0.0, np.inf])
    assert not np.signbit(out[1])


# ---------------------------------------------------------------------------
# softmax cross-entropy

def test_ce_uniform_logits():
    loss = softmax_cross_entropy(Tensor([[0.0, 0.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(math.log(3), abs=1e-12)


def test_ce_saturated_logits():
    loss = softmax_cross_entropy(Tensor([[100.0, 0.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_ce_target_out_of_range():
    with pytest.raises(IndexError):
        softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=4)
    check_gradients(lambda: softmax_cross_entropy(logits, targets), [logits], rtol=1e-5)


def test_soft_ce_matches_hard_ce_on_onehot():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)
    onehot = np.zeros((4, 5))
    onehot[np.arange(4), targets] = 1.0
    hard = softmax_cross_entropy(Tensor(raw), targets).item()
    soft = soft_cross_entropy(Tensor(raw), onehot).item()
    assert soft == pytest.approx(hard, rel=1e-12)


def test_soft_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    probs = rng.uniform(0.1, 1.0, size=(3, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    check_gradients(lambda: soft_cross_entropy(logits, probs), [logits], rtol=1e-5)


# ---------------------------------------------------------------------------
# l2 distance

def test_l2_identity_is_zero():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert l2_distance(a, Tensor(a.data.copy())).item() == 0.0


def test_l2_3_4_5():
    assert l2_distance(Tensor([3.0, 4.0]), Tensor([0.0, 0.0])).item() == pytest.approx(5.0)


def test_l2_shape_mismatch():
    with pytest.raises(DimensionError, match=r"\(2,\).*\(3,\)"):
        l2_distance(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_l2_row_average():
    a = Tensor([[3.0, 4.0], [0.0, 0.0]])
    b = Tensor([[0.0, 0.0], [0.0, 1.0]])
    assert l2_distance(a, b).item() == pytest.approx((5.0 + 1.0) / 2)


def test_l2_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_gradients(lambda: l2_distance(a, b), [a, b], rtol=1e-5)


def test_l2_zero_distance_has_zero_subgradient():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[1.0, 2.0]])
    backward(l2_distance(a, b))
    np.testing.assert_array_equal(a.grad, [[0.0, 0.0]])


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_linear_sum():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(tsum(w))
    np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])


def test_backward_dead_branch():
    w = Tensor([1.0, 2.0], requires_grad=True)
    loss = tsum(w * Tensor([0.0, 0.0]))
    backward(loss)
    np.testing.assert_array_equal(w.grad, [0.0, 0.0])


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(w * 2.0)


def test_backward_accumulates_across_calls():
    w = Tensor([1.0, 2.0], requires_grad=True)
    loss = tsum(w)
    backward(loss)
    backward(loss)
    np.testing.assert_array_equal(w.grad, [2.0, 2.0])


def test_backward_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(5, 4)))
    targets = rng.integers(0, 3, size=5)
    w1 = Tensor(rng.normal(size=(4, 6)) * 0.5, requires_grad=True)
    b1 = Tensor(np.zeros(6), requires_grad=True)
    w2 = Tensor(rng.normal(size=(6, 3)) * 0.5, requires_grad=True)
    b2 = Tensor(np.zeros(3), requires_grad=True)

    def loss_fn():
        hidden = relu(matmul(x, w1) + b1)
        return softmax_cross_entropy(matmul(hidden, w2) + b2, targets)

    check_gradients(loss_fn, [w1, b1, w2, b2], rtol=1e-4)


# ---------------------------------------------------------------------------
# sgd

def test_sgd_basic_update():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([2.0])
    sgd_step([p], 0.1)
    np.testing.assert_allclose(p.data, [0.8])
    assert p.grad is None


def test_sgd_zero_grad_keeps_param():
    p = Tensor([3.0], requires_grad=True)
    p.grad = np.array([0.0])
    sgd_step([p], 0.1)
    np.testing.assert_array_equal(p.data, [3.0])


def test_sgd_missing_grad_is_contract_error():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        sgd_step([p], 0.1)


def test_sgd_nonpositive_lr_rejected():
    # and a NaN or infinite one, before any parameter or gradient changes
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.array([1.0, 3.0])
    for lr in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ContractError, match="learning rate"):
            sgd_step([p], lr)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        np.testing.assert_array_equal(p.grad, [1.0, 3.0])


def test_sgd_descends_quadratic():
    p = Tensor([1.0], requires_grad=True)
    before = float((p.data ** 2)[0])
    backward(p * p)
    sgd_step([p], 0.1)
    np.testing.assert_allclose(p.data, [0.8])
    assert float((p.data ** 2)[0]) < before


# ---------------------------------------------------------------------------
# helper ops

def test_gather_rows_and_grad():
    table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    out = gather_rows(table, [1, 1, 3])
    np.testing.assert_array_equal(out.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
    backward(tsum(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_slice_cols_grad_pads_zeros():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    backward(tsum(slice_cols(x, 2)))
    np.testing.assert_array_equal(x.grad, [[1, 1, 0], [1, 1, 0]])


def test_mask_cols_zero_probability_and_zero_grad():
    x = Tensor(np.zeros((2, 4)), requires_grad=True)
    masked = mask_cols(x, 2)
    # a column's softmax probability is exp(-CE) with every target on it
    probs = [math.exp(-softmax_cross_entropy(masked, [col, col]).item())
             for col in range(4)]
    assert probs[2:] == [0.0, 0.0]
    np.testing.assert_allclose(probs[:2], 0.5)
    backward(tsum(mask_cols(x, 2) * Tensor(np.ones((2, 4)))))
    np.testing.assert_array_equal(x.grad[:, 2:], 0.0)
    np.testing.assert_array_equal(x.grad[:, :2], 1.0)
    assert masked.data[0, 3] == MASK_FILL


def test_tensor_of_a_copied_value_is_a_disconnected_constant():
    w = Tensor([1.0, 2.0], requires_grad=True)
    d = Tensor((w * 2.0).data.copy())
    assert not d.requires_grad and d.node is None
    backward(tsum(d * w))
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])  # no path through d
    d.data[0] = 99.0
    np.testing.assert_array_equal(w.data, [1.0, 2.0])


# ---------------------------------------------------------------------------
# constant inputs and gradient scopes

# (trainable shape, constant shape); each op runs with the trainable operand
# on the left and on the right, broadcast both ways
BINARY_SHAPES = [((3, 4), (3, 4)), ((3, 4), (4,)), ((1, 4), (3, 4)),
                 ((3, 1), (1, 4))]
BINARY_OPS = {"add": ad.add, "sub": sub, "mul": ad.mul, "div": div}


def _operand(rng, shape, trainable):
    # kept away from zero, so div's denominator is safe either way
    data = rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    return Tensor(data, requires_grad=trainable)


def _check_constant_slot(op, a, b, const_slot, weights):
    trainable = b if const_slot == 0 else a
    check_gradients(lambda: tsum(op(a, b) * weights), [trainable], rtol=1e-5)
    out = op(a, b)
    grads = out.node.backward_fn(np.ones_like(out.data))
    assert grads[const_slot] is None
    assert grads[1 - const_slot].shape == trainable.shape


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
@pytest.mark.parametrize("shapes", BINARY_SHAPES, ids=str)
@pytest.mark.parametrize("const_slot", [0, 1])
def test_binary_op_skips_constant_input(name, shapes, const_slot):
    rng = np.random.default_rng(3)
    trainable_shape, const_shape = shapes
    if const_slot == 0:
        a = _operand(rng, const_shape, False)
        b = _operand(rng, trainable_shape, True)
    else:
        a = _operand(rng, trainable_shape, True)
        b = _operand(rng, const_shape, False)
    weights = Tensor(rng.normal(size=np.broadcast_shapes(a.shape, b.shape)))
    _check_constant_slot(BINARY_OPS[name], a, b, const_slot, weights)


@pytest.mark.parametrize("const_slot", [0, 1])
def test_matmul_skips_constant_input(const_slot):
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=const_slot == 1)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=const_slot == 0)
    weights = Tensor(rng.normal(size=(3, 2)))
    _check_constant_slot(matmul, a, b, const_slot, weights)


def test_constant_only_work_records_no_node():
    w = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    assert (c * 2.0 + c).node is None
    assert (w * c).node is not None


def test_grad_only_tapes_only_the_chosen_params():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    with grad_only([v], [w, v]):
        hidden = matmul(x, w)  # depends on a frozen tensor only
        assert hidden.node is None
        backward(tsum(matmul(hidden, v)))
    assert w.grad is None
    np.testing.assert_array_equal(v.grad, hidden.data.T @ np.ones((4, 2)))
    assert w.requires_grad and v.requires_grad


def test_grad_only_restores_flags_after_an_exception():
    w = Tensor([1.0], requires_grad=True)
    v = Tensor([2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        with grad_only([v], [w, v]):
            assert not w.requires_grad and v.requires_grad
            raise RuntimeError("boom")
    assert w.requires_grad and v.requires_grad


def test_grad_only_leaves_tensors_outside_among_untouched():
    w = Tensor([1.0], requires_grad=True)
    outside = Tensor([2.0], requires_grad=True)
    constant = Tensor([3.0])
    already_off = Tensor([4.0])
    with grad_only([], [w, already_off]):
        assert not w.requires_grad
        assert outside.requires_grad and not constant.requires_grad
    assert w.requires_grad and outside.requires_grad
    assert not constant.requires_grad and not already_off.requires_grad


def test_backward_leaves_no_grad_on_intermediates():
    w = Tensor([1.0, 2.0], requires_grad=True)
    hidden = w * 3.0
    backward(tsum(hidden * hidden))
    assert hidden.grad is None
    np.testing.assert_array_equal(w.grad, 18.0 * w.data)


def reference_backward(loss):
    """``backward`` with every contribution after a flow's first added as
    ``prev + g``, a new array each time: what the engine's in-place sums
    must equal byte for byte."""
    root = loss.node
    nodes = {} if root is None else {root.seq: root}
    stack = [] if root is None else [root]
    while stack:
        for inp in stack.pop().inputs:
            node = inp.node
            if node is not None and node.seq not in nodes:
                nodes[node.seq] = node
                stack.append(node)
    flows = {loss if root is None else root: np.ones_like(loss.data)}
    for seq in sorted(nodes, reverse=True):
        node = nodes[seq]
        g_out = flows.pop(node, None)
        if g_out is None:
            continue
        for inp, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not inp.requires_grad:
                continue
            key = inp if inp.node is None else inp.node
            prev = flows.get(key)
            flows[key] = g if prev is None else prev + g
    for tensor, g in flows.items():
        if tensor.requires_grad:
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def _views_of_g_out(x):
    """An identity op that sends x three views of its output gradient."""
    return ad._make(x.data.copy(), (x, x, x),
                    lambda g: (g, g[:], g.reshape(g.shape)))


def _task_forward_loss(leaves):
    # three task groups, so the trunk's weights get a contribution from
    # each group's chain
    rng = np.random.default_rng(31)
    w1, b1, w2, b2, *heads = leaves
    forward = ad.TaskForward(rng.normal(size=(7, 3)), [1, 2, 3], [2, 4, 1],
                             [(w1, b1, None), (w2, b2, None)],
                             [(heads[0], heads[1])] * 3)
    return ad.task_loss(forward, rng.integers(0, 2, size=7))


ENGINE_CASES = {
    # one array sent to both inputs of add, and mul's two of x * x
    "add-a-a": ([(3, 4)], lambda a: tsum((a + a) + a * 2.0 + a)),
    "x-times-x": ([(3, 4)], lambda x: tsum(x * x + x * x + x)),
    "views-of-g-out": ([(2, 5)], lambda x: tsum(_views_of_g_out(x * 1.5) + x)),
    # w through three matmuls and a mul, x through a matmul and an add
    "leaf-through-four-nodes": ([(4, 3), (3, 3)], lambda x, w: tsum(
        matmul(relu(matmul(matmul(x, w), w)), w) + x) + tsum(w * w)),
    "0-d-leaf": ([()], lambda c: tsum(Tensor(np.arange(3.0)) * c) + c * c + c),
    "task-forward": ([(3, 4), (4,), (4, 4), (4,), (4, 2), (2,)],
                     lambda *leaves: _task_forward_loss(leaves)),
}


def _watched(loss, returned):
    """``loss``, every node under it noting in ``returned`` each array its
    backward_fn returns, with a copy of that array's bytes."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop().node
        if node is None or node in seen:
            continue
        seen.add(node)
        stack.extend(node.inputs)

        def noted(g, fn=node.backward_fn):
            grads = fn(g)
            returned.extend((a, np.asarray(a).tobytes())
                            for a in grads if a is not None)
            return grads
        node.backward_fn = noted
    return loss


@pytest.mark.parametrize("calls", [1, 2], ids=["one-call", "two-calls"])
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_backward_in_place_sums_equal_new_sums(name, calls):
    # two calls without zeroing must still accumulate
    shapes, make_loss = ENGINE_CASES[name]
    grads = []
    for engine in (backward, reference_backward):
        rng = np.random.default_rng(30)
        leaves = [Tensor(_signed(rng, shape), requires_grad=True)
                  for shape in shapes]
        returned = []
        for _ in range(calls):
            engine(_watched(make_loss(*leaves), returned))
        for array, before in returned:
            assert np.asarray(array).tobytes() == before, "a returned array changed"
        grads.append([(p.grad.shape, p.grad.tobytes()) for p in leaves])
    assert grads[0] == grads[1]


# ---------------------------------------------------------------------------
# numpy facts the task-vectorised loss nodes rely on: each must hold byte for
# byte, or the nodes stop matching the per-task chains they replace


def _signed(rng, shape):
    """Normal values with exact zeros of both signs mixed in."""
    v = rng.normal(size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


@pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 130])
def test_numpy_row_of_axis_1_sum_equals_the_rows_own_sum(width):
    rng = np.random.default_rng(width)
    v = _signed(rng, (13, width))
    v[0] = -0.0
    rows = v.sum(axis=1)
    for k in range(len(v)):
        assert rows[k].tobytes() == v[k].sum().tobytes()
        # the per-task chain's _unbroadcast of a (1, F) row to ()
        assert rows[k].tobytes() == v[k:k + 1].sum(axis=0).sum(axis=0).tobytes()


def test_relu_of_a_relu_output_is_that_output_with_the_same_mask():
    # a TaskForward whose last trunk layer has no FiLM hands that layer's
    # ReLU output and mask to the heads in place of their own ReLU
    z = _signed(np.random.default_rng(0), (40, 9))
    z[0, 0] = np.nan
    out, mask = ad._relu(z)
    again, mask_again = ad._relu(out)
    assert again.tobytes() == out.tobytes()
    assert np.array_equal(mask_again, mask)


@pytest.mark.parametrize("width", [1, 5, 8, 9, 21])
def test_numpy_row_sums_of_a_column_slice_equal_those_of_a_copy(width):
    # the discriminator node sums each group's squared distances over
    # exactly its width's columns of an array as wide as the widest group
    v = _signed(np.random.default_rng(width), (13, 33))
    for start, stop in [(0, 13), (2, 3), (4, 11)]:
        part = v[start:stop, :width]
        assert part.sum(axis=1).tobytes() == part.copy().sum(axis=1).tobytes()


def test_numpy_axis_0_sum_of_a_row_slice_equals_that_of_a_copy():
    rng = np.random.default_rng(1)
    v = _signed(rng, (30, 64))
    for start in range(0, 6):
        for stop in range(start + 1, 30, 3):
            part = v[start:stop]
            assert part.sum(axis=0).tobytes() == part.copy().sum(axis=0).tobytes()
            column = part[:, 5].copy()
            assert v[start:stop, 5].mean().tobytes() == column.mean().tobytes()
            # the task nodes' mean: numpy's sum over numpy's count
            assert (np.add.reduce(column) / len(column)).tobytes() == (
                column.mean().tobytes())


def test_numpy_one_by_one_outer_matmul_equals_broadcast_product():
    rng = np.random.default_rng(2)
    for e_width, g_width in [(1, 1), (4, 8), (64, 64), (33, 70)]:
        e, g = rng.normal(size=(1, e_width)), rng.normal(size=(1, g_width))
        assert (e.T @ g).tobytes() == (e.T * g).tobytes()
        # with exact zeros the matmul's sum from zero turns -0.0 into +0.0
        e, g = _signed(rng, (1, e_width)), _signed(rng, (1, g_width))
        assert (e.T @ g).tobytes() == (e.T * g + 0.0).tobytes()


def test_numpy_single_row_add_at_equals_indexed_add():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 9, size=5)
    values = _signed(rng, (5, 4))
    stacked = np.zeros((5, 9, 4))
    stacked[np.arange(5), rows] += values
    for k in range(5):
        one = np.zeros((9, 4))
        np.add.at(one, np.asarray([rows[k]]), values[k:k + 1])
        indexed = np.zeros((9, 4))
        indexed[np.asarray([rows[k]])] += values[k:k + 1]
        assert one.tobytes() == indexed.tobytes() == stacked[k].tobytes()


def test_numpy_sum_over_an_axis_of_length_one_adds_the_row_to_zero():
    v = _signed(np.random.default_rng(4), (6, 64))
    for k in range(len(v)):
        row = v[k:k + 1].sum(axis=0)
        assert row.tobytes() == v[:, None].sum(axis=1)[k].tobytes()
        assert row.tobytes() == (v[k] + 0.0).tobytes()


def test_numpy_row_slice_matmuls_equal_those_of_a_copy():
    rng = np.random.default_rng(5)
    x, w, g = rng.normal(size=(20, 64)), rng.normal(size=(64, 64)), rng.normal(size=(20, 64))
    for start, stop in [(0, 1), (0, 7), (3, 11), (11, 20), (19, 20)]:
        xs, gs = x[start:stop].copy(), g[start:stop].copy()
        assert (x[start:stop] @ w).tobytes() == (xs @ w).tobytes()
        assert (x[start:stop].T @ g[start:stop]).tobytes() == (xs.T @ gs).tobytes()
        assert (g[start:stop] @ w.T).tobytes() == (gs @ w.T).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_numpy_stacked_one_row_matmuls_equal_each_rows_own(seed):
    # _row_products: FiLM's emb @ w per task and the table's g @ w.T, for
    # a plain weight and a transposed view
    rng = np.random.default_rng(100 + seed)
    for _ in range(40):
        k, e, f = rng.integers(1, 25), rng.integers(1, 70), rng.integers(1, 70)
        rows = _signed(rng, (k, e))
        for w in (_signed(rng, (e, f)), _signed(rng, (f, e)).T):
            stacked = (rows[:, None, :] @ w)[:, 0, :]
            one_by_one = np.concatenate([rows[j:j + 1] @ w for j in range(k)])
            assert stacked.tobytes() == one_by_one.tobytes()
            assert ad._row_products(rows, w).tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_numpy_matmul_into_a_row_block_equals_a_fresh_product(seed):
    # TaskForward's per-group products and its gradient on the layer below
    # write each group's rows of one preallocated array
    rng = np.random.default_rng(200 + seed)
    for _ in range(40):
        n, e, f = rng.integers(1, 40), rng.integers(1, 70), rng.integers(1, 70)
        a = _signed(rng, (n, e))
        start = rng.integers(0, n)
        stop = rng.integers(start, n + 1)
        for w in (_signed(rng, (e, f)), _signed(rng, (f, e)).T):
            out = np.full((n, f), np.nan)
            np.matmul(a[start:stop], w, out=out[start:stop])
            assert out[start:stop].tobytes() == (a[start:stop] @ w).tobytes()


@pytest.mark.parametrize("width", [2, 3, 8, 9, 64, 130])
def test_numpy_axis_0_sums_side_by_side_equal_each_arrays_own(width):
    # the FiLM gradient sums each group's rows of g * features and of g in
    # one call over both placed side by side; not at width 1, where an
    # array's own axis-0 sum runs over one contiguous column, pairwise
    rng = np.random.default_rng(width)
    for _ in range(40):
        n = rng.integers(1, 300)
        start = rng.integers(0, n)
        stop = rng.integers(start, n + 1)
        u = _signed(rng, (n, width)) * 10.0 ** rng.uniform(-6, 6, (n, width))
        v = _signed(rng, (n, width))
        sums = np.concatenate([u, v], 1)[start:stop].sum(axis=0)
        assert sums[:width].tobytes() == u[start:stop].sum(axis=0).tobytes()
        assert sums[width:].tobytes() == v[start:stop].sum(axis=0).tobytes()


def test_numpy_in_place_add_equals_a_new_sum():
    # backward adds a flow's third and later contributions into its buffer,
    # and TaskForward adds biases, FiLM shifts and residuals in place
    rng = np.random.default_rng(6)
    for shape in [(1,), (5,), (4, 8), (64, 64), (3, 9, 4)]:
        acc, g = _signed(rng, shape), _signed(rng, shape)
        acc.reshape(-1)[0], g.reshape(-1)[0] = -0.0, -0.0
        g.reshape(-1)[-1] = np.inf
        want = acc + g
        again = acc.copy()
        again += g
        np.add(acc, g, out=acc)
        assert acc.tobytes() == want.tobytes() == again.tobytes()


def test_numpy_maximum_plus_zero_equals_the_where_relu():
    # _relu: maximum can keep a -0.0 where where() gives +0.0; adding +0.0
    # makes the two equal on every value, NaN and the infinities included
    z = _signed(np.random.default_rng(7), (40, 9))
    z[0, :6] = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf]
    want = np.where(z <= 0, 0.0, z)
    fresh = np.maximum(z, 0.0)
    fresh += 0.0
    assert fresh.tobytes() == want.tobytes()
    for out in (None, z.copy()):
        got, mask = ad._relu(z if out is None else out, out=out)
        assert got.tobytes() == want.tobytes()
        assert mask.tobytes() == (~(z <= 0)).tobytes()
        assert out is None or got is out


@pytest.mark.parametrize("width", [2, 3, 64, 130])
def test_numpy_axis_1_sums_padded_with_negative_zero_equal_group_sums(width):
    # TaskForward._group_sums: each group's rows placed in one array padded
    # with -0.0 to the largest group, then one axis-1 sum; -0.0 rows, -0.0
    # entries and empty and one-row groups included
    rng = np.random.default_rng(width)
    for _ in range(30):
        sizes = rng.integers(0, 12, size=rng.integers(1, 9))
        sizes[rng.integers(len(sizes))] = max(1, sizes.max())
        v = _signed(rng, (int(sizes.sum()), width))
        v[rng.random(len(v)) < 0.2] = -0.0
        largest = int(sizes.max())
        padded = np.full((len(sizes), largest, width), -0.0)
        start = 0
        for k, n in enumerate(sizes.tolist()):
            padded[k, :n] = v[start:start + n]
            start += n
        sums = padded.sum(axis=1)
        start = 0
        for k, n in enumerate(sizes.tolist()):
            own = v[start:start + n].sum(axis=0)
            assert sums[k].tobytes() == own.tobytes()
            start += n


@pytest.mark.parametrize("width", [1, 2, 64])
def test_group_sums_equal_each_groups_own_sum(width):
    # the padded sum at widths above 1, one sum per group at width 1, where
    # numpy sums a lone column pairwise and padding would regroup its terms;
    # a lone group takes the same path
    rng = np.random.default_rng(40 + width)
    for sizes in ([1, 20, 3, 9, 1, 17], [20]):
        layers = [(Tensor(np.ones((3, width)), requires_grad=True),
                   Tensor(np.zeros(width)), None)]
        heads = [(Tensor(np.ones((width, 2))), Tensor(np.zeros(2)))] * len(
            sizes)
        forward = ad.TaskForward(rng.normal(size=(sum(sizes), 3)),
                                 list(range(1, len(sizes) + 1)), sizes,
                                 layers, heads)
        forward._plan()
        v = _signed(rng, (sum(sizes), width)) * 10.0 ** rng.uniform(
            -8, 8, (sum(sizes), width))
        v[3] = -0.0
        got = forward._group_sums(v)
        for k, (s, e) in enumerate(forward.bounds):
            assert got[k].tobytes() == v[s:e].sum(axis=0).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_numpy_stacked_scale_and_shift_rows_equal_separate_ones(seed):
    # _Film keeps scale and shift as one (K, 2, F) array: the stacked
    # matmul into each half, the norms, the quotient and the gradient steps
    # over both must equal those of each (K, F) half on its own
    rng = np.random.default_rng(300 + seed)
    k, e, f = rng.integers(1, 25), rng.integers(1, 20), rng.integers(1, 70)
    embs = _signed(rng, (k, e))
    ws = [_signed(rng, (e, f)) for _ in range(2)]
    stacked = np.empty((k, 2, f))
    for i, w in enumerate(ws):
        ad._row_products(embs, w, out=stacked[:, i])
        assert stacked[:, i].tobytes() == ad._row_products(embs, w).tobytes()
    root, norm = ad._norms(stacked)
    g_hat = _signed(rng, (k, 2, f))
    g = ad._normalized_grad(g_hat, stacked, root, norm)
    outer = ad._outer(embs, g)
    for i in range(2):
        half = stacked[:, i].copy()
        root_i, norm_i = ad._norms(half)
        assert root[:, i].tobytes() == root_i.tobytes()
        assert norm[:, i].tobytes() == norm_i.tobytes()
        assert (stacked / norm)[:, i].tobytes() == (half / norm_i).tobytes()
        g_i = ad._normalized_grad(g_hat[:, i].copy(), half, root_i, norm_i)
        assert g[:, i].tobytes() == g_i.tobytes()
        for j in range(k):
            # the chain's own steps for row j: tsum of the row, and the
            # (E, 1) @ (1, F) product of the scale map's gradient
            assert root_i[j, 0].tobytes() == np.sqrt(
                np.maximum((half[j] * half[j]).sum(), 0.0)).tobytes()
            assert outer[j, i].tobytes() == (
                embs[j:j + 1].T @ g_i[j:j + 1]).tobytes()


# ---------------------------------------------------------------------------
# module invariants

def test_gradients_match_fd_over_20_seeds():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 4)) * 0.7, requires_grad=True)
        b = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
        phi = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        targets = rng.integers(0, 4, size=3)

        def loss_fn():
            h = relu(matmul(x, w) + b)
            scaled = h * phi + sqrt(tsum(phi * phi))
            return (softmax_cross_entropy(scaled, targets)
                    + l2_distance(scaled, Tensor(np.ones((3, 4)))))

        worst = max(worst, check_gradients(loss_fn, [w, b, phi], rtol=1e-4))
    assert worst < 1e-4


def test_backward_bit_reproducible():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        targets = rng.integers(0, 3, size=4)
        backward(softmax_cross_entropy(relu(matmul(x, w)), targets))
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_no_nan_inf_for_bounded_inputs():
    rng = np.random.default_rng(99)
    for _ in range(10):
        a = Tensor(rng.uniform(-1e3, 1e3, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1e3, 1e3, size=(3, 4)), requires_grad=True)
        targets = rng.integers(0, 4, size=3)
        outs = [
            relu(a),
            a * b,
            a + b,
            softmax_cross_entropy(a, targets),
            l2_distance(a, b),
            sqrt(tsum(a * a)),
            tsum(a * b),
        ]
        for out in outs:
            ad.assert_finite(out)
        zero_grads([a, b])
        backward(softmax_cross_entropy(a, targets) + l2_distance(a, b))
        assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (3,), (2, 4)])
def test_assert_finite_names_nan_and_inf_at_every_size(shape):
    # a one-element loss is read as a Python float, larger tensors by numpy
    ad.assert_finite(Tensor(np.full(shape, -0.0)))
    for bad in (np.nan, np.inf, -np.inf):
        data = np.ones(shape)
        data.reshape(-1)[-1] = bad
        with pytest.raises(FloatingPointError, match="loss contains NaN"):
            ad.assert_finite(Tensor(data), "loss")


def test_fd_oracle_self_check():
    # the oracle itself: d/dx of sum(x^2) is 2x
    x = Tensor([1.0, -2.0], requires_grad=True)
    numeric = finite_difference_grad(lambda: tsum(x * x), x)
    np.testing.assert_allclose(numeric, [2.0, -4.0], rtol=1e-6)
