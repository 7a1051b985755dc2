import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from decorgnn import numcore as nc
from tape_ops import add, relu, smul, sum_all


def test_matmul_known_product():
    a = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = nc.matmul(a, b)
    assert np.array_equal(out.value, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = nc.Tensor(np.zeros((2, 3)))
    b = nc.Tensor(np.zeros((4, 2)))
    with pytest.raises(nc.DimensionError) as err:
        nc.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_backward_rule():
    # d(sum(a@b))/da = ones @ b.T, d/db = a.T @ ones
    rng = np.random.default_rng(7)
    a = nc.Tensor(rng.standard_normal((3, 4)))
    b = nc.Tensor(rng.standard_normal((4, 2)))
    out = sum_all(nc.matmul(a, b))
    nc.backward(out)
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ b.value.T, atol=1e-12)
    assert np.allclose(b.grad, a.value.T @ ones, atol=1e-12)


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    b_val = rng.standard_normal((4, 2))

    def f(x):
        return sum_all(nc.matmul(x, nc.constant(b_val)))

    err = nc.grad_check(f, rng.standard_normal((3, 4)), step=1e-5)
    assert err < 1e-4


def test_relu_gradient_is_zero_at_exact_zero():
    x = nc.Tensor([[0.0, -1.5, 2.0]])
    out = sum_all(relu(x))
    nc.backward(out)
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_relu_finite_differences_away_from_kink():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 3))
    x[np.abs(x) < 0.05] = 0.1  # keep clear of the kink for central differences

    def f(t):
        return sum_all(relu(t))

    assert nc.grad_check(f, x) < 1e-6


def test_add_bias_broadcast_and_gradients():
    x = nc.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = nc.Tensor([[10.0, 20.0]])
    out = nc.add_bias(x, b)
    assert np.array_equal(out.value, [[11.0, 22.0], [13.0, 24.0], [15.0, 26.0]])
    nc.backward(sum_all(out))
    assert np.array_equal(x.grad, np.ones((3, 2)))
    assert np.array_equal(b.grad, [[3.0, 3.0]])  # one per row


def test_add_bias_rejects_bad_shape():
    x = nc.Tensor(np.zeros((3, 2)))
    with pytest.raises(nc.DimensionError):
        nc.add_bias(x, nc.Tensor(np.zeros((1, 3))))


def test_smul_gradients():
    rng = np.random.default_rng(5)
    xv = rng.standard_normal((3, 3))
    s = nc.Tensor([[2.5]])
    x = nc.Tensor(xv)
    nc.backward(sum_all(smul(s, x)))
    assert np.allclose(s.grad, [[xv.sum()]])
    assert np.allclose(x.grad, np.full((3, 3), 2.5))


def test_softmax_ce_uniform_logits_gives_log_c():
    logits = nc.Tensor(np.zeros((4, 10)))
    loss = nc.softmax_cross_entropy(logits, [0, 3, 5, 9], np.ones(4))
    assert math.isclose(loss.value[0, 0], math.log(10.0), rel_tol=1e-12)


def test_softmax_ce_confident_correct_goes_to_zero():
    logits = np.zeros((2, 5))
    logits[0, 1] = 60.0
    logits[1, 4] = 60.0
    loss = nc.softmax_cross_entropy(nc.Tensor(logits), [1, 4], np.ones(2))
    assert loss.value[0, 0] < 1e-12


def test_softmax_ce_weighting_matches_hand_computation():
    rng = np.random.default_rng(19)
    z = rng.standard_normal((2, 6))
    labels = [2, 4]
    # weights [2, 0]: loss = (1/2)(2*ce_0 + 0*ce_1) = ce_0
    p = np.exp(z[0] - z[0].max())
    p /= p.sum()
    expected = -np.log(p[2])
    loss = nc.softmax_cross_entropy(nc.Tensor(z), labels, [2.0, 0.0])
    assert math.isclose(loss.value[0, 0], expected, rel_tol=1e-12)


def test_softmax_ce_label_out_of_range():
    logits = nc.Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        nc.softmax_cross_entropy(logits, [0, 3], np.ones(2))


def test_softmax_ce_gradient_finite_differences():
    rng = np.random.default_rng(23)
    labels = [1, 0, 4, 2]
    weights = rng.uniform(0.2, 2.0, size=4)

    def f(t):
        return nc.softmax_cross_entropy(t, labels, weights)

    assert nc.grad_check(f, rng.standard_normal((4, 5))) < 1e-4


def test_backward_shared_subexpression_counted_once_per_path():
    rng = np.random.default_rng(31)
    xv = rng.standard_normal((3, 3)) + 2.0  # strictly positive
    x = nc.Tensor(xv)
    shared = relu(x)
    nc.backward(sum_all(add(shared, shared)))
    grad_shared = x.grad

    # Same computation with the subexpression literally duplicated.
    x2 = nc.Tensor(xv)
    nc.backward(sum_all(add(relu(x2), relu(x2))))
    assert np.array_equal(grad_shared, x2.grad)
    assert np.array_equal(grad_shared, np.full((3, 3), 2.0))


def test_backward_gives_grad_to_leaves_only():
    rng = np.random.default_rng(32)
    xv = rng.standard_normal((4, 3))
    wv = rng.standard_normal((3, 2))
    x, w = nc.Tensor(xv), nc.Tensor(wv)
    h = nc.matmul(x, w)  # shared: read directly and through relu
    r = relu(h)
    both = add(r, h)
    loss = add(sum_all(both), sum_all(nc.matmul(x, w)))
    nc.backward(loss)
    for node in (h, r, both, loss):
        assert node.grad is None
    dh = 2.0 + (xv @ wv > 0.0)  # d loss / d h, one unit from each consumer path
    assert np.allclose(x.grad, dh @ wv.T, rtol=0, atol=1e-12)
    assert np.allclose(w.grad, xv.T @ dh, rtol=0, atol=1e-12)


def test_backward_rejects_nonscalar_root():
    x = nc.Tensor(np.ones((2, 2)))
    with pytest.raises(nc.ContractError):
        nc.backward(relu(x))


def test_backward_accumulates_until_reset():
    x = nc.Tensor(np.ones((2, 2)))
    out = sum_all(x)
    nc.backward(out)
    nc.backward(out)
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))
    nc.zero_grad([x])
    assert x.grad is None


def test_grad_check_on_linear_function_is_tiny():
    rng = np.random.default_rng(2)
    assert nc.grad_check(sum_all, rng.uniform(-1, 1, (3, 3))) < 1e-10


def test_grad_check_tolerates_roundoff_on_tiny_gradients():
    # a saturated softmax: every gradient entry is far below what a central
    # difference can resolve at step 1e-5
    logits = np.array([[30.0, 5.0, 4.0], [3.0, 31.0, 2.5]])
    labels = [0, 1]
    weights = np.ones(2)

    def f(t):
        return nc.softmax_cross_entropy(t, labels, weights)

    leaf = nc.Tensor(logits)
    nc.backward(f(leaf))
    assert np.max(np.abs(leaf.grad)) <= 1e-9
    assert nc.grad_check(f, logits) < 1e-4


def test_grad_check_still_sees_a_backward_rule_off_by_a_thousandth():
    rng = np.random.default_rng(5)
    b_val = rng.standard_normal((4, 2))

    def f(x):
        out = nc.op_node(x.value @ b_val, (x,),
                         lambda g: (1.001 * g @ b_val.T,))
        return sum_all(out)

    assert nc.grad_check(f, rng.standard_normal((3, 4))) >= 9e-4


def test_a_rule_returning_too_few_gradients_makes_backward_raise():
    a, b = nc.Tensor(np.ones((2, 2))), nc.Tensor(np.ones((2, 2)))
    out = nc.op_node(a.value + b.value, (a, b), lambda g: (g,))
    with pytest.raises(ValueError):
        nc.backward(sum_all(out))


def test_gradients_skip_constants():
    c = nc.constant(np.ones((2, 2)))
    x = nc.Tensor(np.ones((2, 2)))
    nc.backward(sum_all(nc.matmul(c, x)))
    assert c.grad is None
    assert x.grad is not None


def test_ops_over_constants_keep_no_parents():
    a = nc.constant(np.ones((2, 3)))
    out = relu(nc.matmul(a, nc.constant(np.ones((3, 2)))))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    w = nc.Tensor(np.ones((3, 2)))
    taped = nc.matmul(a, w)
    assert taped.requires_grad and taped._parents == (a, w)


def test_no_tape_returns_parentless_constants_and_restores_the_mode():
    w = nc.Tensor([[1.0, -2.0]])
    x = nc.constant([[3.0], [4.0]])
    with nc.no_tape():
        out = relu(nc.matmul(x, w))
        loss = sum_all(out)
    assert np.array_equal(out.value, [[3.0, 0.0], [4.0, 0.0]])
    for node in (out, loss):
        assert not node.requires_grad and node._parents == ()
    nc.backward(loss)
    assert w.grad is None

    with pytest.raises(RuntimeError, match="inside"):
        with nc.no_tape():
            with nc.no_tape():
                pass
            assert not nc.matmul(x, w).requires_grad
            raise RuntimeError("inside")
    nc.backward(sum_all(nc.matmul(x, w)))
    assert np.array_equal(w.grad, [[7.0, 7.0]])


def test_composite_mlp_gradient_check():
    rng = np.random.default_rng(41)
    w1 = rng.standard_normal((4, 6))
    b1 = rng.standard_normal((1, 6))
    w2 = rng.standard_normal((6, 3))
    labels = [0, 2, 1, 1, 0]
    weights = rng.uniform(0.5, 1.5, 5)

    def net(x):
        h = relu(nc.add_bias(nc.matmul(x, nc.constant(w1)), nc.constant(b1)))
        return nc.softmax_cross_entropy(
            nc.matmul(h, nc.constant(w2)), labels, weights)

    assert nc.grad_check(net, rng.standard_normal((5, 4))) < 1e-4


def test_adam_with_zero_weights_leaves_parameters_unchanged():
    rng = np.random.default_rng(13)
    w = nc.Tensor(rng.standard_normal((3, 4)))
    before = w.value.copy()
    opt = nc.Adam([w], lr=1e-3)
    logits = nc.matmul(nc.constant(np.ones((2, 3))), w)
    loss = nc.softmax_cross_entropy(logits, [0, 1], np.zeros(2))
    nc.zero_grad([w])
    nc.backward(loss)
    opt.step()
    assert np.array_equal(w.value, before)


def test_adam_moves_parameters_against_gradient():
    w = nc.Tensor([[1.0, -1.0]])
    opt = nc.Adam([w], lr=0.1)
    nc.backward(sum_all(w))
    opt.step()
    assert w.value[0, 0] < 1.0 and w.value[0, 1] < -1.0


def test_flat_adam_matches_a_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(17)
    shapes = [(3, 4), (1, 1), (1, 5), (6, 2)]
    params = [nc.Tensor(rng.standard_normal(s)) for s in shapes]
    want = [p.value.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = nc.Adam(params, lr=1e-3)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 4):
        for i, p in enumerate(params):
            # the (1, 5) parameter never gets a gradient
            p.grad = None if i == 2 else rng.standard_normal(p.shape)
        if t == 2:
            # a caller writes into a value in place, as a test planting a
            # NaN does
            params[3].value[4, 1] = 2.5
            want[3][4, 1] = 2.5
        if t == 3:
            # a caller rebinds a value between steps, as a test may;
            # load_checkpoint builds a fresh model and never does
            params[0].value = rng.standard_normal(shapes[0])
            want[0] = params[0].value.copy()
        opt.step()
        for i, p in enumerate(params):
            g = p.grad if p.grad is not None else 0.0
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * np.square(g)
            want[i] = want[i] - 1e-3 * (m[i] / (1.0 - b1 ** t)) / (
                np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
        for p, w in zip(params, want):
            assert p.value.shape == w.shape
            assert np.array_equal(p.value, w)


def test_adam_refuses_a_value_rebound_to_another_shape():
    w = nc.Tensor(np.ones((2, 3)))
    opt = nc.Adam([w], lr=1e-3)
    w.value = np.ones((3, 2))
    with pytest.raises(nc.DimensionError):
        opt.step()


def test_a_warmed_adam_step_allocates_less_than_its_parameters():
    rng = np.random.default_rng(19)
    params = [nc.Tensor(rng.standard_normal(s))
              for s in [(64, 64), (1, 64), (64, 64), (1, 1), (64, 10)]]
    opt = nc.Adam(params, lr=1e-3)
    for p in params:
        p.grad = rng.standard_normal(p.shape)
    opt.step()  # warm
    flat_bytes = sum(p.value.nbytes for p in params)
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < flat_bytes


def test_glorot_uniform_bounds_and_determinism():
    a = nc.glorot_uniform(30, 50, np.random.default_rng(9))
    b = nc.glorot_uniform(30, 50, np.random.default_rng(9))
    limit = math.sqrt(6.0 / 80.0)
    assert np.abs(a.value).max() <= limit
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(nc.zeros_param(1, 5).value, np.zeros((1, 5)))


def test_tensor_rejects_wrong_rank_and_nonfinite():
    with pytest.raises(nc.DimensionError):
        nc.Tensor(np.zeros(3))
    with pytest.raises(nc.NonFiniteError):
        nc.Tensor([[np.nan]])


def test_operations_surface_nonfinite_results():
    big = nc.Tensor([[1e308]])
    for scope in (contextlib.nullcontext(), nc.no_tape()):
        with scope, np.errstate(over="ignore"):
            with pytest.raises(nc.NonFiniteError):
                nc.matmul(big, nc.Tensor([[10.0]]))


def test_adam_parameters_share_one_buffer_of_their_own_size():
    rng = np.random.default_rng(23)
    params = [nc.Tensor(rng.standard_normal(s))
              for s in [(4, 3), (1, 3), (1, 1), (3, 2)]]
    total = sum(p.value.nbytes for p in params)
    nc.Adam(params, lr=1e-3)
    bases = {id(p.value.base) for p in params}
    assert len(bases) == 1
    # a model kept after training pins its values, not the optimizer state
    assert params[0].value.base.nbytes == total
