"""Optimizer and finite-difference checker against scalar references."""

import numpy as np
import pytest

from flowcast.errors import ContractError
from flowcast.optim import (
    adam_step,
    clip_global_norm,
    finite_diff_check,
    flatten_params,
    glorot_uniform,
    ones_param,
    zero_gradients,
    zeros_param,
)
from flowcast.tensor import Param, Tensor, backward, constant, mul, tensor_sum

from oracles import adam_reference


def test_flatten_params_views_each_slice_in_order():
    a = Param(np.array(2.0), "a")
    b = Param(np.arange(6.0).reshape(2, 3), "b")
    c = Param(np.array([7.0, 8.0]), "c")
    data, grad = flatten_params([a, b, c])
    assert np.array_equal(data, [2.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
    assert np.array_equal(grad, np.zeros(9))
    assert (a.data.shape, b.data.shape, c.grad.shape) == ((), (2, 3), (2,))
    # a write to the buffer shows in the Param, and the other way round
    data[3] = -1.0
    grad[8] = 5.0
    assert b.data[0, 2] == -1.0 and c.grad[1] == 5.0
    b.data[1, 0] += 10.0
    a.grad[...] = 4.0
    assert data[4] == 13.0 and grad[0] == 4.0


def test_first_adam_step_moves_by_learning_rate():
    # With bias correction the very first update is lr * g / (|g| + eps).
    p = Param(np.array([10.0]), "p")
    p.grad[...] = 3.0
    adam_step(np.zeros((2, 1)), 1, p.data, p.grad, 0.01)
    assert abs((10.0 - float(p.data[0])) - 0.01) < 1e-9


def test_adam_zero_grad_leaves_param_unchanged():
    p = Param(np.array([1.0, 2.0]), "p")
    adam_step(np.zeros((2, 2)), 1, p.data, p.grad, 0.5)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_matches_scalar_reference_over_fifty_steps():
    # Minimize the sum of squares and compare every coordinate against a
    # plain-python trace: a scalar alone, then a scalar and a matrix that
    # share one buffer.
    alone = [Param(np.array(1.0), "x")]
    shared = [Param(np.array(-0.5), "s"), Param(np.arange(6.0).reshape(2, 3) - 2.5, "w")]
    for params in (alone, shared):
        data, grad = flatten_params(params)
        start = data.copy()
        moments = np.zeros((2, data.size))
        seen = []
        for step in range(1, 51):
            zero_gradients(grad)
            for p in params:
                backward(tensor_sum(mul(p, p)))
            adam_step(moments, step, data, grad, 0.1)
            seen.append(data.copy())
        for k, x0 in enumerate(start):
            expected = adam_reference(lambda x: 2.0 * x, float(x0), 0.1, 50)
            assert np.allclose([row[k] for row in seen], expected, atol=1e-12)


def test_adam_state_persists_per_name():
    # the moments live in the (2, P) array, one column per buffer coordinate
    p = Param(np.array([0.0, 0.0]), "p")
    moments = np.zeros((2, 2))
    p.grad[...] = [1.0, -2.0]
    adam_step(moments, 1, p.data, p.grad, 0.1)
    assert np.allclose(moments[0], [0.1, -0.2], rtol=0, atol=1e-15)
    assert np.allclose(moments[1], [0.001, 0.004], rtol=0, atol=1e-15)
    adam_step(moments, 2, p.data, p.grad, 0.1)
    assert np.allclose(moments[0], [0.19, -0.38], rtol=0, atol=1e-15)


def test_adam_slot_shape_mismatch_raises():
    moments, data = np.zeros((2, 2)), np.zeros(3)
    with pytest.raises(ContractError):
        adam_step(moments, 1, data, np.ones(3), 0.1)
    assert not moments.any() and not data.any()


def _two_params_with_grads(ga, gb):
    a = Param(np.zeros(2), "a")
    b = Param(np.zeros(1), "b")
    _, grad = flatten_params([a, b])
    a.grad[...] = ga
    b.grad[...] = gb
    return a, b, grad


def test_global_norm_and_clip():
    a, b, grad = _two_params_with_grads([3.0, 0.0], [4.0])
    pre = clip_global_norm(grad, 2.5)
    assert abs(pre - 5.0) < 1e-12
    assert abs(np.sqrt(grad @ grad) - 2.5) < 1e-12
    assert np.allclose(a.grad, [1.5, 0.0], atol=1e-12)
    assert np.allclose(b.grad, [2.0], atol=1e-12)


def test_clip_below_threshold_is_identity():
    a, b, grad = _two_params_with_grads([0.3, 0.0], [0.4])
    pre = clip_global_norm(grad, 5.0)
    assert abs(pre - 0.5) < 1e-12
    assert np.array_equal(a.grad, [0.3, 0.0]) and np.array_equal(b.grad, [0.4])


def test_zero_gradients():
    a, b, grad = _two_params_with_grads([7.0, 7.0], [7.0])
    zero_gradients(grad)
    assert np.array_equal(a.grad, np.zeros(2)) and np.array_equal(b.grad, np.zeros(1))


def test_glorot_bounds_and_determinism():
    # a stacked (H, fan_in, fan_out) shape, as the attention heads use,
    # draws every slice with the fans of its last two axes
    for shape in ((40, 60), (3, 40, 60)):
        limit = np.sqrt(6.0 / 100.0)
        p1 = glorot_uniform(np.random.default_rng(9), shape, "w")
        p2 = glorot_uniform(np.random.default_rng(9), shape, "w")
        assert np.array_equal(p1.data, p2.data)
        assert p1.data.max() <= limit and p1.data.min() >= -limit
        # With 2400 draws the occupied range should come close to the bounds.
        assert p1.data.max() > 0.9 * limit and p1.data.min() < -0.9 * limit


def test_glorot_rejects_vector_shape():
    with pytest.raises(ContractError):
        glorot_uniform(np.random.default_rng(0), (5,), "w")


def test_zeros_and_ones_params():
    z = zeros_param((2, 3), "z")
    o = ones_param((4,), "o")
    assert np.array_equal(z.data, np.zeros((2, 3)))
    assert np.array_equal(o.data, np.ones(4))
    assert z.name == "z" and o.name == "o"


def test_finite_diff_on_linear_function_is_tight():
    # Central differences are exact for linear maps up to rounding.
    c = np.random.default_rng(10).normal(size=(3, 4))
    x = Param(np.random.default_rng(11).normal(size=(3, 4)), "x")

    def make_loss():
        return tensor_sum(mul(x, constant(c)))

    assert finite_diff_check(make_loss, [x], samples=12, seed=4) < 1e-9


def test_finite_diff_catches_wrong_gradient():
    # An op whose backward is off by a factor of two must be flagged.
    x = Param(np.array([1.0, 2.0]), "x")

    def bad_double(a: Tensor) -> Tensor:
        out = Tensor(a.data * 2.0, (a,))

        def bwd(g):
            a.grad += g  # wrong: should be 2 * g

        out.backward_fn = bwd
        return out

    def make_loss():
        return tensor_sum(bad_double(x))

    assert finite_diff_check(make_loss, [x], samples=2, seed=5) > 0.4


def test_finite_diff_restores_parameters():
    x = Param(np.array([1.0, -1.0]), "x")
    before = x.data.copy()

    def make_loss():
        return tensor_sum(mul(x, x))

    finite_diff_check(make_loss, [x], samples=2, seed=6)
    assert np.array_equal(x.data, before)
