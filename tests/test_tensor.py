"""Autodiff core: forward values against naive oracles, gradients against
closed forms and central differences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcast import tensor
from flowcast.data import batch_arrays, prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.errors import ContractError
from flowcast.model import ModelConfig, build_model, forward_arrays, masked_mae_loss, train
from flowcast.optim import finite_diff_check, zero_gradients
from flowcast.stgraph import load_spatial_graph
from flowcast.tensor import (
    AdapterParams,
    AttentionParams,
    EmbeddingParams,
    ModuleParams,
    Param,
    Tensor,
    add_norm_ffn,
    backward,
    constant,
    embed_rows,
    masked_mae,
    mul,
    no_grad,
    output_adapter,
    ranged_self_attention,
    scale,
    tensor_sum,
)

from oracles import calendar_one_hot, layer_norm_naive, matmul_oracle, softmax_naive
from taped_ops import add, layer_norm, matmul, relu, reshape


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_matmul_small_known():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 5))
    out = matmul(constant(x), constant(np.eye(5)))
    assert np.allclose(out.data, x, atol=1e-15)


@pytest.mark.parametrize(
    "sa,sb",
    [
        ((3, 4), (4, 5)),
        ((2, 3, 4), (4, 5)),
        ((3, 4), (2, 4, 5)),
        ((2, 1, 3, 4), (1, 5, 4, 2)),
    ],
)
def test_matmul_matches_triple_loop(sa, sb):
    rng = np.random.default_rng(hash((sa, sb)) % 2**32)
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    out = matmul(constant(a), constant(b))
    expect = matmul_oracle(a, b)
    assert out.shape == expect.shape
    assert np.allclose(out.data, expect, atol=1e-12)


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ContractError):
        matmul(constant(np.ones((2, 3))), constant(np.ones((4, 2))))
    with pytest.raises(ContractError):
        matmul(constant(np.ones(3)), constant(np.ones((3, 2))))


def _softmax(x) -> np.ndarray:
    """Row softmax of x (r, m), r <= m, read back from
    tensor.attention_weights: the rows are I_m, one head with d_h = m,
    W_q = sqrt(m) I and W_k = x^T padded with zero columns, so the scaled
    scores q k^T / sqrt(m) are the rows of x, padded with zero rows up to m,
    and each output row is its query's weights."""
    rows = np.array(x, dtype=np.float64)
    r, m = rows.shape
    keys = np.zeros((1, m, m))
    keys[0, :, :r] = rows.T
    zeros = np.zeros((1, m, m))
    params = AttentionParams(
        w_value=constant(zeros), w_query=constant(np.sqrt(m) * np.eye(m)[None]),
        b_query=constant(zeros[:, :1]), w_key=constant(keys), w_out=constant(np.eye(m)),
    )
    out = tensor.attention_weights(np.eye(m), params)
    return out[0, :r]


def test_softmax_matches_naive_on_moderate_values():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 9)) * 3.0
    assert np.allclose(_softmax(x), softmax_naive(x), atol=1e-12)


def test_softmax_uniform_on_constant_rows():
    assert np.allclose(_softmax(np.full((3, 4), 7.5)), 0.25, atol=1e-15)


def test_softmax_stable_at_large_magnitudes():
    out = _softmax([[1000.0, 0.0], [-1000.0, -999.0]])
    assert np.all(np.isfinite(out))
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-300)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "rows", [[[1000.0, 0.0], [-1000.0, -999.0]], [[0.0, -720.0], [-720.0, 0.0]]]
)
def test_softmax_weights_are_never_subnormal(rows):
    # exp(-720) is about 2e-313, a subnormal that np.exp is slow to return;
    # the shifted branch floors its exponents so exp returns normal numbers
    out = _softmax(rows)
    assert not np.any((out != 0.0) & (np.abs(out) < np.finfo(np.float64).tiny))
    shifted = np.array(rows) - np.max(rows, axis=-1, keepdims=True)
    assert np.allclose(out, softmax_naive(shifted), rtol=0, atol=1e-300)


@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(row, shift):
    base = _softmax([row])
    shifted = _softmax([[v + shift for v in row]])
    assert np.allclose(base, shifted, atol=1e-9)
    assert abs(base.sum() - 1.0) < 1e-12


def test_layer_norm_constant_rows_return_bias():
    gain = constant(np.full(4, 2.0))
    bias = constant(np.array([1.0, 2.0, 3.0, 4.0]))
    out = layer_norm(constant(np.full((3, 4), 9.0)), gain, bias)
    assert np.array_equal(out.data, np.broadcast_to(bias.data, (3, 4)))


def test_layer_norm_two_point_row():
    gain = constant(np.ones(2))
    bias = constant(np.zeros(2))
    out = layer_norm(constant([[1.0, 3.0]]), gain, bias)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_matches_naive():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 8)) * 4 + 1
    gain = rng.normal(size=8)
    bias = rng.normal(size=8)
    out = layer_norm(constant(x), constant(gain), constant(bias))
    assert np.allclose(out.data, layer_norm_naive(x, gain, bias), atol=1e-12)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 32)) * 5
    out = layer_norm(constant(x), constant(np.ones(32)), constant(np.zeros(32)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=8), st.floats(-20, 20))
def test_layer_norm_shift_invariance(row, c):
    width = len(row)
    gain = constant(np.ones(width))
    bias = constant(np.zeros(width))
    a = layer_norm(constant([row]), gain, bias).data
    b = layer_norm(constant([[v + c for v in row]]), gain, bias).data
    assert np.allclose(a, b, atol=1e-9)


def test_layer_norm_affine_shape_check():
    with pytest.raises(ContractError):
        layer_norm(constant(np.ones((2, 4))), constant(np.ones(3)), constant(np.zeros(4)))


def test_item_requires_single_element():
    with pytest.raises(ContractError):
        constant([1.0, 2.0]).item()
    assert constant(3.5).item() == 3.5


def test_backward_requires_scalar():
    x = Param(np.ones(3), "x")
    with pytest.raises(ContractError):
        backward(add(x, x))


# ---------------------------------------------------------------------------
# gradients: closed forms
# ---------------------------------------------------------------------------


def test_grad_sum_is_ones():
    x = Param(np.arange(6.0).reshape(2, 3), "x")
    backward(tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_grad_quadratic():
    x = Param(np.array([1.0, -2.0, 3.0]), "x")
    backward(tensor_sum(mul(x, x)))
    assert np.allclose(x.grad, 2.0 * x.data, atol=1e-15)


def test_grad_reused_node_accumulates():
    x = Param(np.array([4.0]), "x")
    backward(tensor_sum(add(x, x)))
    assert np.array_equal(x.grad, [2.0])


def test_grad_shared_by_two_parents_is_not_aliased():
    # add hands one gradient array to both parents; a later contribution
    # to one parent must not leak into the other's gradient
    x = Param(np.array([1.0, -2.0, 0.5]), "x")
    a, b = scale(x, 2.0), scale(x, 3.0)
    t = add(add(a, b), a)  # 7x
    backward(tensor_sum(mul(t, constant(np.ones(3)))))
    assert np.array_equal(x.grad, [7.0, 7.0, 7.0])


def test_grad_broadcast_bias_sums_over_rows():
    x = constant(np.ones((5, 3)))
    b = Param(np.zeros(3), "b")
    backward(tensor_sum(add(x, b)))
    assert np.array_equal(b.grad, np.full(3, 5.0))


def test_mul_refuses_unequal_shapes():
    s = Param(np.array(2.0), "s")
    y = constant(np.arange(4.0).reshape(2, 2))
    with pytest.raises(ContractError, match=r"\(\) and \(2, 2\)"):
        mul(s, y)
    with pytest.raises(ContractError, match=r"\(2, 2\) and \(1, 2\)"):
        mul(y, constant(np.ones((1, 2))))


def test_accumulate_refuses_a_gradient_not_shaped_as_its_parent():
    # an op that hands a (D,) bias the (1, D) product of a ones-row GEMV
    # is refused, not summed down to the bias's shape
    b = Param(np.zeros(3), "b")

    def bwd(g: np.ndarray) -> None:
        tensor._accumulate(b, np.ones((1, 4)) @ g)

    out = Tensor(np.ones((4, 3)) + b.data, (b,), bwd)
    with pytest.raises(ContractError, match=r"\(1, 3\).*\(3,\)"):
        backward(tensor_sum(out))
    assert np.array_equal(b.grad, np.zeros(3))


def test_grad_matmul_closed_form():
    # d/dA sum(A @ B) = ones @ B^T, d/dB = A^T @ ones
    rng = np.random.default_rng(4)
    a = Param(rng.normal(size=(3, 4)), "a")
    b = Param(rng.normal(size=(4, 2)), "b")
    backward(tensor_sum(matmul(a, b)))
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ ones, atol=1e-12)


def test_grad_relu_gates_negative_side():
    x = Param(np.array([-2.0, -0.5, 0.5, 2.0]), "x")
    backward(tensor_sum(relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])


def test_grad_absolute_is_sign():
    # masked_mae's |pred - truth| takes the sign subgradient, 0 at a tie
    x = Param(np.array([-3.0, 2.0, 1.0, 5.0]), "x")
    backward(masked_mae(x, np.array([0.0, 0.0, 1.0, 0.0]), np.array([True, True, True, False])))
    assert np.array_equal(x.grad, np.array([-1.0, 1.0, 0.0, 0.0]) / 3.0)


def test_param_grad_persists_and_accumulates():
    x = Param(np.array([1.0]), "x")
    backward(tensor_sum(scale(x, 3.0)))
    backward(tensor_sum(scale(x, 2.0)))
    assert np.array_equal(x.grad, [5.0])
    zero_gradients(x.grad)
    assert np.array_equal(x.grad, [0.0])


def test_constant_gets_no_grad():
    c = constant(np.ones(3))
    x = Param(np.ones(3), "x")
    backward(tensor_sum(mul(c, x)))
    assert c.grad is None


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------


def _every_op(x: Param, w: Param, g: Param) -> list:
    """One output of each op on (4, 3) x, (3, 3) w and (3,) g."""
    bounds = [(0, 1), (1, 4)]
    maps = reshape(w, (1, 3, 3))
    order = np.array([3, 1, 0, 2])
    row = reshape(g, (1, 3))
    calendar = np.array([0, 3])
    return [
        add(x, x), mul(x, x), scale(x, 2.0), matmul(x, w), relu(x),
        tensor_sum(x), reshape(x, (3, 4)), layer_norm(x, g, g),
        ranged_self_attention(
            x, AttentionParams(maps, maps, reshape(g, (1, 1, 3)), maps, w), bounds, order,
            np.argsort(order),
        ),
        add_norm_ffn(x, x, ModuleParams(None, w, g, w, g, g, g, g, g)),
        embed_rows(
            np.ones((2, 2, 1)), np.ones((2, 1)), calendar, calendar[::-1],
            EmbeddingParams(row, g, row, g, x, g, w, g, g, g),
        ),
        output_adapter(x, AdapterParams(reshape(x, (6, 2)), g, w, g)),
        masked_mae(x, np.zeros((4, 3)), np.ones((4, 3), dtype=bool)),
    ]


def _leaves(seed: int) -> tuple[Param, Param]:
    rng = np.random.default_rng(seed)
    return Param(rng.normal(size=(4, 3)), "x"), Param(rng.normal(size=(3, 3)), "w")


def test_no_grad_ops_record_nothing():
    x, w = _leaves(0)
    g = Param(np.array([0.5, 1.0, 2.0]), "g")
    recorded = _every_op(x, w, g)
    with no_grad():
        bare = _every_op(x, w, g)
    for kept, out in zip(recorded, bare):
        assert kept.requires_grad and kept.parents and kept.backward_fn is not None
        assert out.parents == () and out.backward_fn is None and not out.requires_grad
        assert np.array_equal(out.data, kept.data)


def test_no_grad_mode_returns_after_nesting_and_errors():
    x = Param(np.ones(2), "x")
    with no_grad():
        with no_grad():
            pass
        assert not scale(x, 2.0).requires_grad
    assert scale(x, 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the block")
    assert scale(x, 2.0).parents == (x,)


def test_param_stays_a_leaf_across_no_grad():
    def loss(x, w):
        return tensor_sum(mul(matmul(x, w), constant(np.arange(12.0).reshape(4, 3))))

    want_x, want_w = _leaves(1)
    backward(loss(want_x, want_w))

    x, _ = _leaves(1)
    with no_grad():
        w = Param(_leaves(1)[1].data, "w")
        loss(x, w)
    assert x.requires_grad and w.requires_grad
    backward(loss(x, w))
    assert np.array_equal(x.grad, want_x.grad)
    assert np.array_equal(w.grad, want_w.grad)


# ---------------------------------------------------------------------------
# backward consumes the graph
# ---------------------------------------------------------------------------


def _every_op_loss(seed: int) -> tuple[Tensor, list[Tensor]]:
    """A scalar loss over one output of each op, and its leaves."""
    x, w = _leaves(seed)
    g = Param(np.array([0.5, 1.0, 2.0]), "g")
    free = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    rng = np.random.default_rng(seed + 1)
    terms = [
        tensor_sum(mul(out, constant(rng.normal(size=out.shape))))
        for out in _every_op(x, w, mul(g, free))
    ]
    loss = terms[0]
    for term in terms[1:]:
        loss = add(loss, term)
    return loss, [x, w, g, free]


def _graph_nodes(root: Tensor) -> list[Tensor]:
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _replay_keeping_graph(loss: Tensor) -> None:
    """Reference replay: backward()'s node order, with nothing released."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    want_loss, want_leaves = _every_op_loss(3)
    _replay_keeping_graph(want_loss)

    loss, leaves = _every_op_loss(3)
    interior = [node for node in _graph_nodes(loss) if node.backward_fn is not None]
    assert len(interior) > 20
    backward(loss)
    for node in interior:
        assert node.parents == () and node.grad is None
        assert node.backward_fn.__closure__ is None
    for leaf, want in zip(leaves, want_leaves):
        assert leaf.grad is not None and np.array_equal(leaf.grad, want.grad)
    assert loss.data == want_loss.data


def test_backward_twice_over_one_graph_raises():
    loss, leaves = _every_op_loss(4)
    backward(loss)
    grads = [leaf.grad.copy() for leaf in leaves]
    with pytest.raises(ContractError, match="already backpropagated"):
        backward(loss)
    for leaf, grad in zip(leaves, grads):
        assert np.array_equal(leaf.grad, grad)


def test_backward_through_a_consumed_node_raises():
    x = Param(np.array([1.0, 2.0]), "x")
    hidden = mul(x, x)
    backward(tensor_sum(hidden))
    with pytest.raises(ContractError, match="already backpropagated"):
        backward(tensor_sum(scale(hidden, 2.0)))


# ---------------------------------------------------------------------------
# gradients: structural ops against central differences
# ---------------------------------------------------------------------------


def _probe(shape, seed):
    return constant(np.random.default_rng(seed).normal(size=shape))


def test_grad_structural_pipeline_against_central_differences():
    rng = np.random.default_rng(5)
    x = Param(rng.normal(size=(6, 3)), "x")
    widen = constant(rng.normal(size=(3, 6)))
    time_map = Param(rng.normal(size=(3, 2)), "time_map")
    channel_map = Param(rng.normal(size=(3, 3)), "channel_map")
    bias = Param(rng.normal(size=3), "bias")
    probe = _probe((6, 9), 99)

    def make_loss():
        h = relu(matmul(x, widen))           # (6, 6)
        rows = reshape(h, (12, 3))           # 2 steps x 6 nodes
        out = output_adapter(rows, AdapterParams(time_map, bias, channel_map, bias))  # (6, 3, 3)
        return tensor_sum(mul(reshape(out, (6, 9)), probe))

    err = finite_diff_check(make_loss, [x, time_map, channel_map, bias], samples=36, seed=0)
    assert err < 1e-6


def test_grad_layer_norm_against_central_differences():
    rng = np.random.default_rng(7)
    x = Param(rng.normal(size=(3, 6)), "x")
    gain = Param(rng.normal(size=6), "gain")
    bias = Param(rng.normal(size=6), "bias")
    probe = _probe((3, 6), 23)

    def make_loss():
        return tensor_sum(mul(layer_norm(x, gain, bias), probe))

    assert finite_diff_check(make_loss, [x, gain, bias], samples=30, seed=2) < 1e-6


def test_grad_batched_matmul_against_central_differences():
    rng = np.random.default_rng(8)
    a = Param(rng.normal(size=(2, 3, 4)), "a")
    b = Param(rng.normal(size=(4, 5)), "b")
    probe = _probe((2, 3, 5), 31)

    def make_loss():
        return tensor_sum(mul(matmul(a, b), probe))

    assert finite_diff_check(make_loss, [a, b], samples=40, seed=3) < 1e-6


def _closure(node: Tensor) -> dict:
    """The backward closure's free variables, by name."""
    fn = node.backward_fn
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


def _self_attention(x, w_query, w_key, w_value, bounds, b_query=None, w_out=None):
    """ranged_self_attention over x's rows in their own order; the query
    bias defaults to zeros and the output map to the identity, which lays
    the head outputs side by side."""
    heads, dim, head_dim = w_query.shape
    b_query = constant(np.zeros((heads, 1, head_dim))) if b_query is None else b_query
    w_out = constant(np.eye(dim)) if w_out is None else w_out
    order = np.arange(x.shape[-2])
    params = AttentionParams(w_value=w_value, w_query=w_query, b_query=b_query, w_key=w_key, w_out=w_out)
    return ranged_self_attention(x, params, bounds, order, order)


def test_ranged_self_attention_closure_keeps_only_its_operands_and_head_outputs():
    # the head outputs, (B, D, M), and each query's negated log normalizer,
    # (B, H, 1, M): D + H floats per row and batch. The operand buffer, the
    # gathered rows and the augmented [k | 1] and [g | -inner] arrays are
    # rebuilt by the backward, so the tape does not hold them
    rng = np.random.default_rng(9)
    batch, n_rows, dim, heads = 2, 7, 4, 2
    x = Param(rng.normal(size=(batch, n_rows, dim)), "x")
    w_query, w_key, w_value = (Param(rng.normal(size=(heads, dim, 2)), n) for n in "qkv")
    order = rng.permutation(n_rows)
    params = AttentionParams(
        w_value=w_value, w_query=w_query, b_query=Param(np.zeros((heads, 1, 2)), "b"), w_key=w_key,
        w_out=Param(rng.normal(size=(dim, dim)), "o"),
    )
    node = ranged_self_attention(x, params, [(0, 3), (3, 4), (4, 7)], order, np.argsort(order))
    kept = {}
    for value in _closure(node).values():
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            owner = value if value.base is None else value.base
            kept[id(owner)] = owner
    assert sorted(a.shape for a in kept.values()) == sorted(
        [(batch, heads, 1, n_rows), (batch, dim, n_rows)]
    )
    assert sum(a.nbytes for a in kept.values()) == (dim + heads) * batch * n_rows * 8


def _packed_operands(rows, params):
    """q / sqrt(d_h) with its bias, k and v, feature-major per head, from one
    GEMM of the packed (3D, D) maps with the rows transposed, the query
    bias and scale applied after it."""
    heads, dim, head_dim = params.w_query.shape
    packed = tensor._packed_maps(params) @ np.swapaxes(rows, -1, -2)
    q, k, v = np.moveaxis(packed.reshape(rows.shape[:-2] + (3, heads, head_dim, rows.shape[-2])), -4, 0)
    q = q + np.swapaxes(params.b_query.data, -1, -2)
    q *= 1.0 / np.sqrt(float(head_dim))
    return q, k, v


@pytest.mark.parametrize("lead, n_rows, heads", [((8,), 96, 2), ((4,), 2520, 4), ((8,), 2520, 4), ((), 9, 4)])
def test_attention_operands_are_the_packed_projection_bit_for_bit(lead, n_rows, heads):
    # the benchmark geometries (8-node ring, 210-node grid) and a short
    # range: q, k and v are bit for bit the packed projection's rows, v's
    # extra row is exactly 1, and all three are views of one
    # (..., 3D + 2H, M) buffer
    rng = np.random.default_rng(n_rows + heads)
    dim = 16
    params = _attention_params(rng, heads, dim)
    rows = rng.normal(size=lead + (n_rows, dim))
    q_norm_t, k_t, v_one_t, factor, _ = tensor._attention_operands(rows, params)
    q, k, v = _packed_operands(rows, params)
    assert factor == 1.0 / np.sqrt(float(dim // heads))
    assert np.array_equal(q_norm_t[..., :-1, :], q)
    assert np.array_equal(k_t, k)
    assert np.array_equal(v_one_t[..., :-1, :], v)
    assert np.all(v_one_t[..., -1, :] == 1.0)
    assert len({id(a.base) for a in (q_norm_t, k_t, v_one_t)}) == 1
    assert q_norm_t.base.shape == lead + (3 * dim + 2 * heads, n_rows)


@pytest.mark.parametrize("n_rows", [301, 1001, 2484, 3900])
def test_attention_operands_round_the_packed_projection_within_an_ulp_at_other_row_counts(n_rows):
    # OpenBLAS's edge kernels may round the last few columns of a GEMM by
    # where a row sits in the map stack: at these row counts the zero rows
    # of the (3D + 2H, D) stack move some entries by one ulp of the largest
    # value against the packed (3D, D) stack's product, never more
    rng = np.random.default_rng(n_rows)
    params = _attention_params(rng, 4, 16)
    rows = rng.normal(size=(2, n_rows, 16))
    q_norm_t, k_t, v_one_t, _, _ = tensor._attention_operands(rows, params)
    for got, want in zip((q_norm_t[..., :-1, :], k_t, v_one_t[..., :-1, :]), _packed_operands(rows, params)):
        np.testing.assert_allclose(got, want, rtol=0, atol=np.spacing(np.abs(want).max()))


@pytest.mark.parametrize("scale, shifted", [(0.25, False), (4.0, True)])
def test_ranged_self_attention_under_no_grad_is_the_recorded_output_bit_for_bit(monkeypatch, scale, shifted):
    # the recording path adds only the log normalizers, which the forward
    # output does not read; maps of scale 4 push the score bound past the
    # unshifted limit
    decisions = []
    needs_shift = tensor._needs_shift

    def spy(q, k, factor):
        decisions.append(needs_shift(q, k, factor))
        return decisions[-1]

    monkeypatch.setattr(tensor, "_needs_shift", spy)
    rng = np.random.default_rng(17)
    batch, n_rows, heads, dim = 3, 40, 4, 16
    params = _attention_params(rng, heads, dim)
    for p in (params.w_query, params.w_key):
        p.data *= scale / 0.25
    x = Param(rng.normal(size=(batch, n_rows, dim)), "x")
    order = rng.permutation(n_rows)
    bounds = [(0, 13), (13, 14), (14, 40)]
    recorded = ranged_self_attention(x, params, bounds, order, np.argsort(order))
    with no_grad():
        plain = ranged_self_attention(x, params, bounds, order, np.argsort(order))
    assert [d.tolist() for d in decisions] == [[shifted] * batch] * 2
    assert recorded.backward_fn is not None and plain.backward_fn is None
    assert np.array_equal(plain.data, recorded.data)


@pytest.mark.parametrize(
    "bounds", [[(0, 2)], [(0, 2), (3, 4)], [(2, 4), (0, 2)], [(0, 2), (2, 2), (2, 4)], []]
)
def test_ranged_self_attention_rejects_ranges_that_do_not_tile_the_rows(bounds):
    x = constant(np.ones((1, 4, 2)))
    maps = constant(np.ones((1, 2, 2)))
    with pytest.raises(ContractError, match="tile"):
        _self_attention(x, maps, maps, maps, bounds)


@pytest.mark.parametrize("position, shape", [
    (0, (5,)), (0, (2, 5, 6)), (1, (4, 2)), (1, (2, 4, 3)), (2, (2, 2)), (3, (2, 4, 1)),
    (4, (1, 4, 2)), (5, (4, 2)),
])
def test_ranged_self_attention_rejects_maps_that_do_not_fit_the_rows(position, shape):
    # x (2, 5, 4), maps (2, 4, 2), query bias (2, 1, 2) and output (4, 4),
    # with one of them replaced; a map without its head axis is refused too
    leaves = [constant(np.ones(s)) for s in ((2, 5, 4), (2, 4, 2), (2, 1, 2), (2, 4, 2), (2, 4, 2), (4, 4))]
    leaves[position] = constant(np.ones(shape))
    x, w_query, b_query, w_key, w_value, w_out = leaves
    params = AttentionParams(w_value=w_value, w_query=w_query, b_query=b_query, w_key=w_key, w_out=w_out)
    order = np.arange(5)
    with pytest.raises(ContractError, match="do not fit"):
        ranged_self_attention(x, params, [(0, 5)], order, order)


def test_ranged_self_attention_attends_inside_each_range_only():
    # ragged ranges over 3 heads x 2 batches: each range's output rows are
    # its softmax weights times its value rows, and no row outside the
    # range changes them
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 9, 12))
    w_query, w_key, w_value = (rng.normal(scale=1.5 / np.sqrt(12), size=(3, 12, 4)) for _ in "qkv")
    bounds = [(0, 4), (4, 5), (5, 9)]
    maps = [constant(w) for w in (w_query, w_key, w_value)]
    out = _self_attention(constant(x), *maps, bounds).data
    assert out.shape == (2, 9, 12)
    q, k, v = (x[:, None] @ w for w in (w_query, w_key, w_value))
    for lo, hi in bounds:
        scores = q[..., lo:hi, :] @ np.swapaxes(k[..., lo:hi, :], -1, -2) / 2.0
        heads = softmax_naive(scores) @ v[..., lo:hi, :]
        want = np.swapaxes(heads, 1, 2).reshape(2, hi - lo, 12)
        np.testing.assert_allclose(out[:, lo:hi], want, rtol=0, atol=1e-12)
        moved = x.copy()
        moved[:, :lo], moved[:, hi:] = rng.normal(size=moved[:, :lo].shape), -x[:, hi:]
        assert np.array_equal(_self_attention(constant(moved), *maps, bounds).data[:, lo:hi], out[:, lo:hi])


def test_grad_ranged_self_attention_at_scores_near_500_with_a_one_row_range():
    # the rows are the first 5 of I_6, so each head's query, key and value
    # rows are rows of its maps. Column 0 of the queries is +-500 sqrt(d_h),
    # alternating by row, and column 0 of the keys is 1, so every score is
    # +-500 plus an O(1) term. Rows at +500 and at -500 share a range, so
    # each query needs its own exact max, and the backward's
    # exp([k | 1] @ [q | -log_norm]^T) must cancel the 500 inside one GEMM.
    # Column 0 is held fixed: its gradient is a whole-row shift, zero, which
    # central differences at this magnitude resolve only to about 1e-8.
    # Map row 5 meets no input row, so its gradient is exactly zero.
    rng = np.random.default_rng(12)
    heads, rows, width = 2, 5, 3
    sign = np.where(np.arange(rows) % 2 == 0, 1.0, -1.0)
    fixed_q, fixed_k = np.zeros((heads, rows + 1, width)), np.zeros((heads, rows + 1, width))
    fixed_q[:, :rows, 0] = 500.0 * np.sqrt(width) * sign
    fixed_k[:, :rows, 0] = 1.0
    free = constant(np.broadcast_to([0.0, 1.0, 1.0], (heads, rows + 1, width)))
    q, k = (
        Param(np.pad(rng.normal(scale=0.5, size=(heads, rows, width)), ((0, 0), (0, 1), (0, 0))), name)
        for name in "qk"
    )
    v = Param(np.pad(rng.normal(size=(heads, rows, width)), ((0, 0), (0, 1), (0, 0))), "v")
    probe = _probe((heads, rows, width), 41)
    probe_rows = constant(np.swapaxes(probe.data, 0, 1).reshape(rows, heads * width))
    x = constant(np.eye(rows, heads * width))
    bounds = [(0, 4), (4, 5)]

    def make_loss():
        w_query = add(constant(fixed_q), mul(q, free))
        w_key = add(constant(fixed_k), mul(k, free))
        return tensor_sum(mul(_self_attention(x, w_query, w_key, v, bounds), probe_rows))

    assert finite_diff_check(make_loss, [q, k, v], samples=10**6) < 1e-6
    # finite_diff_check's max() skips a NaN error, so check finiteness here
    assert np.isfinite(make_loss().data)
    for param in (q, k, v):
        assert np.all(np.isfinite(param.grad))
    # the one-row range attends only to itself, with weight 1
    np.testing.assert_allclose(v.grad[:, 4], probe.data[:, 4], rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_ranged_self_attention_shifted_and_unshifted_branches_agree(monkeypatch, seed):
    # a limit of 0 forces the exact per-query max, one of infinity the
    # unshifted exp; ragged ranges, one of them a single row
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(2, 12, 12))] + [
        rng.normal(scale=2.0 / np.sqrt(12), size=(3, 12, 4)) for _ in range(3)
    ] + [rng.normal(scale=0.5, size=(3, 1, 4)), rng.normal(size=(12, 12)) / np.sqrt(12)]
    probe = _probe((2, 12, 12), 43)
    results = {}
    for limit, shifted in ((0.0, True), (np.inf, False)):
        monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", limit)
        x, w_query, w_key, w_value, b_query, w_out = (
            Param(a, name) for a, name in zip(arrays, ("x", "q", "k", "v", "b", "o"))
        )
        node = _self_attention(x, w_query, w_key, w_value, [(0, 5), (5, 6), (6, 12)], b_query, w_out)
        state = _closure(node)
        assert state["shifted"].tolist() == [shifted] * 2
        log_norm = -state["neg_log_norm"][..., 0, :]
        backward(tensor_sum(mul(node, probe)))
        results[shifted] = [node.data, log_norm] + [
            p.grad for p in (x, w_query, w_key, w_value, b_query, w_out)
        ]
    for exact, unshifted in zip(results[True], results[False]):
        scale = np.abs(exact).max()
        np.testing.assert_allclose(unshifted, exact, rtol=0, atol=1e-14 * scale)


def _windowed_attention_run(monkeypatch, params, bounds, order, data, probe):
    """ranged_self_attention over data, forward and backward from zeroed
    parameter gradients: the output and the input gradient, the windows on
    one leading axis, the (windows, P) parameter gradient terms and the
    shift decisions. Each parameter's gradient must be its terms summed in
    window order, and _needs_shift must be asked once, by the forward: the
    backward reuses its decisions."""
    n_rows, dim = data.shape[-2:]
    terms, decisions = {}, []
    accumulate_windows, needs_shift = tensor._accumulate_windows, tensor._needs_shift

    def terms_spy(param, grad):
        assert param.name not in terms
        terms[param.name] = grad.reshape(-1, param.data.size)
        accumulate_windows(param, grad)

    def needs_shift_spy(*args):
        decisions.append(needs_shift(*args))
        return decisions[-1]

    for p in params.params():
        zero_gradients(p.grad)
    x = Param(data, "x")
    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_accumulate_windows", terms_spy)
        patch.setattr(tensor, "_needs_shift", needs_shift_spy)
        node = ranged_self_attention(x, params, bounds, order, np.argsort(order))
        backward(tensor_sum(mul(node, Tensor(probe))))
    assert len(decisions) == 1
    for p in params.params():
        in_order = np.zeros(p.data.size)
        for term in terms[p.name]:
            in_order += term
        assert np.array_equal(p.grad.ravel(), in_order)
    flat = np.concatenate([terms[p.name] for p in params.params()], axis=1)
    return node.data.reshape(-1, n_rows, dim), x.grad.reshape(-1, n_rows, dim), flat, decisions[0]


@pytest.mark.parametrize("lead", [(), (3,), (3, 2)])
@pytest.mark.parametrize("limit", [0.0, np.inf])
def test_ranged_self_attention_gradients_are_the_same_bits_at_every_row_budget(monkeypatch, lead, limit):
    # a training step runs its batch in chunks of whole windows, the
    # entries of the leading axes, so a window run alone gives the bits it
    # gives in the whole batch: its output, its input gradient and its own
    # term of every parameter gradient, over ragged ranges with the shift
    # forced (limit 0) or ruled out; unbatched rows are one window. Each
    # parameter's gradient is its terms added in window order, so a batch
    # split into chunks of whole windows sums them in the same order
    monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", limit)
    n_rows, heads, dim = 12, 3, 12
    bounds = [(0, 5), (5, 6), (6, 12)]
    rng = np.random.default_rng(31)
    params = _attention_params(rng, heads, dim)
    order = rng.permutation(n_rows)
    data, probe = (rng.normal(size=lead + (n_rows, dim)) for _ in range(2))
    whole = _windowed_attention_run(monkeypatch, params, bounds, order, data, probe)
    assert whole[3].tolist() == [limit == 0.0] * math.prod(lead)
    for w in range(math.prod(lead)):
        rows, window_probe = (a.reshape(-1, n_rows, dim)[w : w + 1] for a in (data, probe))
        alone = _windowed_attention_run(monkeypatch, params, bounds, order, rows, window_probe)
        assert alone[3].tolist() == [limit == 0.0]
        for got, want in zip(alone[:3], whole[:3]):
            assert np.array_equal(got[0], want[w])



def test_ranged_self_attention_shifts_each_window_on_its_own(monkeypatch):
    # one window's rows scaled 100-fold take its score bound past the
    # unshifted limit, and only that window shifts: the others keep the
    # bits they have when no window shifts, and it has the bits it has
    # alone, in the output, the input gradient and the gradient terms
    rng = np.random.default_rng(32)
    n_rows, heads, dim = 12, 3, 12
    bounds = [(0, 5), (5, 6), (6, 12)]
    params = _attention_params(rng, heads, dim)
    order = rng.permutation(n_rows)
    data, probe = (rng.normal(size=(4, n_rows, dim)) for _ in range(2))
    calm = _windowed_attention_run(monkeypatch, params, bounds, order, data, probe)
    data[2] *= 100.0
    mixed = _windowed_attention_run(monkeypatch, params, bounds, order, data, probe)
    alone = _windowed_attention_run(monkeypatch, params, bounds, order, data[2:3], probe[2:3])
    assert calm[3].tolist() == [False] * 4
    assert mixed[3].tolist() == [False, False, True, False]
    others = [0, 1, 3]
    for got, want, one in zip(mixed[:3], calm[:3], alone[:3]):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got[others], want[others])
        assert np.array_equal(got[2], one[0])


def test_a_window_past_the_shift_limit_leaves_one_block_per_range(monkeypatch):
    # one window of three scaled 100-fold shifts alone, yet the forward and
    # backward range loops carve the same blocks as when no window shifts:
    # the shifted branch runs on all windows of a range at once, with a
    # shift of 0.0 in the windows that need none
    rng = np.random.default_rng(33)
    n_rows, heads, dim = 12, 3, 12
    bounds = [(0, 5), (5, 6), (6, 12)]
    params = _attention_params(rng, heads, dim)
    order = rng.permutation(n_rows)
    data, probe = (rng.normal(size=(3, n_rows, dim)) for _ in range(2))
    block, calls = tensor._block, []

    def counted(scratch, shape):
        calls.append(shape)
        return block(scratch, shape)

    monkeypatch.setattr(tensor, "_block", counted)
    runs = {}
    for name, scale in (("calm", 1.0), ("mixed", 100.0)):
        data[1] *= scale
        calls.clear()
        runs[name] = _windowed_attention_run(monkeypatch, params, bounds, order, data, probe)
        runs[name] += (list(calls),)
    assert runs["calm"][3].tolist() == [False] * 3
    assert runs["mixed"][3].tolist() == [False, True, False]
    assert runs["mixed"][4] == runs["calm"][4]
    assert len(runs["calm"][4]) == 3 * len(bounds)


def _attention_params(rng, heads, dim):
    head_dim = dim // heads
    shapes = {
        "w_value": (heads, dim, head_dim), "w_query": (heads, dim, head_dim),
        "b_query": (heads, 1, head_dim), "w_key": (heads, dim, head_dim), "w_out": (dim, dim),
    }
    return AttentionParams(**{n: Param(rng.normal(scale=0.25, size=s), n) for n, s in shapes.items()})


def test_attend_keeps_the_dtype_of_its_operands(monkeypatch):
    # float32 operands get float32 scratch and a finite output
    block, dtypes = tensor._block, []

    def spy(scratch, shape):
        dtypes.append(scratch.dtype)
        return block(scratch, shape)

    monkeypatch.setattr(tensor, "_block", spy)
    rng = np.random.default_rng(12)
    q_norm_t = rng.normal(size=(2, 3, 5, 10)).astype(np.float32)
    k_t = rng.normal(size=(2, 3, 4, 10)).astype(np.float32)
    v_one_t = rng.normal(size=(2, 3, 5, 10)).astype(np.float32)
    v_one_t[..., -1, :] = 1.0
    out_t = np.empty((2, 3, 4, 10))
    tensor._attend(q_norm_t, k_t, v_one_t, [(0, 6), (6, 10)], np.zeros(len(k_t), bool), out_t)
    assert dtypes == [np.float32] * 2
    assert np.all(np.isfinite(out_t))


def test_benchmark_model_scores_take_the_unshifted_branch(monkeypatch):
    # the tiny-train benchmark model (8-node ring, dim 16, 2 heads, l = 2):
    # every call of a 4-epoch run, from initialization on, proves its scores
    # small enough for the unshifted exp
    decisions = []
    needs_shift = tensor._needs_shift

    def spy(q, k, factor):
        decisions.append(needs_shift(q, k, factor))
        return decisions[-1]

    monkeypatch.setattr(tensor, "_needs_shift", spy)
    series = synthetic_series(8, 78, interval_min=60, seed=1, noise=1.0)
    dataset = prepare_dataset(series, t_in=12, t_out=3, ratios=(1.0, 0.0, 0.0))
    config = ModelConfig(
        n_nodes=8, t_in=12, t_out=3, channels=1, dim=16, spe_modes=4, gamma=24,
        n_blocks=1, n_heads=2, n_subsets=2, seed=1, learning_rate=0.005,
        batch_size=8, epochs=4,
    )
    model = build_model(config, load_spatial_graph(ring_edge_lines(8)))
    train(model, dataset)
    assert len(decisions) >= 2 * 32
    assert not any(d.any() for d in decisions)


# ---------------------------------------------------------------------------
# add_norm_ffn: residual, layer norm, feed-forward, residual, layer norm
# ---------------------------------------------------------------------------


def _post_attention_leaves(shape, seed):
    """attended, x and the eight weights of a (..., D) add_norm_ffn, hidden 4D."""
    rng = np.random.default_rng(seed)
    width, hidden = shape[-1], 4 * shape[-1]
    arrays = [
        rng.normal(size=shape), rng.normal(size=shape),
        rng.normal(size=(width, hidden)) / np.sqrt(width), rng.normal(size=hidden) * 0.1,
        rng.normal(size=(hidden, width)) / np.sqrt(hidden), rng.normal(size=width) * 0.1,
        1.0 + rng.normal(size=width) * 0.1, rng.normal(size=width) * 0.1,
        1.0 + rng.normal(size=width) * 0.1, rng.normal(size=width) * 0.1,
    ]
    names = ["attended", "x", "w1", "b1", "w2", "b2", "g1", "beta1", "g2", "beta2"]
    return [Param(a, name) for a, name in zip(arrays, names)]


def _post_attention_op(attended, x, *weights):
    """add_norm_ffn with the eight weights as a module's group; the module
    has no attention maps here."""
    return add_norm_ffn(attended, x, ModuleParams(None, *weights))


def _taped_post_attention(attended, x, w1, b1, w2, b2, g1, beta1, g2, beta2):
    y = layer_norm(add(attended, x), g1, beta1)
    hidden = relu(add(matmul(y, w1), b1))
    return layer_norm(add(add(matmul(hidden, w2), b2), y), g2, beta2)


def _post_attention_run(op, shape, seed):
    leaves = _post_attention_leaves(shape, seed)
    out = op(*leaves)
    backward(tensor_sum(mul(out, _probe(shape, seed + 1))))
    return out.data, [leaf.grad for leaf in leaves]


def test_add_norm_ffn_in_one_tile_is_the_taped_chain_bit_for_bit():
    rows = tensor._TILE_ROWS - 12
    got = _post_attention_op(*_post_attention_leaves((rows, 8), 50))
    want = _taped_post_attention(*_post_attention_leaves((rows, 8), 50))
    assert np.array_equal(got.data, want.data)


def test_add_norm_ffn_over_a_ragged_last_tile_matches_the_taped_chain():
    shape = (2 * tensor._TILE_ROWS + 37, 8)
    got_out, got_grads = _post_attention_run(_post_attention_op, shape, 51)
    want_out, want_grads = _post_attention_run(_taped_post_attention, shape, 51)
    assert len(got_grads) == 10
    for got, want in zip([got_out] + got_grads, [want_out] + want_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("rows", [700, 2 * tensor._TILE_ROWS + 37, 3 * tensor._TILE_ROWS])
@pytest.mark.parametrize("grad", [False, True])
def test_add_norm_ffn_over_many_tiles_is_the_taped_chain_bit_for_bit(rows, grad):
    # every tile, the ragged last one too, rounds as the untiled chain does
    leaves = _post_attention_leaves((rows, 16), 55)
    if grad:
        got = _post_attention_op(*leaves)
    else:
        with no_grad():
            got = _post_attention_op(*leaves)
    assert (got.backward_fn is not None) is grad
    assert np.array_equal(got.data, _taped_post_attention(*leaves).data)


def test_grad_add_norm_ffn_over_tiles_against_central_differences(monkeypatch):
    # four-row tiles split the 30 rows into eight tiles, the last of two
    monkeypatch.setattr(tensor, "_TILE_ROWS", 4)
    leaves = _post_attention_leaves((2, 15, 4), 52)
    probe = _probe((2, 15, 4), 53)

    def make_loss():
        return tensor_sum(mul(_post_attention_op(*leaves), probe))

    assert finite_diff_check(make_loss, leaves, samples=10**6) < 1e-6


def test_add_norm_ffn_keeps_only_the_second_norm_per_tile(monkeypatch):
    # per tile the tape holds the normalized output rows and their inverse
    # stds, D + 1 floats per row; the first norm and the hidden rows are
    # rebuilt from the inputs' own data, which the closure only views. No
    # tile spans two windows, so each 5-row window is a tile of 4 rows and
    # one of 1
    monkeypatch.setattr(tensor, "_TILE_ROWS", 4)
    leaves = _post_attention_leaves((2, 5, 6), 56)
    node = _post_attention_op(*leaves)
    state = _closure(node)
    assert [tuple(a.shape for a in tile) for tile in state["kept"]] == [
        ((4, 6), (4, 1)), ((1, 6), (1, 1))
    ] * 2
    inputs = (leaves[0].data, leaves[1].data)
    for name, value in state.items():
        if name != "kept" and isinstance(value, np.ndarray) and value.dtype == np.float64:
            assert value.size <= 6 or any(np.shares_memory(value, a) for a in inputs), name


def test_recorded_forward_keeps_at_most_110_floats_per_row_and_module():
    # a 4 x 5 grid over 12 steps (240 rows per window), 4 windows, D = 16,
    # H = 4 and one block of two modules. Per module the tape holds the
    # attention's output, head outputs and log normalizers, 16 + 16 + 4
    # floats per row, and add_norm_ffn's output and second norm, 16 + 17;
    # the embedding and the adapter bring the forward to about 104 floats
    # per row and module. Keeping the attention operands and the first norm
    # and hidden rows of add_norm_ffn came to about 237.
    rows, cols = 4, 5
    lines = [f"nodes {rows * cols}"] + [
        f"{node} {neighbour} 1.0"
        for node in range(rows * cols)
        for neighbour in ([node + 1] if (node + 1) % cols else []) + ([node + cols] if node + cols < rows * cols else [])
    ]
    config = ModelConfig(
        n_nodes=rows * cols, t_in=12, t_out=12, channels=1, dim=16, spe_modes=4, gamma=24,
        n_blocks=1, n_heads=4, n_subsets=4, seed=1, learning_rate=0.001, batch_size=4, epochs=1,
    )
    model = build_model(config, load_spatial_graph(lines))
    series = synthetic_series(rows * cols, 40, interval_min=60, seed=2, noise=1.0)
    ds = prepare_dataset(series, t_in=12, t_out=12, ratios=(1.0, 0.0, 0.0))
    values, day, step, target_norm, target_raw = batch_arrays(ds.splits["train"][:4])
    tracemalloc.start()
    try:
        loss = masked_mae_loss(forward_arrays(model, values, day, step), target_norm, target_raw != 0.0)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    floats_per_row = kept / 8 / (4 * model.unified.n_elements * 2)
    assert floats_per_row <= 110, floats_per_row
    backward(loss)
    assert all(np.all(np.isfinite(p.grad)) for p in model.params())


@pytest.mark.parametrize("position, shape", [
    (1, (5, 4)), (2, ()), (2, (4, 8)), (2, (3, 16)), (3, (15,)), (4, (16, 3)), (4, (8, 4)),
    (5, (3,)), (6, (5,)), (7, (4, 1)), (8, (3,)), (9, (16,)),
])
def test_add_norm_ffn_rejects_mismatched_shapes(position, shape):
    leaves = _post_attention_leaves((6, 4), 54)
    leaves[position] = Param(np.zeros(shape), "bad")
    with pytest.raises(ContractError):
        _post_attention_op(*leaves)


def test_attention_weights_rejects_maps_that_do_not_fit_the_rows():
    # maps for width 4 against rows of width 6 are refused before the
    # packed GEMM, with every map's shape named
    maps = constant(np.ones((2, 4, 2)))
    params = AttentionParams(maps, maps, constant(np.zeros((2, 1, 2))), maps, constant(np.eye(4)))
    with pytest.raises(ContractError, match=r"\(2, 4, 2\)/\(2, 4, 2\)/\(2, 4, 2\).*\(2, 1, 2\).*\(3, 6\)"):
        tensor.attention_weights(np.ones((3, 6)), params)
    params.b_query = constant(np.zeros((1, 1, 2)))
    with pytest.raises(ContractError, match=r"query bias \(1, 1, 2\) and output \(4, 4\) do not fit"):
        tensor.attention_weights(np.ones((3, 4)), params)


# ---------------------------------------------------------------------------
# the embedding, adapter and loss ops against the taped chains they replace
# ---------------------------------------------------------------------------


_GAMMA = 5


def _embedding_leaves(seed: int, batch: tuple[int, ...] = (3,)) -> tuple[tuple, list[Param]]:
    """A (batch..., N=4, T=3, C=2) window, 2-column coordinates and a
    calendar (batch..., T), and the ten embedding parameters at D = 6."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=batch + (4, 3, 2))
    coords = rng.normal(size=(4, 2))
    day = rng.integers(0, 7, size=batch + (3,))
    step = rng.integers(0, _GAMMA, size=batch + (3,))
    shapes = [(2, 6), (6,), (2, 6), (6,), (7 + _GAMMA, 6), (6,), (6, 6), (6,), (6,), (6,)]
    names = ["w_in", "b_in", "w_spe", "b_spe", "w_tpe", "b_tpe", "w_mix", "b_mix", "gain", "bias"]
    return (values, coords, day, step), [Param(rng.normal(size=s), n) for s, n in zip(shapes, names)]


def _taped_embedding(values, coords, day, step, w_in, b_in, w_spe, b_spe, w_tpe, b_tpe,
                     w_mix, b_mix, gain, bias):
    """The embedding as generic ops, with the calendar as a one-hot GEMM."""
    x = add(matmul(constant(np.swapaxes(values, -3, -2)), w_in), b_in)
    x = add(x, add(matmul(constant(coords), w_spe), b_spe))
    calendar = add(matmul(constant(calendar_one_hot(day, step, _GAMMA)), w_tpe), b_tpe)
    x = add(x, reshape(calendar, day.shape + (1, calendar.shape[-1])))
    x = layer_norm(add(matmul(x, w_mix), b_mix), gain, bias)
    return reshape(x, x.shape[:-3] + (-1, x.shape[-1]))


def _embedding_op(values, coords, day, step, *params):
    return embed_rows(values, coords, day, 7 + step, EmbeddingParams(*params))


def _taped_adapter(x, w_time, b_time, w_out, b_out, n_nodes):
    """The adapter as generic ops, before its final axis swap: (..., t_out, N, C)."""
    lead, dim = x.shape[:-2], x.shape[-1]
    y = matmul(w_time, reshape(x, lead + (w_time.shape[1], n_nodes * dim)))
    y = add(reshape(y, lead + (w_time.shape[0], n_nodes, dim)), b_time)
    return add(matmul(y, w_out), b_out)


def _taped_masked_mae(pred, truth, mask):
    """The loss as generic ops: |e| is e times the constant sign(e)."""
    error = add(pred, constant(-truth))
    absolute = mul(error, constant(np.sign(error.data)))
    masked = mul(absolute, constant(mask.astype(np.float64)))
    return scale(tensor_sum(masked), 1.0 / max(int(mask.sum()), 1))


def _assert_grads_close(got: list[Param], want: list[Param]) -> None:
    for a, b in zip(got, want):
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-14 * np.abs(b.grad).max())


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_embed_rows_is_the_taped_chain(batch):
    inputs, got_params = _embedding_leaves(60, batch)
    _, want_params = _embedding_leaves(60, batch)
    got = _embedding_op(*inputs, *got_params)
    want = _taped_embedding(*inputs, *want_params)
    assert got.shape == batch + (12, 6)
    assert np.array_equal(got.data, want.data)
    probe = _probe(got.shape, 61)
    backward(tensor_sum(mul(got, probe)))
    backward(tensor_sum(mul(want, probe)))
    _assert_grads_close(got_params, want_params)


def test_embed_rows_with_one_calendar_for_a_batch_is_the_taped_chain():
    # a (T,) calendar broadcasts over the batch, as embed allows
    (values, coords, _, _), got_params = _embedding_leaves(62)
    _, want_params = _embedding_leaves(62)
    day, step = np.array([6, 0, 3]), np.array([0, 4, 4])
    got = _embedding_op(values, coords, day, step, *got_params)
    want = _taped_embedding(values, coords, day, step, *want_params)
    assert np.array_equal(got.data, want.data)
    probe = _probe(got.shape, 63)
    backward(tensor_sum(mul(got, probe)))
    backward(tensor_sum(mul(want, probe)))
    _assert_grads_close(got_params, want_params)


def test_grad_embed_rows_against_central_differences():
    inputs, params = _embedding_leaves(64)
    probe = _probe((3, 12, 6), 65)

    def make_loss():
        return tensor_sum(mul(_embedding_op(*inputs, *params), probe))

    assert finite_diff_check(make_loss, params, samples=10**6) < 1e-6


def test_embed_rows_keeps_only_what_its_backward_reads():
    (values, coords, day, step), params = _embedding_leaves(66)
    node = _embedding_op(values, coords, day, step, *params)
    kept = {
        name: value.shape for name, value in _closure(node).items()
        if isinstance(value, np.ndarray) and value.dtype == np.float64
    }
    # the signal (..., T, N, C), the pre-mix sum and the normalized rows
    # (..., T, N, D), each row's inverse std and the coordinates
    assert kept == {
        "signal": (3, 3, 4, 2), "x": (3, 3, 4, 6), "norm": (3, 3, 4, 6), "inv": (3, 3, 4, 1),
        "coords": (4, 2), "row_mean": (6, 1),
    }


@pytest.mark.parametrize("position, shape", [
    (0, (3, 6)), (1, (6, 1)), (2, (3, 6)), (3, (5,)), (4, (7 + _GAMMA, 5)), (4, (7 + _GAMMA, 6, 1)),
    (5, (5,)), (6, (6, 5)), (6, ()), (7, (5,)), (8, (5,)), (9, (6, 2)),
])
def test_embed_rows_rejects_parameters_that_do_not_fit(position, shape):
    inputs, params = _embedding_leaves(67)
    params[position] = Param(np.zeros(shape), "bad")
    with pytest.raises(ContractError, match="do not fit"):
        _embedding_op(*inputs, *params)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_output_adapter_is_the_taped_chain(lead):
    n_nodes, t_in, dim = 5, 4, 6

    def leaves():
        rng = np.random.default_rng(70)
        arrays = [rng.normal(size=lead + (t_in * n_nodes, dim)), rng.normal(size=(3, t_in)),
                  rng.normal(size=dim), rng.normal(size=(dim, 2)), rng.normal(size=2)]
        return [Param(a, name) for a, name in zip(arrays, ["x", "w_time", "b_time", "w_out", "b_out"])]

    got_leaves, want_leaves = leaves(), leaves()
    got = output_adapter(got_leaves[0], AdapterParams(*got_leaves[1:]))
    want = _taped_adapter(*want_leaves, n_nodes)
    assert got.shape == lead + (n_nodes, 3, 2)
    assert np.array_equal(got.data, np.swapaxes(want.data, -3, -2))
    probe = np.random.default_rng(71).normal(size=got.shape)
    backward(tensor_sum(mul(got, constant(probe))))
    backward(tensor_sum(mul(want, constant(np.swapaxes(probe, -3, -2)))))
    _assert_grads_close(got_leaves, want_leaves)


@pytest.mark.parametrize("position, shape", [
    (0, (7, 6)), (0, (20,)), (1, (3,)), (2, (5,)), (3, (5, 2)), (3, ()), (4, (3,)),
])
def test_output_adapter_rejects_maps_that_do_not_fit(position, shape):
    leaves = [Param(np.zeros(s), "leaf") for s in ((20, 6), (3, 4), (6,), (6, 2), (2,))]
    leaves[position] = Param(np.zeros(shape), "bad")
    with pytest.raises(ContractError, match="do not fit"):
        output_adapter(leaves[0], AdapterParams(*leaves[1:]))


def test_masked_mae_is_the_taped_chain():
    rng = np.random.default_rng(72)
    pred = rng.normal(size=(3, 5, 4, 1))
    truth = rng.normal(size=pred.shape)
    truth[0, 0] = pred[0, 0]  # ties take a zero subgradient
    mask = rng.random(pred.shape) < 0.7
    got_pred, want_pred = Param(pred, "pred"), Param(pred, "pred")
    got = masked_mae(got_pred, truth, mask)
    want = _taped_masked_mae(want_pred, truth, mask)
    assert got.shape == () and np.array_equal(got.data, want.data)
    backward(got)
    backward(want)
    assert np.array_equal(got_pred.grad, want_pred.grad)


class _WatchedLeaf(Param):
    """A Param that counts how often its parents are read."""

    reads = 0

    @property
    def parents(self):
        _WatchedLeaf.reads += 1
        return ()

    @parents.setter
    def parents(self, value):
        pass


def test_backward_walks_only_op_nodes():
    # a leaf's gradient arrives through _accumulate; the walk never
    # expands a leaf, so it never reads a leaf's parents
    x = _WatchedLeaf(np.ones((4, 3)), "x")
    w = _WatchedLeaf(np.ones((3, 3)), "w")
    loss = tensor_sum(mul(matmul(x, w), constant(np.ones((4, 3)))))
    _WatchedLeaf.reads = 0
    backward(loss)
    assert _WatchedLeaf.reads == 0
    assert np.array_equal(x.grad, np.full((4, 3), 3.0)) and np.array_equal(w.grad, np.full((3, 3), 4.0))
