"""Autodiff core: forward values against naive oracles, gradients against
closed forms and central differences."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcast import tensor
from flowcast.data import prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.errors import ContractError
from flowcast.model import ModelConfig, build_model, train
from flowcast.optim import finite_diff_check, zero_gradients
from flowcast.stgraph import load_spatial_graph
from flowcast.tensor import (
    Param,
    Tensor,
    absolute,
    add,
    backward,
    constant,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    no_grad,
    ranged_attention,
    relu,
    reshape,
    scale,
    sub,
    tensor_sum,
    transpose,
)

from oracles import layer_norm_naive, matmul_oracle, softmax_naive


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
    """Row softmax of x (r, m), r <= m, read back from ranged_attention's
    capture: one head, one square range with d_h = m, q = sqrt(m) I and
    k = x^T, so the scaled scores q k^T / sqrt(m) are the rows of x,
    padded with zero rows up to m."""
    rows = np.array(x, dtype=np.float64)
    r, m = rows.shape
    keys = np.zeros((1, m, m))
    keys[0, :, :r] = rows.T
    q = constant(np.sqrt(m) * np.eye(m)[None])
    captured: list[np.ndarray] = []
    ranged_attention(q, constant(keys), constant(np.zeros((1, m, m))), [(0, m)], captured)
    return captured[0][:r]


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


def test_grad_scalar_times_matrix_broadcast():
    s = Param(np.array(2.0), "s")
    y = constant(np.arange(4.0).reshape(2, 2))
    backward(tensor_sum(mul(s, y)))
    assert s.grad.shape == ()
    assert float(s.grad) == 6.0


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
    x = Param(np.array([-3.0, 2.0]), "x")
    backward(tensor_sum(absolute(x)))
    assert np.array_equal(x.grad, [-1.0, 1.0])


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
    heads = reshape(x, (1, 4, 3))
    return [
        add(x, x), sub(x, x), mul(x, x), scale(x, 2.0), matmul(x, w), relu(x),
        absolute(x), tensor_sum(x), reshape(x, (3, 4)), transpose(x, (1, 0)),
        gather_rows(x, np.array([3, 1, 0, 2])), layer_norm(x, g, g),
        ranged_attention(heads, heads, heads, bounds),
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


def test_grad_gather_scatter_pipeline():
    rng = np.random.default_rng(5)
    x = Param(rng.normal(size=(6, 3)), "x")
    idx = np.array([4, 0, 5, 2, 1, 3])
    widen = constant(rng.normal(size=(3, 6)))
    probe = _probe((6, 6), 99)
    # gathering by the inverse permutation scatters row k to positions[k]
    positions = np.array([1, 3, 0, 2, 5, 4])

    def make_loss():
        g = gather_rows(x, idx)              # (6, 3), rows reordered
        h = relu(matmul(g, widen))           # (6, 6)
        s = gather_rows(h, np.argsort(positions))  # (6, 6)
        t = transpose(reshape(s, (6, 2, 3)), (1, 0, 2))
        flat = reshape(t, (6, 6))
        return tensor_sum(mul(flat, probe))

    err = finite_diff_check(make_loss, [x], samples=18, seed=0)
    assert err < 1e-6


def test_grad_gather_permutation_routes_each_row_back():
    x = Param(np.zeros((2, 4, 2)), "x")
    perm = np.array([2, 0, 3, 1])
    probe = np.arange(16.0).reshape(2, 4, 2)
    backward(tensor_sum(mul(gather_rows(x, perm), constant(probe))))
    assert np.array_equal(x.grad[:, perm, :], probe)


def test_gather_rejects_non_permutation():
    x = Param(np.zeros((3, 2)), "x")
    for idx in ([1, 1, 1], [0, 1], [2, 0, 1, 0], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(ContractError):
            gather_rows(x, np.array(idx))


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


def test_ranged_attention_closure_keeps_only_q_k_v_out_and_log_norm():
    # the augmented [v | 1], [k | 1], [q | -log_norm] and [g | -inner]
    # arrays are transients: the tape holds none of them between forward
    # and backward
    rng = np.random.default_rng(9)
    q, k, v = (Param(rng.normal(size=(2, 3, 7, 4)), name) for name in "qkv")
    node = ranged_attention(q, k, v, [(0, 3), (3, 4), (4, 7)])
    kept = [
        cell.cell_contents for cell in node.backward_fn.__closure__
        if isinstance(cell.cell_contents, np.ndarray)
    ]
    assert all(arr.shape[-1] in (1, 4) for arr in kept)
    log_norm_bytes = q.data.nbytes // 4
    assert sum(arr.nbytes for arr in kept) == 4 * q.data.nbytes + log_norm_bytes


@pytest.mark.parametrize(
    "bounds", [[(0, 2)], [(0, 2), (3, 4)], [(2, 4), (0, 2)], [(0, 2), (2, 2), (2, 4)], []]
)
def test_ranged_attention_rejects_ranges_that_do_not_tile_the_rows(bounds):
    x = constant(np.ones((1, 4, 2)))
    with pytest.raises(ContractError, match="tile"):
        ranged_attention(x, x, x, bounds)


@pytest.mark.parametrize("capture", [None, []])
def test_ranged_attention_rejects_inputs_without_a_head_axis(capture):
    x = constant(np.ones((4, 2)))
    with pytest.raises(ContractError, match="H, M, d_h"):
        ranged_attention(x, x, x, [(0, 4)], capture)


def test_grad_ranged_attention_at_scores_near_500_with_a_one_row_range():
    # column 0 of the queries is +-500 sqrt(d_h), alternating by row, and
    # column 0 of the keys is 1, so every score is +-500 plus an O(1) term.
    # Rows at +500 and at -500 share a range, so each query needs its own
    # exact max, and the backward's exp([k | 1] @ [q | -log_norm]^T) must
    # cancel the 500 inside one GEMM. Column 0 is held fixed: its gradient
    # is a whole-row shift, zero, which central differences at this
    # magnitude resolve only to about 1e-8.
    rng = np.random.default_rng(12)
    heads, rows, width = 2, 5, 3
    sign = np.where(np.arange(rows) % 2 == 0, 1.0, -1.0)
    fixed_q, fixed_k = np.zeros((heads, rows, width)), np.zeros((heads, rows, width))
    fixed_q[..., 0] = 500.0 * np.sqrt(width) * sign
    fixed_k[..., 0] = 1.0
    free = constant(np.array([0.0, 1.0, 1.0]))
    q = Param(rng.normal(scale=0.5, size=(heads, rows, width)), "q")
    k = Param(rng.normal(scale=0.5, size=(heads, rows, width)), "k")
    v = Param(rng.normal(size=(heads, rows, width)), "v")
    probe = _probe((heads, rows, width), 41)
    bounds = [(0, 4), (4, 5)]

    def make_loss():
        queries = add(constant(fixed_q), mul(q, free))
        keys = add(constant(fixed_k), mul(k, free))
        return tensor_sum(mul(ranged_attention(queries, keys, v, bounds), probe))

    assert finite_diff_check(make_loss, [q, k, v], samples=10**6) < 1e-6
    # finite_diff_check's max() skips a NaN error, so check finiteness here
    assert np.isfinite(make_loss().data)
    for param in (q, k, v):
        assert np.all(np.isfinite(param.grad))
    # the one-row range attends only to itself, with weight 1
    np.testing.assert_allclose(v.grad[:, 4], probe.data[:, 4], rtol=1e-12, atol=0)


def _closure(node: Tensor) -> dict:
    """The backward closure's free variables, by name."""
    fn = node.backward_fn
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


@pytest.mark.parametrize("seed", [0, 1])
def test_ranged_attention_shifted_and_unshifted_branches_agree(monkeypatch, seed):
    # a limit of 0 forces the exact per-query max, one of infinity the
    # unshifted exp; ragged ranges, one of them a single row
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(scale=2.0, size=(2, 3, 12, 4)) for _ in range(3)]
    probe = _probe((2, 3, 12, 4), 43)
    results = {}
    for limit, shifted in ((0.0, True), (np.inf, False)):
        monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", limit)
        q, k, v = (Param(a, name) for a, name in zip(arrays, "qkv"))
        node = ranged_attention(q, k, v, [(0, 5), (5, 6), (6, 12)])
        state = _closure(node)
        assert state["shifted"] is shifted
        log_norm = state["log_norm"]
        backward(tensor_sum(mul(node, probe)))
        results[shifted] = (node.data, log_norm, q.grad, k.grad, v.grad)
    for exact, unshifted in zip(results[True], results[False]):
        scale = np.abs(exact).max()
        np.testing.assert_allclose(unshifted, exact, rtol=0, atol=1e-14 * scale)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = build_model(config, load_spatial_graph(ring_edge_lines(8)))
    train(model, dataset)
    assert len(decisions) >= 2 * 32
    assert not any(decisions)


def test_operator_sugar_matches_functions():
    x = constant(np.array([1.0, -2.0]))
    y = constant(np.array([3.0, 5.0]))
    assert np.array_equal((x + y).data, add(x, y).data)
    assert np.array_equal((x - y).data, sub(x, y).data)
    assert np.array_equal((x * 2.0).data, scale(x, 2.0).data)
    assert np.array_equal((x * y).data, mul(x, y).data)
    assert np.array_equal((-x).data, [-1.0, 2.0])
    assert np.array_equal((x / 2).data, [0.5, -1.0])
    assert np.array_equal((1.0 + x).data, [2.0, -1.0])
