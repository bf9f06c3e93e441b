"""Tests for subset attention, the post-norm module, and the two-module block."""

import numpy as np
import pytest

from flowcast.attention import (
    apply_block,
    apply_module,
    init_attention_params,
    init_block_params,
    init_module_params,
    subset_attention,
)
from flowcast.errors import ContractError
from flowcast.partition import PartitionScheme
from flowcast import tensor
from flowcast.tensor import (
    Param,
    Tensor,
    add_norm_ffn,
    backward,
    mul,
    ranged_self_attention,
    tensor_sum,
)

from oracles import attention_oracle, subset_attention_grad_oracle
from taped_ops import add, layer_norm, matmul, relu


def _heads_as_arrays(params, rng):
    # per-head slices for the oracle, plus a random key bias the model does
    # not have: the softmax cancels it, so the outputs must still agree
    return [
        (
            params.w_query.data[h],
            params.b_query.data[h, 0],
            params.w_key.data[h],
            rng.normal(scale=0.5, size=params.w_key.shape[-1]),
            params.w_value.data[h],
        )
        for h in range(params.w_query.shape[0])
    ]


def _random_attention(rng, dim, n_heads, bias_scale=0.5):
    params = init_attention_params(rng, dim, n_heads, "t")
    params.b_query.data[:] = rng.normal(scale=bias_scale, size=params.b_query.shape)
    return params


def _single_subset_scheme(n_elements):
    return PartitionScheme(
        label="p1",
        n_elements=n_elements,
        tau=n_elements,
        base_flats=[0],
        assignment=np.zeros(n_elements, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# subset_attention against the loop oracle
# ---------------------------------------------------------------------------


def test_attention_matches_loop_oracle():
    rng = np.random.default_rng(71)
    for trial in range(12):
        n_heads = int(rng.choice([1, 2, 4]))
        dim = n_heads * int(rng.integers(1, 1 + 16 // n_heads))
        m = int(rng.integers(1, 9))
        params = _random_attention(rng, dim, n_heads)
        x = rng.normal(size=(m, dim))

        got = subset_attention(Tensor(x), params, _single_subset_scheme(m))
        alphas = tensor.attention_weights(x, params)
        want, want_alphas = attention_oracle(x, _heads_as_arrays(params, rng), params.w_out.data)

        assert np.max(np.abs(got.data - want)) < 1e-10
        assert alphas.shape == (n_heads, m, m)
        for a, b in zip(alphas, want_alphas):
            assert np.max(np.abs(a - b)) < 1e-10


def test_attention_rows_are_stochastic():
    rng = np.random.default_rng(72)
    params = _random_attention(rng, 8, 2)
    for alpha in tensor.attention_weights(rng.normal(size=(6, 8)), params):
        assert np.all(alpha >= 0.0)
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)


def test_single_element_subset_is_value_map():
    # with one element the softmax row is [1.0] and attention reduces to
    # the value map followed by the output matrix
    rng = np.random.default_rng(73)
    params = _random_attention(rng, 6, 2)
    x = rng.normal(size=(1, 6))
    got = subset_attention(Tensor(x), params, _single_subset_scheme(1))

    values = np.concatenate([x @ w for w in params.w_value.data], axis=-1)
    np.testing.assert_allclose(got.data, values @ params.w_out.data, atol=1e-12)
    for alpha in tensor.attention_weights(x, params):
        np.testing.assert_allclose(alpha, [[1.0]], atol=1e-15)


def test_identical_rows_attend_uniformly():
    rng = np.random.default_rng(74)
    params = _random_attention(rng, 8, 2)
    row = rng.normal(size=8)
    for alpha in tensor.attention_weights(np.tile(row, (4, 1)), params):
        np.testing.assert_allclose(alpha, 0.25, atol=1e-12)


def test_attention_batched_matches_per_sample():
    rng = np.random.default_rng(75)
    params = _random_attention(rng, 8, 4)
    x = rng.normal(size=(3, 5, 8))
    scheme = _single_subset_scheme(5)
    batched = subset_attention(Tensor(x), params, scheme).data
    for b in range(3):
        single = subset_attention(Tensor(x[b]), params, scheme).data
        assert np.max(np.abs(batched[b] - single)) < 1e-12


def test_attention_is_permutation_equivariant():
    rng = np.random.default_rng(76)
    params = _random_attention(rng, 8, 2)
    x = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    scheme = _single_subset_scheme(6)
    base = subset_attention(Tensor(x), params, scheme).data
    shuffled = subset_attention(Tensor(x[perm]), params, scheme).data
    assert np.max(np.abs(shuffled - base[perm])) < 1e-12


def test_attention_shape_errors():
    rng = np.random.default_rng(77)
    params = _random_attention(rng, 4, 1)
    for shape in ((4,), (0, 4)):
        with pytest.raises(ContractError):
            subset_attention(Tensor(np.zeros(shape)), params, _single_subset_scheme(4))
        with pytest.raises(ContractError):
            tensor.attention_weights(np.zeros(shape), params)


def test_init_rejects_indivisible_width():
    rng = np.random.default_rng(78)
    with pytest.raises(ContractError):
        init_attention_params(rng, 6, 4, "t")


def test_init_names_and_shapes():
    rng = np.random.default_rng(79)
    params = init_attention_params(rng, 8, 2, "blk0.att")
    shapes = {p.name: p.shape for p in params.params()}
    assert shapes == {
        "blk0.att.w_value": (2, 8, 4),
        "blk0.att.w_query": (2, 8, 4),
        "blk0.att.b_query": (2, 1, 4),
        "blk0.att.w_key": (2, 8, 4),
        "blk0.att.w_out": (8, 8),
    }


# ---------------------------------------------------------------------------
# apply_module
# ---------------------------------------------------------------------------


def _two_subset_scheme(n, t, left_nodes, label="p1"):
    # group whole nodes: subset 0 holds left_nodes at every step
    assignment = np.empty(n * t, dtype=np.int64)
    for step in range(t):
        for node in range(n):
            assignment[step * n + node] = 0 if node in left_nodes else 1
    base0 = min(left_nodes)
    base1 = min(set(range(n)) - set(left_nodes))
    return PartitionScheme(
        label=label,
        n_elements=n * t,
        tau=n + t,
        base_flats=[base0, base1],
        assignment=assignment,
    )


def _after_attention(att, flat, params):
    # apply_module's residual + norm, feed-forward, residual + norm, in
    # flat element order
    y = layer_norm(add(att, flat), params.norm1_gain, params.norm1_bias)
    hidden = relu(add(matmul(y, params.w_ffn1), params.b_ffn1))
    ffn = add(matmul(hidden, params.w_ffn2), params.b_ffn2)
    return layer_norm(add(ffn, y), params.norm2_gain, params.norm2_bias)


def _straight_line_module(x, params):
    # same computation as apply_module with one all-covering subset
    scheme = _single_subset_scheme(x.shape[-2])
    return _after_attention(subset_attention(x, params.attention, scheme), x, params)


def test_module_single_subset_equals_straight_line():
    rng = np.random.default_rng(80)
    params = init_module_params(rng, 8, 2, "m")
    x = rng.normal(size=(12, 8))
    got = apply_module(Tensor(x), _single_subset_scheme(12), params)
    want = _straight_line_module(Tensor(x), params)
    assert got.shape == (12, 8)
    assert np.max(np.abs(got.data - want.data)) < 1e-12


def test_module_keeps_batch_shape():
    rng = np.random.default_rng(81)
    params = init_module_params(rng, 8, 2, "m")
    scheme = _two_subset_scheme(4, 3, {0, 1})
    x = rng.normal(size=(2, 12, 8))
    out = apply_module(Tensor(x), scheme, params)
    assert out.shape == (2, 12, 8)
    for b in range(2):
        single = apply_module(Tensor(x[b]), scheme, params)
        assert np.max(np.abs(out.data[b] - single.data)) < 1e-12


def test_module_rejects_element_count_mismatch():
    rng = np.random.default_rng(82)
    params = init_module_params(rng, 8, 2, "m")
    scheme = _single_subset_scheme(12)
    with pytest.raises(ContractError, match="12"):
        apply_module(Tensor(rng.normal(size=(9, 8))), scheme, params)


def test_module_records_alphas_per_subset():
    rng = np.random.default_rng(83)
    params = init_module_params(rng, 8, 2, "m")
    scheme = _two_subset_scheme(4, 3, {0, 2})
    x = rng.normal(size=(12, 8))
    assert scheme.n_subsets == 2
    for indices in scheme.subsets:
        for alpha in tensor.attention_weights(x[indices], params.attention):
            assert alpha.shape == (len(indices), len(indices))
            np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)


def _interleaved_scheme():
    # four subsets of sizes 6, 2, 4 and 3 over 5 nodes x 3 steps, their
    # elements interleaved in flat order, and flat 0 outside subset 0
    assignment = np.array([2, 0, 1, 3, 0, 2, 0, 3, 1, 2, 0, 3, 0, 2, 0])
    return PartitionScheme(
        label="p1",
        n_elements=15,
        tau=15,
        base_flats=[1, 2, 0, 3],
        assignment=assignment,
    )


def test_module_merges_interleaved_subsets_exactly():
    # every element's attention output is subset_attention over its own
    # subset, bit for bit: the module output equals the module's own
    # post-attention op applied to those per-subset results placed at
    # their elements
    rng = np.random.default_rng(89)
    params = init_module_params(rng, 8, 2, "m")
    scheme = _interleaved_scheme()
    assert [len(s) for s in scheme.subsets] == [6, 2, 4, 3]
    batch = 2
    x = rng.normal(size=(batch, 15, 8))
    got = apply_module(Tensor(x), scheme, params)

    att = np.full(x.shape, np.nan)
    for indices in scheme.subsets:
        alone = _single_subset_scheme(len(indices))
        att[:, indices, :] = subset_attention(Tensor(x[:, indices, :]), params.attention, alone).data
    want = add_norm_ffn(Tensor(att), Tensor(x), params)
    assert np.array_equal(got.data, want.data)


def test_module_merge_gradients_match_finite_differences():
    from flowcast.optim import finite_diff_check

    rng = np.random.default_rng(90)
    params = init_module_params(rng, 4, 2, "m")
    x = Param(rng.normal(size=(2, 15, 4)), "x")
    probe = rng.normal(size=x.shape) * 0.01

    def loss_fn():
        out = apply_module(x, _interleaved_scheme(), params)
        return tensor_sum(mul(out, Tensor(probe)))

    # every coordinate of the input and the parameters
    worst = finite_diff_check(loss_fn, [x] + params.params(), samples=10**6)
    assert worst < 1e-5


def _tape_nodes(out):
    seen = {id(out): out}
    stack = [out]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _tape_size(out):
    return len(_tape_nodes(out))


def test_module_records_no_layout_ops():
    # rows arrive in flat element order, the order the subsets index, so a
    # module records one ranged_self_attention, which gathers, projects,
    # attends and scatters inside the op, and one add_norm_ffn for
    # residual, norm and feed-forward: 2 op nodes. Converting to and from
    # an (N, T, D) grid would cost a transpose and a reshape on each side.
    rng = np.random.default_rng(97)
    params = init_module_params(rng, 8, 2, "m")
    x = Param(rng.normal(size=(2, 15, 8)), "x")
    nodes = _tape_nodes(apply_module(x, _interleaved_scheme(), params))
    assert sum(node.backward_fn is not None for node in nodes) == 2
    assert sum(isinstance(node, Param) for node in nodes) == 1 + len(params.params())


def test_module_tape_size_does_not_grow_with_heads():
    # heads are one tensor axis, so a module records the same nodes for
    # any head count at equal width
    rng = np.random.default_rng(92)
    x = Tensor(rng.normal(size=(2, 15, 8)))
    sizes = [
        _tape_size(apply_module(x, _interleaved_scheme(), init_module_params(rng, 8, h, "m")))
        for h in (1, 2, 4)
    ]
    assert sizes[0] == sizes[1] == sizes[2], sizes


def _probe_loss(out, positions, seed):
    # weight the chosen elements with a fixed random functional so the
    # gradient probe does not vanish under layer norm
    rng = np.random.default_rng(seed)
    weights = np.zeros(out.shape)
    for flat in positions:
        weights[flat, :] = rng.normal(size=out.shape[-1])
    return tensor_sum(mul(out, Tensor(weights)))


def test_module_keeps_subsets_isolated():
    # gradient of a subset-0 readout with respect to the input is exactly
    # zero at every subset-1 element: one module never crosses subsets
    rng = np.random.default_rng(84)
    params = init_module_params(rng, 8, 2, "m")
    n, t = 5, 3
    scheme = _two_subset_scheme(n, t, {0, 1, 4})
    x = Param(rng.normal(size=(n * t, 8)), "x")
    out = apply_module(x, scheme, params)
    loss = _probe_loss(out, scheme.subsets[0].tolist(), seed=1)
    backward(loss)

    for flat in scheme.subsets[1]:
        assert np.all(x.grad[flat, :] == 0.0)
    touched = x.grad[scheme.subsets[0], :]
    assert np.any(touched != 0.0)


def test_block_bridges_primary_subsets():
    # after the shifted module, information crosses primary-subset borders:
    # node 4 feeds node 6 inside primary subset {4..7}, and node 6 feeds
    # node 0 inside shifted subset {6, 7, 0, 1}
    rng = np.random.default_rng(85)
    n, t = 8, 2
    p1 = _two_subset_scheme(n, t, {0, 1, 2, 3}, label="p1")
    p2 = _two_subset_scheme(n, t, {2, 3, 4, 5}, label="p2")
    params = init_block_params(rng, 8, 2, "b")
    x = Param(rng.normal(size=(n * t, 8)), "x")
    out = apply_block(x, p1, p2, params)
    loss = _probe_loss(out, [0], seed=2)
    backward(loss)
    assert np.any(x.grad[4::n, :] != 0.0)  # node 4 at every step


def test_block_shape_and_captures():
    rng = np.random.default_rng(86)
    n, t = 6, 2
    p1 = _two_subset_scheme(n, t, {0, 1, 2}, label="p1")
    p2 = _two_subset_scheme(n, t, {1, 2, 3}, label="p2")
    params = init_block_params(rng, 8, 2, "b")
    x = Tensor(rng.normal(size=(n * t, 8)))
    out = apply_block(x, p1, p2, params)
    assert out.shape == (n * t, 8)
    # the shifted module's weights are read from the primary module's output
    mid = apply_module(x, p1, params.module_one).data
    for rows, scheme, module in ((x.data, p1, params.module_one), (mid, p2, params.module_two)):
        assert scheme.n_subsets == 2
        for indices in scheme.subsets:
            alphas = tensor.attention_weights(rows[indices], module.attention)
            assert alphas.shape == (2, len(indices), len(indices))


def test_block_modules_have_independent_params():
    rng = np.random.default_rng(87)
    params = init_block_params(rng, 8, 2, "b")
    names = [p.name for p in params.params()]
    assert len(names) == len(set(names))
    assert sum(1 for s in names if s.startswith("b.mod1.")) == len(names) // 2
    assert sum(1 for s in names if s.startswith("b.mod2.")) == len(names) // 2

    n, t = 4, 2
    p1 = _two_subset_scheme(n, t, {0, 1}, label="p1")
    p2 = _two_subset_scheme(n, t, {1, 2}, label="p2")
    x = Tensor(rng.normal(size=(n * t, 8)))
    base = apply_block(x, p1, p2, params).data.copy()
    # single-entry bump: a uniform shift would be erased by the final norm
    params.module_two.w_ffn2.data[0, 0] += 0.5
    assert np.max(np.abs(apply_block(x, p1, p2, params).data - base)) > 1e-6


def test_module_gradients_match_finite_differences():
    from flowcast.optim import finite_diff_check

    rng = np.random.default_rng(88)
    params = init_module_params(rng, 4, 2, "m")
    n, t = 3, 2
    scheme = _two_subset_scheme(n, t, {0, 2})
    x = rng.normal(size=(n * t, 4))
    # small probe keeps the loss magnitude low so the float noise of the
    # central differences stays small at coordinates with tiny gradients
    probe = rng.normal(size=(n * t, 4)) * 0.01

    def loss_fn():
        out = apply_module(Tensor(x), scheme, params)
        return tensor_sum(mul(out, Tensor(probe)))

    worst = finite_diff_check(loss_fn, params.params(), samples=60, seed=5)
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# the fused core: every subset of a module in one tape node
# ---------------------------------------------------------------------------


def _ragged_scheme():
    # subsets of sizes 7, 1, 4 and 3 over 5 nodes x 3 steps, interleaved in
    # flat order; subset 1 holds the single element 9
    assignment = np.array([2, 0, 0, 3, 0, 2, 0, 3, 2, 1, 0, 3, 0, 2, 0])
    return PartitionScheme(
        label="p1",
        n_elements=15,
        tau=15,
        base_flats=[1, 9, 0, 3],
        assignment=assignment,
    )


def test_fused_module_gradients_match_finite_differences_on_ragged_subsets():
    from flowcast.optim import finite_diff_check

    rng = np.random.default_rng(93)
    scheme = _ragged_scheme()
    assert [len(s) for s in scheme.subsets] == [7, 1, 4, 3]
    params = init_module_params(rng, 4, 2, "m")
    params.attention.b_query.data[:] = rng.normal(scale=0.5, size=params.attention.b_query.shape)
    x = Param(rng.normal(size=(3, 15, 4)), "x")
    probe = rng.normal(size=x.shape) * 0.01

    def loss_fn():
        out = apply_module(x, scheme, params)
        return tensor_sum(mul(out, Tensor(probe)))

    # every coordinate of the input and the parameters
    worst = finite_diff_check(loss_fn, [x] + params.params(), samples=10**6)
    assert worst < 1e-5


def _striped_scheme(n, t, l):
    # l subsets of whole nodes: node i belongs to subset i % l at every step
    assignment = np.tile(np.arange(n) % l, t)
    return PartitionScheme(
        label="p1", n_elements=n * t, tau=n + t, base_flats=list(range(l)), assignment=assignment
    )


def test_module_tape_size_does_not_grow_with_subsets():
    # the subsets share one gather, one attention core and one inverse
    # gather, so a module records the same nodes for any subset count
    rng = np.random.default_rng(94)
    params = init_module_params(rng, 8, 2, "m")
    x = Tensor(rng.normal(size=(2, 12, 8)))
    sizes = [_tape_size(apply_module(x, _striped_scheme(4, 3, l), params)) for l in (1, 2, 4)]
    assert sizes[0] == sizes[1] == sizes[2], sizes


def test_weights_times_values_give_the_fused_module_attention():
    # the weights read through the core with identity values, applied to
    # each subset's own value rows, reproduce the module's fused attention
    rng = np.random.default_rng(95)
    params = init_module_params(rng, 8, 4, "m")
    params.attention.b_query.data[:] = rng.normal(scale=0.5, size=params.attention.b_query.shape)
    att = params.attention
    scheme = _ragged_scheme()
    batch = 2
    x = rng.normal(size=(batch, 15, 8))
    fused = subset_attention(Tensor(x), att, scheme).data

    for indices in scheme.subsets:
        m = len(indices)
        alphas = tensor.attention_weights(x[:, indices, :], att)
        assert alphas.shape == (batch, 4, m, m)
        values = x[:, None, indices, :] @ att.w_value.data  # (batch, H, m, d_h)
        heads = alphas @ values
        side_by_side = np.swapaxes(heads, 1, 2).reshape(batch, m, 8)
        np.testing.assert_allclose(
            side_by_side @ att.w_out.data, fused[:, indices], rtol=0, atol=1e-12
        )


def _consecutive_scheme(sizes):
    # subsets of the given sizes over consecutive flat ids, in order
    assignment = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    return PartitionScheme(
        label="p1", n_elements=sum(sizes), tau=sum(sizes), base_flats=starts,
        assignment=assignment,
    )


def test_subset_attention_sizes_split_rows_into_independent_ranges():
    rng = np.random.default_rng(96)
    params = _random_attention(rng, 8, 2)
    x = rng.normal(size=(2, 9, 8))
    bounds = [(0, 4), (4, 5), (5, 9)]
    got = subset_attention(Tensor(x), params, _consecutive_scheme([4, 1, 4]))
    for lo, hi in bounds:
        want = subset_attention(Tensor(x[:, lo:hi]), params, _single_subset_scheme(hi - lo))
        # a one-row product may take another BLAS path than a nine-row one
        np.testing.assert_allclose(got.data[:, lo:hi], want.data, rtol=0, atol=1e-12)
    for bad in ([4, 4], [4, 0, 5], [10]):
        with pytest.raises(ContractError):
            subset_attention(Tensor(x), params, _consecutive_scheme(bad))


# ---------------------------------------------------------------------------
# ranged_self_attention: a module's attention half as one tape node
# ---------------------------------------------------------------------------


def _attention_leaves(rng, batch, n_rows, dim, n_heads):
    params = _random_attention(rng, dim, n_heads)
    x = Param(rng.normal(size=(batch, n_rows, dim)), "x")
    return x, params


def _scheme_args(scheme):
    ends = np.cumsum(scheme.sizes).tolist()
    return list(zip([0] + ends[:-1], ends)), scheme.order, scheme.inverse


@pytest.mark.parametrize("limit", [0.0, np.inf])
def test_ranged_self_attention_matches_the_taped_chain(monkeypatch, limit):
    # output and every gradient against the per-subset, per-head loop
    # oracle, with the exact per-query max forced (limit 0) and ruled out
    # (limit infinity)
    monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", limit)
    scheme = _ragged_scheme()
    rng = np.random.default_rng(98)
    x, params = _attention_leaves(rng, 3, 15, 8, 2)
    out = ranged_self_attention(x, params, *_scheme_args(scheme))
    probe = rng.normal(size=out.shape)
    backward(tensor_sum(mul(out, Tensor(probe))))
    want_out, want = subset_attention_grad_oracle(
        x.data, params.w_query.data, params.b_query.data, params.w_key.data,
        params.w_value.data, params.w_out.data, scheme.subsets, probe,
    )
    got = [out.data, x.grad, params.w_query.grad, params.b_query.grad, params.w_key.grad,
           params.w_value.grad, params.w_out.grad]
    for a, b in zip(got, [want_out] + [want[k] for k in ("x", "w_q", "b_q", "w_k", "w_v", "w_out")]):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14 * np.abs(b).max())


@pytest.mark.parametrize("limit, shifted", [(0.0, True), (np.inf, False)])
def test_ranged_self_attention_gradients_match_central_differences(monkeypatch, limit, shifted):
    from flowcast.optim import finite_diff_check

    monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", limit)
    rng = np.random.default_rng(99)
    scheme = _ragged_scheme()
    assert min(scheme.sizes) == 1
    x, params = _attention_leaves(rng, 3, 15, 4, 2)
    assert np.all(params.b_query.data != 0.0)
    probe = Tensor(rng.normal(size=x.shape))
    node = ranged_self_attention(x, params, *_scheme_args(scheme))
    fn = node.backward_fn
    state = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))
    assert state["shifted"] is shifted

    def loss_fn():
        return tensor_sum(mul(ranged_self_attention(x, params, *_scheme_args(scheme)), probe))

    # every coordinate of the input and the five attention parameters
    worst = finite_diff_check(loss_fn, [x] + params.params(), samples=10**6)
    assert worst < 1e-6


@pytest.mark.parametrize("limit", [0.0, np.inf])
def test_ranged_self_attention_is_bit_identical_at_every_block_budget(monkeypatch, limit):
    # budget 1 makes every leading row a piece, the middle one splits the
    # batch of 3 into 2 + 1 rows on the 7-row range (2 rows x 2 heads x
    # 7 x 7 float64 scores) and 1 << 62 leaves each range one piece; the
    # output, all six gradients and each subset's weights agree bit for
    # bit, with the exact per-query max forced (limit 0) and ruled out
    monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", limit)
    scheme = _ragged_scheme()
    bounds, order, inverse = _scheme_args(scheme)
    two_rows = 2 * 2 * 7 * 7 * 8
    results = []
    for budget in (1, two_rows, 1 << 62):
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
        if budget == two_rows:
            pieces, _ = tensor._pieces((3, 2), bounds[:1], 8)
            assert bounds[0] == (0, 7)
            assert [rows for rows, _, _ in pieces] == [slice(0, 2), slice(2, 3)]
        rng = np.random.default_rng(102)
        x, params = _attention_leaves(rng, 3, 15, 4, 2)
        probe = rng.normal(size=x.shape)
        out = ranged_self_attention(x, params, bounds, order, inverse)
        backward(tensor_sum(mul(out, Tensor(probe))))
        weights = [
            tensor.attention_weights(x.data[:, indices], params) for indices in scheme.subsets
        ]
        results.append([out.data, x.grad] + [p.grad for p in params.params()] + weights)
    for got in results[1:]:
        assert len(got) == len(results[0]) == 11
        for a, b in zip(got, results[0]):
            assert np.array_equal(a, b)


def test_ranged_self_attention_routes_each_row_back_through_the_inverse():
    # gathering by order inside the op is the same as handing it the
    # gathered rows in their own order, then putting each output row and
    # each input gradient row back by the inverse
    rng = np.random.default_rng(100)
    scheme = _ragged_scheme()
    bounds, order, inverse = _scheme_args(scheme)
    x, params = _attention_leaves(rng, 2, 15, 8, 4)
    probe = rng.normal(size=x.shape)
    out = ranged_self_attention(x, params, bounds, order, inverse)
    backward(tensor_sum(mul(out, Tensor(probe))))
    grads = [p.grad.copy() for p in params.params()]
    for p in params.params():
        p.grad[:] = 0.0

    gathered = Param(x.data[:, order], "gathered")
    plain = ranged_self_attention(gathered, params, bounds, np.arange(15), np.arange(15))
    backward(tensor_sum(mul(plain, Tensor(probe[:, order]))))
    assert np.array_equal(out.data, plain.data[:, inverse])
    assert np.array_equal(x.grad, gathered.grad[:, inverse])
    for got, p in zip(grads, params.params()):
        assert np.array_equal(got, p.grad)


def test_ranged_self_attention_rejects_orders_that_are_not_inverse_permutations():
    rng = np.random.default_rng(101)
    x, params = _attention_leaves(rng, 1, 3, 4, 2)
    for idx in ([1, 1, 1], [0, 1], [2, 0, 1, 0], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(ContractError, match="inverse permutations"):
            ranged_self_attention(x, params, [(0, 3)], np.array(idx), np.argsort(idx))
    with pytest.raises(ContractError, match="inverse permutations"):
        ranged_self_attention(x, params, [(0, 3)], np.array([2, 0, 1]), None)
    with pytest.raises(ContractError, match="inverse permutations"):
        ranged_self_attention(x, params, [(0, 3)], np.array([2, 0, 1]), np.array([2, 0, 1]))
