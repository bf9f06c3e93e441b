"""Spectral and calendar position encodings plus the input embedding."""

import numpy as np
import pytest

from flowcast.embedding import compute_spe, embed, init_embedding_params
from flowcast.errors import ContractError
from flowcast.stgraph import load_spatial_graph
from flowcast.tensor import _calendar_rows

from oracles import calendar_one_hot, random_connected_graph


def _graph_from_matrix(adj: np.ndarray):
    lines = [f"nodes {adj.shape[0]}"]
    for i in range(adj.shape[0]):
        for j in range(i, adj.shape[0]):
            if adj[i, j] != 0.0:
                lines.append(f"{i} {j} {float(adj[i, j])!r}")
    return load_spatial_graph(lines)


def _normalized_laplacian(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1)
    deg = np.where(deg > 0.0, deg, 1e-12)
    inv = 1.0 / np.sqrt(deg)
    lap = np.eye(adj.shape[0]) - inv[:, None] * adj * inv[None, :]
    return (lap + lap.T) / 2.0


# ---------------------------------------------------------------------------
# spectral encoding
# ---------------------------------------------------------------------------


def test_spe_two_node_analytic_pair():
    # L of a single edge is [[1,-1],[-1,1]]: eigenvalues {0, 2} and the
    # nontrivial eigenvector (1,-1)/sqrt(2), sign-fixed to start positive.
    spatial = load_spatial_graph(["0 1 1.0"])
    pack = compute_spe(spatial, 1)
    assert np.allclose(sorted(pack.eigvals), [0.0, 2.0], atol=1e-12)
    root_half = 1.0 / np.sqrt(2.0)
    assert np.allclose(pack.selected[:, 0], [root_half, -root_half], atol=1e-12)


def test_spe_triangle_eigenvalues():
    # K3: normalized Laplacian spectrum {0, 1.5, 1.5}
    spatial = load_spatial_graph(["0 1", "1 2", "0 2"])
    pack = compute_spe(spatial, 2)
    assert np.allclose(sorted(pack.eigvals), [0.0, 1.5, 1.5], atol=1e-12)
    assert pack.selected.shape == (3, 2)


def test_spe_residual_and_orthonormality_on_random_graphs():
    rng = np.random.default_rng(30)
    for _ in range(8):
        n = int(rng.integers(4, 24))
        adj = random_connected_graph(rng, n)
        spatial = _graph_from_matrix(adj)
        modes = min(4, n - 1)
        pack = compute_spe(spatial, modes)
        lap = _normalized_laplacian(adj)
        # selected columns must be true eigenpairs of the full decomposition
        nontrivial = np.flatnonzero(pack.eigvals >= 1e-8)[:modes]
        for k, col in enumerate(nontrivial):
            u = pack.selected[:, k]
            lam = pack.eigvals[col]
            assert np.max(np.abs(lap @ u - lam * u)) < 1e-8
        gram = pack.selected.T @ pack.selected
        assert np.max(np.abs(gram - np.eye(modes))) < 1e-8


def test_spe_skips_one_trivial_mode_per_component():
    spatial = load_spatial_graph(["0 1", "2 3"])  # two components
    pack = compute_spe(spatial, 2)
    assert np.sum(pack.eigvals < 1e-8) == 2
    # both kept modes are nontrivial
    nontrivial = np.flatnonzero(pack.eigvals >= 1e-8)
    assert len(nontrivial) >= 2


def test_spe_too_many_modes_for_components():
    spatial = load_spatial_graph(["0 1", "2 3"])
    with pytest.raises(ContractError, match="components"):
        compute_spe(spatial, 3)


def test_spe_mode_count_range():
    spatial = load_spatial_graph(["0 1", "1 2"])
    with pytest.raises(ContractError):
        compute_spe(spatial, 0)
    with pytest.raises(ContractError):
        compute_spe(spatial, 3)  # must stay below N


def test_spe_isolated_node_is_finite():
    spatial = load_spatial_graph(["nodes 3", "0 1 1.0"])
    pack = compute_spe(spatial, 1)
    assert np.all(np.isfinite(pack.selected))
    assert np.all(np.isfinite(pack.eigvals))


def test_spe_sign_convention():
    rng = np.random.default_rng(31)
    adj = random_connected_graph(rng, 9)
    pack = compute_spe(_graph_from_matrix(adj), 4)
    for col in range(4):
        column = pack.selected[:, col]
        assert column[np.argmax(np.abs(column))] > 0.0


def test_spe_deterministic():
    rng = np.random.default_rng(32)
    adj = random_connected_graph(rng, 12)
    a = compute_spe(_graph_from_matrix(adj), 3)
    b = compute_spe(_graph_from_matrix(adj), 3)
    assert np.array_equal(a.selected, b.selected)


# ---------------------------------------------------------------------------
# calendar encoding
# ---------------------------------------------------------------------------


def test_tpe_one_hot_layout():
    # the one-hot oracle that the calendar rows are checked against: day d
    # sets column d and step s column 7 + s
    row = calendar_one_hot(np.array([0]), np.array([1]), 288)[0]
    assert row.shape == (7 + 288,)
    assert row[0] == 1.0 and row[7 + 1] == 1.0
    assert row.sum() == 2.0


def test_tpe_one_hot_batch_shape():
    day = np.array([[0, 1], [6, 6]])
    step = np.array([[0, 23], [5, 5]])
    out = calendar_one_hot(day, step, 24)
    assert out.shape == (2, 2, 31)
    assert np.all(out.sum(axis=-1) == 2.0)


def test_tpe_equal_slots_give_equal_rows():
    rng = np.random.default_rng(32)
    w_tpe, b_tpe = rng.normal(size=(7 + 12, 8)), rng.normal(size=8)
    out = _calendar_rows(w_tpe, b_tpe, np.array([3, 3, 4]), 7 + np.array([7, 7, 7]))
    assert np.array_equal(out[0], out[1]) and not np.array_equal(out[0], out[2])


def test_tpe_range_validation():
    spatial, spe, params = _setup()
    values = np.zeros((4, 3, 2))
    for day, step, message in (
        ([7, 0, 0], [0, 0, 0], r"day of week outside \[0, 7\)"),
        ([0, 0, 0], [0, 24, 0], r"step in day outside \[0, 24\)"),
        ([0, -1, 0], [0, 0, 0], r"day of week outside \[0, 7\)"),
        ([0, 0, 0], [-1, 0, 0], r"step in day outside \[0, 24\)"),
    ):
        with pytest.raises(ContractError, match=message):
            embed(values, np.array(day), np.array(step), spe, params)


def test_tpe_shape_mismatch():
    spatial, spe, params = _setup()
    with pytest.raises(ContractError, match=r"calendar \(3,\)/\(2,\)"):
        embed(np.zeros((4, 3, 2)), np.array([0, 1, 2]), np.array([0, 1]), spe, params)


def test_compute_tpe_projects_to_width():
    # the calendar rows, looked up, equal the one-hot code times w_tpe plus
    # b_tpe bit for bit: the GEMM's other terms are exact zeros
    rng = np.random.default_rng(33)
    params = init_embedding_params(rng, channels=1, dim=8, n_modes=2, tpe_width=7 + 24)
    w_tpe, b_tpe = params.w_tpe.data, params.b_tpe.data
    day = rng.integers(0, 7, size=(4, 6))
    step = rng.integers(0, 24, size=(4, 6))
    out = _calendar_rows(w_tpe, b_tpe, day, 7 + step)
    assert out.shape == (4, 6, 8)
    assert np.array_equal(out, calendar_one_hot(day, step, 24) @ w_tpe + b_tpe)


def test_embed_reads_the_steps_per_day_from_the_calendar_map():
    # a calendar map of 7 + 12 rows has steps 0..11: step 11 reads its last
    # row, and step 12 would read past it
    spatial, spe, params = _setup(gamma=12)
    assert params.w_tpe.shape[0] == 7 + 12
    values, day = np.zeros((4, 3, 2)), np.zeros(3, np.int64)
    assert embed(values, day, np.array([0, 5, 11]), spe, params).shape == (3 * 4, 8)
    with pytest.raises(ContractError, match=r"step in day outside \[0, 12\)"):
        embed(values, day, np.array([0, 5, 12]), spe, params)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def _setup(n=4, t=3, c=2, d=8, modes=2, gamma=24, seed=34):
    lines = [f"{i} {(i + 1) % n}" for i in range(n)]
    spatial = load_spatial_graph(lines)
    spe = compute_spe(spatial, modes).selected
    rng = np.random.default_rng(seed)
    params = init_embedding_params(rng, c, d, modes, 7 + gamma)
    return spatial, spe, params


def test_embed_shapes_single_and_batch():
    spatial, spe, params = _setup()
    rng = np.random.default_rng(35)
    day = np.array([0, 0, 1])
    step = np.array([22, 23, 0])
    # one row per element, in flat order time * N + node
    single = embed(rng.normal(size=(4, 3, 2)), day, step, spe, params)
    assert single.shape == (3 * 4, 8)
    batch = embed(rng.normal(size=(5, 4, 3, 2)), day, step, spe, params)
    assert batch.shape == (5, 3 * 4, 8)


def test_embed_batch_matches_per_window_calls():
    spatial, spe, params = _setup()
    rng = np.random.default_rng(36)
    values = rng.normal(size=(3, 4, 3, 2))
    day = np.array([2, 2, 2])
    step = np.array([0, 1, 2])
    batched = embed(values, day, step, spe, params)
    for b in range(3):
        one = embed(values[b], day, step, spe, params)
        assert np.allclose(batched.data[b], one.data, atol=1e-12)


def test_embed_batch_calendar_rows():
    spatial, spe, params = _setup()
    rng = np.random.default_rng(37)
    values = rng.normal(size=(2, 4, 3, 2))
    day = np.array([[0, 0, 0], [3, 3, 3]])
    step = np.array([[0, 1, 2], [10, 11, 12]])
    batched = embed(values, day, step, spe, params)
    for b in range(2):
        one = embed(values[b], day[b], step[b], spe, params)
        assert np.allclose(batched.data[b], one.data, atol=1e-12)


def test_embed_zero_collapse():
    # zero signal, zeroed projections, zero affine bias: the output is 0
    spatial, spe, params = _setup()
    for p in (params.w_in, params.w_spe, params.w_tpe):
        p.data[...] = 0.0
    params.w_mix.data[...] = np.eye(8)
    values = np.zeros((4, 3, 2))
    out = embed(values, np.zeros(3, np.int64), np.arange(3), spe, params)
    assert np.array_equal(out.data, np.zeros((3 * 4, 8)))


def test_embed_spe_broadcasts_over_time():
    # with the signal and calendar contributions silenced, rows differ only
    # by node, never by time step
    spatial, spe, params = _setup()
    params.w_in.data[...] = 0.0
    params.w_tpe.data[...] = 0.0
    rng = np.random.default_rng(38)
    out = embed(rng.normal(size=(4, 3, 2)), np.zeros(3, np.int64), np.arange(3), spe, params)
    for node in range(4):
        for t in (1, 2):
            assert np.allclose(out.data[t * 4 + node], out.data[node], atol=1e-12)


def test_embed_tpe_broadcasts_over_nodes():
    spatial, spe, params = _setup()
    params.w_in.data[...] = 0.0
    params.w_spe.data[...] = 0.0
    rng = np.random.default_rng(39)
    out = embed(rng.normal(size=(4, 3, 2)), np.array([0, 1, 2]), np.array([3, 4, 5]), spe, params)
    for node in (1, 2, 3):
        assert np.allclose(out.data[node::4], out.data[0::4], atol=1e-12)


def test_embed_node_permutation_equivariance():
    spatial, spe, params = _setup()
    rng = np.random.default_rng(40)
    values = rng.normal(size=(4, 3, 2))
    day = np.array([1, 1, 1])
    step = np.array([7, 8, 9])
    out = embed(values, day, step, spe, params)

    perm = np.array([2, 0, 3, 1])
    out_perm = embed(values[perm], day, step, spe[perm], params)
    rows = (4 * np.arange(3)[:, None] + perm).ravel()  # node perm[i] at every step
    assert np.allclose(out_perm.data, out.data[rows], atol=1e-12)


# embed checks only the calendar's index ranges; every shape is checked
# once, by tensor.embed_rows


def test_embed_rejects_wrong_node_count():
    spatial, spe, params = _setup()
    with pytest.raises(ContractError, match="do not fit values"):
        embed(np.zeros((5, 3, 2)), np.zeros(3, np.int64), np.zeros(3, np.int64), spe, params)


def test_embed_rejects_wrong_calendar_length():
    spatial, spe, params = _setup()
    with pytest.raises(ContractError, match="do not fit values"):
        embed(np.zeros((4, 3, 2)), np.zeros(2, np.int64), np.zeros(2, np.int64), spe, params)


def test_embed_rejects_bad_rank():
    spatial, spe, params = _setup()
    with pytest.raises(ContractError, match="do not fit values"):
        embed(np.zeros((4, 3)), np.zeros(3, np.int64), np.zeros(3, np.int64), spe, params)


def test_embed_rejects_mismatched_batch_calendar():
    spatial, spe, params = _setup()
    # 3 calendar rows for 2 windows, and 2 calendar rows for one window
    for values, day in (
        (np.zeros((2, 4, 3, 2)), np.zeros((3, 3), np.int64)),
        (np.zeros((4, 3, 2)), np.zeros((2, 3), np.int64)),
    ):
        with pytest.raises(ContractError, match="do not fit values"):
            embed(values, day, day.copy(), spe, params)