"""Spatial loader and unified space-time graph against dense oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcast.errors import ContractError, InputError
from flowcast.stgraph import (
    SpatialGraph,
    STCoord,
    build_unified,
    coord_from_flat,
    load_spatial_graph,
    spatial_hops,
    st_distance,
)

from oracles import hop_distances, random_connected_graph, unified_dense
from taped_ops import ball


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------


def test_load_single_edge():
    g = load_spatial_graph(["0 1 0.5"])
    assert g.n_nodes == 2
    assert np.array_equal(g.adjacency, [[0.0, 0.5], [0.5, 0.0]])


def test_load_default_weight_is_one():
    g = load_spatial_graph(["a b"])
    assert g.adjacency[0, 1] == 1.0


def test_load_skips_comments_and_blanks():
    g = load_spatial_graph(["# header", "", "0 1 2.0  # trailing note", "   "])
    assert g.n_nodes == 2
    assert g.adjacency[0, 1] == 2.0


def test_load_nodes_directive_allows_isolated():
    g = load_spatial_graph(["nodes 3"])
    assert g.n_nodes == 3
    assert np.array_equal(g.adjacency, np.zeros((3, 3)))


def test_load_nodes_directive_checks_range():
    with pytest.raises(InputError):
        load_spatial_graph(["nodes 2", "0 2 1.0"])


@pytest.mark.parametrize("token, node", [("01", 1), ("+2", 2), ("-0", 0), ("1_0", 10)])
def test_load_nodes_directive_reads_each_id_as_the_integer_it_spells(token, node):
    # int() reads these spellings, and under the directive each names that node
    g = load_spatial_graph(["nodes 11", f"{token} 3"])
    assert g.labels == [str(i) for i in range(11)]
    assert np.flatnonzero(g.adjacency[:, 3]).tolist() == [node]


def test_load_nodes_directive_must_come_first():
    with pytest.raises(InputError):
        load_spatial_graph(["0 1", "nodes 4"])


def test_load_rejects_negative_weight():
    with pytest.raises(InputError):
        load_spatial_graph(["0 1 -2.0"])


def test_load_rejects_nonfinite_weight():
    with pytest.raises(InputError):
        load_spatial_graph(["0 1 inf"])


def test_load_rejects_malformed_line():
    with pytest.raises(InputError):
        load_spatial_graph(["0 1 2.0 extra"])


def test_load_rejects_empty_graph():
    with pytest.raises(InputError):
        load_spatial_graph(["# nothing"])


def test_load_keeps_self_loop_as_given():
    g = load_spatial_graph(["0 0 1.5", "0 1 1.0"])
    assert g.adjacency[0, 0] == 1.5
    assert g.adjacency[1, 1] == 0.0


def test_load_keeps_a_self_loop_on_every_node():
    # a Gaussian-kernel adjacency carries exp(0) = 1 on its diagonal
    n = 207
    ring = [f"{i} {(i + 1) % n} 0.5" for i in range(n)]
    g = load_spatial_graph([f"{i} {i} 1.0" for i in range(n)] + ring)
    np.testing.assert_array_equal(np.diag(g.adjacency), np.ones(n))
    assert np.count_nonzero(g.adjacency) == 3 * n


def test_load_symmetrizes_with_max():
    g = load_spatial_graph(["0 1 2.0", "1 0 5.0"])
    assert g.adjacency[0, 1] == 5.0
    assert g.adjacency[1, 0] == 5.0


def test_load_keeps_direction_when_asked():
    g = load_spatial_graph(["0 1 2.0"], symmetrize=False)
    assert g.adjacency[0, 1] == 2.0
    assert g.adjacency[1, 0] == 0.0


def test_load_compacts_string_labels_in_order():
    g = load_spatial_graph(["s7 s3", "s3 s9"])
    assert g.labels == ["s7", "s3", "s9"]
    assert g.adjacency[0, 1] == 1.0 and g.adjacency[1, 2] == 1.0
    assert g.adjacency[0, 2] == 0.0


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_load_reads_utf8_with_or_without_a_bom(tmp_path, bom):
    path = tmp_path / "graph.txt"
    path.write_bytes(bom + "nodes 3\n0 1  # capteur à l'est\n1 2\n".encode())
    g = load_spatial_graph(path)
    assert g.labels == ["0", "1", "2"]
    assert g.adjacency[0, 1] == g.adjacency[1, 2] == 1.0
    path.write_bytes(bom + "Zürich Genève 2.0\n".encode())
    assert load_spatial_graph(path).labels == ["Zürich", "Genève"]


@pytest.mark.parametrize(
    "lines, line_no",
    [
        (["nodes 4 5"], 1),
        (["0 1", "nodes 4"], 2),
        (["nodes four"], 1),
        (["nodes 0"], 1),
        (["# header", "0 1 2.0 extra"], 2),
        (["0 1", "1 2 !"], 2),
        (["0 1 inf"], 1),
        (["0 1", "", "1 2 -2.0"], 3),
        (["nodes 3", "0 b"], 2),
        (["nodes 3", "0 3"], 2),
        (["# nothing"], None),
    ],
)
def test_load_errors_say_where(tmp_path, lines, line_no):
    # a file's errors start with its path, an iterable's with the line
    path = tmp_path / "graph.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as from_file:
        load_spatial_graph(path)
    with pytest.raises(InputError) as from_lines:
        load_spatial_graph(lines)
    file_message, lines_message = str(from_file.value), str(from_lines.value)
    if line_no is None:
        assert file_message == f"{path}: {lines_message}"
    else:
        assert lines_message.startswith(f"line {line_no}: ")
        assert file_message == f"{path}:{line_no}: " + lines_message.removeprefix(f"line {line_no}: ")


def test_load_missing_file():
    with pytest.raises(InputError):
        load_spatial_graph("/nonexistent/graph.txt")


# ---------------------------------------------------------------------------
# unified graph construction
# ---------------------------------------------------------------------------


def ring(n: int, weight: float = 1.0) -> list[str]:
    return [f"{i} {(i + 1) % n} {weight}" for i in range(n)]


def test_flat_layout_is_time_major():
    g = build_unified(load_spatial_graph(ring(4)), 3)
    assert g.coord_to_flat(STCoord(node=2, time=0)) == 2
    assert g.coord_to_flat(STCoord(node=0, time=1)) == 4
    assert g.flat_to_coord(7) == STCoord(node=3, time=1)
    assert coord_from_flat(7, 4) == STCoord(node=3, time=1)


def test_coord_range_checks():
    g = build_unified(load_spatial_graph(ring(4)), 3)
    with pytest.raises(ContractError):
        g.coord_to_flat(STCoord(node=4, time=0))
    with pytest.raises(ContractError):
        g.coord_to_flat(STCoord(node=0, time=3))
    with pytest.raises(ContractError):
        g.flat_to_coord(12)


def test_unified_rejects_bad_window():
    with pytest.raises(ContractError):
        build_unified(load_spatial_graph(ring(3)), 0)


def test_single_node_unified_is_a_chain():
    g = build_unified(load_spatial_graph(["nodes 1"]), 3)
    assert g.n_elements == 3
    assert g.edge_entry_count == 4  # 2 * 1 * (3 - 1)
    assert [(u, v) for u, v, _ in g.iter_edges()] == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_two_node_unified_by_hand():
    # elements: 0=(n0,t0) 1=(n1,t0) 2=(n0,t1) 3=(n1,t1)
    g = build_unified(load_spatial_graph(["0 1 1.0"]), 2)
    # per row: earlier step, spatial neighbors ascending, later step
    assert [(u, v) for u, v, _ in g.iter_edges()] == [
        (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)
    ]
    assert g.edge_entry_count == 8


def test_entry_count_formula_on_ring():
    spatial = load_spatial_graph(ring(8))
    g = build_unified(spatial, 4)
    nnz = int(np.count_nonzero(spatial.adjacency))
    assert g.edge_entry_count == 2 * 8 * (4 - 1) + 4 * nnz


def _graph_from_matrix(adj: np.ndarray):
    lines = [f"nodes {adj.shape[0]}"]
    n = adj.shape[0]
    for i in range(n):
        for j in range(i, n):
            if adj[i, j] != 0.0:
                lines.append(f"{i} {j} {float(adj[i, j])!r}")
    return load_spatial_graph(lines)


def test_unified_support_matches_dense_oracle_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        t = int(rng.integers(1, 5))
        adj = random_connected_graph(rng, n)
        g = build_unified(_graph_from_matrix(adj), t)
        dense = unified_dense(adj, t)
        got = np.zeros_like(dense)
        for u, v, w in g.iter_edges():
            got[u, v] = w
        assert np.array_equal(got, dense)


def test_iter_edges_weights_spatial_vs_temporal():
    g = build_unified(load_spatial_graph(["0 1 0.7"]), 2)
    weights = {(u, v): w for u, v, w in g.iter_edges()}
    assert weights[(0, 1)] == 0.7   # spatial copy at t=0
    assert weights[(2, 3)] == 0.7   # spatial copy at t=1
    assert weights[(0, 2)] == 1.0   # temporal link
    assert weights[(1, 3)] == 1.0
    assert len(weights) == 8


def test_self_loop_appears_in_each_time_copy():
    spatial = load_spatial_graph(["0 0 0.3", "0 1 1.0"])
    g = build_unified(spatial, 2)
    weights = {(u, v): w for u, v, w in g.iter_edges()}
    assert weights[(0, 0)] == 0.3
    assert weights[(2, 2)] == 0.3


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_distance_zero_to_self():
    g = build_unified(load_spatial_graph(ring(4)), 2)
    assert st_distance(g, STCoord(0, 0), STCoord(0, 0)) == 0


def test_distance_temporal_neighbor():
    g = build_unified(load_spatial_graph(ring(4)), 3)
    assert st_distance(g, STCoord(node=1, time=0), STCoord(node=1, time=1)) == 1


def test_distance_on_path_graph():
    g = build_unified(load_spatial_graph(["0 1", "1 2"]), 2)
    assert st_distance(g, STCoord(node=0, time=0), STCoord(node=2, time=1)) == 3


def test_distance_unreachable_is_none():
    spatial = load_spatial_graph(["nodes 3", "0 1 1.0"])  # node 2 isolated
    g = build_unified(spatial, 2)
    assert st_distance(g, STCoord(node=0, time=0), STCoord(node=2, time=0)) is None
    assert st_distance(g, STCoord(node=2, time=0), STCoord(node=2, time=1)) == 1


def _directed_from_matrix(adj: np.ndarray):
    lines = [f"nodes {adj.shape[0]}"]
    lines += [f"{i} {j} {float(adj[i, j])!r}" for i, j in zip(*np.nonzero(adj))]
    return load_spatial_graph(lines, symmetrize=False)


def test_distances_match_matrix_power_oracle():
    rng = np.random.default_rng(13)
    inputs = []
    for _ in range(6):
        n = int(rng.integers(2, 6))
        t = int(rng.integers(1, 5))
        adj = random_connected_graph(rng, n)
        inputs.append(("undirected", _graph_from_matrix(adj), adj, t))
    # directed: keep the reverse of about half the edges, never the first,
    # so some nodes reach others only one way and some not at all
    for _ in range(6):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(1, 5))
        adj = np.triu(random_connected_graph(rng, n))
        keep_reverse = rng.random(adj.shape) < 0.5
        keep_reverse[np.nonzero(adj)[0][0], np.nonzero(adj)[1][0]] = False
        adj = adj + np.where(keep_reverse, adj, 0.0).T
        inputs.append(("directed", _directed_from_matrix(adj), adj, t))
        # the reversed graph, whose hop table shift_bases takes
        inputs.append(("transposed", SpatialGraph(n, adj.T), adj.T, t))
    connected = random_connected_graph(rng, 5)
    edge_cases = {
        "self-loops": connected + np.diag([1.0, 0.0, 2.0, 0.0, 1.0]),
        "isolated-nodes": np.pad(connected, ((1, 2), (1, 2))),
        "no-edges": np.zeros((4, 4)),
    }
    for name, adj in edge_cases.items():
        inputs.append((name, SpatialGraph(len(adj), adj), adj, 3))
    for name, spatial, adj, t in inputs:
        g = build_unified(spatial, t)
        expect = hop_distances(unified_dense(adj, t))
        for u in range(g.n_elements):
            got = g.distances_from(u)
            assert np.array_equal(got, expect[u]), name
        # every node twice as a source, shuffled
        sources = rng.permutation(np.repeat(np.arange(len(adj)), 2))
        hops = spatial_hops(adj, sources)
        assert hops.dtype == np.int64 and np.array_equal(hops, hop_distances(adj)[sources]), name


def test_distance_decomposes_into_spatial_plus_temporal():
    # On a connected spatial graph, hops = spatial shortest path + time gap.
    rng = np.random.default_rng(14)
    adj = random_connected_graph(rng, 6)
    spatial_dist = hop_distances(adj)
    g = build_unified(_graph_from_matrix(adj), 4)
    for _ in range(40):
        a = STCoord(int(rng.integers(6)), int(rng.integers(4)))
        b = STCoord(int(rng.integers(6)), int(rng.integers(4)))
        expect = int(spatial_dist[a.node, b.node]) + abs(a.time - b.time)
        assert st_distance(g, a, b) == expect


@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10**6))
def test_distance_is_a_metric(n, t, seed):
    rng = np.random.default_rng(seed)
    adj = random_connected_graph(rng, n)
    g = build_unified(_graph_from_matrix(adj), t)
    coords = [coord_from_flat(f, n) for f in range(g.n_elements)]
    picks = rng.choice(len(coords), size=min(3, len(coords)), replace=False)
    a, b, c = (coords[int(i)] for i in np.resize(picks, 3))
    dab = st_distance(g, a, b)
    dba = st_distance(g, b, a)
    assert dab == dba
    assert (dab == 0) == (a == b)
    dac, dcb = st_distance(g, a, c), st_distance(g, c, b)
    assert dab <= dac + dcb


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


def test_ball_radius_zero_is_center():
    g = build_unified(load_spatial_graph(ring(5)), 3)
    center = STCoord(node=2, time=1)
    assert ball(g, center, 0) == {center}


def test_ball_rejects_negative_radius():
    g = build_unified(load_spatial_graph(ring(5)), 3)
    with pytest.raises(ContractError):
        ball(g, STCoord(0, 0), -1)


def test_ball_on_single_node_chain_covers_window():
    g = build_unified(load_spatial_graph(["nodes 1"]), 12)
    got = ball(g, STCoord(node=0, time=6), 6)
    assert got == {STCoord(node=0, time=t) for t in range(12)}
    assert len(ball(g, STCoord(node=0, time=6), 5)) == 11


def test_ball_matches_exhaustive_distances():
    rng = np.random.default_rng(15)
    adj = random_connected_graph(rng, 5)
    g = build_unified(_graph_from_matrix(adj), 3)
    center = STCoord(node=1, time=1)
    for radius in range(0, 6):
        got = ball(g, center, radius)
        expect = {
            coord_from_flat(f, 5)
            for f in range(g.n_elements)
            if 0 <= st_distance(g, center, coord_from_flat(f, 5)) <= radius
        }
        assert got == expect


def test_ball_grows_monotonically():
    g = build_unified(load_spatial_graph(ring(6)), 4)
    center = STCoord(node=0, time=0)
    prev: set = set()
    for radius in range(0, 8):
        cur = ball(g, center, radius)
        assert prev <= cur
        prev = cur
    assert prev == {coord_from_flat(f, 6) for f in range(24)}


def test_ball_excludes_unreachable():
    spatial = load_spatial_graph(["nodes 3", "0 1 1.0"])
    g = build_unified(spatial, 2)
    got = ball(g, STCoord(node=0, time=0), 10)
    assert STCoord(node=2, time=0) not in got
    assert len(got) == 4
