"""Partition construction: k-means seeding, radius calibration, nearest-base
assignment with pinned tie rules, base shifting, and serialization.

Bases are flat element ids, time * N + node."""

import hashlib

import numpy as np
import pytest

from flowcast.embedding import compute_spe
from flowcast.errors import ContractError
from flowcast.model import build_partitions
from flowcast.partition import (
    PartitionScheme,
    build_p1,
    build_p2,
    calibrate_tau,
    kmeans,
    make_base_set,
    min_distances,
    partition_report,
    select_base_nodes,
    shift_bases,
    write_partition,
)
from flowcast.stgraph import build_unified, load_spatial_graph

from oracles import assign_oracle, hop_distances, random_connected_graph, unified_dense


def ring(n: int) -> list[str]:
    return [f"{i} {(i + 1) % n}" for i in range(n)]


def path(n: int) -> list[str]:
    return [f"{i} {i + 1}" for i in range(n - 1)]


def clique_pair() -> list[str]:
    lines = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                lines.append(f"{base + i} {base + j}")
    return lines


def _graph_from_matrix(adj: np.ndarray):
    lines = [f"nodes {adj.shape[0]}"]
    for i in range(adj.shape[0]):
        for j in range(i, adj.shape[0]):
            if adj[i, j] != 0.0:
                lines.append(f"{i} {j} {float(adj[i, j])!r}")
    return load_spatial_graph(lines)


def _tau(graph, flats):
    """Calibrated tau for the base elements flats."""
    return calibrate_tau(graph, min_distances(graph.distance_rows(flats)))


def _primary(graph, flats):
    """Calibrated tau and P1 for the base elements flats."""
    stack = graph.distance_rows(flats)
    best = min_distances(stack)
    tau = calibrate_tau(graph, best)
    return tau, build_p1(graph, flats, stack, best, tau)


# ---------------------------------------------------------------------------
# k-means and base selection
# ---------------------------------------------------------------------------


def test_kmeans_separates_two_blobs():
    rng = np.random.default_rng(20)
    blob_a = rng.normal(size=(12, 2)) * 0.1
    blob_b = rng.normal(size=(12, 2)) * 0.1 + 50.0
    points = np.vstack([blob_a, blob_b])
    centroids, labels = kmeans(points, 2, seed=0)
    assert len(set(labels[:12])) == 1
    assert len(set(labels[12:])) == 1
    assert labels[0] != labels[12]
    means = sorted(float(np.linalg.norm(c)) for c in centroids)
    assert means[0] < 1.0 and abs(means[1] - np.linalg.norm(blob_b.mean(axis=0))) < 0.5


def test_kmeans_k_equals_one_gives_global_mean():
    points = np.array([[0.0], [2.0], [7.0]])
    centroids, labels = kmeans(points, 1, seed=3)
    assert np.allclose(centroids, [[3.0]], atol=1e-12)
    assert np.array_equal(labels, [0, 0, 0])


def test_kmeans_k_equals_n_assigns_each_point_its_own_centroid():
    rng = np.random.default_rng(21)
    points = rng.normal(size=(6, 3))
    centroids, labels = kmeans(points, 6, seed=1)
    assert sorted(labels.tolist()) == list(range(6))
    for i, lab in enumerate(labels):
        assert np.allclose(centroids[lab], points[i], atol=1e-12)


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(22)
    points = rng.normal(size=(30, 4))
    first = kmeans(points, 5, seed=7)
    second = kmeans(points, 5, seed=7)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_kmeans_rejects_bad_k():
    points = np.zeros((3, 2))
    with pytest.raises(ContractError):
        kmeans(points, 0, seed=0)
    with pytest.raises(ContractError):
        kmeans(points, 4, seed=0)


def test_select_base_nodes_single_cluster_centroid_nearest():
    coords = np.array([[0.0], [1.0], [2.0], [10.0]])
    assert select_base_nodes(coords, 1, seed=0) == [2]  # mean 3.25


def test_select_base_nodes_tie_prefers_lower_id():
    coords = np.array([[1.0], [1.0], [4.0]])
    # single centroid at 2.0: ids 0 and 1 are equidistant candidates
    assert select_base_nodes(coords, 1, seed=0) == [0]


def test_select_base_nodes_skips_already_used():
    coords = np.array([[0.0], [0.0]])
    got = select_base_nodes(coords, 2, seed=0)
    assert sorted(got) == [0, 1]


def test_select_base_nodes_two_cliques_one_base_each():
    spatial = load_spatial_graph(clique_pair())
    spe = compute_spe(spatial, 2)
    got = select_base_nodes(spe.selected, 2, seed=0)
    sides = sorted(node // 4 for node in got)
    assert sides == [0, 1]


def test_make_base_set_centers_time():
    graph = build_unified(load_spatial_graph(ring(6)), 5)
    spe = compute_spe(graph.spatial, 2)
    flats = make_base_set(graph, spe.selected, 2, seed=0)
    assert [divmod(f, 6) for f in flats] == [
        (2, node) for node in select_base_nodes(spe.selected, 2, seed=0)
    ]


# ---------------------------------------------------------------------------
# radius calibration
# ---------------------------------------------------------------------------


def test_calibrate_tau_single_node_chain():
    graph = build_unified(load_spatial_graph(["nodes 1"]), 12)
    assert _tau(graph, [6]) == 6


def test_calibrate_tau_path_center_base():
    graph = build_unified(load_spatial_graph(path(5)), 3)
    # base node 2 at step 1; farthest element: an end node at an end step,
    # 2 spatial + 1 temporal
    assert _tau(graph, [1 * 5 + 2]) == 3


def test_calibrate_tau_all_bases_one_step():
    graph = build_unified(load_spatial_graph(path(4)), 1)
    assert _tau(graph, [0, 1, 2, 3]) == 0


def test_calibrate_tau_complete_graph_single_base():
    lines = [f"{i} {j}" for i in range(4) for j in range(i + 1, 4)]
    graph = build_unified(load_spatial_graph(lines), 1)
    assert _tau(graph, [0]) == 1


def test_calibrate_tau_unreachable_element_raises():
    spatial = load_spatial_graph(["nodes 3", "0 1 1.0"])
    graph = build_unified(spatial, 2)
    with pytest.raises(ContractError, match="unreachable"):
        _tau(graph, [0])


def test_calibrate_tau_matches_oracle_distances():
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        t = int(rng.integers(1, 5))
        adj = random_connected_graph(rng, n)
        graph = build_unified(_graph_from_matrix(adj), t)
        n_bases = int(rng.integers(1, n + 1))
        nodes = sorted(rng.choice(n, size=n_bases, replace=False).tolist())
        flats = [(t // 2) * n + int(b) for b in nodes]
        dist = hop_distances(unified_dense(adj, t))
        needed = max(min(int(dist[e, f]) for f in flats) for e in range(n * t))
        assert _tau(graph, flats) == max(needed, t // 2)


# ---------------------------------------------------------------------------
# primary partition
# ---------------------------------------------------------------------------


def test_build_p1_single_subset_takes_everything():
    graph = build_unified(load_spatial_graph(ring(5)), 3)
    _, scheme = _primary(graph, [1 * 5 + 2])
    assert np.array_equal(scheme.assignment, np.zeros(15, dtype=np.int64))
    assert [len(s) for s in scheme.subsets] == [15]


def test_build_p1_path_assignment_by_hand():
    graph = build_unified(load_spatial_graph(path(6)), 1)
    tau, scheme = _primary(graph, [1, 4])
    assert tau == 1
    assert scheme.assignment.tolist() == [0, 0, 0, 1, 1, 1]


def test_build_p1_tie_goes_to_smaller_subset():
    graph = build_unified(load_spatial_graph(path(3)), 1)
    _, scheme = _primary(graph, [0, 2])
    # element 1 ties at distance 1; subset 0 already holds element 0
    assert scheme.assignment.tolist() == [0, 1, 1]


def test_build_p1_coverage_violation_names_element():
    graph = build_unified(load_spatial_graph(path(6)), 1)
    stack = graph.distance_rows([0])
    with pytest.raises(ContractError, match="node=3"):
        build_p1(graph, [0], stack, min_distances(stack), 2)


def test_build_p1_matches_transcribed_oracle():
    rng = np.random.default_rng(24)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        t = int(rng.integers(1, 5))
        adj = random_connected_graph(rng, n)
        graph = build_unified(_graph_from_matrix(adj), t)
        n_bases = int(rng.integers(1, min(n, 4) + 1))
        nodes = sorted(rng.choice(n, size=n_bases, replace=False).tolist())
        flats = [(t // 2) * n + int(b) for b in nodes]
        tau, scheme = _primary(graph, flats)
        dist = hop_distances(unified_dense(adj, t))
        expect = assign_oracle(dist, flats, tau)
        assert np.array_equal(scheme.assignment, expect)


def test_build_p1_invariants_on_random_graphs():
    rng = np.random.default_rng(25)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        t = int(rng.integers(1, 6))
        adj = random_connected_graph(rng, n)
        graph = build_unified(_graph_from_matrix(adj), t)
        n_bases = int(rng.integers(1, min(n, 5) + 1))
        nodes = sorted(rng.choice(n, size=n_bases, replace=False).tolist())
        tau, scheme = _primary(graph, [(t // 2) * n + int(b) for b in nodes])
        # disjoint cover: every element in exactly one subset
        seen = np.concatenate(scheme.subsets)
        assert sorted(seen.tolist()) == list(range(graph.n_elements))
        # locality: each element within tau of its own base
        for p, flat_base in enumerate(scheme.base_flats):
            dist = graph.distances_from(flat_base)
            members = scheme.subsets[p]
            assert np.all(dist[members] >= 0)
            assert np.all(dist[members] <= tau)
            assert scheme.assignment[flat_base] == p


# ---------------------------------------------------------------------------
# shifted bases and secondary partition
# ---------------------------------------------------------------------------


def test_shift_single_base_is_identity():
    graph = build_unified(load_spatial_graph(ring(5)), 3)
    flats = [1 * 5 + 2]
    shifted, notes = shift_bases(graph, flats, 4)
    assert (shifted, notes) == ([1 * 5 + 2], ())
    assert shifted is not flats


def test_shift_on_path_moves_half_radius_inward():
    graph = build_unified(load_spatial_graph(path(7)), 1)
    assert shift_bases(graph, [0, 6], 4) == ([2, 4], ())


def test_shift_collision_backs_off_along_path():
    graph = build_unified(load_spatial_graph(ring(8)), 1)
    shifted, notes = shift_bases(graph, [0, 4], 4)
    assert shifted == [2, 3]
    assert notes == ("shifted base for subset 1 collided; backed off to node 3",)


def test_shift_walk_capped_at_peer():
    # the walk stops at the midpoint to the nearest peer: adjacent bases
    # have floor(1 / 2) = 0 hops to walk, so they cannot swap places
    graph = build_unified(load_spatial_graph(["0 1"]), 1)
    assert shift_bases(graph, [0, 1], 6) == ([0, 1], ())


def test_shift_moves_peers_to_opposite_ends_of_the_window():
    # T=5: t_center 2, half window 2. Each base walks min(5 // 2, 6 // 2) = 2
    # hops inward; the pair are each other's nearest peer, so base 0 (the
    # lower index) moves to time 2 - 2 = 0 and base 1 to time 2 + 2 = 4
    graph = build_unified(load_spatial_graph(path(7)), 5)
    bases = [2 * 7 + 0, 2 * 7 + 6]
    tau = _tau(graph, bases)
    assert tau == 5  # node 3 at an end step: 3 spatial + 2 temporal
    shifted, notes = shift_bases(graph, bases, tau)
    assert [divmod(f, 7) for f in shifted] == [(0, 2), (4, 4)]  # (time, node)
    assert notes == ()
    assert bases == [2 * 7 + 0, 2 * 7 + 6]  # the primary bases are left as they were


def test_shift_time_direction_alternates_along_peer_links():
    # nearest peers: 0 -> 5 (5 hops), 5 -> 6 and 6 -> 5 (1 hop). The linked
    # group {0, 5, 6} is coloured from its lowest index: 0 earlier, 5 later,
    # 6 earlier, each a half window (1 step) from t_center 1
    graph = build_unified(load_spatial_graph(path(10)), 3)
    bases = [10 + 0, 10 + 5, 10 + 6]
    tau = _tau(graph, bases)
    assert tau == 4  # node 9 at an end step: 3 spatial + 1 temporal
    shifted, _ = shift_bases(graph, bases, tau)
    # 0 walks min(2, 5 // 2) = 2 hops; the adjacent pair stays at the midpoint cap
    assert [divmod(f, 10) for f in shifted] == [(0, 2), (2, 5), (0, 6)]


def test_shift_unreachable_peer_stays_put():
    spatial = load_spatial_graph(clique_pair())
    graph = build_unified(spatial, 1)
    assert shift_bases(graph, [1, 5], 2) == ([1, 5], (
        "base 1 cannot reach any other base; left unshifted",
        "base 5 cannot reach any other base; left unshifted",
    ))


def test_shift_on_directed_path_walks_along_out_edges():
    # directed ring 0 -> 1 -> ... -> 5 -> 0: each base reaches the other in
    # 3 hops and walks min(3 // 2, 3 // 2) = 1 hop along its out-edge; the
    # linked pair moves to opposite ends of the window.
    ring_graph = build_unified(load_spatial_graph(ring(6), symmetrize=False), 3)
    bases = [6 + 0, 6 + 3]
    tau = _tau(ring_graph, bases)
    assert tau == 3  # node 2 at an end step: 2 spatial + 1 temporal
    shifted, _ = shift_bases(ring_graph, bases, tau)
    assert [divmod(f, 6) for f in shifted] == [(0, 1), (2, 4)]

    # edges 0 -> 1 -> 2 -> 3 only. Base 0 reaches base 3 in 3 hops, but
    # node 1 cannot reach node 0, so the walk stops before its first step;
    # the base still moves earlier (t_center 1 - 1 = 0). Base 3 reaches no
    # other base and stays.
    spatial = load_spatial_graph(path(4), symmetrize=False)
    graph = build_unified(spatial, 3)
    bases = [4 + 0, 4 + 3]
    tau = _tau(graph, bases)
    assert tau == 3  # node 2 at an end step: 2 spatial + 1 temporal
    shifted, notes = shift_bases(graph, bases, tau)
    assert [divmod(f, 4) for f in shifted] == [(0, 0), (1, 3)]
    assert notes == ("base 3 cannot reach any other base; left unshifted",)
    # covers every element P1 covers, at a wider radius
    assert build_p2(graph, shifted, tau).tau == 4


def test_shift_prefers_lowest_next_node_id():
    # two shortest paths from 0 to 3: via 1 or via 2; both walks take 1,
    # so the second base collides and backs off to where it started
    lines = ["nodes 4", "0 1", "1 3", "0 2", "2 3"]
    graph = build_unified(load_spatial_graph(lines), 1)
    assert shift_bases(graph, [0, 3], 2) == (
        [1, 3], ("shifted base for subset 1 collided; backed off to node 3",)
    )


def test_build_p2_keeps_primary_radius_when_it_covers():
    # antipodal shifted bases cover the ring at the primary radius
    graph = build_unified(load_spatial_graph(ring(8)), 3)
    p2 = build_p2(graph, [8 + 1, 8 + 5], 3)
    assert p2.tau == 3
    assert p2.label == "P2"


def test_build_p2_ring_shift_pulls_bases_together_and_widens():
    # the walk moves both bases toward each other (4 -> 2 apart), so the
    # far side of the ring now needs a bigger radius
    graph = build_unified(load_spatial_graph(ring(8)), 3)
    bases = [8 + 0, 8 + 4]
    tau = _tau(graph, bases)
    assert tau == 3
    shifted, _ = shift_bases(graph, bases, tau)
    assert [f % 8 for f in shifted] == [1, 3]  # one hop toward the peer, lowest id
    assert build_p2(graph, shifted, tau).tau == 4


def test_build_p2_recalibrates_radius_upward():
    graph = build_unified(load_spatial_graph(path(10)), 1)
    p2 = build_p2(graph, [0, 1], 5)
    assert p2.tau == 8
    seen = np.concatenate(p2.subsets)
    assert sorted(seen.tolist()) == list(range(10))


def test_build_p2_matches_transcribed_oracle():
    rng = np.random.default_rng(26)
    for _ in range(8):
        n = int(rng.integers(4, 9))
        t = int(rng.integers(1, 4))
        adj = random_connected_graph(rng, n)
        graph = build_unified(_graph_from_matrix(adj), t)
        nodes = sorted(rng.choice(n, size=2, replace=False).tolist())
        bases = [(t // 2) * n + int(b) for b in nodes]
        tau = _tau(graph, bases)
        shifted, _ = shift_bases(graph, bases, tau)
        p2 = build_p2(graph, shifted, tau)
        dist = hop_distances(unified_dense(adj, t))
        expect = assign_oracle(dist, shifted, p2.tau)
        assert np.array_equal(p2.assignment, expect)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _ring_pair(n=8, t=3):
    graph = build_unified(load_spatial_graph(ring(n)), t)
    bases = [(t // 2) * n, (t // 2) * n + n // 2]
    tau, p1 = _primary(graph, bases)
    shifted, notes = shift_bases(graph, bases, tau)
    return graph, p1, build_p2(graph, shifted, tau, notes)


def test_partition_report_identical_schemes_flag_full_overlap():
    graph, p1, _ = _ring_pair()
    report = partition_report(p1, p1)
    assert report.overlap == [1.0, 1.0]
    assert any("overlap" in w for w in report.warnings)
    assert report.size_ratio_p1 == 1.0


def test_partition_report_on_shifted_pair():
    graph, p1, p2 = _ring_pair()
    report = partition_report(p1, p2)
    assert len(report.overlap) == 2
    assert all(0.0 <= v <= 1.0 for v in report.overlap)
    assert report.tau_p1 == p1.tau and report.tau_p2 == p2.tau
    assert sum(report.sizes_p1) == sum(report.sizes_p2) == graph.n_elements
    text = report.to_text()
    assert "overlap" in text and "tau" in text


def test_partition_report_leads_with_the_shifted_scheme_notes():
    # on the 8-ring at T=1 and radius 4 the second shifted base walks onto
    # the first's node and backs off
    graph = build_unified(load_spatial_graph(ring(8)), 1)
    stack = graph.distance_rows([0, 4])
    tau = 4
    p1 = build_p1(graph, [0, 4], stack, min_distances(stack), tau)
    shifted, notes = shift_bases(graph, [0, 4], tau)
    assert notes == ("shifted base for subset 1 collided; backed off to node 3",)
    report = partition_report(p1, build_p2(graph, shifted, tau, notes))
    assert report.warnings[0] == notes[0]
    assert "warning: " + notes[0] in report.to_text().splitlines()
    assert partition_report(p1, build_p2(graph, shifted, tau)).warnings == report.warnings[1:]


def test_partition_report_rejects_mismatched_pair():
    _, p1, _ = _ring_pair(8, 3)
    _, q1, _ = _ring_pair(8, 2)
    with pytest.raises(ContractError):
        partition_report(p1, q1)


@pytest.mark.parametrize(
    "assignment, base_flats, message",
    [
        ([0, 1, 2, 1], [0, 1], "subset id 2 out of range for l=2"),
        ([0, -1, 0, 1], [0, 3], "subset id -1 out of range for l=2"),
        ([0, 1, 0], [0, 1], "3 subset ids for 4 elements"),
        ([0, 0, 0, 0], [0, 1], "subset 1 is empty"),
        ([1, 0, 0, 1], [0, 1], "subset 0 does not contain its own base"),
        ([0, 1, 0, 1], [0, 9], "subset 1 does not contain its own base"),
    ],
)
def test_scheme_rejects_a_malformed_cover(assignment, base_flats, message):
    with pytest.raises(ContractError, match=message):
        PartitionScheme(
            label="P1", n_elements=4, tau=1, base_flats=base_flats,
            assignment=np.array(assignment, dtype=np.int64),
        )


def test_scheme_lays_out_subsets_once_in_subset_major_order():
    _, p1, p2 = _ring_pair()
    for scheme in (p1, p2):
        assert np.array_equal(scheme.order, np.concatenate(scheme.subsets))
        assert [b - a for a, b in scheme.bounds] == scheme.sizes
        assert [a for a, _ in scheme.bounds] == [0] + [b for _, b in scheme.bounds[:-1]]
        for (a, b), members in zip(scheme.bounds, scheme.subsets):
            assert np.array_equal(scheme.order[a:b], members)
        assert np.array_equal(scheme.order[scheme.inverse], np.arange(scheme.n_elements))
        assert scheme.sizes == [len(s) for s in scheme.subsets]
        for p, members in enumerate(scheme.subsets):
            assert members.dtype == np.int64
            assert np.array_equal(members, np.flatnonzero(scheme.assignment == p))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_partition_round_trip(tmp_path):
    # the header block, then one "flat subset" row per element in flat order
    _, p1, p2 = _ring_pair()
    for scheme in (p1, p2):
        target = tmp_path / f"{scheme.label}.txt"
        write_partition(scheme, target)
        assert target.read_text().splitlines()[:4] == [
            f"# scheme {scheme.label}",
            f"# l {scheme.n_subsets}",
            f"# tau {scheme.tau}",
            "# bases " + ",".join(str(b) for b in scheme.base_flats),
        ]
        rows = np.loadtxt(target, dtype=np.int64, comments="#")
        assert np.array_equal(rows[:, 0], np.arange(scheme.n_elements))
        assert np.array_equal(rows[:, 1], scheme.assignment)


class _FailsAt:
    """An assignment whose lookup raises at one element."""

    def __init__(self, assignment, bad: int):
        self.assignment, self.bad = assignment, bad

    def __getitem__(self, flat):
        if flat == self.bad:
            raise RuntimeError("write interrupted")
        return self.assignment[flat]


def test_failed_partition_write_leaves_the_previous_file_intact(tmp_path):
    _, p1, p2 = _ring_pair()
    target = tmp_path / "partition_p1.txt"
    write_partition(p1, target)
    before = target.read_text()
    p2.assignment = _FailsAt(p2.assignment, bad=p2.n_elements // 2)
    with pytest.raises(RuntimeError, match="write interrupted"):
        write_partition(p2, target)
    assert target.read_text() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["partition_p1.txt"]


def test_pipeline_is_deterministic_for_fixed_seed():
    spatial = load_spatial_graph(ring(10))
    graph = build_unified(spatial, 4)
    spe = compute_spe(spatial, 3)
    runs = []
    for _ in range(2):
        bases = make_base_set(graph, spe.selected, 3, seed=11)
        tau, p1 = _primary(graph, bases)
        p2 = build_p2(graph, shift_bases(graph, bases, tau)[0], tau)
        runs.append((bases, p1.assignment.copy(), p2.assignment.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])


def _grid(rows: int, cols: int) -> list[str]:
    lines = [f"nodes {rows * cols}"]
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                lines.append(f"{i} {i + 1}")
            if r + 1 < rows:
                lines.append(f"{i} {i + cols}")
    return lines


def _star(n: int) -> list[str]:
    return [f"0 {i}" for i in range(1, n)]


# name -> (edge lines, symmetrize, T, l, coordinate width). The METR-sized
# case is the benchmark's 14 x 15 grid with a 12-step window and 40 subsets;
# the 1000-node grid sends thousands of tied elements through the tie rule.
_PINNED_CASES = {
    "ring8": (ring(8), True, 12, 2, 4),
    "metr": (_grid(14, 15), True, 12, 40, 16),
    "directed-ring": (ring(10), False, 4, 3, 4),
    "path": (path(12), True, 3, 3, 4),
    "star": (_star(9), True, 4, 3, 4),
    "random": (None, True, 5, 4, 4),
    "grid1000": (_grid(25, 40), True, 12, 40, 16),
}

# name -> ((tau, base_flats, SHA-256 of the assignment) for P1 and P2, P2's notes)
_PINNED = {
    "ring8": (
        (8, [55, 50], "c3ae5cd27e48aacf3df297474366e7283e51856749f8572894a1d7b490e07038"),
        (9, [0, 89], "a4cde5f4844b1e370129f7b420a0444d3a18ba525a763f85874d43208ade9315"),
        [],
    ),
    "metr": (
        (
            12,
            [1430, 1309, 1427, 1422, 1279, 1350, 1358, 1297, 1323, 1380, 1341, 1367, 1348, 1382,
             1387, 1460, 1321, 1466, 1404, 1325, 1260, 1412, 1326, 1295, 1446, 1383, 1360, 1423,
             1402, 1408, 1296, 1292, 1438, 1454, 1396, 1393, 1324, 1418, 1415, 1306],
            "ed205c56cd6e70fb0b3dd7101d43cd5fbb09f910d3666b03faded769216b3b52",
        ),
        (
            13,
            [170, 49, 167, 162, 2344, 105, 99, 37, 63, 2430, 81, 107, 103, 2432, 127, 2495, 61,
             2486, 143, 65, 2312, 2462, 2376, 35, 2481, 123, 2410, 2473, 2452, 148, 2346, 31, 178,
             2489, 121, 2443, 2374, 2468, 2465, 2356],
            "e338175acb437ed9eb2ee8c41cb8f7c44b34f28df6e9f7ac9a7dcef8c6160a70",
        ),
        [
            "shifted base for subset 9 collided; backed off to node 120",
            "shifted base for subset 26 collided; backed off to node 100",
            "shifted base for subset 37 collided; backed off to node 158",
        ],
    ),
    "directed-ring": (
        (6, [28, 23, 27], "f0542afc12d672c58c1ca8fb5e822ba491893617c10c888bd5168676c2a75ec9"),
        (7, [0, 35, 37], "abe5abc3893aa3cc04794e9606994c78f0ff3daf1014bb3e50f555501aeccf71"),
        [],
    ),
    "path": (
        (4, [19, 15, 20], "4c5aed195ef66799fcdf1c612a7a6fb29784a5422aed3b55c416868716ddd21b"),
        (7, [7, 29, 32], "1c7a2f0500a15dcfcd40b3b4e0bf2d28414bf103a14fa9c9037e843ab18381e8"),
        [],
    ),
    "star": (
        (4, [25, 21, 26], "d80fd760291f19a7a935d3c7e8a80b2aefbc7e999c9482e6f1a84dbc04208703"),
        (4, [0, 30, 35], "cc50f4f2eff13f78bb860b5f2cdb557a6bc4c2d8c6a70f69f50522909fb15547"),
        [
            "shifted base for subset 1 collided; backed off to node 3",
            "shifted base for subset 2 collided; backed off to node 8",
        ],
    ),
    "random": (
        (4, [42, 33, 37, 38], "2ced616075d9217e9d181c720fa5285fe250a7f0aa7bf880d0542a1bffbe856f"),
        (4, [12, 3, 67, 68], "09e59220efcd5f5de3bae627ebb949a6594be623c27505125f20cac776ea04cf"),
        [],
    ),
    "grid1000": (
        (
            16,
            [6811, 6479, 6461, 6583, 6977, 6639, 6404, 6831, 6565, 6150, 6118, 6142, 6216, 6594,
             6833, 6356, 6283, 6100, 6196, 6291, 6001, 6898, 6497, 6316, 6494, 6211, 6475, 6709,
             6031, 6354, 6005, 6385, 6806, 6726, 6000, 6272, 6300, 6678, 6037, 6221],
            "4a5167c8317a17e87f9f071262bf3eef3d154df5e2cd6c69075bb9d5bad41f39",
        ),
        (
            17,
            [809, 559, 463, 11503, 937, 11638, 324, 832, 11485, 70, 78, 102, 214, 514, 11833, 356,
             11284, 11101, 236, 251, 1, 11897, 496, 11316, 11495, 11211, 11477, 11711, 11030,
             11355, 11003, 11382, 11766, 726, 11000, 274, 260, 678, 11038, 11181],
            "f35841795977f4d96fd49c150bcada774354d5ccab5ba0f4c8716171d41ae64a",
        ),
        [
            "shifted base for subset 14 collided; backed off to node 833",
            "shifted base for subset 16 collided; backed off to node 284",
            "shifted base for subset 25 collided; backed off to node 211",
            "shifted base for subset 28 collided; backed off to node 30",
            "shifted base for subset 33 collided; backed off to node 726",
            "shifted base for subset 37 collided; backed off to node 678",
        ],
    ),
}


def test_build_partitions_output_is_pinned():
    # Coordinates come from a seeded generator, not an eigendecomposition,
    # so the pins do not hang on how LAPACK orients a degenerate eigenspace.
    for name, (lines, symmetrize, t, l, width) in _PINNED_CASES.items():
        if lines is None:
            spatial = _graph_from_matrix(random_connected_graph(np.random.default_rng(5), 15))
        else:
            spatial = load_spatial_graph(lines, symmetrize=symmetrize)
        coords = np.random.default_rng(7).standard_normal((spatial.n_nodes, width))
        p1, p2 = build_partitions(build_unified(spatial, t), coords, l, seed=3)
        got = tuple(
            (s.tau, s.base_flats, hashlib.sha256(s.assignment.astype("<i8").tobytes()).hexdigest())
            for s in (p1, p2)
        )
        assert got + (list(p2.notes),) == _PINNED[name], name
        assert p1.notes == (), name
