"""Partition construction: k-means seeding, radius calibration, nearest-base
assignment with pinned tie rules, base shifting, and serialization."""

import warnings as warnings_module
from contextlib import contextmanager

import numpy as np
import pytest


@contextmanager
def quiet_warnings():
    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore")
        yield

from flowcast.embedding import compute_spe
from flowcast.errors import ContractError, InputError
from flowcast.partition import (
    BaseNodeSet,
    PartitionScheme,
    build_p1,
    build_p2,
    calibrate_tau,
    kmeans,
    make_base_set,
    partition_report,
    read_partition,
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
    bases = make_base_set(graph, spe.selected, 2, seed=0)
    assert bases.t_center == 2
    assert bases.tau is None
    assert len(bases.node_ids) == 2


# ---------------------------------------------------------------------------
# radius calibration
# ---------------------------------------------------------------------------


def test_calibrate_tau_single_node_chain():
    graph = build_unified(load_spatial_graph(["nodes 1"]), 12)
    bases = BaseNodeSet([0], t_center=6)
    assert calibrate_tau(graph, bases) == 6


def test_calibrate_tau_path_center_base():
    graph = build_unified(load_spatial_graph(path(5)), 3)
    bases = BaseNodeSet([2], t_center=1)
    # farthest element: an end node at an end step, 2 spatial + 1 temporal
    assert calibrate_tau(graph, bases) == 3


def test_calibrate_tau_all_bases_one_step():
    graph = build_unified(load_spatial_graph(path(4)), 1)
    bases = BaseNodeSet([0, 1, 2, 3], t_center=0)
    assert calibrate_tau(graph, bases) == 0


def test_calibrate_tau_complete_graph_single_base():
    lines = [f"{i} {j}" for i in range(4) for j in range(i + 1, 4)]
    graph = build_unified(load_spatial_graph(lines), 1)
    assert calibrate_tau(graph, BaseNodeSet([0], t_center=0)) == 1


def test_calibrate_tau_unreachable_element_raises():
    spatial = load_spatial_graph(["nodes 3", "0 1 1.0"])
    graph = build_unified(spatial, 2)
    with pytest.raises(ContractError, match="unreachable"):
        calibrate_tau(graph, BaseNodeSet([0], t_center=0))


def test_calibrate_tau_matches_oracle_distances():
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        t = int(rng.integers(1, 5))
        adj = random_connected_graph(rng, n)
        graph = build_unified(_graph_from_matrix(adj), t)
        n_bases = int(rng.integers(1, n + 1))
        nodes = sorted(rng.choice(n, size=n_bases, replace=False).tolist())
        bases = BaseNodeSet([int(v) for v in nodes], t_center=t // 2)
        dist = hop_distances(unified_dense(adj, t))
        flats = [bases.t_center * n + b for b in bases.node_ids]
        needed = max(min(int(dist[e, f]) for f in flats) for e in range(n * t))
        assert calibrate_tau(graph, bases) == max(needed, t // 2)


# ---------------------------------------------------------------------------
# primary partition
# ---------------------------------------------------------------------------


def test_build_p1_single_subset_takes_everything():
    graph = build_unified(load_spatial_graph(ring(5)), 3)
    bases = BaseNodeSet([2], t_center=1)
    bases.tau = calibrate_tau(graph, bases)
    scheme = build_p1(graph, bases)
    assert np.array_equal(scheme.assignment, np.zeros(15, dtype=np.int64))
    assert [len(s) for s in scheme.subsets] == [15]


def test_build_p1_requires_calibrated_tau():
    graph = build_unified(load_spatial_graph(ring(5)), 3)
    with pytest.raises(ContractError):
        build_p1(graph, BaseNodeSet([2], t_center=1))


def test_build_p1_path_assignment_by_hand():
    graph = build_unified(load_spatial_graph(path(6)), 1)
    bases = BaseNodeSet([1, 4], t_center=0)
    bases.tau = calibrate_tau(graph, bases)
    assert bases.tau == 1
    scheme = build_p1(graph, bases)
    assert scheme.assignment.tolist() == [0, 0, 0, 1, 1, 1]


def test_build_p1_tie_goes_to_smaller_subset():
    graph = build_unified(load_spatial_graph(path(3)), 1)
    bases = BaseNodeSet([0, 2], t_center=0)
    bases.tau = calibrate_tau(graph, bases)
    scheme = build_p1(graph, bases)
    # element 1 ties at distance 1; subset 0 already holds element 0
    assert scheme.assignment.tolist() == [0, 1, 1]


def test_build_p1_coverage_violation_names_element():
    graph = build_unified(load_spatial_graph(path(6)), 1)
    bases = BaseNodeSet([0], t_center=0, tau=2)
    with pytest.raises(ContractError, match="node=3"):
        build_p1(graph, bases)


def test_build_p1_matches_transcribed_oracle():
    rng = np.random.default_rng(24)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        t = int(rng.integers(1, 5))
        adj = random_connected_graph(rng, n)
        graph = build_unified(_graph_from_matrix(adj), t)
        n_bases = int(rng.integers(1, min(n, 4) + 1))
        nodes = sorted(rng.choice(n, size=n_bases, replace=False).tolist())
        bases = BaseNodeSet([int(v) for v in nodes], t_center=t // 2)
        bases.tau = calibrate_tau(graph, bases)
        scheme = build_p1(graph, bases)
        dist = hop_distances(unified_dense(adj, t))
        flats = [bases.t_center * n + b for b in bases.node_ids]
        expect = assign_oracle(dist, flats, bases.tau)
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
        bases = BaseNodeSet([int(v) for v in nodes], t_center=t // 2)
        bases.tau = calibrate_tau(graph, bases)
        scheme = build_p1(graph, bases)
        # disjoint cover: every element in exactly one subset
        seen = np.concatenate(scheme.subsets)
        assert sorted(seen.tolist()) == list(range(graph.n_elements))
        # locality: each element within tau of its own base
        for p, flat_base in enumerate(scheme.base_flats):
            dist = graph.distances_from(flat_base)
            members = scheme.subsets[p]
            assert np.all(dist[members] >= 0)
            assert np.all(dist[members] <= bases.tau)
            assert scheme.assignment[flat_base] == p


# ---------------------------------------------------------------------------
# shifted bases and secondary partition
# ---------------------------------------------------------------------------


def test_shift_single_base_is_identity():
    graph = build_unified(load_spatial_graph(ring(5)), 3)
    bases = BaseNodeSet([2], t_center=1, tau=4)
    shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [2]
    assert shifted.tau == 4


def test_shift_requires_tau():
    graph = build_unified(load_spatial_graph(ring(5)), 3)
    with pytest.raises(ContractError):
        shift_bases(graph, BaseNodeSet([0, 2], t_center=1))


def test_shift_on_path_moves_half_radius_inward():
    graph = build_unified(load_spatial_graph(path(7)), 1)
    bases = BaseNodeSet([0, 6], t_center=0, tau=4)
    shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [2, 4]


def test_shift_collision_backs_off_along_path():
    graph = build_unified(load_spatial_graph(ring(8)), 1)
    bases = BaseNodeSet([0, 4], t_center=0, tau=4)
    with pytest.warns(UserWarning, match="collided"):
        shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [2, 3]


def test_shift_walk_capped_at_peer():
    # the walk stops at the midpoint to the nearest peer: adjacent bases
    # have floor(1 / 2) = 0 hops to walk, so they cannot swap places
    graph = build_unified(load_spatial_graph(["0 1"]), 1)
    bases = BaseNodeSet([0, 1], t_center=0, tau=6)
    shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [0, 1]


def test_shift_moves_peers_to_opposite_ends_of_the_window():
    # T=5: t_center 2, half window 2. Each base walks min(5 // 2, 6 // 2) = 2
    # hops inward; the pair are each other's nearest peer, so base 0 (the
    # lower index) moves to time 2 - 2 = 0 and base 1 to time 2 + 2 = 4
    graph = build_unified(load_spatial_graph(path(7)), 5)
    bases = BaseNodeSet([0, 6], t_center=2)
    bases.tau = calibrate_tau(graph, bases)
    assert bases.tau == 5  # node 3 at an end step: 3 spatial + 2 temporal
    shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [2, 4]
    assert shifted.times == [0, 4]
    assert [c.flat(7) for c in shifted.coords()] == [0 * 7 + 2, 4 * 7 + 4]
    assert bases.times == [2, 2]  # the primary set is left as it was


def test_shift_time_direction_alternates_along_peer_links():
    # nearest peers: 0 -> 5 (5 hops), 5 -> 6 and 6 -> 5 (1 hop). The linked
    # group {0, 5, 6} is coloured from its lowest index: 0 earlier, 5 later,
    # 6 earlier, each a half window (1 step) from t_center 1
    graph = build_unified(load_spatial_graph(path(10)), 3)
    bases = BaseNodeSet([0, 5, 6], t_center=1)
    bases.tau = calibrate_tau(graph, bases)
    assert bases.tau == 4  # node 9 at an end step: 3 spatial + 1 temporal
    shifted = shift_bases(graph, bases)
    # 0 walks min(2, 5 // 2) = 2 hops; the adjacent pair stays at the midpoint cap
    assert shifted.node_ids == [2, 5, 6]
    assert shifted.times == [0, 2, 0]


def test_shift_unreachable_peer_stays_put():
    spatial = load_spatial_graph(clique_pair())
    graph = build_unified(spatial, 1)
    bases = BaseNodeSet([1, 5], t_center=0, tau=2)
    with pytest.warns(UserWarning, match="cannot reach"):
        shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [1, 5]


def test_shift_on_directed_path_walks_along_out_edges():
    # directed ring 0 -> 1 -> ... -> 5 -> 0: each base reaches the other in
    # 3 hops and walks min(3 // 2, 3 // 2) = 1 hop along its out-edge; the
    # linked pair moves to opposite ends of the window.
    ring_graph = build_unified(load_spatial_graph(ring(6), symmetrize=False), 3)
    bases = BaseNodeSet([0, 3], t_center=1)
    bases.tau = calibrate_tau(ring_graph, bases)
    assert bases.tau == 3  # node 2 at an end step: 2 spatial + 1 temporal
    shifted = shift_bases(ring_graph, bases)
    assert shifted.node_ids == [1, 4]
    assert shifted.times == [0, 2]

    # edges 0 -> 1 -> 2 -> 3 only. Base 0 reaches base 3 in 3 hops, but
    # node 1 cannot reach node 0, so the walk stops before its first step;
    # the base still moves earlier (t_center 1 - 1 = 0). Base 3 reaches no
    # other base and stays.
    spatial = load_spatial_graph(path(4), symmetrize=False)
    graph = build_unified(spatial, 3)
    bases = BaseNodeSet([0, 3], t_center=1)
    bases.tau = calibrate_tau(graph, bases)
    assert bases.tau == 3  # node 2 at an end step: 2 spatial + 1 temporal
    with pytest.warns(UserWarning, match="cannot reach"):
        shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [0, 3]
    assert shifted.times == [0, 1]
    build_p2(graph, shifted)  # covers every element P1 covers


def test_shift_prefers_lowest_next_node_id():
    # two shortest paths from 0 to 3: via 1 or via 2; both walks take 1,
    # so the second base collides and backs off to where it started
    lines = ["nodes 4", "0 1", "1 3", "0 2", "2 3"]
    graph = build_unified(load_spatial_graph(lines), 1)
    bases = BaseNodeSet([0, 3], t_center=0, tau=2)
    with pytest.warns(UserWarning, match="collided"):
        shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [1, 3]


def test_build_p2_keeps_primary_radius_when_it_covers():
    # antipodal shifted bases cover the ring at the primary radius
    graph = build_unified(load_spatial_graph(ring(8)), 3)
    shifted = BaseNodeSet([1, 5], t_center=1, tau=3)
    p2 = build_p2(graph, shifted)
    assert p2.tau == 3
    assert p2.label == "P2"


def test_build_p2_ring_shift_pulls_bases_together_and_widens():
    # the walk moves both bases toward each other (4 -> 2 apart), so the
    # far side of the ring now needs a bigger radius
    graph = build_unified(load_spatial_graph(ring(8)), 3)
    bases = BaseNodeSet([0, 4], t_center=1)
    bases.tau = calibrate_tau(graph, bases)
    assert bases.tau == 3
    shifted = shift_bases(graph, bases)
    assert shifted.node_ids == [1, 3]  # one hop toward the peer, lowest id
    with pytest.warns(UserWarning, match="recalibrated"):
        p2 = build_p2(graph, shifted)
    assert p2.tau == 4


def test_build_p2_recalibrates_radius_upward_with_warning():
    graph = build_unified(load_spatial_graph(path(10)), 1)
    shifted = BaseNodeSet([0, 1], t_center=0, tau=5)
    with pytest.warns(UserWarning, match="recalibrated"):
        p2 = build_p2(graph, shifted)
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
        bases = BaseNodeSet([int(v) for v in nodes], t_center=t // 2)
        bases.tau = calibrate_tau(graph, bases)
        with quiet_warnings():
            shifted = shift_bases(graph, bases)
            p2 = build_p2(graph, shifted)
        dist = hop_distances(unified_dense(adj, t))
        flats = [c.flat(n) for c in shifted.coords()]
        expect = assign_oracle(dist, flats, p2.tau)
        assert np.array_equal(p2.assignment, expect)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _ring_pair(n=8, t=3):
    graph = build_unified(load_spatial_graph(ring(n)), t)
    bases = BaseNodeSet([0, n // 2], t_center=t // 2)
    bases.tau = calibrate_tau(graph, bases)
    p1 = build_p1(graph, bases)
    with quiet_warnings():
        shifted = shift_bases(graph, bases)
        p2 = build_p2(graph, shifted)
    return graph, p1, p2


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
        assert np.array_equal(scheme.order[scheme.inverse], np.arange(scheme.n_elements))
        assert scheme.sizes == [len(s) for s in scheme.subsets]
        for p, members in enumerate(scheme.subsets):
            assert members.dtype == np.int64
            assert np.array_equal(members, np.flatnonzero(scheme.assignment == p))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_partition_round_trip(tmp_path):
    _, p1, p2 = _ring_pair()
    for scheme in (p1, p2):
        target = tmp_path / f"{scheme.label}.txt"
        write_partition(scheme, target)
        back = read_partition(target)
        assert back.label == scheme.label
        assert back.tau == scheme.tau
        assert back.base_flats == scheme.base_flats
        assert np.array_equal(back.assignment, scheme.assignment)
        assert [s.tolist() for s in back.subsets] == [s.tolist() for s in scheme.subsets]


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


def test_read_partition_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_partition("/nonexistent/partition.txt")
    with pytest.raises(InputError, match="not a regular file"):
        read_partition(tmp_path)


def test_read_partition_missing_header(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("# scheme P1\n# l 1\n0 0\n")
    with pytest.raises(InputError, match="tau"):
        read_partition(target)


def test_read_partition_duplicate_row(tmp_path):
    target = tmp_path / "dup.txt"
    target.write_text("# scheme P1\n# l 1\n# tau 1\n# bases 0\n0 0\n0 0\n")
    with pytest.raises(InputError, match="duplicate"):
        read_partition(target)


def test_read_partition_subset_out_of_range(tmp_path):
    target = tmp_path / "range.txt"
    target.write_text("# scheme P1\n# l 1\n# tau 1\n# bases 0\n0 3\n")
    with pytest.raises(InputError, match="subset id"):
        read_partition(target)


def test_read_partition_base_count_mismatch(tmp_path):
    target = tmp_path / "bases.txt"
    target.write_text("# scheme P1\n# l 2\n# tau 1\n# bases 0\n0 0\n1 1\n")
    with pytest.raises(InputError, match="bases"):
        read_partition(target)


def test_read_partition_base_outside_its_subset(tmp_path):
    target = tmp_path / "swapped.txt"
    target.write_text("# scheme P1\n# l 2\n# tau 1\n# bases 0,1\n0 1\n1 0\n")
    with pytest.raises(InputError, match="subset 0 does not contain its own base"):
        read_partition(target)


def test_pipeline_is_deterministic_for_fixed_seed():
    spatial = load_spatial_graph(ring(10))
    graph = build_unified(spatial, 4)
    spe = compute_spe(spatial, 3)
    runs = []
    for _ in range(2):
        bases = make_base_set(graph, spe.selected, 3, seed=11)
        bases.tau = calibrate_tau(graph, bases)
        p1 = build_p1(graph, bases)
        with quiet_warnings():
            shifted = shift_bases(graph, bases)
            p2 = build_p2(graph, shifted)
        runs.append((bases.node_ids, p1.assignment.copy(), p2.assignment.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])
