"""Subset partitions of the unified space-time graph.

Elements are grouped around base nodes so attention can run within small
local neighborhoods. Two complementary partitions are built: the primary
one around cluster centers at the central time step, and a shifted one
whose bases move along both axes of the unified graph: up to half a
radius in space (never past the midpoint to the nearest peer) and half a
window in time, with each base and its nearest peer moving in opposite
time directions. The shifted boundaries cut through the primary subsets,
so information can cross the primary boundaries on the next pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .files import atomic_write
from .stgraph import UnifiedGraph, spatial_hops


# ---------------------------------------------------------------------------
# base node selection
# ---------------------------------------------------------------------------


# Lloyd iteration stops after _KMEANS_MAX_ITER steps, or once no centroid moves by _KMEANS_TOL.
_KMEANS_MAX_ITER, _KMEANS_TOL = 300, 1e-8


def kmeans(points: np.ndarray, k: int, seed: int):
    """Plain Lloyd iteration with k-means++ seeding.

    Deterministic for a fixed seed. Returns (centroids (k, dim), labels (n,)).
    Empty clusters keep their previous centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            pick = rng.choice(n, p=closest / total)
        else:
            pick = rng.integers(n)
        centroids[j] = points[pick]
        closest = np.minimum(closest, ((points - centroids[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    # Each point is tiled once per centroid, so a distance step subtracts
    # the (k, dim) centroids over contiguous rows instead of broadcasting
    # the points' dim-long rows.
    tiled = np.repeat(points[:, None, :], k, axis=1)
    sq = np.empty_like(tiled)
    for _ in range(_KMEANS_MAX_ITER):
        np.subtract(tiled, centroids, out=sq)
        labels = np.square(sq, out=sq).sum(axis=2).argmin(axis=1)
        # each cluster's members are one contiguous run of rows, in point order
        grouped = points[np.argsort(labels, kind="stable")]
        sizes = np.bincount(labels, minlength=k)
        new = centroids.copy()
        start = 0
        for j, stop in enumerate(np.cumsum(sizes).tolist()):
            if stop > start:
                np.add.reduce(grouped[start:stop], axis=0, out=new[j])
            start = stop
        new /= np.maximum(sizes, 1)[:, None]  # an empty cluster keeps its centroid
        moved = float(np.linalg.norm(new - centroids, axis=1).max())
        centroids = new
        if moved < _KMEANS_TOL:
            break
    return centroids, labels


def select_base_nodes(spe_coords: np.ndarray, n_subsets: int, seed: int) -> list[int]:
    """Pick one representative spatial node per k-means cluster.

    Clustering runs over the spectral coordinates (one row per node). For
    each cluster, the node nearest its centroid is chosen; distance ties
    break toward the lower node id, and a node already claimed by an
    earlier cluster falls through to the next nearest unused one.
    """
    coords = np.asarray(spe_coords, dtype=np.float64)
    n = coords.shape[0]
    if not 1 <= n_subsets <= n:
        raise ContractError(f"subset count must be in [1, {n}], got {n_subsets}")
    centroids, _ = kmeans(coords, n_subsets, seed)

    dist = np.linalg.norm(coords[None, :, :] - centroids[:, None, :], axis=2)
    chosen: list[int] = []
    used: set[int] = set()
    for ranked in np.argsort(dist, axis=1, kind="stable"):
        node = next(node for node in map(int, ranked) if node not in used)
        chosen.append(node)
        used.add(node)
    return chosen


def make_base_set(graph: UnifiedGraph, spe_coords: np.ndarray, n_subsets: int, seed: int) -> list[int]:
    """Flat ids of the base elements: select_base_nodes' nodes at the central step."""
    offset = (graph.t_steps // 2) * graph.n_nodes
    return [offset + node for node in select_base_nodes(spe_coords, n_subsets, seed)]


def min_distances(stack: np.ndarray) -> np.ndarray:
    """Columnwise min of an (l, N * T) distance stack; -1 when no row reaches.

    Each scheme takes it once: calibrate_tau or build_p2 reads it for the
    radius, and the assignment for each element's nearest bases.
    """
    best = np.where(stack < 0, np.iinfo(np.int64).max, stack).min(axis=0)
    return np.where(best == np.iinfo(np.int64).max, -1, best)


def calibrate_tau(graph: UnifiedGraph, best: np.ndarray) -> int:
    """Smallest radius covering every element from some base.

    best is min_distances of the bases' distance_rows, which build_p1
    then reuses. The radius is never below floor(T / 2) so a base can
    reach both ends of its own time column. Raises when some element is
    unreachable from every base.
    """
    return max(_cover_radius(graph, best, "", "base"), graph.t_steps // 2)


def _cover_radius(graph: UnifiedGraph, best: np.ndarray, prefix: str, kind: str) -> int:
    """Largest nearest-base distance; raises when some element has no base."""
    unreachable = np.flatnonzero(best < 0)
    if unreachable.size:
        coord = graph.flat_to_coord(int(unreachable[0]))
        raise ContractError(
            f"{prefix}element (node={coord.node}, time={coord.time}) is unreachable "
            f"from every {kind}"
        )
    return int(best.max())


# ---------------------------------------------------------------------------
# partition construction
# ---------------------------------------------------------------------------


@dataclass
class PartitionScheme:
    """A disjoint cover of all unified-graph elements by local subsets.

    Construction checks the label, a string, tau, a non-negative integer,
    and the cover: every element has a subset id in [0, l), no subset is
    empty, and each subset holds its own base element. It also lays the
    cover out subset-major once: order lists the elements subset by
    subset, each subset in ascending flat order;
    inverse is its inverse permutation; sizes counts each subset; bounds
    holds each subset's [start, stop) range of order; and subsets splits
    order into the l member lists. notes are shift_bases' notes on how a
    shifted scheme's bases were placed, which partition_report reads; a
    checkpoint does not store them, so a loaded scheme has none.
    """

    label: str
    n_elements: int
    tau: int
    base_flats: list[int]
    assignment: np.ndarray
    notes: tuple[str, ...] = ()
    order: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False)
    sizes: list[int] = field(init=False)
    bounds: list[tuple[int, int]] = field(init=False, repr=False)
    subsets: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ContractError(f"a scheme label must be a string, got {self.label!r}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, np.integer)) or self.tau < 0:
            raise ContractError(f"{self.label}: tau must be a non-negative integer, got {self.tau!r}")
        ids, l = self.assignment, len(self.base_flats)
        if ids.shape != (self.n_elements,):
            raise ContractError(
                f"{self.label}: {ids.size} subset ids for {self.n_elements} elements"
            )
        bad = ids[(ids < 0) | (ids >= l)]
        if bad.size:
            raise ContractError(f"{self.label}: subset id {bad[0]} out of range for l={l}")
        sizes = np.bincount(ids, minlength=l)
        if not sizes.all():
            raise ContractError(f"{self.label}: subset {int(np.argmin(sizes))} is empty")
        for p, flat in enumerate(self.base_flats):
            if not 0 <= flat < self.n_elements or ids[flat] != p:
                raise ContractError(
                    f"{self.label}: subset {p} does not contain its own base element"
                )
        self.order = np.argsort(ids, kind="stable")
        self.inverse = np.empty_like(self.order)
        self.inverse[self.order] = np.arange(self.n_elements)
        self.sizes = sizes.tolist()
        ends = np.cumsum(sizes).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))
        self.subsets = [self.order[start:stop] for start, stop in self.bounds]

    @property
    def n_subsets(self) -> int:
        return len(self.base_flats)

    def subset_of(self, flat: int) -> int:
        return int(self.assignment[flat])


def _assign(
    graph: UnifiedGraph,
    stack: np.ndarray,
    best: np.ndarray,
    base_flats: list[int],
    tau: int,
    label: str,
    notes: tuple[str, ...] = (),
) -> PartitionScheme:
    """Nearest-base assignment over an (l, N * T) distance stack and its
    min_distances best.

    A distance tie goes to the subset with fewer elements assigned so far
    in flat order, then to the lower base index. Untied elements take
    their nearest base at once; only tied elements are visited in order.
    """
    bad = np.flatnonzero((best < 0) | (best > tau))
    if bad.size:
        coord = graph.flat_to_coord(int(bad[0]))
        raise ContractError(
            f"{label}: element (node={coord.node}, time={coord.time}) not within "
            f"tau={tau} of any base"
        )

    nearest = stack == best
    assignment = nearest.argmax(axis=0)
    n_nearest = nearest.sum(axis=0)
    is_tied = n_nearest > 1
    tied = np.flatnonzero(is_tied)
    if tied.size:
        l = len(base_flats)
        # before[k, p]: untied elements ahead of the k-th tied one that went to p
        untied = ~is_tied
        groups = np.cumsum(is_tied)[untied] * l + assignment[untied]
        before = np.bincount(groups, minlength=(tied.size + 1) * l).reshape(-1, l).cumsum(axis=0)
        # each tied element's candidate subsets, ascending, one run per element
        k, p = np.nonzero(nearest[:, tied].T)
        subsets, counts = p.tolist(), before[k, p].tolist()
        tied_before = [0] * l
        picks, start = [], 0
        for stop in np.cumsum(n_nearest[tied]).tolist():
            j = min(range(start, stop), key=lambda j: counts[j] + tied_before[subsets[j]])
            picks.append(subsets[j])
            tied_before[subsets[j]] += 1
            start = stop
        assignment[tied] = picks

    return PartitionScheme(
        label=label, n_elements=graph.n_elements, tau=tau, base_flats=base_flats,
        assignment=assignment, notes=notes,
    )


def build_p1(
    graph: UnifiedGraph, flats: list[int], stack: np.ndarray, best: np.ndarray, tau: int
) -> PartitionScheme:
    """Assign every element to its nearest base within radius tau.

    flats are the base elements, stack their distance_rows and best its
    min_distances, as calibrate_tau took it.
    """
    return _assign(graph, stack, best, flats, tau, "P1")


def _two_colour(nearest_peer: list[int | None]) -> list[bool]:
    """Alternate a flag along nearest-peer links, False at each group's lowest index."""
    links: list[list[int]] = [[] for _ in nearest_peer]
    for p, q in enumerate(nearest_peer):
        if q is not None:
            links[p].append(q)
            links[q].append(p)
    flag = [False] * len(nearest_peer)
    seen = [False] * len(nearest_peer)
    for root in range(len(nearest_peer)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            p = stack.pop()
            for q in links[p]:
                if not seen[q]:
                    seen[q] = True
                    flag[q] = not flag[p]
                    stack.append(q)
    return flag


def shift_bases(graph: UnifiedGraph, flats: list[int], tau: int) -> tuple[list[int], tuple[str, ...]]:
    """Displace each base element in space toward its nearest peer and in time.

    Takes flat ids, one per base, and returns (shifted, notes): the shifted
    flat ids in base order, and in base order a note for each base that
    could not move or that collided. The input list is left as it was.

    Space: each base walks min(floor(tau / 2), floor(d / 2)) hops, where d
    is the spatial hop count from the base to its nearest other base, along
    one spatial shortest path toward that peer, choosing the lowest next
    node id when several shortest paths exist. On a directed graph hops and
    the walk follow edge direction, and a step may only go to a node from
    which the base's own node is still reachable; the walk stops where no
    step qualifies. A shifted base thus stays in its base's strongly
    connected component, so P2 reaches every element that P1 reaches.
    Stopping at the midpoint keeps two bases that are each other's nearest
    peer from swapping places.

    Time: each shifted base moves half a window from its own base's step
    t, to t - T // 2 or t + T // 2 clamped to [0, T - 1]; for primary
    bases t is the central step. A base and its nearest peer move in
    opposite directions: the nearest-peer links are 2-coloured, the
    lowest-index base of each linked group moving earlier. Nearest
    peers tie toward the lower base index, so on an undirected graph the
    links form a forest and the colouring is proper.

    With a single base, or for a base that cannot reach any other, the
    base stays put in space and time. A shifted base whose node another
    shifted base already took backs off along its walked path, so the
    shifted nodes stay distinct; its note names the node it took.
    """
    if len(flats) == 1:
        return list(flats), ()

    spatial = graph.spatial
    n = graph.n_nodes
    nodes = [flat % n for flat in flats]
    neighbor_lists = spatial.neighbor_lists()
    # hops_to_base[q, v]: hops from node v to base q, so walks follow out-edges
    hops_to_base = spatial_hops(spatial.adjacency.T, nodes)
    hops_budget = tau // 2

    # peer_hops[q, p]: hops from base p to base q, n where none (hops are < n)
    peer_hops = hops_to_base[:, nodes]
    peer_hops[peer_hops < 0] = n
    np.fill_diagonal(peer_hops, n)
    nearest = [
        None if d == n else (d, q)
        for d, q in zip(peer_hops.min(axis=0).tolist(), peer_hops.argmin(axis=0).tolist())
    ]

    later = _two_colour([None if peer is None else peer[1] for peer in nearest])
    half = graph.t_steps // 2
    shifted: list[int] = []
    notes: list[str] = []
    used: set[int] = set()
    for p, b in enumerate(nodes):
        time = flats[p] // n
        if nearest[p] is None:
            notes.append(f"base {b} cannot reach any other base; left unshifted")
            target_path = [b]
        else:
            d_near, qi = nearest[p]
            toward, home = hops_to_base[qi], hops_to_base[p]
            target_path = [b]
            cur = b
            for _ in range(min(hops_budget, d_near // 2)):
                steps = [
                    v
                    for v in neighbor_lists[cur].tolist()
                    if toward[v] == toward[cur] - 1 and home[v] >= 0
                ]
                if not steps:
                    break
                cur = min(steps)
                target_path.append(cur)
            offset = half if later[p] else -half
            time = min(max(time + offset, 0), graph.t_steps - 1)

        landing = target_path[-1]
        if landing in used:
            landing = next(
                (node for node in reversed(target_path) if node not in used),
                None,
            )
            if landing is None:
                landing = next(i for i in range(spatial.n_nodes) if i not in used)
            notes.append(f"shifted base for subset {p} collided; backed off to node {landing}")
        used.add(landing)
        shifted.append(time * n + landing)
    return shifted, tuple(notes)


def build_p2(graph: UnifiedGraph, flats: list[int], tau: int, notes: tuple[str, ...] = ()) -> PartitionScheme:
    """Partition around the shifted base elements flats, carrying
    shift_bases' notes on how they were placed.

    The primary radius tau is kept as a floor; if the shifted bases fail
    to cover every element at that radius, the radius is recalibrated
    upward for this scheme only. The scheme's tau records it, and
    partition_report notes a shifted radius above the primary one.
    """
    stack = graph.distance_rows(flats)
    best = min_distances(stack)
    tau = max(_cover_radius(graph, best, "P2: ", "shifted base"), tau)
    return _assign(graph, stack, best, flats, tau, "P2", notes)


# ---------------------------------------------------------------------------
# diagnostics and serialization
# ---------------------------------------------------------------------------

SIZE_RATIO_WARN = 4.0
OVERLAP_BAND = (0.25, 0.75)


@dataclass
class PartitionReport:
    sizes_p1: list[int]
    sizes_p2: list[int]
    size_ratio_p1: float
    size_ratio_p2: float
    overlap: list[float]
    tau_p1: int
    tau_p2: int
    warnings: list[str]

    def to_text(self) -> str:
        lines = [
            f"subsets: {len(self.sizes_p1)}",
            f"tau: primary {self.tau_p1}, shifted {self.tau_p2}",
            f"sizes primary: {self.sizes_p1}",
            f"sizes shifted: {self.sizes_p2}",
            f"size ratio max/median: primary {self.size_ratio_p1:.3f}, "
            f"shifted {self.size_ratio_p2:.3f}",
            "overlap |P2_p & P1_p| / |P1_p|: "
            + ", ".join(f"{v:.3f}" for v in self.overlap),
        ]
        lines.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def _size_ratio(sizes: list[int]) -> float:
    return float(max(sizes) / np.median(sizes))


def partition_report(p1: PartitionScheme, p2: PartitionScheme) -> PartitionReport:
    """Size balance and overlap diagnostics for a partition pair. Its
    warnings are p2's notes, then size ratios above SIZE_RATIO_WARN,
    overlaps outside OVERLAP_BAND and a shifted radius above the primary."""
    if p1.n_elements != p2.n_elements or p1.n_subsets != p2.n_subsets:
        raise ContractError("partition pair does not describe the same element set")
    # subset p's overlap counts the elements that both schemes put in p
    shared = p1.assignment[p1.assignment == p2.assignment]
    overlap = (np.bincount(shared, minlength=p1.n_subsets) / p1.sizes).tolist()

    notes = list(p2.notes)
    ratio1, ratio2 = _size_ratio(p1.sizes), _size_ratio(p2.sizes)
    if ratio1 > SIZE_RATIO_WARN:
        notes.append(f"primary size ratio {ratio1:.2f} exceeds {SIZE_RATIO_WARN}")
    if ratio2 > SIZE_RATIO_WARN:
        notes.append(f"shifted size ratio {ratio2:.2f} exceeds {SIZE_RATIO_WARN}")
    lo, hi = OVERLAP_BAND
    for p, v in enumerate(overlap):
        if not lo <= v <= hi:
            notes.append(f"overlap {v:.2f} for subset {p} outside [{lo}, {hi}] band")
    if p2.tau > p1.tau:
        notes.append(f"shifted tau {p2.tau} is above primary tau {p1.tau}")

    return PartitionReport(
        sizes_p1=p1.sizes,
        sizes_p2=p2.sizes,
        size_ratio_p1=ratio1,
        size_ratio_p2=ratio2,
        overlap=overlap,
        tau_p1=p1.tau,
        tau_p2=p2.tau,
        warnings=notes,
    )


def write_partition(scheme: PartitionScheme, path) -> None:
    """Write "flat_index subset_id" lines under the scheme header block."""
    with atomic_write(path) as fh:
        fh.write(f"# scheme {scheme.label}\n")
        fh.write(f"# l {scheme.n_subsets}\n")
        fh.write(f"# tau {scheme.tau}\n")
        fh.write("# bases " + ",".join(str(b) for b in scheme.base_flats) + "\n")
        for flat in range(scheme.n_elements):
            fh.write(f"{flat} {int(scheme.assignment[flat])}\n")

