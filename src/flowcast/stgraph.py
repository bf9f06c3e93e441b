"""Spatial graphs and the unified space-time graph built from them.

The unified graph has one element per (node, time) pair across a window of
T steps. Two elements are adjacent when they are the same node at
consecutive steps, or neighbors in the spatial graph at the same step.
Flat element ids are time major: flat = time * n_nodes + node.

The unified graph is the Cartesian product of the spatial graph with a
path of T steps, so the hop distance from (i, t) to (j, s) is the spatial
hop count from i to j plus |t - s|; it is computed in that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractError, InputError, open_text


@dataclass(frozen=True)
class STCoord:
    """A (node, time) position on the unified graph."""

    node: int
    time: int

    def flat(self, n_nodes: int) -> int:
        return self.time * n_nodes + self.node


def coord_from_flat(flat: int, n_nodes: int) -> STCoord:
    return STCoord(node=flat % n_nodes, time=flat // n_nodes)


@dataclass
class SpatialGraph:
    """A weighted sensor graph: adjacency[i, j] is the weight of edge i -> j.

    The adjacency is symmetric unless the graph was loaded with
    symmetrize=False, and a diagonal entry is a self loop.
    """

    n_nodes: int
    adjacency: np.ndarray
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.labels:
            self.labels = [str(i) for i in range(self.n_nodes)]

    def neighbor_lists(self) -> list[np.ndarray]:
        """Sorted neighbor ids per node over the nonzero support."""
        indptr, indices = out_edges(self.adjacency)
        bounds = indptr.tolist()
        return [indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _located_lines(source) -> Iterator[tuple[str, str]]:
    """Each line with where it is: "<path>:<n>" in a file, "line <n>" in an iterable."""
    if isinstance(source, (str, Path)):
        with open_text(source, "graph file") as fh:
            yield from ((f"{source}:{n}", raw) for n, raw in enumerate(fh, start=1))
    else:
        yield from ((f"line {n}", raw) for n, raw in enumerate(source, start=1))


def load_spatial_graph(source, symmetrize: bool = True) -> SpatialGraph:
    """Parse an edge-list description of the sensor graph.

    Each payload line is "src dst [weight]" with weight defaulting to 1.0.
    Lines starting with '#' and blank lines are skipped. An optional
    directive "nodes <N>" declares the node count up front, in which case
    ids must be integers in [0, N), read as int() reads them ("01" is node
    1); isolated nodes are then allowed.
    Without the directive, ids are compacted to [0, N) in first-appearance
    order. Negative weights are rejected. A self loop "i i w" is kept as
    given, as diagonal entry w, as in a Gaussian-kernel adjacency, whose
    diagonal is exp(0) = 1. By default the matrix is symmetrized as
    max(A, A^T). An InputError names where it arose: "<path>:<n>: ..." or
    "<path>: ..." for a file, "line <n>: ..." for an iterable of lines.
    """
    declared: int | None = None
    raw_edges: list[tuple[int, int, float]] = []
    order: dict[str, int] = {}

    for at, raw in _located_lines(source):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes":
            if len(parts) != 2:
                raise InputError(f"{at}: malformed nodes directive: {line!r}")
            if raw_edges or order:
                raise InputError(f"{at}: nodes directive must come before edges")
            try:
                declared = int(parts[1])
            except ValueError:
                raise InputError(f"{at}: node count must be an integer")
            if declared <= 0:
                raise InputError(f"{at}: node count must be positive")
            continue
        if len(parts) not in (2, 3):
            raise InputError(f"{at}: expected 'src dst [weight]', got {line!r}")
        src, dst = parts[0], parts[1]
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise InputError(f"{at}: bad weight {parts[2]!r}")
        if not np.isfinite(weight):
            raise InputError(f"{at}: weight must be finite")
        if weight < 0.0:
            raise InputError(f"{at}: negative weight {weight} is not allowed")
        if declared is not None:
            ids = []
            for token in (src, dst):
                try:
                    ids.append(int(token))
                except ValueError:
                    raise InputError(
                        f"{at}: with a nodes directive ids must be integers, got {token!r}"
                    )
                if not 0 <= ids[-1] < declared:
                    raise InputError(f"{at}: node id {ids[-1]} outside [0, {declared})")
        else:
            ids = [order.setdefault(token, len(order)) for token in (src, dst)]
        raw_edges.append((ids[0], ids[1], weight))

    if declared is not None:
        n = declared
        labels = [str(i) for i in range(n)]
    else:
        n = len(order)
        if n == 0:
            whole = f"{source}: " if isinstance(source, (str, Path)) else ""
            raise InputError(f"{whole}graph has no nodes: give edges or a 'nodes <N>' directive")
        labels = list(order)

    adjacency = np.zeros((n, n), dtype=np.float64)
    for src, dst, weight in raw_edges:
        adjacency[src, dst] = weight

    if symmetrize:
        adjacency = np.maximum(adjacency, adjacency.T)

    return SpatialGraph(n_nodes=n, adjacency=adjacency, labels=labels)


def out_edges(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-edge lists of the nonzero support as (indptr, indices), int64.

    Node i's targets, ascending, are indices[indptr[i]:indptr[i + 1]].
    """
    n = len(adjacency)
    entries = np.flatnonzero(adjacency != 0.0)  # i * n + j, ascending
    indptr = np.searchsorted(entries, np.arange(n + 1) * n)
    return indptr.astype(np.int64, copy=False), entries % n


def spatial_hops(adjacency: np.ndarray, sources) -> np.ndarray:
    """Hops along edges i -> j (entry [i, j] nonzero) from each source node.

    Returns (len(sources), N) int64 with -1 for unreachable. One BFS runs
    from all sources at once over out-edge lists: each level expands only
    the frontier's (source row, node) pairs, so each pair's out-edges are
    read once and a table costs O(len(sources) * nnz).
    """
    indptr, indices = out_edges(adjacency)
    n, degree = len(indptr) - 1, np.diff(indptr)
    dist = np.full((len(sources), n), -1, dtype=np.int64)
    flat_dist = dist.reshape(-1)
    # frontier entries are flat positions row * n + node in dist
    frontier = np.arange(len(sources), dtype=np.int64) * n + np.asarray(sources, dtype=np.int64)
    flat_dist[frontier] = 0
    # winner[f] names one occurrence of position f among a level's candidates
    winner = np.empty(dist.size, dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nodes = frontier % n
        counts = degree[nodes]
        ends = counts.cumsum()
        # edge k of frontier pair i sits at indices[indptr[nodes[i]] + k]
        edges = (indptr[nodes] - ends + counts).repeat(counts) + np.arange(ends[-1])
        candidates = (frontier - nodes).repeat(counts) + indices[edges]
        candidates = candidates[flat_dist[candidates] < 0]
        order = np.arange(len(candidates))
        winner[candidates] = order
        frontier = candidates[winner[candidates] == order]
        flat_dist[frontier] = level
    return dist


class UnifiedGraph:
    """Unified space-time graph over n_nodes * T elements.

    Only the spatial graph and the window length are stored: adjacency
    entries are generated on demand and distances come in closed form.
    """

    def __init__(self, spatial: SpatialGraph, t_steps: int):
        if t_steps <= 0:
            raise ContractError(f"window length must be positive, got {t_steps}")
        self.spatial = spatial
        self.t_steps = t_steps
        self.n_nodes = spatial.n_nodes
        self.n_elements = spatial.n_nodes * t_steps

    @property
    def edge_entry_count(self) -> int:
        """Number of nonzero directed entries in the unified adjacency."""
        nnz = int(np.count_nonzero(self.spatial.adjacency))
        return self.t_steps * nnz + 2 * self.n_nodes * (self.t_steps - 1)

    def coord_to_flat(self, coord: STCoord) -> int:
        if not (0 <= coord.node < self.n_nodes and 0 <= coord.time < self.t_steps):
            raise ContractError(f"coordinate {coord} outside {self.n_nodes} nodes x {self.t_steps} steps")
        return coord.flat(self.n_nodes)

    def flat_to_coord(self, flat: int) -> STCoord:
        if not 0 <= flat < self.n_elements:
            raise ContractError(f"flat id {flat} outside [0, {self.n_elements})")
        return coord_from_flat(flat, self.n_nodes)

    def distance_rows(self, starts) -> np.ndarray:
        """Hop counts from each flat id, (len(starts), N * T); -1 marks unreachable."""
        times, nodes = np.divmod(np.asarray(starts, dtype=np.int64), self.n_nodes)
        hops = spatial_hops(self.spatial.adjacency, nodes)[:, None, :]
        gap = np.abs(np.arange(self.t_steps) - times[:, None])[:, :, None]
        return np.where(hops < 0, -1, hops + gap).reshape(len(nodes), self.n_elements)

    def distances_from(self, start: int) -> np.ndarray:
        """Hop counts from one flat element id; -1 marks unreachable."""
        return self.distance_rows([start])[0]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Directed nonzero entries with weights, row by row in flat order.

        Within a row: previous step, spatial neighbors ascending, next step.
        """
        n = self.n_nodes
        adjacency = self.spatial.adjacency
        neighbor_lists = self.spatial.neighbor_lists()
        for t in range(self.t_steps):
            for i in range(n):
                u = t * n + i
                if t > 0:
                    yield u, u - n, 1.0
                for j in neighbor_lists[i]:
                    yield u, t * n + int(j), float(adjacency[i, j])
                if t < self.t_steps - 1:
                    yield u, u + n, 1.0


def build_unified(spatial: SpatialGraph, t_steps: int) -> UnifiedGraph:
    """Assemble the unified space-time graph for a window of t_steps."""
    return UnifiedGraph(spatial, t_steps)


def st_distance(graph: UnifiedGraph, a: STCoord, b: STCoord) -> int | None:
    """Fewest hops between two elements, or None when disconnected."""
    dist = graph.distances_from(graph.coord_to_flat(a))
    d = int(dist[graph.coord_to_flat(b)])
    return None if d < 0 else d

