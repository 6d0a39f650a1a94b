"""Undirected graphs shared by the physical models and the communication overlay."""
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ScenarioError


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph over dense 0-based node indices.

    Edges are stored as canonical (low, high) pairs.
    """

    node_count: int
    edges: tuple

    def __post_init__(self):
        count = _integer(self.node_count, "node count")
        if count < 1:
            raise ModelError("graph needs at least one node")
        object.__setattr__(self, "node_count", count)
        canon = []
        seen = set()
        for e in self.edges:
            m, n = _integer(e[0], "edge end"), _integer(e[1], "edge end")
            if m == n:
                raise ModelError(f"self-loop at node {m}")
            if not (0 <= m < self.node_count and 0 <= n < self.node_count):
                raise ModelError(f"edge ({m},{n}) outside node range")
            pair = (min(m, n), max(m, n))
            if pair in seen:
                raise ModelError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def _neighbor_lists(self):
        """Ascending neighbor tuple of every node, built on first use."""
        adj = [[] for _ in range(self.node_count)]
        for m, n in self.edges:
            adj[m].append(n)
            adj[n].append(m)
        return tuple(tuple(sorted(a)) for a in adj)


def _integer(value, what) -> int:
    """value as an int; a bool or a non-integer (a float, even 2.0) is a
    ModelError, while numpy integers pass."""
    if isinstance(value, (bool, np.bool_)) or \
            not isinstance(value, (int, np.integer)):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return int(value)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((g.node_count, g.node_count))
    for m, n in g.edges:
        a[m, n] = 1.0
        a[n, m] = 1.0
    return a


def reachable(g: Graph, sources) -> set:
    """Nodes reachable from any of the source nodes (breadth-first)."""
    adj = g._neighbor_lists
    seen = set(sources)
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0."""
    return len(reachable(g, (0,))) == g.node_count


def edge_index(g: Graph, edge) -> int:
    """Position in g.edges of the undirected edge (m, n)."""
    m, n = edge
    pair = (min(m, n), max(m, n))
    if pair not in g.edges:
        raise ScenarioError(f"edge {pair} does not exist in the plant graph")
    return g.edges.index(pair)


def without_edge(g: Graph, edge, aligned):
    """(g without the edge (m, n), the entries of aligned, one per edge of
    g, without that edge's entry, as a tuple)."""
    idx = edge_index(g, edge)
    keep = [i for i in range(len(g.edges)) if i != idx]
    edges = tuple(g.edges[i] for i in keep)
    return Graph(g.node_count, edges), tuple(aligned[i] for i in keep)


def weighted_laplacian(g: Graph, weights) -> np.ndarray:
    """Weighted Laplacian: off-diagonal -w for edges, diagonal = row-wise sum.

    Rows sum to zero; the matrix is symmetric and diagonally dominant.
    Weights must be strictly positive.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(g.edges),):
        raise ModelError("weights must align with edges")
    if np.any(w <= 0):
        raise ModelError("edge weights must be positive")
    lap = np.zeros((g.node_count, g.node_count))
    for (m, n), wmn in zip(g.edges, w):
        lap[m, n] -= wmn
        lap[n, m] -= wmn
        lap[m, m] += wmn
        lap[n, n] += wmn
    return lap
