"""Undirected graphs shared by the physical models and the communication overlay."""
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph over dense 0-based node indices.

    Edges are stored as canonical (low, high) pairs. An optional weight may
    accompany each edge (e.g. a line susceptance).
    """

    node_count: int
    edges: tuple
    weights: tuple | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ModelError("graph needs at least one node")
        canon = []
        seen = set()
        for e in self.edges:
            m, n = int(e[0]), int(e[1])
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
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(canon):
                raise ModelError("weights must align with edges")
            object.__setattr__(self, "weights", w)

    @cached_property
    def _neighbor_lists(self):
        """Ascending neighbor tuple of every node, built on first use."""
        adj = [[] for _ in range(self.node_count)]
        for m, n in self.edges:
            adj[m].append(n)
            adj[n].append(m)
        return tuple(tuple(sorted(a)) for a in adj)


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


def weighted_laplacian(g: Graph, weights=None) -> np.ndarray:
    """Weighted Laplacian: off-diagonal -w for edges, diagonal = row-wise sum.

    Rows sum to zero; the matrix is symmetric and diagonally dominant.
    Weights must be strictly positive.
    """
    if weights is None:
        weights = g.weights
    if weights is None:
        raise ModelError("no edge weights given")
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
