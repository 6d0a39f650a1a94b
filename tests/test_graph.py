import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ripplesim import (Graph, GridModel, ModelError, adjacency_matrix,
                       is_connected, weighted_laplacian)
from ripplesim.graph import reachable
from synth import random_connected_graph


def test_adjacency_single_edge():
    g = Graph(node_count=2, edges=((0, 1),))
    assert_array_equal(adjacency_matrix(g), [[0, 1], [1, 0]])


def test_adjacency_empty():
    g = Graph(node_count=3, edges=())
    assert_array_equal(adjacency_matrix(g), np.zeros((3, 3)))


def test_adjacency_path():
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    assert_array_equal(adjacency_matrix(g), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_adjacency_symmetric_zero_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        a = adjacency_matrix(g)
        assert_array_equal(a, a.T)
        assert_array_equal(np.diag(a), np.zeros(g.node_count))


def test_connectivity_cases():
    assert is_connected(Graph(node_count=3, edges=((0, 1), (1, 2))))
    assert not is_connected(Graph(node_count=2, edges=()))
    assert is_connected(Graph(node_count=1, edges=()))


def test_connectivity_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = tuple(p for p in pairs if rng.random() < 0.3)
        g = Graph(node_count=n, edges=chosen)
        # brute force: transitive closure over the reachability matrix
        reach = np.eye(n, dtype=bool) | adjacency_matrix(g).astype(bool)
        for _ in range(n):
            reach = reach | (reach @ reach)
        assert is_connected(g) == bool(reach.all())


def test_laplacian_single_edge():
    g = Graph(node_count=2, edges=((0, 1),))
    assert_array_equal(weighted_laplacian(g, (10.0,)),
                       [[10, -10], [-10, 10]])


def test_laplacian_path_with_weights():
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    assert_array_equal(weighted_laplacian(g, (1.0, 2.0)),
                       [[1, -1, 0], [-1, 3, -2], [0, -2, 2]])


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        w = rng.uniform(0.1, 20.0, size=len(g.edges))
        lap = weighted_laplacian(g, w)
        assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert_array_equal(lap, lap.T)
        # diagonal dominance
        assert np.all(2 * np.diag(lap) >= np.abs(lap).sum(axis=1) - 1e-12)


def test_laplacian_rejects_nonpositive_weight():
    g = Graph(node_count=2, edges=((0, 1),))
    with pytest.raises(ModelError):
        weighted_laplacian(g, (0.0,))
    with pytest.raises(ModelError):
        weighted_laplacian(g, (-1.0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_laplacian_and_grid_model_reject_a_non_finite_weight(bad):
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    with pytest.raises(ModelError, match="finite and positive"):
        weighted_laplacian(g, (1.0, bad))
    with pytest.raises(ModelError, match="finite and positive"):
        GridModel(graph=g, susceptances=(bad, 1.0), generators=(0,),
                  loads=(1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(node_count=0, edges=()), "graph needs at least one node"),
    (lambda: weighted_laplacian(Graph(node_count=2, edges=((0, 1),)),
                                [1.0, 2.0]), "weights must align with edges"),
], ids=["no-nodes", "weights"])
def test_graph_rejects_bad_input(call, message):
    with pytest.raises(ModelError) as err:
        call()
    assert type(err.value) is ModelError and str(err.value) == message


def test_graph_validation():
    with pytest.raises(ModelError):
        Graph(node_count=2, edges=((0, 0),))
    with pytest.raises(ModelError):
        Graph(node_count=2, edges=((0, 2),))
    with pytest.raises(ModelError):
        Graph(node_count=3, edges=((0, 1), (1, 0)))
    # a float or bool node count or endpoint is refused, not truncated
    for count, edges in ((2.5, ()), (2.0, ()), (True, ()),
                         (3, ((0, 1.5),)), (3, ((0, 1.0),)),
                         (3, ((False, 1),)), (3, ((0, np.float64(1)),))):
        with pytest.raises(ModelError, match="integer"):
            Graph(node_count=count, edges=edges)
    # numpy integers pass and are stored as ints
    g = Graph(node_count=np.int64(3), edges=((np.int32(2), np.int64(0)),))
    assert (g.node_count, g.edges) == (3, ((0, 2),))
    assert {type(g.node_count), *map(type, g.edges[0])} == {int}


def test_neighbors_and_degree():
    g = Graph(node_count=4, edges=((0, 1), (1, 2), (1, 3)))
    adj = adjacency_matrix(g)
    assert np.flatnonzero(adj[1]).tolist() == [0, 2, 3]
    assert adj[1].sum() == 3
    assert adj[0].sum() == 1
    assert np.flatnonzero(adj[3]).tolist() == [1]


def test_reachable_from_several_sources():
    g = Graph(node_count=6, edges=((0, 1), (2, 3), (3, 4)))
    assert reachable(g, (0,)) == {0, 1}
    assert reachable(g, (4, 0)) == {0, 1, 2, 3, 4}
    assert reachable(g, ()) == set()
