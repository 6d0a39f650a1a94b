import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ripplesim import (Graph, HydraulicInfeasibleError, ModelError,
                       PipeLaw, PumpLaw,
                       PumpReverseFlowError, WaterModel,
                       check_pressure_ordering, edge_pressure_drop,
                       monotonicity_probe, solve_network)
from ripplesim.water import (LINEAR_FLOW_CUTOFF, WaterPlant, _PipeLaws,
                             _pipe_flow_from_drop)
from synth import random_connected_graph, random_water_network


def test_drop_quadratic_pipe():
    law = PipeLaw(coefficient=0.001, exponent=2.0)
    assert_allclose(edge_pressure_drop(100.0, law), 10.0)
    assert edge_pressure_drop(0.0, law) == 0.0
    assert_allclose(edge_pressure_drop(-100.0, law), -10.0)


def test_drop_pump_constant_boost():
    law = PumpLaw(gain=10.0)
    for flow in (0.0, 1.0, 250.0):
        assert edge_pressure_drop(flow, law) == -10.0


def test_drop_oddness_and_monotonicity():
    rng = np.random.default_rng(1)
    for exp in (2.0, 1.852):
        law = PipeLaw(coefficient=3e-4, exponent=exp)
        flows = np.sort(rng.uniform(-300, 300, size=30))
        drops = np.array([edge_pressure_drop(f, law) for f in flows])
        assert np.all(np.diff(drops) > 0)
        for f in flows:
            assert_allclose(edge_pressure_drop(-f, law),
                            -edge_pressure_drop(f, law), rtol=1e-12)


def test_pipe_law_inverse_consistency():
    rng = np.random.default_rng(8)
    for exp in (2.0, 1.852):
        law = PipeLaw(coefficient=2e-4, exponent=exp)
        drops = rng.uniform(-40, 40, size=20)
        flows, slopes = _pipe_flow_from_drop(drops, _PipeLaws([law] * 20))
        for drop, flow, slope in zip(drops, flows, slopes):
            assert_allclose(edge_pressure_drop(flow, law), drop, rtol=1e-10)
            assert slope > 0


def _scalar_flow_from_drop(drop, c, e):
    """Loop reference: the friction-law inverse for one drop, via libm pow."""
    if abs(drop) <= c * LINEAR_FLOW_CUTOFF ** e:
        slope = 1.0 / (c * LINEAR_FLOW_CUTOFF ** (e - 1.0))
        return drop * slope, slope
    x = abs(drop) / c
    return math.copysign(x ** (1.0 / e), drop), x ** (1.0 / e - 1.0) / (c * e)


def test_pipe_flow_from_drop_matches_scalar_loop_bit_for_bit():
    # the array form must reproduce the scalar law exactly, last bit
    # included, on both sides of the linear cutoff
    rng = np.random.default_rng(12)
    m = 2000
    c = rng.uniform(1e-5, 1e-3, size=m)
    e = np.where(rng.random(m) < 0.5, 2.0, 1.852)
    drops = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-12, 2, size=m)
    drops[:3] = 0.0, -0.0, c[2] * LINEAR_FLOW_CUTOFF ** e[2]
    laws = [PipeLaw(coefficient=ci, exponent=ei) for ci, ei in zip(c, e)]
    flows, slopes = _pipe_flow_from_drop(drops, _PipeLaws(laws))
    ref = np.array([_scalar_flow_from_drop(d, ci, ei)
                    for d, ci, ei in zip(drops, c, e)])
    assert np.array_equal(flows, ref[:, 0])
    assert np.array_equal(slopes, ref[:, 1])


def test_law_validation():
    with pytest.raises(ModelError):
        PipeLaw(coefficient=0.0)
    with pytest.raises(ModelError):
        PumpLaw(gain=-5.0)


@pytest.fixture
def single_pipe():
    g = Graph(node_count=2, edges=((0, 1),))
    return WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                      pressure_nodes=(0,))


def test_single_pipe_hand_case(single_pipe):
    sol = solve_network(np.array([5.0, -100.0]), single_pipe)
    assert_allclose(sol.pressures[1], -5.0, atol=1e-6)
    assert_allclose(sol.flows[0], 100.0, atol=1e-6)


def test_zero_demand_no_flow(single_pipe):
    sol = solve_network(np.array([5.0, 0.0]), single_pipe)
    assert_allclose(sol.pressures, [5.0, 5.0], atol=1e-9)
    assert_allclose(sol.flows, [0.0], atol=1e-9)


def test_parallel_branches_split_symmetrically():
    # two identical two-pipe branches from the source to the consumer
    g = Graph(node_count=4, edges=((0, 1), (0, 2), (1, 3), (2, 3)))
    laws = tuple(PipeLaw(coefficient=0.001) for _ in range(4))
    model = WaterModel(graph=g, edge_laws=laws, pressure_nodes=(0,))
    sol = solve_network(np.array([5.0, 0.0, 0.0, -200.0]), model)
    assert_allclose(sol.flows, [100.0] * 4, atol=1e-6)
    assert_allclose(sol.pressures[1], sol.pressures[2], atol=1e-9)


def test_solution_satisfies_conservation_and_edge_laws():
    rng = np.random.default_rng(31)
    for _ in range(15):
        model, u = random_water_network(rng, int(rng.integers(3, 8)))
        sol = solve_network(u, model)
        for node in range(model.graph.node_count):
            if node in model.pressure_nodes:
                continue
            net = 0.0
            for ei, (m, n) in enumerate(model.graph.edges):
                if m == node:
                    net += sol.flows[ei]
                elif n == node:
                    net -= sol.flows[ei]
            assert abs(u[node] - net) <= 1e-6
        for ei, (m, n) in enumerate(model.graph.edges):
            drop = sol.pressures[m] - sol.pressures[n]
            assert abs(drop - edge_pressure_drop(sol.flows[ei],
                                                 model.edge_laws[ei])) <= 1e-6


def _tree_oracle(model, u):
    """Flows from conservation alone, pressures summed from the reference.

    On a pipe-only tree rooted at the single fixed-pressure node, each
    edge carries the injection of the subtree below it, and each pressure
    is its parent's minus the drop along the connecting pipe.
    """
    g = model.graph
    root = model.pressure_nodes[0]
    parent, order = {root: None}, [root]
    for v in order:
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)
    edge_of = {e: i for i, e in enumerate(g.edges)}
    subtree = u.copy()
    flows = np.zeros(len(g.edges))
    for v in reversed(order[1:]):
        p = parent[v]
        subtree[p] += subtree[v]
        # flow along the canonical pair; the subtree's net injection
        # leaves v toward its parent
        flows[edge_of[min(p, v), max(p, v)]] = subtree[v] if v < p else -subtree[v]
    pressures = np.zeros(g.node_count)
    pressures[root] = u[root]
    for v in order[1:]:
        p = parent[v]
        ei = edge_of[min(p, v), max(p, v)]
        drop = edge_pressure_drop(flows[ei], model.edge_laws[ei])
        pressures[v] = pressures[p] - drop if p < v else pressures[p] + drop
    return pressures, flows


# the xfail comes off once the solver converges wherever a solution exists
@pytest.mark.parametrize("n", [
    10, 50, 80,
    pytest.param(200, marks=pytest.mark.xfail(
        strict=True, raises=HydraulicInfeasibleError,
        reason="ROADMAP item 3: damped Newton stalls on large trees")),
])
def test_tree_networks_match_conservation_oracle(n):
    rng = np.random.default_rng([7, n])
    graph = random_connected_graph(rng, n, extra_edges=0)
    laws = tuple(PipeLaw(coefficient=float(rng.uniform(1e-5, 1e-3)),
                         exponent=2.0 if rng.random() < 0.7 else 1.852)
                 for _ in graph.edges)
    model = WaterModel(graph=graph, edge_laws=laws, pressure_nodes=(0,))
    u = np.concatenate(([rng.uniform(5.0, 50.0)],
                        -rng.uniform(5.0, 120.0, size=n - 1)))
    sol = solve_network(u, model)
    pressures, flows = _tree_oracle(model, u)
    assert_allclose(sol.flows, flows, rtol=1e-9, atol=1e-7)
    assert_allclose(sol.pressures, pressures, rtol=1e-9, atol=1e-6)


def test_pump_between_fixed_nodes_is_singular():
    # neither end of the pump is free, so its constraint row has no
    # pressure entry and the hydraulic Jacobian is singular
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    model = WaterModel(graph=g,
                       edge_laws=(PumpLaw(gain=10.0),
                                  PipeLaw(coefficient=0.001)),
                       pressure_nodes=(0, 1))
    with pytest.raises(HydraulicInfeasibleError, match="singular"):
        solve_network(np.array([5.0, 5.0, -10.0]), model)


def test_pump_chain_boosts_pressure():
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    model = WaterModel(graph=g,
                       edge_laws=(PumpLaw(gain=10.0),
                                  PipeLaw(coefficient=0.001)),
                       pressure_nodes=(0,))
    sol = solve_network(np.array([5.0, 0.0, -100.0]), model)
    assert_allclose(sol.pressures, [5.0, 15.0, 5.0], atol=1e-6)


def test_reversed_pump_declaration():
    # pump boosting from node 2 into node 1 along canonical edge (1, 2)
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    model = WaterModel(graph=g,
                       edge_laws=(PipeLaw(coefficient=0.001),
                                  PumpLaw(gain=10.0, reverse=True)),
                       pressure_nodes=(2,))
    sol = solve_network(np.array([-100.0, 0.0, 5.0]), model)
    assert_allclose(sol.pressures[1], 15.0, atol=1e-6)
    assert sol.flows[1] < 0  # canonical flow runs against the edge order


def test_pump_refuses_reverse_flow():
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    model = WaterModel(graph=g,
                       edge_laws=(PipeLaw(coefficient=0.001),
                                  PumpLaw(gain=10.0)),
                       pressure_nodes=(0,))
    # consumer sits at node 1, upstream of the pump: the pump edge (1,2)
    # would have to pull water backwards from dead-end node 2
    with pytest.raises(PumpReverseFlowError):
        solve_network(np.array([5.0, -100.0, 50.0]), model)


def test_disconnected_reference_rejected():
    g = Graph(node_count=3, edges=((0, 1),))
    model = WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                       pressure_nodes=(0,))
    with pytest.raises(ModelError):
        solve_network(np.array([5.0, -10.0, 10.0]), model)


def test_needs_pressure_reference():
    g = Graph(node_count=2, edges=((0, 1),))
    with pytest.raises(ModelError):
        WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                   pressure_nodes=())


def test_ordering_identical_controls(single_pipe):
    u = np.array([5.0, -100.0])
    assert check_pressure_ordering(single_pipe, u, u)


def test_ordering_reduced_demand_raises_pressure(single_pipe):
    hi = solve_network(np.array([5.0, -50.0]), single_pipe)
    assert_allclose(hi.pressures[1], 2.5, atol=1e-6)
    assert check_pressure_ordering(single_pipe, np.array([5.0, -50.0]),
                                   np.array([5.0, -100.0]))


def test_ordering_rejects_incomparable(single_pipe):
    with pytest.raises(ValueError):
        check_pressure_ordering(single_pipe, np.array([5.0, -100.0]),
                                np.array([5.0, -50.0]))


def test_ordering_random_instances():
    rng = np.random.default_rng(37)
    for _ in range(30):
        model, u_lo = random_water_network(rng, 6)
        bump = rng.uniform(0.0, 20.0, size=6) * (rng.random(6) < 0.7)
        assert check_pressure_ordering(model, u_lo + bump, u_lo)


def test_probe_verdict_on_random_networks():
    rng = np.random.default_rng(41)
    for _ in range(5):
        model, u = random_water_network(rng, 5)
        plant = WaterPlant(model=model, u_lower=u - 50.0, u_upper=u + 50.0,
                           y_lower=np.full(4, -1e9),
                           measured_nodes=tuple(range(1, 5)))
        assert monotonicity_probe(plant, u).monotone
