"""Randomized model builders shared across the test modules.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""
import numpy as np

from ripplesim import (Graph, GridModel, LinearPlant, PipeLaw, WaterModel,
                       solve_load_voltages)


def random_connected_graph(rng, n, extra_edges=1):
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = order[i]
        b = order[rng.integers(0, i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(node_count=n, edges=tuple(sorted(edges)))


def random_monotone_linear_plant(rng, n):
    """Affine plant with nonnegative sensitivities and a violated start.

    Returns (plant, u0). Every measured node responds to its own control,
    u0 sits at the lower corner, and the output floors are placed so the
    start violates at some measured nodes while maximum effort clears all
    floors with margin.
    """
    m = int(rng.integers(1, n + 1))
    measured = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
    sens = rng.uniform(0.0, 1.0, size=(m, n)) * (rng.random((m, n)) < 0.4)
    for i, node in enumerate(measured):
        sens[i, node] += rng.uniform(0.5, 1.5)
    offset = rng.uniform(-1.0, 1.0, size=m)
    u0 = rng.uniform(-1.0, 1.0, size=n)
    span = rng.uniform(0.2, 2.0, size=n)
    u_upper = u0 + span
    y0 = sens @ u0 + offset
    y_top = sens @ u_upper + offset
    # floors: a random subset violated at u0, everything feasible at the top
    y_lower = y0 - rng.uniform(0.05, 0.5, size=m)
    violated = rng.random(m) < 0.6
    if not violated.any():
        violated[rng.integers(0, m)] = True
    frac = rng.uniform(0.2, 0.8, size=m)
    y_lower[violated] = (y0 + frac * (y_top - y0))[violated]
    plant = LinearPlant(sensitivity=sens, offset=offset, u_lower=u0.copy(),
                        u_upper=u_upper, y_lower=y_lower,
                        measured_nodes=measured)
    return plant, u0


def random_grid(rng, n_buses, n_gens=None):
    """Random connected grid with mild loading; returns (grid, q_load, v_gen)."""
    graph = random_connected_graph(rng, n_buses, extra_edges=2)
    sus = tuple(rng.uniform(5.0, 50.0, size=len(graph.edges)).tolist())
    if n_gens is None:
        n_gens = int(rng.integers(1, max(2, n_buses // 2 + 1)))
    gens = tuple(sorted(rng.choice(n_buses, size=n_gens, replace=False).tolist()))
    loads = tuple(i for i in range(n_buses) if i not in gens)
    grid = GridModel(graph=graph, susceptances=sus, generators=gens,
                     loads=loads)
    q_load = rng.uniform(-0.5, 0.05, size=len(loads))
    v_gen = rng.uniform(0.98, 1.05, size=len(gens))
    return grid, q_load, v_gen


def finite_difference_jacobians(grid, q, vg, h=1e-6):
    """Central differences of the load voltages in q_load and in v_gen;
    returns (dV_load/dq_load, dV_load/dv_gen)."""
    nl, ng = len(grid.loads), len(grid.generators)
    dql = np.zeros((nl, nl))
    dvg = np.zeros((nl, ng))
    for k in range(nl):
        e = np.zeros(nl)
        e[k] = h
        dql[:, k] = (solve_load_voltages(q + e, vg, grid).v_load
                     - solve_load_voltages(q - e, vg, grid).v_load) / (2 * h)
    for k in range(ng):
        e = np.zeros(ng)
        e[k] = h
        dvg[:, k] = (solve_load_voltages(q, vg + e, grid).v_load
                     - solve_load_voltages(q, vg - e, grid).v_load) / (2 * h)
    return dql, dvg


def random_water_network(rng, n_nodes):
    """Random pipe-only tree network with one fixed-pressure source.

    Returns (model, u0) where u0 holds the source pressure and balanced
    injections (consumers negative, node 0 the pressure reference).
    """
    graph = random_connected_graph(rng, n_nodes, extra_edges=int(rng.integers(0, 2)))
    laws = tuple(PipeLaw(coefficient=float(rng.uniform(1e-5, 1e-3)),
                         exponent=2.0 if rng.random() < 0.7 else 1.852)
                 for _ in graph.edges)
    model = WaterModel(graph=graph, edge_laws=laws, pressure_nodes=(0,))
    u0 = np.zeros(n_nodes)
    u0[0] = rng.uniform(5.0, 50.0)
    u0[1:] = -rng.uniform(5.0, 120.0, size=n_nodes - 1)
    return model, u0
