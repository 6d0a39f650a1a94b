"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""
import time

import numpy as np
import pytest

from ripplesim import (Graph, PipeLaw, PowerFlowInfeasibleError, Scenario,
                       WaterModel, adjacency_matrix, check_pressure_ordering,
                       feasibility_check, load_scenario, loadability_sweep,
                       max_effort_feasibility, message_stats, run,
                       solve_load_voltages, solve_network, spectral_norm,
                       verify_trace)
from synth import (random_connected_graph, random_grid,
                   random_monotone_linear_plant, random_water_network)

CORPUS_SIZE = 200


def report(num, name, elapsed, detail=""):
    print(f"\ncriterion {num} ({name}): PASS in {elapsed:.1f}s {detail}")


@pytest.fixture(scope="module")
def corpus():
    """200 randomized monotone affine scenarios, solved once, shared."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    entries = []
    for _ in range(CORPUS_SIZE):
        n = int(rng.integers(1, 11))
        plant, u0 = random_monotone_linear_plant(rng, n)
        graph = random_connected_graph(rng, n) if n > 1 else \
            Graph(node_count=1, edges=())
        scenario = Scenario(plant=plant, comm_graph=graph, u0=u0)
        outcome, records = run(scenario)
        entries.append((scenario, outcome, records))
    return entries, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid_scenario_trace():
    scenario = load_scenario("pjm5")
    outcome, records = run(scenario)
    return scenario, outcome, records


@pytest.fixture(scope="module")
def water_scenario_trace():
    scenario = load_scenario("wds10")
    outcome, records = run(scenario)
    return scenario, outcome, records


def test_criterion_1_monotone_convergence(corpus):
    entries, elapsed = corpus
    assert len(entries) == CORPUS_SIZE
    for scenario, outcome, records in entries:
        u_prev = np.asarray(scenario.u0, float)
        for r in records:
            assert np.all(r.u >= u_prev), "controls must never decrease"
            assert np.all(r.u <= scenario.plant.u_upper)
            u_prev = r.u
        assert outcome.equilibrium, "run must settle within the budget"
    assert elapsed < 30.0, f"corpus took {elapsed:.1f}s (budget 30s)"
    report(1, "monotone bounded convergence", elapsed,
           f"on {CORPUS_SIZE} randomized plants")


def test_criterion_2_equilibrium_characterization(corpus):
    entries, _ = corpus
    t0 = time.perf_counter()
    feasible_checked = 0
    for scenario, outcome, records in entries:
        if not max_effort_feasibility(scenario.plant):
            continue
        assert outcome.status == "converged"
        assert outcome.max_beacon <= 1e-6
        assert feasibility_check(scenario.plant, records[-1].u,
                                 scenario.eps_feas)
        feasible_checked += 1
    assert feasible_checked > 0

    # tightened ceilings turn the same instances infeasible: runs must
    # stall with every control pinned at its ceiling
    rng = np.random.default_rng(77)
    stalled_checked = 0
    for scenario, _, _ in entries:
        plant = scenario.plant
        span = plant.u_upper - plant.u_lower
        y0 = plant.solve(scenario.u0)
        y_top = plant.solve(plant.u_upper)
        gap = plant.y_lower - y0
        violated = gap > 0
        if not violated.any():
            continue
        frac = np.min(gap[violated] / np.maximum(y_top - y0, 1e-12)[violated])
        alpha = 0.5 * min(float(frac), 1.0)
        if alpha <= 1e-3:
            continue
        tight = type(plant)(sensitivity=plant.sensitivity,
                            offset=plant.offset, u_lower=plant.u_lower,
                            u_upper=scenario.u0 + alpha * span,
                            y_lower=plant.y_lower,
                            measured_nodes=plant.measured_nodes)
        if max_effort_feasibility(tight):
            continue
        tight_scenario = Scenario(plant=tight,
                                  comm_graph=scenario.comm_graph,
                                  u0=scenario.u0)
        outcome, records = run(tight_scenario)
        assert outcome.status == "stalled"
        assert np.allclose(records[-1].u, tight.u_upper, atol=1e-9)
        stalled_checked += 1
        if stalled_checked >= 60:
            break
    assert stalled_checked >= 40
    report(2, "equilibrium characterization", time.perf_counter() - t0,
           f"({feasible_checked} feasible, {stalled_checked} stalled)")


def test_criterion_2_terminal_reading(corpus, grid_scenario_trace,
                                      water_scenario_trace):
    # the one reading that a run takes at its stop is a cold solve there,
    # and the run is feasible exactly when the feasibility check passes
    t0 = time.perf_counter()
    bundled = [(scenario, *run(scenario)) for scenario in
               map(load_scenario, ("twobus", "linear_cascade"))]
    runs = list(corpus[0]) + [grid_scenario_trace, water_scenario_trace]
    for scenario, outcome, _ in runs + bundled:
        assert outcome.y.tobytes() == \
            outcome.plant.solve(outcome.u).tobytes()
        assert outcome.feasible == feasibility_check(
            outcome.plant, outcome.u, scenario.eps_feas)
    report(2, "terminal reading", time.perf_counter() - t0,
           f"on {len(runs) + len(bundled)} runs")


def finite_difference_jacobians(grid, q, vg, h=1e-6):
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


@pytest.fixture(scope="module")
def solved_grid_points():
    rng = np.random.default_rng(404)
    points = []
    while len(points) < 20:
        grid, q, vg = random_grid(rng, int(rng.integers(4, 6)))
        try:
            sol = solve_load_voltages(q, vg, grid)
        except PowerFlowInfeasibleError:
            continue
        points.append((grid, q, vg, sol))
    return points


def test_criterion_3_power_flow_correctness(solved_grid_points):
    t0 = time.perf_counter()
    g = Graph(node_count=2, edges=((0, 1),))
    from ripplesim import GridModel

    twobus = GridModel(graph=g, susceptances=(10.0,), generators=(0,),
                       loads=(1,))
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), twobus)
    oracle = (1.0 + np.sqrt(0.96)) / 2.0
    assert abs(sol.v_load[0] - oracle) < 1e-8

    for grid, q, vg, sol in solved_grid_points:
        fd_ql, fd_vg = finite_difference_jacobians(grid, q, vg)
        jac = sol.jacobian
        a_ql, a_vg = jac[:, list(grid.loads)], jac[:, list(grid.generators)]
        assert np.abs(a_ql - fd_ql).max() <= 1e-5 * max(np.abs(fd_ql).max(), 1.0)
        assert np.abs(a_vg - fd_vg).max() <= 1e-5 * max(np.abs(fd_vg).max(), 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, "power-flow and sensitivity correctness", elapsed,
           "(closed form + 20 finite-difference points)")


def test_criterion_4_margin_consistency(solved_grid_points):
    t0 = time.perf_counter()
    for grid, q, vg, sol in solved_grid_points:
        if sol.monotonicity_margin > 0:
            assert sol.jacobian.min() >= -1e-10

    from ripplesim import GridModel

    g = Graph(node_count=2, edges=((0, 1),))
    twobus = GridModel(graph=g, susceptances=(10.0,), generators=(0,),
                       loads=(1,))
    boundary = 25.0  # closed form: 10 v (v-1) = -0.1 s solvable iff s <= 25
    scales = np.concatenate([np.linspace(1.0, 24.99, 40),
                             np.linspace(25.01, 40.0, 20)])
    points = loadability_sweep(twobus, np.array([-0.1]), np.array([1.0]),
                               scales)
    margins = [pt.margin for pt in points if pt.solved]
    assert np.all(np.diff(margins) < 0)
    for pt in points:
        if abs(pt.scale - boundary) > 1e-6:
            assert pt.solved == (pt.scale < boundary), \
                f"solvability flipped at scale {pt.scale}"
    report(4, "margin certifies sensitivities; sweep boundary",
           time.perf_counter() - t0)


def test_criterion_5_hydraulics_correctness():
    t0 = time.perf_counter()
    g = Graph(node_count=2, edges=((0, 1),))
    single = WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                        pressure_nodes=(0,))
    sol = solve_network(np.array([5.0, -100.0]), single)
    assert abs(sol.pressures[1] - (-5.0)) <= 1e-6

    g4 = Graph(node_count=4, edges=((0, 1), (0, 2), (1, 3), (2, 3)))
    mirror = WaterModel(graph=g4,
                        edge_laws=tuple(PipeLaw(coefficient=0.001)
                                        for _ in range(4)),
                        pressure_nodes=(0,))
    sol4 = solve_network(np.array([5.0, 0.0, 0.0, -200.0]), mirror)
    assert np.abs(sol4.flows - 100.0).max() <= 1e-6

    rng = np.random.default_rng(505)
    for _ in range(100):
        model, u_lo = random_water_network(rng, 6)
        bump = rng.uniform(0.0, 20.0, size=6) * (rng.random(6) < 0.7)
        assert check_pressure_ordering(model, u_lo + bump, u_lo)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, "hydraulics correctness and ordered response", elapsed,
           "(hand cases + 100 ordered pairs)")


def assert_activation_ordering(scenario, records):
    """Agents never violated must move only after a neighbor beacons."""
    plant, u0 = scenario.plant, scenario.u0
    from ripplesim import disrupted_setup

    plant, u0 = disrupted_setup(scenario)
    stats = message_stats(records, scenario.comm_graph, u0)
    ever_violated = set()
    for r in records:
        ever_violated |= set(np.nonzero(r.deficit > 0)[0].tolist())
    adj = adjacency_matrix(scenario.comm_graph)
    moved_helpers = 0
    for agent, first_move in stats.first_change.items():
        if agent in ever_violated:
            continue
        neighbor_beacons = [stats.first_beacon[nb]
                            for nb in np.flatnonzero(adj[agent]).tolist()
                            if nb in stats.first_beacon]
        assert neighbor_beacons, f"agent {agent} moved with no beacon"
        assert first_move > min(neighbor_beacons), \
            f"agent {agent} moved before any neighbor beaconed"
        moved_helpers += 1
    return moved_helpers


def test_criterion_6_grid_scenario(grid_scenario_trace):
    t0 = time.perf_counter()
    scenario, outcome, records = grid_scenario_trace
    assert outcome.status == "converged"
    assert records[0].y.min() < 0.94, "disruption must cause a violation"
    from ripplesim import disrupted_setup

    plant, _ = disrupted_setup(scenario)
    terminal = plant.solve(records[-1].u)
    assert np.all(terminal >= 0.94 - 1e-6)
    helpers = assert_activation_ordering(scenario, records)
    assert helpers >= 1, "the cascade must recruit assisting agents"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, "five-bus restoration scenario", elapsed,
           f"({helpers} assisting agents, {outcome.rounds} rounds)")


def test_criterion_7_water_scenario(water_scenario_trace):
    t0 = time.perf_counter()
    scenario, outcome, records = water_scenario_trace
    assert outcome.status == "converged"
    plant = scenario.plant
    # labels 3..10 are measured; after the pump failure at least nodes 3
    # and 5..9 must sit below their floors on the first reading
    from ripplesim import disrupted_setup

    dplant, _ = disrupted_setup(scenario)
    first = records[0].y
    floors = dplant.y_lower
    violated_labels = {scenario.node_label(node)
                       for node, yv, fl in zip(dplant.measured_nodes, first,
                                               floors) if yv < fl}
    assert {"3", "5", "6", "7", "8", "9"} <= violated_labels
    terminal = dplant.solve(records[-1].u)
    assert np.all(terminal >= floors - 1e-6)
    ys = np.array([r.y for r in records])
    assert np.all(np.diff(ys, axis=0) >= -1e-6), \
        "restored pressures must be nondecreasing"
    assert_activation_ordering(scenario, records)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(7, "ten-node water restoration scenario", elapsed,
           f"(violated {sorted(violated_labels)}, {outcome.rounds} rounds)")


def test_criterion_8_message_accounting(corpus, grid_scenario_trace,
                                        water_scenario_trace):
    t0 = time.perf_counter()
    from ripplesim import disrupted_setup

    traces = list(corpus[0]) + [grid_scenario_trace, water_scenario_trace]
    checked = 0
    for scenario, _, records in traces:
        plant, u0 = disrupted_setup(scenario)
        assert verify_trace(records, scenario.comm_graph, plant.u_upper,
                            u0) == []
        degree = adjacency_matrix(scenario.comm_graph).sum(axis=1)
        for r in records:
            degsum = degree[r.beacons > 0].sum()
            assert r.messages == degsum
            if not np.any(r.beacons > 0):
                assert r.messages == 0
        checked += 1
    report(8, "event-triggered message accounting",
           time.perf_counter() - t0, f"on {checked} traces")


def test_criterion_9_spectral_norm_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = adjacency_matrix(random_connected_graph(rng, n))
        eta2 = rng.uniform(0.05, 3.0, size=n)
        eta3 = rng.uniform(0.05, 3.0, size=n)
        m = (eta2 * eta3)[:, None] * a
        oracle = np.sqrt(np.max(np.linalg.eigvalsh(m.T @ m)))
        assert abs(spectral_norm(m) - oracle) <= 1e-8 * max(1.0, oracle)
    report(9, "spectral-norm oracle agreement", time.perf_counter() - t0,
           "(50 random overlays)")
