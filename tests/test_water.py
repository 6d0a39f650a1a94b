import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ripplesim import (Graph, HydraulicInfeasibleError, ModelError,
                       PipeLaw, PumpLaw,
                       PumpReverseFlowError, WaterModel, adjacency_matrix,
                       check_pressure_ordering, edge_pressure_drop,
                       monotonicity_probe, solve_network)
from ripplesim.scenario_io import load_scenario
from ripplesim import water
from ripplesim.sim import disrupted_setup, run
from ripplesim.water import (LINEAR_FLOW_CUTOFF, WaterPlant, _friction,
                             _newton_step)
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


def test_friction_law_matches_scalar_drop_and_its_slope():
    # on both sides of the linear cutoff, for both exponents: the array law
    # agrees with the closed form and with the scalar edge_pressure_drop,
    # and its slope with a central difference. numpy's vectorized power may
    # round differently from the scalar one, hence a few ulps of slack
    # between the array and the scalar law
    cut = LINEAR_FLOW_CUTOFF
    rng = np.random.default_rng(12)
    for exp in (2.0, 1.852):
        c = rng.uniform(1e-5, 1e-3, size=200)
        flows = (rng.choice([-1.0, 1.0], size=200)
                 * 10.0 ** rng.uniform(-6, 3, size=200))
        flows[:4] = 0.0, -0.0, cut, -cut
        drops, slopes = _friction(flows, c, exp, exp - 1.0, cut)
        assert np.all(slopes > 0)
        for f, ci, drop, slope in zip(flows, c, drops, slopes):
            law = PipeLaw(coefficient=ci, exponent=exp)
            assert_allclose(drop, edge_pressure_drop(f, law), rtol=1e-15,
                            atol=0.0)
            ref = (math.copysign(ci * abs(f) ** exp, f) if abs(f) > cut
                   else ci * cut ** (exp - 1.0) * f)
            assert_allclose(drop, ref, rtol=1e-13, atol=0.0)
            if abs(abs(f) - cut) < 0.1 * cut:
                continue  # the slope jumps at the cutoff
            h = 1e-6 * max(abs(f), cut)
            up, dn = _friction(np.array([f + h, f - h]), ci, exp, exp - 1.0,
                               cut)[0]
            assert_allclose(slope, (up - dn) / (2.0 * h), rtol=1e-6)


def test_law_validation():
    with pytest.raises(ModelError):
        PipeLaw(coefficient=0.0)
    with pytest.raises(ModelError):
        PumpLaw(gain=-5.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("law", [
    lambda v: PipeLaw(coefficient=v), lambda v: PipeLaw(0.001, exponent=v),
    lambda v: PumpLaw(gain=v)], ids=["coefficient", "exponent", "gain"])
def test_laws_reject_non_finite_parameters(law, bad):
    # NaN compares false both ways, so only a test that NaN fails catches it
    with pytest.raises(ModelError, match="finite"):
        law(bad)


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


def _assert_conserves_and_obeys_laws(model, u, sol, tol):
    """Conservation at every free node and every edge law, checked edge by
    edge from the solution's flows and pressures."""
    outflow = np.zeros(model.graph.node_count)
    for ei, (m, n) in enumerate(model.graph.edges):
        outflow[m] += sol.flows[ei]
        outflow[n] -= sol.flows[ei]
        drop = sol.pressures[m] - sol.pressures[n]
        assert abs(drop - edge_pressure_drop(sol.flows[ei],
                                             model.edge_laws[ei])) <= tol
    free = [i for i in range(model.graph.node_count)
            if i not in model.pressure_nodes]
    assert np.abs(u[free] - outflow[free]).max(initial=0.0) <= tol


def test_solution_satisfies_conservation_and_edge_laws():
    rng = np.random.default_rng(31)
    for _ in range(15):
        model, u = random_water_network(rng, int(rng.integers(3, 8)))
        _assert_conserves_and_obeys_laws(model, u, solve_network(u, model),
                                         1e-6)


def test_every_solve_sweep_water_instance_solves():
    # the water population of perfbench's solve_sweep workload, at its
    # population and held-out seeds
    for seed in (2024, 3):
        for n in (20, 50, 80, 100, 120, 160, 200):
            rng = np.random.default_rng([seed, 2, n])
            for _ in range(4):
                model, u = random_water_network(rng, n)
                sol = solve_network(u, model)
                _assert_conserves_and_obeys_laws(model, u, sol, 1e-7)
                assert sol.iterations <= 5


def _dense_incidence(net):
    a_f = np.zeros((len(net.tail), len(net.free)))
    a_f[net.a_rows, net.a_cols] = net.a_vals
    return a_f


def _saddle_point_step(model, u, x):
    """The Newton step at x from the full saddle-point Jacobian, and the
    residual and pipe slopes it was taken at, assembled densely: the
    reference for solve_network's reduced step.

    Rows: pipe laws, pump gains, conservation at free nodes; columns:
    law-order edge flows, free pressures.
    """
    net = model._incidence
    k, m, nf = net.n_pipes, len(net.tail), len(net.free)
    a_f = _dense_incidence(net)
    pres = u.copy()
    pres[net.free] = x[m:]
    diff = pres[net.tail] - pres[net.head]
    drop, slope = _friction(x[:k], *net.law)
    r = np.concatenate((drop - diff[:k], diff[k:] + net.gain,
                        a_f.T @ x[:m] - u[net.free]))
    jac = np.zeros((m + nf, m + nf))
    jac[:k, :k] = np.diag(slope)
    jac[:k, m:] = -a_f[:k]
    jac[k:m, m:] = a_f[k:]
    jac[m:, :m] = a_f.T
    return np.linalg.solve(jac, -r), r, slope


def _cold_start(model, u):
    """Minimum-norm flows that conserve the free injections, and every free
    pressure at the mean fixed pressure."""
    net = model._incidence
    return np.concatenate((np.linalg.pinv(_dense_incidence(net).T)
                           @ u[net.free],
                           np.full(len(net.free),
                                   np.mean(u[net.fixed]))))


def _assert_reduced_step_matches(model, u, x):
    full, r, slope = _saddle_point_step(model, u, x)
    step = _newton_step(model._incidence, r, slope)
    assert_allclose(step, full, rtol=0.0, atol=1e-9 * np.abs(full).max())


def test_reduced_newton_step_matches_the_saddle_point_step():
    rng = np.random.default_rng(53)
    for _ in range(10):
        model, u = random_water_network(rng, int(rng.integers(5, 120)))
        _assert_reduced_step_matches(model, u, _cold_start(model, u))


def _wds10_run_controls():
    """The disrupted wds10 plant and the controls its run solved at, u0
    first."""
    outcome, trace = run(load_scenario("wds10"))
    return outcome.plant, [outcome.u0, *trace.u]


def test_warm_solves_reuse_the_flow_terms_bit_for_bit(monkeypatch):
    # the chain of warm plant solves of a wds10 run against the same chain
    # solved from each previous unknowns vector, its free pressures raised
    # by the move of the one fixed pressure, whose flow terms solve_network
    # evaluates afresh: the same bytes, and one evaluation of the friction
    # law fewer per solve
    plant, controls = _wds10_run_controls()
    fixed = list(plant.model.pressure_nodes)
    m = len(plant.model._incidence.tail)
    assert len(fixed) == 1
    calls = []

    def counted(*args):
        calls.append(1)
        return _friction(*args)

    monkeypatch.setattr(water, "_friction", counted)
    y, state = plant.solve_from(controls[0])
    x = state.unknowns
    for u in controls[1:]:
        start = np.array(x)
        c = u[fixed][0] - state.heads[0]
        if c:
            start[m:] += c
        del calls[:]
        y, state = plant.solve_from(u, state)
        warm_calls = len(calls)
        sol = solve_network(u, plant.model, x0=start)
        assert len(calls) - warm_calls == warm_calls + 1
        assert y.tobytes() == sol.pressures[plant._measured].tobytes()
        for got, want in zip((state.unknowns, *state.flow_terms[:3]),
                             (sol.unknowns, *sol.flow_terms[:3])):
            assert got.tobytes() == want.tobytes()
        x = sol.unknowns


def test_warm_chains_share_a_plant_and_cannot_edit_its_start():
    # two warm chains interleaved on one plant give the bytes of each chain
    # on a plant of its own: a solve keeps no state. What the next solve
    # starts from is read-only, and the rest of a state is the caller's
    plant, controls = _wds10_run_controls()
    chains = controls[:80], controls[-1:-81:-1]

    def fresh():
        model = plant.model
        return WaterPlant(WaterModel(model.graph, model.edge_laws,
                                     model.pressure_nodes),
                          plant.u_lower, plant.u_upper, plant.y_lower,
                          plant.measured_nodes)

    def solved(y, state):
        return y.tobytes(), state.unknowns.tobytes()

    states, shared = [None, None], ([], [])
    for step in zip(*chains):
        for i, u in enumerate(step):
            y, states[i] = plant.solve_from(u, states[i])
            shared[i].append(solved(y, states[i]))
    for chain, got in zip(chains, shared):
        alone, state, want = fresh(), None, []
        for u in chain:
            y, state = alone.solve_from(u, state)
            want.append(solved(y, state))
        assert got == want
    state = states[1]
    for carried in (state.unknowns, *state.flow_terms[:3]):
        with pytest.raises(ValueError, match="read-only"):
            carried[0] = 1.0
    y, _ = plant.solve_from(chains[0][0], state)
    state.pressures[:] = np.nan
    state.flows[:] = np.nan
    assert plant.solve_from(chains[0][0], state)[0].tobytes() == y.tobytes()


def test_a_move_of_the_source_head_alone_takes_no_newton_step():
    # every free pressure rises with the one fixed pressure, and the flows
    # stay, so the start of such a warm solve already meets the tolerance
    plant, controls = _wds10_run_controls()
    fixed = list(plant.model.pressure_nodes)
    source_only = 0
    _, state = plant.solve_from(controls[0])
    for prev, u in zip(controls, controls[1:]):
        y, state = plant.solve_from(u, state)
        if np.flatnonzero(u != prev).tolist() == fixed:
            source_only += 1
            assert state.iterations == 0
            assert_allclose(y, plant.solve(u), rtol=0, atol=1e-9)
    assert source_only == 682  # of 685 rounds


def test_a_wds10_run_solved_cold_every_round_ends_where_the_warm_run_does():
    class Cold(WaterPlant):
        """Solves every round from the cold start."""

        def solve_from(self, u, start=None):
            return super().solve_from(u)

    warm = scenario = load_scenario("wds10")
    plant = scenario.plant
    cold = replace(warm, plant=Cold(plant.model, plant.u_lower, plant.u_upper,
                                    plant.y_lower, plant.measured_nodes))
    warm_outcome, cold_outcome = run(warm)[0], run(cold)[0]
    assert (cold_outcome.status, cold_outcome.rounds) == (
        warm_outcome.status, warm_outcome.rounds) == ("converged", 685)
    assert np.abs(cold_outcome.u - warm_outcome.u).max() <= \
        scenario.eps_eq / 100


@pytest.mark.parametrize("head, word", [(np.nan, "nan"), (np.inf, "inf"),
                                        (-np.inf, "inf")])
def test_a_non_finite_head_change_says_so(single_pipe, head, word,
                                          monkeypatch):
    # no shift is taken: the start is the previous unknowns, at which the
    # residual is not finite, so no Newton step is taken from it
    u = np.array([5.0, -100.0])
    sol = solve_network(u, single_pipe)
    u[0] = head
    steps = []
    monkeypatch.setattr(water, "_newton_step",
                        lambda *args: steps.append(args))
    with pytest.raises(HydraulicInfeasibleError) as err:
        solve_network(u, single_pipe, x0=sol)
    assert steps == []
    assert str(err.value) == (
        "no hydraulic solution: the residual at the starting point is not "
        f"finite (residual {word})")


@pytest.mark.parametrize("record", [(), ("heads",), ("flow_terms",)],
                         ids=["bare", "heads", "flow-terms"])
def test_a_solution_without_its_solves_record_starts_like_its_unknowns(
        single_pipe, record):
    # only the flow_terms and heads a solve leaves make a solution of this
    # model a reused start; one made by hand from its unknowns (and part of
    # that record) starts exactly as its unknowns array does, with no head
    # shift
    sol = solve_network(np.array([5.0, -100.0]), single_pipe)
    start = water.HydraulicSolution(
        sol.pressures, unknowns=sol.unknowns, model=single_pipe,
        **{name: getattr(sol, name) for name in record})
    u = np.array([6.0, -100.0])
    got = solve_network(u, single_pipe, x0=start)
    want = solve_network(u, single_pipe, x0=np.array(sol.unknowns))
    for a, b in zip((got.pressures, got.flows, got.unknowns, *got.flow_terms),
                    (want.pressures, want.flows, want.unknowns,
                     *want.flow_terms)):
        assert a.tobytes() == b.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)
    assert got.iterations >= 1


def test_a_solution_of_another_model_lends_only_its_unknowns():
    # the same network with other pipe laws has as many unknowns, but the
    # flow terms of the first model are no residual of the second
    plant, controls = _wds10_run_controls()
    model, u = plant.model, controls[-1]
    other = WaterModel(model.graph, tuple(
        replace(law, coefficient=2.0 * law.coefficient)
        if isinstance(law, PipeLaw) else law for law in model.edge_laws),
        model.pressure_nodes)
    sol = solve_network(u, model)
    lent = solve_network(u, other, x0=sol)
    fresh = solve_network(u, other, x0=np.array(sol.unknowns))
    assert lent.iterations == fresh.iterations > 0
    assert lent.pressures.tobytes() == fresh.pressures.tobytes()


def test_reduced_newton_step_matches_with_a_pump_border():
    # the disrupted wds10 has two pumps, so the step's nodal system keeps
    # its pump rows and columns
    plant, u = disrupted_setup(load_scenario("wds10"))
    model = plant.model
    assert model._incidence.n_pipes < len(model._incidence.tail)
    x = solve_network(u, model).unknowns
    rng = np.random.default_rng(59)
    for state in (_cold_start(model, u),
                  x + rng.normal(scale=1.0 + np.abs(x), size=len(x))):
        _assert_reduced_step_matches(model, u, state)


def _tree_oracle(model, u):
    """Flows from conservation alone, pressures summed from the reference.

    On a pipe-only tree rooted at the single fixed-pressure node, each
    edge carries the injection of the subtree below it, and each pressure
    is its parent's minus the drop along the connecting pipe.
    """
    g = model.graph
    root = model.pressure_nodes[0]
    adj = adjacency_matrix(g)
    parent, order = {root: None}, [root]
    for v in order:
        for w in np.flatnonzero(adj[v]).tolist():
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


@pytest.mark.parametrize("n", [10, 50, 80, 200, 500, 1000])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("node", [0, 1])
def test_solve_from_a_non_finite_start_says_so(single_pipe, node):
    # a NaN source pressure or injection makes the starting residual NaN,
    # where no line search runs
    u = np.array([5.0, -100.0])
    u[node] = np.nan
    with pytest.raises(HydraulicInfeasibleError) as err:
        solve_network(u, single_pipe)
    assert str(err.value) == (
        "no hydraulic solution: the residual at the starting point is not "
        "finite (residual nan)")


def test_a_cold_solve_past_its_iteration_cap_says_so(monkeypatch):
    # wds10 solves cold at its start in 3 iterations
    scenario = load_scenario("wds10")
    monkeypatch.setattr(water, "MAX_HYDRAULIC_ITER", 1)
    with pytest.raises(HydraulicInfeasibleError, match=r"^no hydraulic "
                       r"solution: iteration cap 1 reached \(residual "):
        solve_network(np.asarray(scenario.u0, float), scenario.plant.model)


def test_a_loop_at_a_million_m3_per_hr_stops_at_a_stalled_line_search():
    # the triangle's pipes drop about 1e9 m, whose ulp, 1.2e-7, is far
    # above FLOW_TOL: the pipe rows cannot get below it, so the line
    # search stalls
    g = Graph(node_count=3, edges=((0, 1), (1, 2), (0, 2)))
    model = WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),) * 3,
                       pressure_nodes=(0,))
    with pytest.raises(HydraulicInfeasibleError) as err:
        solve_network(np.array([5.0, -1e6, -5e5]), model)
    m = re.fullmatch(r"no hydraulic solution: no step along the Newton "
                     r"direction lowers the residual at iteration (\d+) "
                     r"\(residual (\S+)\)", str(err.value))
    assert int(m[1]) < water.MAX_HYDRAULIC_ITER
    assert water.FLOW_TOL < float(m[2]) <= 4 * np.spacing(1e9)


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


def _start(model, kind):
    """x0 for [5, -100, 50] on test_pump_refuses_reverse_flow's line: the
    solution at a forward-pumping control, from which the solve must step
    onto the reversed root, or that root itself, where the pipe carries 50
    and the pump -50 (so no step is taken from it)."""
    if kind == "warm-steps":
        sol = solve_network(np.array([5.0, 0.0, -100.0]), model)
        assert sol.flows[1] > 0
        return sol
    return np.array([50.0, -50.0, 2.5, 12.5])


@pytest.mark.parametrize("kind", ["warm-steps", "array-root"])
def test_a_start_that_would_reverse_a_pump_is_refused(kind, monkeypatch):
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    model = WaterModel(graph=g,
                       edge_laws=(PipeLaw(coefficient=0.001),
                                  PumpLaw(gain=10.0)),
                       pressure_nodes=(0,))
    x0 = _start(model, kind)
    steps = []

    def counted(*args):
        steps.append(1)
        return _newton_step(*args)

    monkeypatch.setattr(water, "_newton_step", counted)
    with pytest.raises(PumpReverseFlowError) as err:
        solve_network(np.array([5.0, -100.0, 50.0]), model, x0=x0)
    assert str(err.value) == "pump 1->2 would carry reverse flow -50.000"
    assert bool(steps) == (kind == "warm-steps")


def test_a_solve_that_takes_no_newton_step_keeps_its_starts_terms():
    # 682 of wds10's warm solves take no Newton step: each returns the flow
    # terms of its start, which are read-only already, and every array
    # that a next solve starts from is read-only
    plant, controls = _wds10_run_controls()
    _, state = plant.solve_from(controls[0])
    kept = 0
    for u in controls[1:]:
        _, warm = plant.solve_from(u, state)
        for array in (warm.unknowns, *warm.flow_terms):
            assert not array.flags.writeable
        if warm.iterations == 0:
            kept += 1
            assert all(got is had for got, had in zip(warm.flow_terms,
                                                      state.flow_terms))
        state = warm
    assert kept == 682  # of 685 rounds


def test_disconnected_reference_rejected():
    g = Graph(node_count=3, edges=((0, 1),))
    with pytest.raises(ModelError, match=r"^nodes \[2\] cannot reach any "
                       "fixed-pressure node$"):
        WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                   pressure_nodes=(0,))


def _pipe_pair(**change):
    """A WaterModel of one pipe 0-1, node 0 fixed, with change applied."""
    model = dict(graph=Graph(node_count=2, edges=((0, 1),)),
                 edge_laws=(PipeLaw(coefficient=0.001),), pressure_nodes=(0,))
    return WaterModel(**{**model, **change})


@pytest.mark.parametrize("call, message", [
    (lambda: _pipe_pair(edge_laws=()),
     "edge laws must align with graph edges"),
    (lambda: _pipe_pair(pressure_nodes=(0, 0)),
     "duplicate fixed-pressure node"),
    (lambda: _pipe_pair(pressure_nodes=(5,)), "pressure node 5 outside node "
     "range"),
    (lambda: solve_network([5.0], _pipe_pair()),
     "control vector must hold one entry per node"),
    (lambda: solve_network([5.0, -10.0], _pipe_pair(), x0=np.zeros(3)),
     "start vector must hold the edge flows and the free pressures"),
    (lambda: WaterPlant(_pipe_pair(), [5.0], [5.0], [0.0], measured_nodes=[0]),
     "control limits must cover every node"),
], ids=["laws", "duplicate-fixed", "fixed-outside", "control-length",
        "start-length", "plant-limits"])
def test_water_rejects_bad_input(call, message):
    with pytest.raises(ModelError) as err:
        call()
    assert type(err.value) is ModelError and str(err.value) == message


def test_needs_pressure_reference():
    g = Graph(node_count=2, edges=((0, 1),))
    with pytest.raises(ModelError):
        WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                   pressure_nodes=())


@pytest.mark.parametrize("fixed", [(0.0,), (0.5,), (True,)])
def test_pressure_nodes_must_be_integers(fixed):
    g = Graph(node_count=2, edges=((0, 1),))
    with pytest.raises(ModelError, match="must be an integer"):
        WaterModel(graph=g, edge_laws=(PipeLaw(coefficient=0.001),),
                   pressure_nodes=fixed)


def test_water_plant_rejects_a_measured_node_outside_its_network(
        single_pipe):
    with pytest.raises(ModelError, match="outside"):
        WaterPlant(single_pipe, [5.0, -10.0], [5.0, -10.0], [0.0],
                   measured_nodes=[2])


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


def eager_flows(sol, model):
    """The canonical flows as every solve built them before they were
    built on first read: the law-order flows scattered to their edges."""
    net = model._incidence
    flows = np.zeros(len(model.graph.edges))
    flows[net.edges] = net.sign * sol.unknowns[:len(net.tail)]
    return flows


def test_flows_built_on_first_read_are_the_eager_expression():
    solutions = []
    for n in (2, 10, 40, 120):
        model, u = random_water_network(np.random.default_rng([19, n]), n)
        solutions.append((model, solve_network(u, model)))
    plant, controls = _wds10_run_controls()  # two pumps, warm solves
    state = None
    for u in controls[::50]:
        _, state = plant.solve_from(u, state)
        solutions.append((plant.model, state))
    for model, sol in solutions:
        expected = eager_flows(sol, model)
        flows = sol.flows
        assert flows.tobytes() == expected.tobytes()
        assert sol.flows is flows  # built once, then cached


@pytest.mark.parametrize("with_model, missing", [(False, "model"),
                                                 (True, "unknowns")],
                         ids=["without-model", "without-unknowns"])
def test_flows_of_a_hand_made_solution_names_what_it_lacks(
        single_pipe, with_model, missing):
    sol = solve_network(np.array([5.0, -100.0]), single_pipe)
    bare = water.HydraulicSolution(
        sol.pressures, model=single_pipe if with_model else None)
    with pytest.raises(ModelError) as err:
        bare.flows
    assert type(err.value) is ModelError and str(err.value) == (
        f"flows needs the {missing}: this solution was made without "
        f"{missing}=")


def test_flows_given_to_the_constructor_come_back_as_they_are(single_pipe):
    sol = solve_network(np.array([5.0, -100.0]), single_pipe)
    given = np.array([3.0])
    copy = water.HydraulicSolution(pressures=sol.pressures, flows=given,
                                   residual=sol.residual,
                                   iterations=sol.iterations,
                                   unknowns=sol.unknowns,
                                   flow_terms=sol.flow_terms)
    assert copy.flows is given
    assert copy.pressures is sol.pressures and copy.unknowns is sol.unknowns
    assert copy.flow_terms is sol.flow_terms
    assert (copy.residual, copy.iterations) == (sol.residual, sol.iterations)
