import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ripplesim import (Graph, GridModel, GridPlant, ModelError,
                       PowerFlowInfeasibleError, SingularJacobianError,
                       disrupted_setup, dvl_dql, dvl_dvg, load_scenario,
                       loadability_sweep, monotonicity_margin,
                       reactive_injections, run, solve_load_voltages,
                       weighted_laplacian)
from ripplesim.power import (MAX_NEWTON_ITER, SOLVER_TOL, PowerFlowSolution,
                             _gain_matrix)
from synth import random_grid


@pytest.fixture
def twobus():
    g = Graph(node_count=2, edges=((0, 1),))
    return GridModel(graph=g, susceptances=(10.0,), generators=(0,),
                     loads=(1,))


def twobus_voltage(q, b=10.0):
    """Closed-form high root of b*v*(v-1) = q."""
    disc = 1.0 + 4.0 * q / b
    assert disc >= 0
    return (1.0 + math.sqrt(disc)) / 2.0


def test_injections_vanish_at_flat_voltage():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        from synth import random_connected_graph
        g = random_connected_graph(rng, n)
        b = weighted_laplacian(g, rng.uniform(1, 30, len(g.edges)))
        assert_allclose(reactive_injections(np.ones(n), b), 0.0, atol=1e-12)


def test_injections_two_bus_direct_evaluation(twobus):
    v = np.array([1.0, 0.98995])
    q = reactive_injections(v, twobus.b_matrix)
    # q0 = 1*(10*1 - 10*0.98995), q1 = 0.98995*(-10 + 10*0.98995)
    assert_allclose(q, [0.1005, 0.98995 * (-0.1005)], atol=1e-12)


def test_injections_quadratic_scaling(twobus):
    rng = np.random.default_rng(4)
    v = rng.uniform(0.9, 1.1, size=2)
    for alpha in (0.5, 2.0, 3.7):
        assert_allclose(reactive_injections(alpha * v, twobus.b_matrix),
                        alpha ** 2 * reactive_injections(v, twobus.b_matrix),
                        rtol=1e-12)


def test_solve_flat_at_zero_injection(twobus):
    sol = solve_load_voltages(np.array([0.0]), np.array([1.0]), twobus)
    assert_allclose(sol.v_load, [1.0], atol=1e-12)
    assert_allclose(sol.q_gen, [0.0], atol=1e-12)


def test_solve_matches_quadratic_oracle(twobus):
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), twobus)
    assert abs(sol.v_load[0] - twobus_voltage(-0.1)) < 1e-8
    assert sol.residual <= 1e-8


def test_solve_infeasible_past_discriminant(twobus):
    # 10 v (v-1) = -2.6 has discriminant 1 - 4*0.26 < 0
    with pytest.raises(PowerFlowInfeasibleError):
        solve_load_voltages(np.array([-2.6]), np.array([1.0]), twobus)


STALL = "no step along the Newton direction lowers the residual"


@pytest.mark.parametrize("f", [1 - 1e-6, 0.999])
def test_solve_just_below_the_nose(twobus, f):
    # a load f * b * v_G^2 / 4 with f < 1 has the high root (1 + sqrt(1 - f)) / 2
    # (v_G = 1); near the nose G = b (2v - 1) is small, and a residual of at
    # most SOLVER_TOL leaves a voltage error of about SOLVER_TOL / G
    q = -f * 10.0 / 4
    sol = solve_load_voltages(np.array([q]), np.array([1.0]), twobus)
    v = twobus_voltage(q)
    assert abs(sol.v_load[0] - v) <= 2 * SOLVER_TOL / (10.0 * (2 * v - 1))


@pytest.mark.parametrize("f", [1.001, 1.01, 1.1])
def test_solve_past_the_nose_stops_at_a_stalled_line_search(twobus, f):
    # past the nose the lowest residual b v (v - 1) - q is the load beyond
    # the nose, (f - 1) b v_G^2 / 4, at v = v_G / 2
    with pytest.raises(PowerFlowInfeasibleError, match=STALL) as err:
        solve_load_voltages(np.array([-f * 10.0 / 4]), np.array([1.0]), twobus)
    m = re.search(r"at iteration (\d+) \(residual (\S+)\)", str(err.value))
    assert int(m[1]) < 20
    assert float(m[2]) == pytest.approx((f - 1) * 10.0 / 4, rel=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("q, v0, shown", [(np.nan, None, "nan"),
                                          (-0.1, np.inf, "inf")])
def test_solve_from_a_non_finite_start_says_so(twobus, q, v0, shown):
    # no step lowers a non-finite residual, so no line search stalled
    with pytest.raises(PowerFlowInfeasibleError) as err:
        solve_load_voltages(np.array([q]), np.array([1.0]), twobus,
                            v0=None if v0 is None else np.array([v0]))
    assert str(err.value) == (
        "no load-voltage solution: the residual at the starting point is "
        f"not finite (residual {shown})")


def test_every_solve_sweep_grid_failure_stops_at_a_stalled_line_search():
    # the grid population of perfbench's solve_sweep workload, at its
    # population and held-out seeds; a load-scale continuation finds a
    # voltage-collapse fold below full load on every grid that fails
    for seed, expected in ((2024, 24), (3, 18)):
        failures = 0
        for n in range(20, 201, 20):
            rng = np.random.default_rng([seed, 1, n])
            for _ in range(8):
                grid, q_load, v_gen = random_grid(rng, n)
                try:
                    solve_load_voltages(q_load, v_gen, grid)
                except PowerFlowInfeasibleError as exc:
                    m = re.search(STALL + r" at iteration (\d+)", str(exc))
                    assert m and int(m[1]) < MAX_NEWTON_ITER
                    failures += 1
        assert failures == expected


def test_residual_invariant_on_random_grids():
    rng = np.random.default_rng(6)
    solved = 0
    while solved < 20:
        grid, q, vg = random_grid(rng, int(rng.integers(2, 7)))
        try:
            sol = solve_load_voltages(q, vg, grid)
        except PowerFlowInfeasibleError:
            continue
        il = grid.b_lg @ vg + grid.b_ll @ sol.v_load
        assert np.max(np.abs(sol.v_load * il - q)) <= 1e-8
        assert np.all(sol.v_load > 0)
        solved += 1


def test_jacobian_two_bus_flat(twobus):
    sol = solve_load_voltages(np.array([0.0]), np.array([1.0]), twobus)
    assert_allclose(dvl_dql(sol, twobus), [[0.1]], atol=1e-12)
    assert_allclose(dvl_dvg(sol, twobus), [[1.0]], atol=1e-10)


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


def test_jacobians_match_finite_differences(twobus):
    q, vg = np.array([-0.1]), np.array([1.0])
    sol = solve_load_voltages(q, vg, twobus)
    fd_ql, fd_vg = finite_difference_jacobians(twobus, q, vg)
    assert np.abs(dvl_dql(sol, twobus) - fd_ql).max() / np.abs(fd_ql).max() < 1e-5
    assert np.abs(dvl_dvg(sol, twobus) - fd_vg).max() / np.abs(fd_vg).max() < 1e-5


def test_margin_two_bus_values(twobus):
    flat = solve_load_voltages(np.array([0.0]), np.array([1.0]), twobus)
    assert_allclose(monotonicity_margin(flat, twobus), 10.0, atol=1e-12)
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), twobus)
    v = twobus_voltage(-0.1)
    assert_allclose(monotonicity_margin(sol, twobus), 10.0 - 0.1 / v ** 2,
                    rtol=1e-10)


def test_margin_decreases_toward_boundary(twobus):
    scales = np.linspace(1.0, 24.0, 12)
    margins = []
    for s in scales:
        sol = solve_load_voltages(np.array([-0.1 * s]), np.array([1.0]), twobus)
        margins.append(monotonicity_margin(sol, twobus))
        # closed form: margin = 10 + q / v^2 with v the high quadratic root
        v = twobus_voltage(-0.1 * s)
        assert_allclose(margins[-1], 10.0 - 0.1 * s / v ** 2, rtol=1e-8)
    assert np.all(np.diff(margins) < 0)


def test_positive_margin_certifies_nonnegative_jacobians():
    rng = np.random.default_rng(13)
    solved = 0
    while solved < 15:
        grid, q, vg = random_grid(rng, 4)
        try:
            sol = solve_load_voltages(q, vg, grid)
        except PowerFlowInfeasibleError:
            continue
        if monotonicity_margin(sol, grid) > 0:
            assert dvl_dql(sol, grid).min() >= -1e-10
            assert dvl_dvg(sol, grid).min() >= -1e-10
            solved += 1


def test_single_control_increase_never_lowers_voltages():
    rng = np.random.default_rng(19)
    solved = 0
    while solved < 15:
        grid, q, vg = random_grid(rng, int(rng.integers(2, 6)))
        try:
            base = solve_load_voltages(q, vg, grid).v_load
        except PowerFlowInfeasibleError:
            continue
        k = int(rng.integers(0, len(q) + len(vg)))
        q2, vg2 = q.copy(), vg.copy()
        if k < len(q):
            q2[k] += 0.02
        else:
            vg2[k - len(q)] += 0.02
        try:
            bumped = solve_load_voltages(q2, vg2, grid).v_load
        except PowerFlowInfeasibleError:
            continue
        assert np.all(bumped >= base - 1e-9)
        solved += 1


def test_loadability_sweep_two_bus(twobus):
    # boundary of 10 v(v-1) = -0.1 s at s* = 25
    scales = [1.0, 5.0, 15.0, 24.0, 24.9, 25.1, 26.0, 30.0]
    points = loadability_sweep(twobus, np.array([-0.1]), np.array([1.0]),
                               scales)
    for pt in points:
        if abs(pt.scale - 25.0) > 1e-6:
            assert pt.solved == (pt.scale < 25.0)
        if pt.solved:
            assert pt.margin > 0
    margins = [pt.margin for pt in points if pt.solved]
    assert np.all(np.diff(margins) < 0)


def test_loadability_sweep_single_scale(twobus):
    points = loadability_sweep(twobus, np.array([-0.1]), np.array([1.0]),
                               [1.0])
    assert len(points) == 1 and points[0].solved


def test_grid_model_validation():
    g = Graph(node_count=2, edges=((0, 1),))
    with pytest.raises(ModelError):
        GridModel(graph=g, susceptances=(10.0,), generators=(0, 1), loads=(1,))
    with pytest.raises(ModelError):
        GridModel(graph=g, susceptances=(10.0,), generators=(), loads=(0, 1))
    with pytest.raises(ModelError):
        GridModel(graph=g, susceptances=(-1.0,), generators=(0,), loads=(1,))


def _singular_point():
    """A twobus solution whose G = i_L + v_L * b_LL is 0: singular."""
    return PowerFlowSolution(np.array([0.5]), i_load=np.array([-5.0]))


# each call takes the twobus grid
@pytest.mark.parametrize("call, error, message", [
    (lambda _: GridModel(Graph(3, ((0, 1), (1, 2))), (1.0, 1.0), (0,), (1,)),
     ModelError, "bus partition must cover the whole graph"),
    (lambda _: GridModel(Graph(3, ((0, 1),)), (1.0,), (0,), (1, 2)),
     ModelError, "buses [2] cannot reach any generator bus"),
    (lambda grid: GridPlant(grid, [1.0], [1.1], [0.9]),
     ModelError, "control limits must cover every bus"),
    (lambda grid: solve_load_voltages([0.0, 0.0], [1.0], grid),
     ModelError, "injection/voltage vectors disagree with partition"),
    (lambda grid: solve_load_voltages([0.0], [0.0], grid),
     ModelError, "generator voltages must be positive"),
    # q = 20 has the roots 2 and -1; the iteration from -1.5 finds -1
    (lambda grid: solve_load_voltages([20.0], [1.0], grid, v0=[-1.5]),
     PowerFlowInfeasibleError, "converged to non-physical voltages"),
    (lambda grid: dvl_dql(_singular_point(), grid),
     SingularJacobianError, "sensitivity matrix G is singular"),
    (lambda grid: dvl_dvg(_singular_point(), grid),
     SingularJacobianError, "sensitivity matrix G is singular"),
], ids=["partition", "unreachable-bus", "plant-limits", "solve-shapes",
        "generator-voltage", "non-physical", "dvl-dql", "dvl-dvg"])
def test_grid_rejects_bad_input(twobus, call, error, message):
    with pytest.raises(error) as err:
        call(twobus)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("generators, loads", [
    ((0.7,), (1,)), ((True,), (0,)), ((0,), (1.0,)), ((0,), (np.True_,))])
def test_grid_model_rejects_buses_that_are_not_integers(generators, loads):
    g = Graph(node_count=2, edges=((0, 1),))
    with pytest.raises(ModelError, match="must be an integer"):
        GridModel(g, (1.0,), generators=generators, loads=loads)


@pytest.mark.parametrize("n", [5, 50, 200])
def test_gain_matrix_matches_the_dense_product_bit_for_bit(n):
    # the reference is the dense form diag(i) + diag(v) @ B_LL; the row
    # scaling must give the same bits, and so must both sensitivities
    rng = np.random.default_rng([7, n])
    grid, q_load, v_gen = random_grid(rng, n)
    i_gen = grid.b_lg @ v_gen
    points = [rng.uniform(0.9, 1.1, size=len(grid.loads))]
    try:
        points.append(solve_load_voltages(q_load, v_gen, grid).v_load)
    except PowerFlowInfeasibleError:
        pass
    for v in points:
        i = i_gen + grid.b_ll @ v
        reference = np.diag(i) + np.diag(v) @ grid.b_ll
        g = _gain_matrix(v, i, grid.b_ll)
        assert g.tobytes() == reference.tobytes()
        sol = PowerFlowSolution(v_load=v, q_gen=np.zeros(len(v_gen)),
                                i_load=i, iterations=0, residual=0.0)
        assert dvl_dql(sol, grid).tobytes() == \
            np.linalg.inv(reference).tobytes()
        assert dvl_dvg(sol, grid).tobytes() == np.linalg.solve(
            reference, -np.diag(v) @ grid.b_lg).tobytes()


@pytest.mark.parametrize("n", [2, 5, 12, 40, 100])
def test_q_gen_built_on_first_read_is_the_eager_expression(n):
    rng = np.random.default_rng([19, n])
    solved = 0
    for _ in range(3):
        grid, q_load, v_gen = random_grid(rng, n)
        try:
            sol = solve_load_voltages(q_load, v_gen, grid)
        except PowerFlowInfeasibleError:
            continue
        solved += 1
        eager = v_gen * (grid.b_gg.dot(v_gen) + grid.b_lg.T.dot(sol.v_load))
        v_gen[:] = np.nan  # the solution keeps its own copy of v_gen
        q_gen = sol.q_gen
        assert q_gen.tobytes() == eager.tobytes()
        assert sol.q_gen is q_gen  # built once, then cached
    assert solved >= 2


def test_a_q_gen_given_to_the_constructor_comes_back_as_it_is(twobus):
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), twobus)
    given = np.array([7.0])
    copy = PowerFlowSolution(v_load=sol.v_load, q_gen=given,
                             i_load=sol.i_load, iterations=sol.iterations,
                             residual=sol.residual)
    assert copy.q_gen is given
    assert copy.v_load is sol.v_load and copy.i_load is sol.i_load
    assert (copy.iterations, copy.residual) == (sol.iterations, sol.residual)


@pytest.mark.parametrize("name", ["pjm5", "twobus"])
def test_a_grid_plants_state_is_its_solution_and_starts_the_next_solve(name):
    plant, u0 = disrupted_setup(load_scenario(name))
    grid = plant.grid
    _, state = plant.solve_from(u0)
    assert isinstance(state, PowerFlowSolution)
    assert state.iterations >= 1 and state.residual <= SOLVER_TOL
    u1 = u0 + 0.3 * (plant.u_upper - plant.u_lower)
    y, warm = plant.solve_from(u1, state)
    want = solve_load_voltages(u1[list(grid.loads)],
                               u1[list(grid.generators)], grid,
                               v0=state.v_load)
    assert y is warm.v_load
    for got, expected in ((warm.v_load, want.v_load),
                          (warm.i_load, want.i_load),
                          (warm.q_gen, want.q_gen)):
        assert got.tobytes() == expected.tobytes()
    assert (warm.iterations, warm.residual) == (want.iterations,
                                                want.residual)
    assert warm.iterations >= 1 and warm.residual <= SOLVER_TOL


def test_a_warm_grid_solve_reuses_its_start_bit_for_bit():
    # the chain of warm plant solves of a pjm5 run against the same chain
    # solved from each previous v_load array: the same bytes. A start that
    # solved this grid at the same generator voltages lends its B_LG v_G
    # and i_load; pjm5 moves a generator voltage in 3 of its 1,342 rounds
    outcome, trace = run(load_scenario("pjm5"))
    plant = outcome.plant
    loads, gens = list(plant.grid.loads), list(plant.grid.generators)
    _, state = plant.solve_from(outcome.u0)
    reused = 0
    for u in trace.u[:-1]:
        _, warm = plant.solve_from(u, state)
        want = solve_load_voltages(u[loads], u[gens], plant.grid,
                                   v0=state.v_load)
        for got, expected in ((warm.v_load, want.v_load),
                              (warm.i_load, want.i_load),
                              (warm.q_gen, want.q_gen)):
            assert got.tobytes() == expected.tobytes()
        assert (warm.iterations, warm.residual) == (want.iterations,
                                                    want.residual)
        reused += warm._i_gen is state._i_gen
        state = warm
    assert reused == len(trace.u) - 1 - 3
