import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ripplesim import (Graph, GridModel, GridPlant, ModelError,
                       PowerFlowInfeasibleError, SingularJacobianError,
                       disrupted_setup, load_scenario, loadability_sweep,
                       reactive_injections, run, solve_load_voltages,
                       weighted_laplacian)
from ripplesim.power import (MAX_NEWTON_ITER, SOLVER_TOL, PowerFlowSolution,
                             _gain_matrix)
from synth import finite_difference_jacobians, random_grid


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


def split_jacobian(sol, grid):
    """(dv_L/dq_L, dv_L/dv_G): the load and generator columns of the
    solution's bus-ordered jacobian."""
    jac = sol.jacobian
    return jac[:, list(grid.loads)], jac[:, list(grid.generators)]


def test_jacobian_two_bus_flat(twobus):
    sol = solve_load_voltages(np.array([0.0]), np.array([1.0]), twobus)
    dql, dvg = split_jacobian(sol, twobus)
    assert_allclose(dql, [[0.1]], atol=1e-12)
    assert_allclose(dvg, [[1.0]], atol=1e-10)


def test_jacobians_match_finite_differences(twobus):
    q, vg = np.array([-0.1]), np.array([1.0])
    sol = solve_load_voltages(q, vg, twobus)
    fd_ql, fd_vg = finite_difference_jacobians(twobus, q, vg)
    a_ql, a_vg = split_jacobian(sol, twobus)
    assert np.abs(a_ql - fd_ql).max() / np.abs(fd_ql).max() < 1e-5
    assert np.abs(a_vg - fd_vg).max() / np.abs(fd_vg).max() < 1e-5


def test_margin_two_bus_values(twobus):
    flat = solve_load_voltages(np.array([0.0]), np.array([1.0]), twobus)
    assert_allclose(flat.monotonicity_margin, 10.0, atol=1e-12)
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), twobus)
    v = twobus_voltage(-0.1)
    assert_allclose(sol.monotonicity_margin, 10.0 - 0.1 / v ** 2,
                    rtol=1e-10)


def test_margin_decreases_toward_boundary(twobus):
    scales = np.linspace(1.0, 24.0, 12)
    margins = []
    for s in scales:
        sol = solve_load_voltages(np.array([-0.1 * s]), np.array([1.0]), twobus)
        margins.append(sol.monotonicity_margin)
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
        if sol.monotonicity_margin > 0:
            assert sol.jacobian.min() >= -1e-10
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


def _singular_point(grid, solved=None):
    """A twobus solution whose G = i_L + v_L * b_LL is 0: singular (and
    made without a grid when grid is None). Given solved, a solution of
    that grid, it carries solved's record (v_gen and i_gen) and no
    inverse, so a solve at those generator voltages reuses it."""
    record = {} if solved is None else {"v_gen": solved._v_gen,
                                        "i_gen": solved._i_gen}
    return PowerFlowSolution(np.array([0.5]), i_load=np.array([-5.0]),
                             grid=grid, **record)


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
    (lambda grid: GridPlant(grid, [0.0, 0.0], [1.1, 0.0], [0.9]),
     ModelError, "generator voltage limits must be positive"),
    (lambda grid: _singular_point(grid).jacobian,
     SingularJacobianError, "sensitivity matrix G is singular"),
    (lambda grid: solve_load_voltages([0.0], [1.0], grid, v0=np.ones(2)),
     ModelError, "start vector must hold one voltage per load bus"),
    (lambda grid: solve_load_voltages([0.0], [1.0], grid,
                                      v0=np.ones((1, 1))),
     ModelError, "start vector must hold one voltage per load bus"),
    (lambda _: _singular_point(None).jacobian,
     ModelError, "jacobian needs the grid: this solution was made without "
                 "grid="),
    (lambda _: _singular_point(None).monotonicity_margin,
     ModelError, "monotonicity_margin needs the grid: this solution was "
                 "made without grid="),
    (lambda _: _singular_point(None).q_gen,
     ModelError, "q_gen needs the grid: this solution was made without "
                 "grid="),
    # the chord step needs G^-1 at a reused start that carries none
    (lambda grid: solve_load_voltages([0.0], [1.0], grid, v0=_singular_point(
        grid, solve_load_voltages([0.0], [1.0], grid))),
     SingularJacobianError, "singular iteration matrix at iteration 0"),
], ids=["partition", "unreachable-bus", "plant-limits", "solve-shapes",
        "generator-voltage", "non-physical", "generator-limit", "jacobian",
        "start-length", "start-shape", "jacobian-without-grid",
        "margin-without-grid", "q-gen-without-grid", "chord-singular"])
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
    # scaling must give the same bits, and so must the jacobian
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
                                i_load=i, iterations=0, residual=0.0,
                                grid=grid)
        rhs = np.hstack((np.eye(len(v)), -v[:, None] * grid.b_lg))
        order = np.argsort(grid.loads + grid.generators)
        assert sol.jacobian.tobytes() == \
            np.linalg.solve(reference, rhs)[:, order].tobytes()


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


@pytest.mark.parametrize("record", [(), ("v_gen",), ("i_gen",)],
                         ids=["bare", "v-gen", "i-gen"])
def test_a_solution_without_its_solves_record_starts_like_its_v_load(
        twobus, record):
    # only the i_gen a solve leaves, with its v_gen, makes a solution a
    # reused start; one made by hand from v_load, i_load and the grid (and
    # one of the two) starts exactly as its v_load array does
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), twobus)
    start = PowerFlowSolution(
        sol.v_load, i_load=sol.i_load, grid=twobus,
        **{name: getattr(sol, "_" + name) for name in record})
    q_load, v_gen = np.array([-0.2]), np.array([1.0])
    got = solve_load_voltages(q_load, v_gen, twobus, v0=start)
    want = solve_load_voltages(q_load, v_gen, twobus, v0=sol.v_load)
    for a, b in ((got.v_load, want.v_load), (got.i_load, want.i_load),
                 (got.q_gen, want.q_gen)):
        assert a.tobytes() == b.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)
    assert got._g_inv is None
    if "v_gen" not in record:
        with pytest.raises(ModelError) as err:
            start.q_gen
        assert type(err.value) is ModelError and str(err.value) == (
            "q_gen needs the v_gen: this solution was made without v_gen=")


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


def chord_point(state, q_load, grid):
    """The chord step from state, a warm start of this grid at its v_gen,
    recomputed: (v, i_load, residual, G^-1), where G^-1 is the inverse the
    state carries or, when it carries none, the inverse at its own point."""
    g_inv = state._g_inv
    if g_inv is None:
        g_inv = np.linalg.inv(_gain_matrix(state.v_load, state.i_load,
                                           grid.b_ll))
    v = state.v_load - g_inv.dot(state.v_load * state.i_load - q_load)
    i_load = state._i_gen + grid.b_ll.dot(v)
    return v, i_load, float(np.abs(v * i_load - q_load).max()), g_inv


def test_a_warm_grid_solve_reuses_its_start_bit_for_bit():
    # the chain of warm plant solves of a pjm5 run against the chord point
    # recomputed from each previous state where it meets the tolerance, and
    # against the Newton solve from the previous v_load array where it does
    # not: the same bytes. A start that solved this grid at the same
    # generator voltages lends its B_LG v_G, i_load and Newton-matrix
    # inverse; pjm5 moves a generator voltage in 3 of its 1,342 rounds
    outcome, trace = run(load_scenario("pjm5"))
    plant = outcome.plant
    grid = plant.grid
    loads, gens = list(grid.loads), list(grid.generators)
    _, state = plant.solve_from(outcome.u0)
    reused = chords = 0
    for u in trace.u[:-1]:
        _, warm = plant.solve_from(u, state)
        want = solve_load_voltages(u[loads], u[gens], grid, v0=state.v_load)
        g_inv = None
        if warm._i_gen is state._i_gen:
            reused += 1
            v, i_load, residual, g_inv = chord_point(state, u[loads], grid)
            if residual <= SOLVER_TOL and v.min() > 0.0:
                chords += 1
                want = PowerFlowSolution(v, None, i_load, 1, residual,
                                         v_gen=u[gens], grid=grid)
            else:
                g_inv = None
        for got, expected in ((warm.v_load, want.v_load),
                              (warm.i_load, want.i_load),
                              (warm.q_gen, want.q_gen)):
            assert got.tobytes() == expected.tobytes()
        assert (warm.iterations, warm.residual) == (want.iterations,
                                                    want.residual)
        assert (warm._g_inv is None) == (g_inv is None)
        if g_inv is not None:
            assert warm._g_inv.tobytes() == g_inv.tobytes()
        state = warm
    assert reused == len(trace.u) - 1 - 3
    assert 1_000 < chords < reused  # both kinds of step are exercised


def test_a_warm_solve_tests_only_generator_voltages_no_start_has():
    # a start of this grid at the same generator-voltage bytes lends its
    # v_gen array, read-only, and the positivity test its own solve made;
    # a non-positive or NaN voltage matches no start, so along pjm5's chain
    # it meets today's check and words
    outcome, trace = run(load_scenario("pjm5"))
    plant = outcome.plant
    grid = plant.grid
    loads, gens = list(grid.loads), list(grid.generators)
    refused = (
        (0.0, ModelError, "generator voltages must be positive"),
        (-1.0, ModelError, "generator voltages must be positive"),
        (np.nan, PowerFlowInfeasibleError, "no load-voltage solution: the "
         "residual at the starting point is not finite (residual nan)"))
    _, state = plant.solve_from(outcome.u0)
    reused = 0
    for k, u in enumerate(trace.u[:-1]):
        for bad, error, words in refused:
            v_gen = u[gens]
            v_gen[k % len(gens)] = bad
            with pytest.raises(error) as err:
                solve_load_voltages(u[loads], v_gen, grid, v0=state)
            assert type(err.value) is error and str(err.value) == words
        _, warm = plant.solve_from(u, state)
        assert not warm._v_gen.flags.writeable
        if warm._i_gen is state._i_gen:
            reused += 1
            assert warm._v_gen is state._v_gen
        state = warm
    assert reused == len(trace.u) - 1 - 3


def counted(monkeypatch, name):
    """Count the calls to np.linalg.<name>, which still does its work."""
    calls, wrapped = [], getattr(np.linalg, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def pjm5_warm_chain(*moves):
    """pjm5's disrupted plant solved cold at its u0, then warm after each
    move of the injection at its first load bus: (plant, u, last state)."""
    plant, u = disrupted_setup(load_scenario("pjm5"))
    _, state = plant.solve_from(u)
    for move in moves:
        u = u.copy()
        u[plant.grid.loads[0]] += move
        _, state = plant.solve_from(u, state)
    return plant, u, state


def test_a_chord_step_that_meets_the_tolerance_solves_nothing(monkeypatch):
    plant, u, state = pjm5_warm_chain(1e-4)
    assert state.iterations == 1 and state._g_inv is not None
    u[plant.grid.loads[0]] += 1e-4
    solves, inverses = (counted(monkeypatch, "solve"),
                        counted(monkeypatch, "inv"))
    _, warm = plant.solve_from(u, state)
    assert solves == inverses == []
    q_load = u[list(plant.grid.loads)]
    r0 = state.v_load * state.i_load - q_load
    assert warm.v_load.tobytes() == (
        state.v_load - state._g_inv.dot(r0)).tobytes()
    assert warm.iterations == 1 and warm.residual <= SOLVER_TOL
    assert warm._g_inv is state._g_inv


@pytest.mark.parametrize("carried", [False, True])
def test_a_chord_step_that_misses_the_tolerance_runs_newton(monkeypatch,
                                                           carried):
    # the start carries an inverse or computes one; the chord point misses
    # the tolerance, so the solve is the Newton solve from that start
    plant, u, state = pjm5_warm_chain(*[1e-4] * carried)
    assert (state._g_inv is not None) == carried
    grid = plant.grid
    u[grid.loads[0]] += 0.05
    q_load, v_gen = u[list(grid.loads)], u[list(grid.generators)]
    assert chord_point(state, q_load, grid)[2] > SOLVER_TOL
    inverses = counted(monkeypatch, "inv")
    _, warm = plant.solve_from(u, state)
    assert len(inverses) == 1 - carried
    want = solve_load_voltages(q_load, v_gen, grid, v0=state.v_load)
    for got, expected in ((warm.v_load, want.v_load),
                          (warm.i_load, want.i_load)):
        assert got.tobytes() == expected.tobytes()
    assert (warm.iterations, warm.residual) == (want.iterations,
                                                want.residual)
    assert warm.iterations >= 1 and warm._g_inv is None


@pytest.mark.parametrize("moves", [(), (1e-4,)], ids=["newton", "chord"])
def test_an_edited_reading_cannot_change_the_next_warm_solve(moves):
    # the reading that solve_from returns is its state's v_load, which the
    # next warm solve starts from: an edit in place must fail, not move it
    plant, u, state = pjm5_warm_chain(*moves)
    assert (state.iterations == 1) == (state._g_inv is not None) == bool(moves)
    bumped = u.copy()
    bumped[list(plant.grid.loads)] += 0.001
    want = plant.solve_from(bumped, state)[1]
    y = plant.solve_from(u, state)[0]
    for array in (y, state.v_load, state.i_load):
        with pytest.raises(ValueError, match="read-only"):
            array += 0.05
    got = plant.solve_from(bumped, state)[1]
    assert got.v_load.tobytes() == want.v_load.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


def test_cold_and_array_started_solves_compute_no_inverse(monkeypatch):
    plant, u, state = pjm5_warm_chain(1e-4)
    grid = plant.grid
    q_load, v_gen = u[list(grid.loads)], u[list(grid.generators)]
    inverses = counted(monkeypatch, "inv")
    for v0 in (None, state.v_load, np.ones(len(grid.loads))):
        sol = solve_load_voltages(q_load + 0.01, v_gen, grid, v0=v0)
        assert sol.iterations >= 1 and sol._g_inv is None
    assert inverses == []


def test_a_chord_point_at_negative_voltages_is_not_the_solution(twobus):
    # a start at the high root for q = 1.9 carries an inverse that steps
    # onto the low root for q = 2, which meets the tolerance but is not
    # physical; the solve is the Newton solve from that start instead
    start = solve_load_voltages(np.array([1.9]), np.array([1.0]), twobus)
    v_low = (1.0 - math.sqrt(1.0 + 4.0 * 2.0 / 10.0)) / 2.0
    r0 = start.v_load * start.i_load - 2.0
    carried = PowerFlowSolution(
        start.v_load, None, start.i_load, v_gen=start._v_gen, grid=twobus,
        i_gen=start._i_gen, g_inv=((start.v_load - v_low) / r0)[:, None])
    v, _, residual, _ = chord_point(carried, 2.0, twobus)
    assert residual <= SOLVER_TOL and v[0] < 0.0
    sol = solve_load_voltages(np.array([2.0]), np.array([1.0]), twobus,
                              v0=carried)
    want = solve_load_voltages(np.array([2.0]), np.array([1.0]), twobus,
                               v0=start.v_load)
    assert sol.v_load.tobytes() == want.v_load.tobytes()
    assert sol.v_load[0] == pytest.approx(twobus_voltage(2.0), abs=1e-12)
    assert sol.iterations == want.iterations >= 1 and sol._g_inv is None


@pytest.mark.parametrize("q, shown", [(np.nan, "nan"), (np.inf, "inf")])
def test_no_chord_step_is_taken_from_a_non_finite_start(monkeypatch, q,
                                                         shown):
    plant, u, state = pjm5_warm_chain()
    u[plant.grid.loads[0]] = q
    inverses, solves = counted(monkeypatch, "inv"), counted(monkeypatch,
                                                            "solve")
    with pytest.raises(PowerFlowInfeasibleError) as err:
        plant.solve_from(u, state)
    assert str(err.value) == (
        "no load-voltage solution: the residual at the starting point is "
        f"not finite (residual {shown})")
    assert inverses == solves == []


def test_a_pjm5_run_with_chord_steps_ends_where_the_newton_run_does():
    class Newton(GridPlant):
        """Starts every warm solve from the previous load voltages as an
        array, so no solve takes a chord step or carries an inverse."""

        def solve_from(self, u, start=None):
            return super().solve_from(u, None if start is None
                                      else start.v_load)

    chord = scenario = load_scenario("pjm5")
    plant = scenario.plant
    newton = replace(chord, plant=Newton(plant.grid, plant.u_lower,
                                         plant.u_upper, plant.y_lower))
    (chord_outcome, chord_trace), (newton_outcome, newton_trace) = (
        run(chord), run(newton))
    assert (chord_outcome.status, chord_outcome.rounds) == (
        newton_outcome.status, newton_outcome.rounds) == ("converged", 1342)
    assert sum(chord_trace.messages.tolist()) == sum(
        newton_trace.messages.tolist()) == 9286
    assert np.abs(chord_outcome.u - newton_outcome.u).max() <= \
        scenario.eps_eq / 100
