import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ripplesim import (Graph, GridModel, LinearPlant, ModelError,
                       PlantSolveError, disrupted_setup, feasibility_check,
                       load_scenario, max_effort_feasibility,
                       monotonicity_probe)
from ripplesim.plant import damped_newton, newton_failure
from ripplesim.power import GridPlant
from synth import random_monotone_linear_plant


def identity_plant(u_upper=2.0, y_lower=1.0):
    return LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                       u_upper=[u_upper], y_lower=[y_lower],
                       measured_nodes=[0])


@pytest.mark.parametrize("measured, text", [
    ([0, 0], "repeated"), ([2], "outside"), ([5], "outside"),
    ([-1], "outside"), ([0.0], "integer"), ([True], "integer")])
def test_measured_nodes_are_distinct_indices_of_controls(measured, text):
    m = len(measured)
    with pytest.raises(ModelError, match=text):
        LinearPlant(sensitivity=np.ones((m, 2)), offset=np.zeros(m),
                    u_lower=[0.0, 0.0], u_upper=[1.0, 1.0],
                    y_lower=np.zeros(m), measured_nodes=measured)


LINEAR = dict(sensitivity=[[1.0, 1.0]], offset=[0.0], u_lower=[0.0, 0.0],
              u_upper=[1.0, 1.0], y_lower=[0.5], measured_nodes=[0])


@pytest.mark.parametrize("change, message", [
    ({"sensitivity": [1.0, 1.0]}, "sensitivity must be a matrix"),
    ({"offset": [0.0, 0.0]}, "offset must hold one entry per measured node"),
    ({"sensitivity": [[1.0, np.nan]]}, "sensitivity must be finite"),
    ({"offset": [np.inf]}, "offset must be finite"),
    ({"u_lower": [-np.inf, 0.0]}, "u_lower must be finite"),
    ({"u_upper": [1.0, np.inf]}, "u_upper must be finite"),
    ({"y_lower": [np.nan]}, "y_lower must be finite"),
    ({"u_lower": [0.0]}, "control limit vectors disagree in shape"),
    ({"u_lower": [2.0, 0.0]}, "u_lower exceeds u_upper"),
    ({"y_lower": [0.5, 0.5]}, "y_lower must align with measured_nodes"),
], ids=["sensitivity-1d", "offset-length", "sensitivity-nan", "offset-inf",
        "u_lower-inf", "u_upper-inf", "y_lower-nan", "limit-shapes",
        "limit-order", "y_lower-length"])
def test_linear_plant_rejects_bad_arrays_when_made(change, message):
    with pytest.raises(ModelError) as err:
        LinearPlant(**{**LINEAR, **change})
    assert type(err.value) is ModelError and str(err.value) == message


def test_a_plant_keeps_read_only_copies_of_its_arrays():
    arrays = {key: np.array(LINEAR[key], dtype=float) for key in (
        "sensitivity", "offset", "u_lower", "u_upper", "y_lower")}
    plant = LinearPlant(**{**LINEAR, **arrays})
    for key, array in arrays.items():
        kept = getattr(plant, key).copy()
        array[...] = -5.0  # the caller's array, written after the plant
        assert_array_equal(getattr(plant, key), kept)
        with pytest.raises(ValueError, match="read-only"):
            getattr(plant, key)[...] = -5.0
    # a grid plant's limits as well: no write can put u_lower above u_upper
    upper = np.array([1.1, 0.0])
    grid = GridPlant(GridModel(Graph(2, ((0, 1),)), (10.0,), (0,), (1,)),
                     [1.0, -0.1], upper, [0.9])
    upper[0] = -5.0
    assert grid.u_upper.tolist() == [1.1, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        grid.u_lower[0] = 5.0


def test_a_plant_refuses_attribute_assignment_once_made():
    # replacing an array would skip the checks made on it, and a new
    # attribute would be state that no check covers
    grid = GridPlant(GridModel(Graph(2, ((0, 1),)), (10.0,), (0,), (1,)),
                     [1.0, -0.1], [1.1, 0.0], [0.9])
    water = disrupted_setup(load_scenario("wds10"))[0]
    for plant in (LinearPlant(**LINEAR), grid, water):
        for name in ("u_upper", "y_lower", "measured_nodes", "_measured",
                     "anything_new"):
            with pytest.raises(AttributeError) as err:
                setattr(plant, name, np.zeros(3))
            assert str(err.value) == (f"cannot set {name!r}: a plant is "
                                      "immutable")
    assert plant.u_upper.shape == (10,)


def test_feasibility_identity_cases():
    plant = identity_plant()
    assert feasibility_check(plant, [1.5])
    assert not feasibility_check(plant, [0.5])   # output below its floor
    assert not feasibility_check(plant, [2.5])   # control above its ceiling


def test_max_effort_identity():
    assert max_effort_feasibility(identity_plant(u_upper=2.0))
    assert not max_effort_feasibility(identity_plant(u_upper=0.5))


def test_max_effort_two_node_matrix():
    plant = LinearPlant(sensitivity=[[1.0, 1.0], [0.0, 1.0]], offset=[0, 0],
                        u_lower=[0, 0], u_upper=[0.5, 0.6],
                        y_lower=[1.0, 0.5], measured_nodes=[0, 1])
    # direct product: y(u_upper) = (1.1, 0.6) clears (1.0, 0.5)
    assert_allclose(plant.solve(plant.u_upper), [1.1, 0.6])
    assert max_effort_feasibility(plant)


def test_max_effort_agrees_with_feasibility_at_ceiling():
    rng = np.random.default_rng(5)
    for _ in range(25):
        plant, _ = random_monotone_linear_plant(rng, int(rng.integers(1, 6)))
        assert max_effort_feasibility(plant) == \
            feasibility_check(plant, plant.u_upper)


def test_feasibility_upward_closed_for_monotone_plants():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        plant, u0 = random_monotone_linear_plant(rng, int(rng.integers(1, 5)))
        if not max_effort_feasibility(plant):
            continue
        lo, hi = plant.u_lower, plant.u_upper
        u = lo + rng.random(len(lo)) * (hi - lo)
        if not feasibility_check(plant, u):
            continue
        up = u + rng.random(len(lo)) * (hi - u)
        assert feasibility_check(plant, up)
        checked += 1


def test_probe_identity():
    probe = monotonicity_probe(identity_plant(), np.array([1.0]))
    assert_allclose(probe.jacobian, [[1.0]], atol=1e-9)
    assert probe.monotone


def test_probe_flags_decreasing_plant():
    plant = LinearPlant(sensitivity=[[-1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2.0], y_lower=[-10.0], measured_nodes=[0])
    probe = monotonicity_probe(plant, np.array([1.0]))
    assert_allclose(probe.jacobian, [[-1.0]], atol=1e-9)
    assert not probe.monotone


def test_probe_matches_analytic_grid_jacobian():
    from ripplesim import dvl_dql, dvl_dvg, solve_load_voltages

    g = Graph(node_count=2, edges=((0, 1),))
    grid = GridModel(graph=g, susceptances=(10.0,), generators=(0,), loads=(1,))
    plant = GridPlant(grid=grid, u_lower=[1.0, -0.2], u_upper=[1.05, 0.0],
                      y_lower=[0.94])
    u0 = np.array([1.0, -0.1])
    probe = monotonicity_probe(plant, u0)
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), grid)
    analytic = np.zeros((1, 2))
    analytic[:, 0] = dvl_dvg(sol, grid)[0]
    analytic[:, 1] = dvl_dql(sol, grid)[0]
    rel = np.abs(probe.jacobian - analytic) / np.abs(analytic)
    assert rel.max() < 1e-5
    assert probe.monotone


def test_probe_order_preservation_property():
    # plants that pass the probe respond monotonically to ordered controls
    rng = np.random.default_rng(23)
    for _ in range(20):
        plant, _ = random_monotone_linear_plant(rng, int(rng.integers(1, 5)))
        mid = 0.5 * (plant.u_lower + plant.u_upper)
        assert monotonicity_probe(plant, mid).monotone
        u = plant.u_lower + rng.random(plant.control_dim) * \
            (plant.u_upper - plant.u_lower)
        up = u + rng.random(plant.control_dim) * (plant.u_upper - u)
        assert np.all(plant.solve(u) <= plant.solve(up) + 1e-6)


class ExplodingPlant(LinearPlant):
    def solve(self, u):
        from ripplesim.errors import SolverError
        raise SolverError("boom")


def test_solver_failure_carries_control():
    plant = ExplodingPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                           u_upper=[2.0], y_lower=[1.0], measured_nodes=[0])
    with pytest.raises(PlantSolveError) as err:
        feasibility_check(plant, [1.0])
    assert_allclose(err.value.control, [1.0])
    with pytest.raises(PlantSolveError) as err:
        monotonicity_probe(plant, np.array([1.0]))
    assert err.value.direction == 0


def _singular(k):
    return AssertionError(f"unexpected singular Jacobian at iteration {k}")


def test_damped_newton_stops_at_its_first_exhausted_line_search():
    # F(x) = x^2 + 1 has no root; its residual bottoms out at 1 (x = 0),
    # where no Newton step can lower it
    x, _, rnorm, iters = damped_newton(
        np.array([0.5]), lambda x: (x * x + 1.0, None),
        lambda x, r, _: np.linalg.solve(np.diag(2.0 * x), -r), _singular,
        tol=1e-8, max_iter=50)
    assert iters < 5
    assert 1.0 <= rnorm < 1.25  # lowered from the start's 1.25, not zero
    assert rnorm == float(x[0] ** 2 + 1.0)
    assert newton_failure(rnorm, iters, 50).startswith(
        f"no step along the Newton direction lowers the residual at "
        f"iteration {iters}")


def test_damped_newton_reports_the_iteration_cap():
    # F(x) = x - 1 with a Jacobian four times too steep: every full step
    # lowers the residual by a quarter, so only the cap stops the loop
    x, _, rnorm, iters = damped_newton(
        np.array([0.0]), lambda x: (x - 1.0, None),
        lambda x, r, _: np.linalg.solve(np.array([[4.0]]), -r), _singular,
        tol=1e-8, max_iter=5)
    assert iters == 5
    assert x[0] == 1.0 - 0.75 ** 5 and rnorm == 0.75 ** 5
    assert newton_failure(rnorm, iters, 5) == \
        f"iteration cap 5 reached (residual {0.75 ** 5:.3e})"


def test_damped_newton_takes_a_halved_step_past_a_nan_residual():
    # F(x) = x - 1 is undefined (NaN) beyond x = 1.5; a Jacobian of 1/2
    # makes the full step from 0 land on 2, so the half step must be taken
    def residual(x):
        return np.where(x > 1.5, np.nan, x - 1.0), None

    x, _, rnorm, iters = damped_newton(
        np.array([0.0]), residual,
        lambda x, r, _: np.linalg.solve(np.array([[0.5]]), -r),
        _singular, tol=1e-8, max_iter=50)
    assert (x[0], rnorm, iters) == (1.0, 0.0, 1)
