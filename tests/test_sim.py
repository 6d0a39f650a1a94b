import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ripplesim import (DisruptionEvent, GridModel, GridPlant, Graph,
                       HydraulicSolution, LinearPlant, ModelError, PipeLaw,
                       PlantModel, ProtocolGains, PumpLaw, Scenario,
                       ScenarioError, SolverError, Trace, TraceRecord,
                       WaterModel, WaterPlant, adjacency_matrix,
                       disrupted_setup, load_scenario, message_stats,
                       protocol_round, run, solve_load_voltages,
                       solve_network, verify_trace)
from ripplesim.cli import main


def cascade_scenario(u_upper=(0.5, 1.0)):
    plant = LinearPlant(sensitivity=[[1.0, 1.0]], offset=[0.0],
                        u_lower=[0.0, 0.0], u_upper=list(u_upper),
                        y_lower=[1.0], measured_nodes=[0])
    graph = Graph(node_count=2, edges=((0, 1),))
    gains = ProtocolGains(eta1=np.ones(2), eta2=np.full(2, 0.5),
                          eta3=np.ones(2))
    return Scenario(plant=plant, comm_graph=graph, u0=np.zeros(2),
                    gains=gains)


def test_verify_trace_reports_each_broken_invariant():
    # path 0-1-2 with ceilings 1: agents 0 and 1 have a deficit, agent 1
    # saturates in round 2 and beacons to its two neighbors, so agent 2
    # (no deficit) rises in round 3; each case breaks the trace one way
    graph = Graph(node_count=3, edges=((0, 1), (1, 2)))
    u_upper, u0 = np.ones(3), np.zeros(3)

    def trace(u3=(0.6, 1.0, 0.1), b3=(0.0, 0.1, 0.0), m3=2,
              b2=(0.0, 0.2, 0.0), m2=2, rounds=(1, 2, 3)):
        return Trace(rounds=rounds, u=[(0.2, 0.5, 0.0), (0.5, 1.0, 0.0), u3],
                     y=np.zeros((3, 1)), deficit=[(1.0, 1.0, 0.0)] * 3,
                     beacons=[(0.0, 0.0, 0.0), b2, b3], messages=(0, m2, m3))

    assert verify_trace(trace(), graph, u_upper, u0) == []
    cases = [
        (trace(u3=(0.4, 1.0, 0.1)), "round 3: control decreased"),
        (trace(u3=(0.6, 1.0, 1.5)), "round 3: control exceeds its ceiling"),
        (trace(b3=(0.0, 0.1, -0.1)), "round 3: negative beacon"),
        (trace(b3=(0.3, 0.1, 0.0), m3=3),
         "round 3: beacon at unsaturated agent 0"),
        (trace(m3=5), "round 3: 5 messages, expected 2"),
        # agent 1 is saturated but silent in round 2, so nothing pushes
        # agent 2 up in round 3; every other invariant still holds
        (trace(b2=(0.0, 0.0, 0.0), m2=0),
         "round 3: control 2 rose without a deficit or a neighbor's beacon"),
    ]
    for records, problem in cases:
        assert verify_trace(records, graph, u_upper, u0) == [problem]
    # locality compares only records of consecutive rounds
    assert verify_trace(trace(b2=(0.0, 0.0, 0.0), m2=0, rounds=(1, 2, 4)),
                        graph, u_upper, u0) == []


def test_trace_rejects_columns_whose_rows_or_widths_disagree():
    def columns(**change):
        cols = dict(rounds=[1, 2], u=np.zeros((2, 3)), y=np.zeros((2, 1)),
                    deficit=np.zeros((2, 3)), beacons=np.zeros((2, 3)),
                    messages=[0, 0])
        return {**cols, **change}

    assert len(Trace(**columns())) == 2
    assert len(Trace(**columns(y=np.zeros((2, 0))))) == 2
    for change in (dict(u=np.zeros((3, 3))), dict(y=np.zeros((1, 1))),
                   dict(messages=[0]), dict(rounds=[1, 2, 3]),
                   dict(deficit=np.zeros((2, 2))),
                   dict(beacons=np.zeros((2, 4))), dict(u=np.zeros(6)),
                   dict(rounds=[[1, 2]]), dict(rounds=1),
                   # integer columns are not truncated from floats or bools
                   dict(rounds=[1.5, 2.7]), dict(messages=[0.0, 1.0]),
                   dict(rounds=[True, False]),
                   # rows of lengths 2, 1 and 3 would fill a 3 x 2 array
                   # if the widths were not checked
                   dict(rounds=[1, 2, 3], y=np.zeros((3, 1)),
                        messages=[0, 0, 0],
                        u=[np.zeros(k) for k in (2, 1, 3)])):
        with pytest.raises(ValueError):
            Trace(**columns(**change))


def assert_rows_match_columns(trace):
    """trace[i] and iteration agree with the columns."""
    assert len(list(trace)) == len(trace) == len(trace.rounds)
    for i, record in enumerate(trace):
        for row in (record, trace[i], trace[i - len(trace)]):
            assert type(row) is TraceRecord
            assert (row.round, row.messages) == (trace.rounds[i],
                                                 trace.messages[i])
            assert {type(row.round), type(row.messages)} == {int}
            for name in ("u", "y", "deficit", "beacons"):
                assert_array_equal(getattr(row, name),
                                   getattr(trace, name)[i])
    with pytest.raises(IndexError):
        trace[len(trace)]


@pytest.mark.parametrize("case", ["full", "decimated", "empty"])
def test_trace_rows_match_its_columns(case, tmp_path):
    # a full and a decimated pjm5 trace, and the empty trace of a solver
    # failure in round 1, through the audit, the message count and the CLI
    scenario = load_scenario("pjm5")
    if case == "decimated":
        scenario.trace_decimation = 7
    if case == "empty":
        scenario = cascade_scenario()
        scenario.plant.offset = np.array([np.nan])
    outcome, trace = run(scenario)
    assert_rows_match_columns(trace)
    plant, u0 = disrupted_setup(scenario)
    assert verify_trace(trace, scenario.comm_graph, plant.u_upper, u0) == []
    if case == "empty":
        assert len(trace) == 0
        assert trace.u.shape == (0, 2) and trace.y.shape == (0, 1)
        with pytest.raises(ValueError, match="empty trace"):
            message_stats(trace, scenario.comm_graph, u0)
        return
    assert trace.rounds.tolist() == (list(range(1, 1343)) if case == "full"
                                     else [1, *range(7, 1343, 7), 1342])
    stats = message_stats(trace, scenario.comm_graph, u0)
    assert stats.total == sum(r.messages for r in trace)
    args = ["simulate", "pjm5", "--output-dir", str(tmp_path)]
    if case == "decimated":
        args += ["--decimate", "7"]
    main(args)
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert lines == [",".join(map(repr, [r.round, *r.u.tolist(), *r.y.tolist(),
                                         *r.deficit.tolist(),
                                         *r.beacons.tolist(), r.messages]))
                     for r in trace]


def small_water_plant():
    g = Graph(node_count=3, edges=((0, 1), (1, 2)))
    model = WaterModel(graph=g,
                       edge_laws=(PumpLaw(gain=10.0),
                                  PipeLaw(coefficient=0.001)),
                       pressure_nodes=(0,))
    return WaterPlant(model=model, u_lower=[0.0, 0.0, -150.0],
                      u_upper=[5.0, 0.0, -50.0], y_lower=[2.0],
                      measured_nodes=(2,))


def test_run_single_agent_identity():
    plant = LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2.0], y_lower=[1.0], measured_nodes=[0])
    scenario = Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                        u0=np.zeros(1),
                        gains=ProtocolGains(eta1=[0.5], eta2=[1.0],
                                            eta3=[1.0]))
    outcome, records = run(scenario)
    assert outcome.status == "converged"
    assert abs(records[-1].u[0] - 1.0) <= 1e-6
    assert all(r.messages == 0 for r in records)


def test_run_cascade_messages_follow_beacons():
    scenario = cascade_scenario()
    outcome, records = run(scenario)
    assert outcome.status == "converged"
    final_y = scenario.plant.solve(records[-1].u)
    assert final_y[0] >= 1.0 - 1e-9
    for r in records:
        assert (r.messages > 0) == (r.beacons[0] > 0)
    assert verify_trace(records, scenario.comm_graph,
                        scenario.plant.u_upper, scenario.u0) == []


def test_run_infeasible_stalls_at_ceiling():
    scenario = cascade_scenario(u_upper=(0.3, 0.4))
    outcome, records = run(scenario)
    assert outcome.status == "stalled"
    assert_allclose(records[-1].u, [0.3, 0.4])
    assert outcome.max_violation > scenario.eps_feas
    assert not outcome.feasible


def test_run_feasible_start_is_zero_change():
    scenario = cascade_scenario(u_upper=(1.0, 1.0))
    scenario.u0 = np.array([0.6, 0.6])
    outcome, records = run(scenario)
    assert outcome.status == "converged"
    assert outcome.rounds == 1
    assert records[-1].messages == 0
    assert_array_equal(records[-1].u, scenario.u0)


def test_run_rejects_bad_gain_condition():
    scenario = cascade_scenario()
    scenario.gains = ProtocolGains(eta1=np.ones(2), eta2=np.ones(2),
                                   eta3=np.ones(2))
    with pytest.raises(ScenarioError):
        run(scenario)
    scenario.override_gain_check = True
    outcome, _ = run(scenario)  # still settles on this tiny example
    assert outcome.status in ("converged", "stalled")


def test_run_rejects_disconnected_comm():
    scenario = cascade_scenario()
    scenario.comm_graph = Graph(node_count=2, edges=())
    with pytest.raises(ScenarioError):
        run(scenario)


def test_run_rejects_out_of_box_start():
    scenario = cascade_scenario()
    scenario.u0 = np.array([0.9, 0.0])  # above the agent-0 ceiling
    with pytest.raises(ScenarioError):
        run(scenario)


def test_run_deterministic_traces():
    a = run(cascade_scenario())
    b = run(cascade_scenario())
    assert a[0] == b[0]
    assert len(a[1]) == len(b[1])
    for ra, rb in zip(a[1], b[1]):
        assert_array_equal(ra.u, rb.u)
        assert_array_equal(ra.beacons, rb.beacons)
        assert ra.messages == rb.messages


def test_trace_decimation_keeps_last_round():
    scenario = cascade_scenario()
    scenario.trace_decimation = 7
    outcome, records = run(scenario)
    full_outcome, full_records = run(cascade_scenario())
    assert outcome == full_outcome
    assert records[-1].round == full_records[-1].round
    assert {r.round for r in records} <= \
        {1, full_records[-1].round} | {r.round for r in full_records
                                       if r.round % 7 == 0}
    # the round the run stops in is kept whichever rule stops it: the
    # stall window (rule 5, round 103), a budget of 20 (rule 6) and the
    # eps_eq test with every control pinned (rule 3, round 28)
    budget = cascade_scenario(u_upper=(0.3, 0.4))
    budget.budget = 20
    for scenario, status, rounds in (
            (expanding_stall(), "stalled", 103),
            (budget, "budget_exceeded", 20),
            (cascade_scenario(u_upper=(0.3, 0.4)), "stalled", 28)):
        scenario.trace_decimation = 7
        outcome, records = run(scenario)
        assert (outcome.status, outcome.rounds) == (status, rounds)
        assert records[-1].round == outcome.rounds
        assert records.rounds.tolist() == [1, *range(7, rounds, 7), rounds]


@pytest.mark.parametrize("knob", ["budget", "stall_window",
                                  "trace_decimation"])
@pytest.mark.parametrize("value", [0, -2, 2.5, True])
def test_run_rejects_run_knobs_below_one(knob, value):
    scenario = cascade_scenario()
    setattr(scenario, knob, value)
    with pytest.raises(ScenarioError, match=knob):
        run(scenario)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_controls_end_the_run_as_a_solver_failure():
    # a floor of 1e308 makes eta1 * deficit overflow, so the controls turn
    # NaN; both solvers must refuse a NaN residual instead of returning
    # their start (the warm state) as a reading
    scenario = load_scenario("wds10")
    plant, u0 = disrupted_setup(scenario)
    y_lower = plant.y_lower.copy()
    y_lower[0] = 1e308
    scenario.plant = WaterPlant(model=scenario.plant.model,
                                u_lower=scenario.plant.u_lower,
                                u_upper=scenario.plant.u_upper,
                                y_lower=y_lower,
                                measured_nodes=scenario.plant.measured_nodes)
    outcome, records = run(scenario)
    assert (outcome.status, outcome.rounds) == ("solver_failure", 3)
    assert "residual nan" in outcome.detail
    grid = load_scenario("pjm5").plant
    with pytest.raises(SolverError, match="residual nan"):
        solve_load_voltages([np.nan] * len(grid.grid.loads),
                            [1.0] * len(grid.grid.generators), grid.grid)
    u0[1] = np.nan
    with pytest.raises(SolverError, match="residual nan"):
        solve_network(u0, plant.model)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowed_controls_are_named_in_the_failure_detail():
    # a floor of 1e308 makes eta1 * deficit overflow in round 1; the inf
    # beacon turns agent 0's control NaN in round 2 (0 * inf in A @ beacons)
    # and the plant solve of round 3 fails on it
    scenario = cascade_scenario()
    scenario.plant.y_lower = np.array([1e308])
    scenario.gains = ProtocolGains(eta1=np.full(2, 10.0),
                                   eta2=np.full(2, 0.5), eta3=np.ones(2))
    outcome, records = run(scenario)
    assert (outcome.status, outcome.rounds) == ("solver_failure", 3)
    assert outcome.detail == (
        "controls are not finite: the protocol update of round 2 overflowed "
        "(a gain times a deficit or a beacon); round 3: plant output is not "
        "finite")
    assert np.isnan(records[-1].u[0])
    # the same on the bundled water scenario, whose solver names the NaN
    scenario = load_scenario("wds10")
    plant, _ = disrupted_setup(scenario)
    y_lower = plant.y_lower.copy()
    y_lower[0] = 1e308
    scenario.plant = WaterPlant(model=scenario.plant.model,
                                u_lower=scenario.plant.u_lower,
                                u_upper=scenario.plant.u_upper,
                                y_lower=y_lower,
                                measured_nodes=scenario.plant.measured_nodes)
    outcome, _ = run(scenario)
    assert outcome.detail.startswith(
        "controls are not finite: the protocol update of round 2 overflowed")
    assert outcome.detail.endswith("(residual nan)")


class FlakyLinear(LinearPlant):
    """An affine plant whose solve fails once agent 1 rises above 0.2."""

    def solve(self, u):
        if u[1] > 0.2:
            raise SolverError("synthetic failure")
        return super().solve(u)


def test_a_failure_at_finite_controls_blames_the_plant_alone():
    scenario = cascade_scenario()
    scenario.plant = FlakyLinear(sensitivity=[[1.0, 1.0]], offset=[0.0],
                                 u_lower=[0.0, 0.0], u_upper=[0.5, 1.0],
                                 y_lower=[1.0], measured_nodes=[0])
    outcome, _ = run(scenario)
    assert outcome.status == "solver_failure"
    assert outcome.detail == "synthetic failure"


def test_message_stats_zero_trace():
    scenario = cascade_scenario(u_upper=(1.0, 1.0))
    scenario.u0 = np.array([0.6, 0.6])
    _, records = run(scenario)
    stats = message_stats(records, scenario.comm_graph, scenario.u0)
    assert stats.total == 0
    assert stats.first_beacon == {}
    assert stats.first_assistance == {}


def test_message_stats_cascade_activation():
    scenario = cascade_scenario()
    _, records = run(scenario)
    stats = message_stats(records, scenario.comm_graph, scenario.u0)
    assert stats.first_beacon[0] == 1
    assert stats.first_assistance[1] == 1
    assert stats.first_change[1] == 2          # strictly after the beacon
    assert stats.total == sum(r.messages for r in records)
    # cumulative count equals summed degrees of beaconing agents
    degree = adjacency_matrix(scenario.comm_graph).sum(axis=1)
    expect = sum(degree[r.beacons > 0].sum() for r in records)
    assert stats.total == expect


def test_run_rejects_a_disruption_that_cuts_off_every_fixed_pressure():
    # the pump (0, 1) is the only path from node 2 to the reference node 0
    event = DisruptionEvent(kind="remove_edge", params={"edge": (0, 1)})
    with pytest.raises(ScenarioError):
        run(Scenario(plant=small_water_plant(),
                     comm_graph=Graph(node_count=3,
                                      edges=((0, 1), (1, 2))),
                     u0=np.array([5.0, 0.0, -100.0]),
                     gains=ProtocolGains(eta1=np.ones(3),
                                         eta2=np.full(3, 0.3),
                                         eta3=np.ones(3)),
                     disruptions=(event,)))


def small_grid_plant():
    grid = GridModel(graph=Graph(node_count=3,
                                 edges=((0, 1), (0, 2), (1, 2))),
                     susceptances=(10.0, 8.0, 5.0), generators=(0,),
                     loads=(1, 2))
    return GridPlant(grid=grid, u_lower=[1.0, -0.5, -0.4],
                     u_upper=[1.1, -0.4, -0.3], y_lower=[0.94, 0.94])


def two_source_water_plant():
    # small_water_plant with a second fixed-pressure node 3 behind node 2
    g = Graph(node_count=4, edges=((0, 1), (1, 2), (2, 3)))
    model = WaterModel(graph=g,
                       edge_laws=(PumpLaw(gain=10.0),
                                  PipeLaw(coefficient=0.001),
                                  PipeLaw(coefficient=0.002)),
                       pressure_nodes=(0, 3))
    return WaterPlant(model=model, u_lower=[0.0, 0.0, -150.0, 4.0],
                      u_upper=[5.0, 0.0, -50.0, 6.0], y_lower=[2.0],
                      measured_nodes=(2,))


class BarePlant(PlantModel):
    u_lower = u_upper = np.zeros(1)
    y_lower, measured_nodes = np.zeros(0), ()

    def solve(self, u):
        return np.zeros(0)


def _event(kind, **params):
    return DisruptionEvent(kind=kind, params=params)


DISRUPTIONS = {  # case: (plant, event, result predicate or error text)
    "linear-offset": (
        cascade_scenario().plant, _event("parameter_change", offset=[0.5]),
        lambda d: d.offset.tolist() == [0.5]
        and d.sensitivity.tolist() == [[1.0, 1.0]]),
    "linear-offset-wrong-length": (
        cascade_scenario().plant, _event("parameter_change", offset=[1, 2]),
        "replacement offset has the wrong length"),
    "linear-unsupported": (
        cascade_scenario().plant, _event("remove_edge", edge=(0, 1)),
        "unsupported linear-plant disruption 'remove_edge'"),
    "grid-remove-line": (
        small_grid_plant(), _event("remove_edge", edge=(2, 0)),
        lambda d: d.grid.graph.edges == ((0, 1), (1, 2))
        and d.grid.susceptances == (10.0, 5.0)),
    "grid-susceptance": (
        small_grid_plant(),
        _event("parameter_change", edge=(0, 2), susceptance=7.0),
        lambda d: d.grid.graph == small_grid_plant().grid.graph
        and d.grid.susceptances == (10.0, 7.0, 5.0)),
    "grid-susceptance-missing": (
        small_grid_plant(), _event("parameter_change", edge=(0, 2)),
        "grid parameter_change needs 'edge' and 'susceptance'"),
    "grid-demand-at-generator": (
        small_grid_plant(), _event("demand_change", node=0, scale=2.0),
        "bus 0 is not a load bus"),
    "grid-missing-edge": (
        small_grid_plant(), _event("remove_edge", edge=(1, 1)),
        "edge (1, 1) does not exist in the plant graph"),
    "grid-unsupported": (
        small_grid_plant(), _event("source_outage", node=1),
        "unsupported grid disruption 'source_outage'"),
    "water-remove-pump": (
        small_water_plant(), _event("remove_edge", edge=(1, 0)),
        lambda d: d.model.graph.edges == ((1, 2),)
        and d.model.edge_laws == (PipeLaw(coefficient=0.001),)),
    "water-remove-pipe": (
        small_water_plant(), _event("remove_edge", edge=(1, 2)),
        lambda d: d.model.graph.edges == ((0, 1),)
        and d.model.edge_laws == (PumpLaw(gain=10.0),)),
    "water-missing-edge": (
        small_water_plant(), _event("remove_edge", edge=(0, 2)),
        "edge (0, 2) does not exist in the plant graph"),
    "water-outage-pressure-node": (
        two_source_water_plant(), _event("source_outage", node=3),
        lambda d: d.model.pressure_nodes == (0,)
        and d.u_lower[3] == d.u_upper[3] == 0.0),
    "water-outage-demand-node": (
        small_water_plant(), _event("source_outage", node=2),
        lambda d: d.model.pressure_nodes == (0,)
        and d.u_lower[2] == d.u_upper[2] == 0.0),
    "water-demand-set": (  # the width of the box carries over
        small_water_plant(), _event("demand_change", node=2, set=-120.0),
        lambda d: d.u_lower[2] == -120.0 and d.u_upper[2] == -20.0),
    "water-demand-scale": (
        small_water_plant(),
        _event("demand_change", node=2, scale=1.5, flexibility=10.0),
        lambda d: d.u_lower[2] == -225.0 and d.u_upper[2] == -215.0),
    "water-demand-without-base": (
        small_water_plant(), _event("demand_change", node=2, flexibility=1.0),
        "demand_change needs 'set' or 'scale'"),
    "water-unsupported": (
        small_water_plant(), _event("parameter_change", offset=[0.0]),
        "unsupported water disruption 'parameter_change'"),
    "bare-plant": (
        BarePlant(), _event("remove_edge", edge=(0, 1)),
        "no disruption support for BarePlant"),
}


@pytest.mark.parametrize("case", DISRUPTIONS)
def test_plant_disrupted(case):
    plant, event, expect = DISRUPTIONS[case]
    before = {k: np.copy(v) if isinstance(v, np.ndarray) else v
              for k, v in vars(plant).items()}
    if isinstance(expect, str):
        with pytest.raises(ScenarioError) as err:
            plant.disrupted(event)
        assert str(err.value) == expect
    else:
        disrupted = plant.disrupted(event)
        assert type(disrupted) is type(plant)
        assert expect(disrupted)
    # the input plant is left untouched
    assert vars(plant).keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, np.ndarray):
            assert_array_equal(vars(plant)[key], value)
        else:
            assert vars(plant)[key] == value


def test_disrupted_setup_moves_initial_control():
    plant = small_water_plant()
    scenario = Scenario(plant=plant,
                        comm_graph=Graph(node_count=3,
                                         edges=((0, 1), (1, 2))),
                        u0=np.array([5.0, 0.0, -100.0]),
                        disruptions=(DisruptionEvent(
                            kind="demand_change",
                            params={"node": 2, "set": -140.0}),))
    disrupted, u0 = disrupted_setup(scenario)
    assert u0[2] == -140.0
    assert scenario.u0[2] == -100.0  # scenario itself untouched


def test_outcome_carries_the_disrupted_plant_and_its_start():
    scenario = load_scenario("wds10")
    outcome, _ = run(scenario)
    plant, u0 = disrupted_setup(scenario)
    assert outcome.plant.model.pressure_nodes == plant.model.pressure_nodes
    assert outcome.plant.model.graph == plant.model.graph
    assert_array_equal(outcome.plant.u_upper, plant.u_upper)
    assert_array_equal(outcome.u0, u0)
    # neither takes part in comparisons
    assert outcome == replace(outcome, plant=None, u0=None)


def test_disruption_that_leaves_an_invalid_plant_is_a_scenario_error():
    scenario = load_scenario("wds10")
    scenario.disruptions += (DisruptionEvent("source_outage", {"node": 0}),)
    with pytest.raises(ScenarioError,
                       match="disruption left an invalid plant: at least "
                             "one fixed-pressure node is required"):
        disrupted_setup(scenario)


@pytest.mark.parametrize("kind, params, index", [
    ("demand_change", {"node": 1.9, "scale": 2.0}, "node must be an "
                                                   "integer, got 1.9"),
    ("source_outage", {"node": True}, "node must be an integer, got True"),
    ("source_outage", {"node": 0.7}, "node must be an integer, got 0.7"),
    ("remove_edge", {"edge": (True, 4)}, "edge end must be an integer, "
                                         "got True"),
], ids=["float-node", "bool-node", "fraction-node", "bool-edge-end"])
def test_disruption_indices_must_be_integers(kind, params, index):
    # truncated, these would rebase node 1 of wds10, pin node 1, cut off
    # its only fixed-pressure node 0 and remove its edge (1, 4)
    scenario = load_scenario("wds10")
    with pytest.raises(ModelError, match=f"^disruption {index}$"):
        scenario.disruptions += (DisruptionEvent(kind, params),)
        disrupted_setup(scenario)


def test_noop_disruption_keeps_behavior():
    plant = small_water_plant()
    event = DisruptionEvent(kind="demand_change",
                            params={"node": 2, "set": -100.0,
                                    "flexibility": 50.0})
    disrupted = plant.disrupted(event)
    u = np.array([5.0, 0.0, -80.0])
    assert_allclose(disrupted.solve(u), plant.solve(u))


def test_solver_failure_outcome_preserves_partial_trace():
    class FlakyPlant(LinearPlant):
        def solve(self, u):
            from ripplesim.errors import SolverError
            if u[0] > 0.2:
                raise SolverError("synthetic failure")
            return super().solve(u)

    plant = FlakyPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                       u_upper=[2.0], y_lower=[1.0], measured_nodes=[0])
    scenario = Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                        u0=np.zeros(1),
                        gains=ProtocolGains(eta1=[0.5], eta2=[1.0],
                                            eta3=[1.0]))
    outcome, records = run(scenario)
    assert outcome.status == "solver_failure"
    assert "synthetic failure" in outcome.detail
    assert len(records) >= 1


def test_run_rejects_overflowing_gains_quickly():
    scenario = cascade_scenario()
    scenario.gains = ProtocolGains(eta1=np.ones(2), eta2=np.full(2, 1e308),
                                   eta3=np.full(2, 1e308))
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError):
        run(scenario)
    assert time.perf_counter() - t0 < 0.1


def test_non_finite_plant_output_is_solver_failure():
    scenario = cascade_scenario()
    scenario.plant.offset = np.array([np.nan])
    outcome, records = run(scenario)
    assert outcome.status == "solver_failure"
    assert outcome.rounds == 1
    assert "round 1" in outcome.detail
    assert len(records) == 0


def test_one_non_finite_output_is_solver_failure():
    plant = LinearPlant(sensitivity=np.eye(2), offset=[0.0, np.inf],
                        u_lower=[0.0, 0.0], u_upper=[1.0, 1.0],
                        y_lower=[0.5, 0.5], measured_nodes=[0, 1])
    outcome, records = run(Scenario(
        plant=plant, comm_graph=Graph(node_count=2, edges=((0, 1),)),
        u0=np.zeros(2), gains=ProtocolGains(eta1=np.ones(2),
                                            eta2=np.full(2, 0.5),
                                            eta3=np.ones(2))))
    assert (outcome.status, outcome.rounds) == ("solver_failure", 1)
    assert outcome.detail == "round 1: plant output is not finite"
    assert len(records) == 0


@pytest.mark.parametrize("name, status, rounds, n_records, messages", [
    ("pjm5", "converged", 1342, 1342, 9286),
    ("wds10", "converged", 685, 685, 13003),
    ("twobus", "converged", 1, 1, 0),
    ("linear_cascade", "converged", 5, 5, 3),
])
def test_bundled_runs_are_pinned(name, status, rounds, n_records, messages):
    outcome, records = run(load_scenario(name))
    assert (outcome.status, outcome.rounds) == (status, rounds)
    assert len(records) == n_records
    assert sum(r.messages for r in records) == messages


def single_agent(eta1=0.5, **knobs):
    """One agent with y = u, a floor of 1 and a ceiling of 2, from u0 = 0."""
    plant = LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2.0], y_lower=[1.0], measured_nodes=[0])
    return Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                    u0=np.zeros(1),
                    gains=ProtocolGains(eta1=[eta1], eta2=[1.0], eta3=[1.0]),
                    **knobs)


def stop(scenario):
    outcome, records = run(scenario)
    return (outcome.status, outcome.rounds, outcome.equilibrium), records


def exact_fixed_point():
    plant = LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2e6], y_lower=[1e6 + 1e-3],
                        measured_nodes=[0])
    return Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                    u0=np.array([1e6]),
                    gains=ProtocolGains(eta1=[1e-9], eta2=[1.0], eta3=[1.0]))


def expanding_stall():
    scenario = cascade_scenario(u_upper=(0.3, 0.4))
    scenario.gains = ProtocolGains(eta1=np.ones(2), eta2=np.full(2, 2.0),
                                   eta3=np.ones(2))
    scenario.override_gain_check = True
    return scenario


def test_stop_at_exact_fixed_point():
    # the step eta1 * deficit is below half an ulp of u = 1e6, so nothing
    # moves although the deficit (1e-3) stays above eps_feas
    scenario = exact_fixed_point()
    result, records = stop(scenario)
    assert result == ("stalled", 1, True)
    assert_array_equal(records[-1].u, scenario.u0)
    assert records[-1].deficit[0] > scenario.eps_feas


def test_stop_at_eps_eq_with_the_deficit_cleared():
    # u_t = 1 - 2^-t: the deficit 2^-(t-1) is below eps_feas = 1e-6 from
    # round 21, but the step 2^-t stays above eps_eq = 1e-8 until round 27
    result, records = stop(single_agent())
    assert result == ("converged", 27, True)
    assert records[-1].u[0] == 1.0 - 2.0 ** -27
    assert records[-2].u[0] != records[-1].u[0]


def test_stop_at_eps_eq_with_every_control_pinned():
    # both ceilings are too low; once pinned, the beacons contract toward
    # (0.4, 0.2) and stop moving by more than eps_eq before they stop
    # moving at all, while the deficit stays at 0.3
    scenario = cascade_scenario(u_upper=(0.3, 0.4))
    result, records = stop(scenario)
    assert result == ("stalled", 28, True)
    assert_array_equal(records[-1].u, [0.3, 0.4])
    assert not np.array_equal(records[-1].beacons, records[-2].beacons)
    assert_allclose(records[-1].beacons, [0.4, 0.2], atol=1e-8)
    assert records[-1].deficit[0] > scenario.eps_feas


def test_stop_at_the_stall_window():
    # eta2 = 2 makes the beacon relay expand (gain norm 2, hence the
    # override): beacons grow without end at a pinned state whose deficit
    # is 0.3 from round 3 on, so the frozen count reaches 100 in round 103
    result, records = stop(expanding_stall())
    assert result == ("stalled", 103, False)
    assert records[-1].beacons[0] > records[-2].beacons[0] > 1e20


def test_stop_at_the_budget():
    result, records = stop(single_agent(budget=5))
    assert result == ("budget_exceeded", 5, False)
    assert len(records) == 5


def test_crawl_below_eps_eq_keeps_running():
    # every step (at most eta1 = 0.005) is below eps_eq = 1e-2, but the
    # agent is neither pinned nor clear of its deficit 0.995^(t-1) until
    # that deficit drops below eps_feas
    scenario = single_agent(eta1=0.005, eps_eq=1e-2)
    result, records = stop(scenario)
    rounds = 1 + math.ceil(math.log(scenario.eps_feas) / math.log(0.995))
    assert rounds == 2758
    assert result == ("converged", rounds, True)
    assert records[-2].deficit[0] > scenario.eps_feas


def degree_sums(records, graph):
    """The summed overlay degree of each record's beaconing agents."""
    degree = adjacency_matrix(graph).sum(axis=1)
    return [int(degree[r.beacons > 0].sum()) for r in records]


def message_exit_cases():
    budget = cascade_scenario(u_upper=(0.3, 0.4))
    budget.budget = 6
    flaky = cascade_scenario()
    flaky.plant = FlakyLinear(sensitivity=[[1.0, 1.0]], offset=[0.0],
                              u_lower=[0.0, 0.0], u_upper=[0.5, 1.0],
                              y_lower=[1.0], measured_nodes=[0])
    decimated = load_scenario("pjm5")
    decimated.trace_decimation = 3
    return [("converged", load_scenario("linear_cascade")),
            ("stalled", cascade_scenario(u_upper=(0.3, 0.4))),
            ("stalled", expanding_stall()),
            ("budget_exceeded", budget),
            ("solver_failure", flaky),
            ("converged", decimated)]


@pytest.mark.parametrize("status, scenario", message_exit_cases())
def test_record_messages_are_the_degrees_of_the_beaconing_agents(status,
                                                                  scenario):
    outcome, records = run(scenario)
    assert outcome.status == status
    assert any(r.messages for r in records)
    assert [r.messages for r in records] == degree_sums(records,
                                                        scenario.comm_graph)
    assert {type(r.messages) for r in records} == {int}


def nan_after_round(monkeypatch, field, at):
    """Put a NaN in entry 0 of the u_next, beacons_next or deficit (field
    "u", "beacons" or "deficit") of round `at` of the next run."""
    calls = []

    def poisoned(u, beacons, y, *rest):
        deficit, u_next, beacons_next = protocol_round(u, beacons, y, *rest)
        calls.append(None)
        if len(calls) == at:
            {"u": u_next, "beacons": beacons_next,
             "deficit": deficit}[field][0] = np.nan
        return deficit, u_next, beacons_next

    monkeypatch.setattr("ripplesim.sim.protocol_round", poisoned)


# each scenario stops by one rule in rule_round (rules 2, 3, 4 and 5 in
# turn, see the test_stop_* tests)
NAN_CASES = [
    (exact_fixed_point, 1, "u"),
    (exact_fixed_point, 1, "beacons"),
    (partial(cascade_scenario, u_upper=(0.3, 0.4)), 28, "u"),
    (partial(cascade_scenario, u_upper=(0.3, 0.4)), 28, "beacons"),
    (single_agent, 27, "u"),
    (single_agent, 27, "beacons"),
    (single_agent, 27, "deficit"),
    (expanding_stall, 103, "u"),
    (expanding_stall, 103, "deficit"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("make, rule_round, field", NAN_CASES)
def test_a_nan_passes_no_stopping_rule(monkeypatch, make, rule_round, field):
    # a NaN in any array the stopping rule reads must keep it from firing
    # in that round
    assert run(make())[0].rounds == rule_round
    nan_after_round(monkeypatch, field, rule_round)
    outcome, records = run(make())
    assert outcome.rounds > rule_round
    assert np.isnan(getattr(records[rule_round - 1], field)[0])


@pytest.mark.parametrize("field, value", [
    ("u0", np.array([np.nan, 0.0])),
    ("u_lower", np.array([-np.inf, 0.0])),
    ("u_upper", np.array([0.5, np.inf])),
    ("y_lower", np.array([np.nan])),
    ("eps_eq", np.nan),
    ("eps_eq", -1.0),
    ("eps_feas", np.inf),
    ("eps_feas", 0.0),
    ("eps_eq", True),
    ("eps_feas", True),
])
def test_run_rejects_non_finite_run_numbers(field, value):
    scenario = cascade_scenario()
    owner = scenario.plant if field in ("u_lower", "u_upper", "y_lower") \
        else scenario
    setattr(owner, field, value)
    with pytest.raises(ScenarioError, match=field if field.startswith("eps")
                       else "finite"):
        run(scenario)


def tight_cold_reading(plant, u):
    """The plant reading at u, solved from the flat start to a tolerance
    far below the solvers' own."""
    if isinstance(plant, GridPlant):
        grid = plant.grid
        return solve_load_voltages(u[list(grid.loads)],
                                   u[list(grid.generators)], grid,
                                   tol=1e-13).v_load
    sol = solve_network(u, plant.model, tol=1e-12)
    return sol.pressures[list(plant.measured_nodes)]


@pytest.mark.parametrize("name", ["pjm5", "wds10"])
def test_warm_started_readings_match_a_tight_cold_solve(name):
    scenario = load_scenario(name)
    plant, u_prev = disrupted_setup(scenario)
    _, records = run(scenario)
    # record t holds the reading at the control before its own update
    for r in records:
        assert_allclose(r.y, tight_cold_reading(plant, u_prev),
                        rtol=0, atol=1e-9)
        u_prev = r.u


def state_bytes(state):
    """The bytes of every array a plant's solve state carries: a grid's
    load voltages, or a water solution's pressures, flows, unknowns and
    flow terms."""
    if isinstance(state, HydraulicSolution):
        return [a.tobytes() for a in (state.pressures, state.flows,
                                      state.unknowns, *state.flow_terms[:3])]
    return [state.tobytes()]


@pytest.mark.parametrize("name", ["pjm5", "wds10"])
def test_warm_start_at_the_solution_reproduces_the_cold_reading(name):
    plant, u0 = disrupted_setup(load_scenario(name))
    u1 = u0 + 0.01 * (plant.u_upper - plant.u_lower)
    for u in (u0, u1):
        y, state = plant.solve_from(u)
        assert y.tobytes() == plant.solve(u).tobytes()
        y_warm, state_warm = plant.solve_from(u, state)
        assert y_warm.tobytes() == y.tobytes()
        assert state_bytes(state_warm) == state_bytes(state)


def test_failed_warm_start_falls_back_to_the_cold_solve():
    scenario = load_scenario("pjm5")
    plant, u0 = disrupted_setup(scenario)
    _, v_load = plant.solve_from(u0)
    with pytest.raises(SolverError):
        plant.solve_from(u0, -v_load)

    class Misled(GridPlant):
        """Hands every warm solve negative load voltages as its start."""

        def solve_from(self, u, start=None):
            y, state = super().solve_from(u, start)
            return y, -state

    misled = Misled(plant.grid, plant.u_lower, plant.u_upper, plant.y_lower)
    outcome, records = run(Scenario(
        plant=misled, comm_graph=scenario.comm_graph, u0=u0,
        gains=scenario.gains, budget=40))
    assert (outcome.status, outcome.rounds) == ("budget_exceeded", 40)
    u_prev = u0
    for r in records:
        assert r.y.tobytes() == plant.solve(u_prev).tobytes()
        u_prev = r.u
