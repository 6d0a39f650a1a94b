import math
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from functools import partial
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import ripplesim.sim
from ripplesim import (DisruptionEvent, GridModel, GridPlant, Graph,
                       HydraulicSolution, LinearPlant, MessageStats,
                       ModelError, Outcome, PipeLaw, PlantModel,
                       PowerFlowSolution, ProtocolGains, PumpLaw, Scenario,
                       ScenarioError, SolverError, Trace, TraceRecord,
                       WaterModel, WaterPlant, adjacency_matrix,
                       disrupted_setup, load_scenario, message_stats,
                       protocol_round, run, solve_load_voltages,
                       solve_network, verify_trace)
from ripplesim.cli import main
from reference_run import reference_run
from synth import random_connected_graph, random_monotone_linear_plant


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
        scenario = replace(scenario, trace_decimation=7)
    if case == "empty":
        scenario = fails_in_round_1()
    outcome, trace = run(scenario)
    assert_rows_match_columns(trace)
    plant, u0 = disrupted_setup(scenario)
    assert verify_trace(trace, scenario.comm_graph, plant.u_upper, u0) == []
    if case == "empty":
        assert len(trace) == 0
        assert trace.u.shape == (0, 2) and trace.y.shape == (0, 1)
        assert message_stats(trace, scenario.comm_graph, u0) == \
            MessageStats(0, {}, {}, {})
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
    scenario = replace(cascade_scenario(u_upper=(1.0, 1.0)),
                       u0=np.array([0.6, 0.6]))
    outcome, records = run(scenario)
    assert outcome.status == "converged"
    assert outcome.rounds == 1
    assert records[-1].messages == 0
    assert_array_equal(records[-1].u, scenario.u0)


def test_run_rejects_bad_gain_condition():
    scenario = replace(cascade_scenario(), gains=ProtocolGains(
        eta1=np.ones(2), eta2=np.ones(2), eta3=np.ones(2)))
    with pytest.raises(ScenarioError):
        run(scenario)
    scenario = replace(scenario, override_gain_check=True)
    outcome, _ = run(scenario)  # still settles on this tiny example
    assert outcome.status in ("converged", "stalled")


def test_run_rejects_disconnected_comm():
    scenario = cascade_scenario()
    with pytest.raises(ScenarioError):
        scenario = replace(scenario, comm_graph=Graph(node_count=2, edges=()))
        run(scenario)


@pytest.mark.parametrize("nodes", [1, 3])
def test_run_rejects_a_comm_graph_of_another_size(nodes):
    scenario = cascade_scenario()
    with pytest.raises(ScenarioError, match="^communication graph size "
                                            "disagrees with plant$"):
        scenario = replace(scenario, comm_graph=Graph(
            node_count=nodes, edges=tuple((i, i + 1)
                                          for i in range(nodes - 1))))
        run(scenario)


def test_run_rejects_out_of_box_start():
    # above the agent-0 ceiling
    scenario = replace(cascade_scenario(), u0=np.array([0.9, 0.0]))
    with pytest.raises(ScenarioError):
        run(scenario)


def test_a_scenario_is_frozen():
    scenario = cascade_scenario()
    for field in fields(Scenario):
        with pytest.raises(FrozenInstanceError):
            setattr(scenario, field.name, getattr(scenario, field.name))


def test_gains_of_another_length_than_the_controls_are_rejected():
    # unchecked, gain_condition would raise a raw ValueError: shapes (3,1)
    # and (2,2) do not broadcast
    gains = ProtocolGains(eta1=np.ones(3), eta2=np.full(3, 0.5),
                          eta3=np.ones(3))
    scenario = cascade_scenario()
    with pytest.raises(ScenarioError, match="^gains have 3 entries but the "
                                            "plant has 2 controls$"):
        Scenario(plant=scenario.plant, comm_graph=scenario.comm_graph,
                 u0=scenario.u0, gains=gains)


@pytest.mark.parametrize("value", ["no", "false", 0, None])
def test_override_gain_check_must_be_a_bool(value):
    # expanding_stall's gain-condition norm reads 2.0; a truthy string
    # would run past the check into an overflow solver_failure
    scenario = replace(expanding_stall(), override_gain_check=False)
    with pytest.raises(ScenarioError, match="^gain condition violated"):
        run(scenario)
    with pytest.raises(ScenarioError) as caught:
        Scenario(plant=scenario.plant, comm_graph=scenario.comm_graph,
                 u0=scenario.u0, gains=scenario.gains,
                 override_gain_check=value)
    assert str(caught.value) == \
        f"override_gain_check must be a bool, got {value!r}"


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
    scenario = replace(cascade_scenario(), trace_decimation=7)
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
    budget = replace(cascade_scenario(u_upper=(0.3, 0.4)), budget=20)
    for scenario, status, rounds in (
            (expanding_stall(), "stalled", 103),
            (budget, "budget_exceeded", 20),
            (cascade_scenario(u_upper=(0.3, 0.4)), "stalled", 28)):
        scenario = replace(scenario, trace_decimation=7)
        outcome, records = run(scenario)
        assert (outcome.status, outcome.rounds) == (status, rounds)
        assert records[-1].round == outcome.rounds
        assert records.rounds.tolist() == [1, *range(7, rounds, 7), rounds]


@pytest.mark.parametrize("knob", ["budget", "stall_window",
                                  "trace_decimation"])
@pytest.mark.parametrize("value", [0, -2, 2.5, True])
def test_run_rejects_run_knobs_below_one(knob, value):
    scenario = cascade_scenario()
    with pytest.raises(ScenarioError, match=knob):
        scenario = replace(scenario, **{knob: value})
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
    scenario = replace(scenario, plant=WaterPlant(
        model=scenario.plant.model, u_lower=scenario.plant.u_lower,
        u_upper=scenario.plant.u_upper, y_lower=y_lower,
        measured_nodes=scenario.plant.measured_nodes))
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
    plant = scenario.plant
    scenario = replace(scenario, plant=LinearPlant(
        plant.sensitivity, plant.offset, plant.u_lower, plant.u_upper,
        y_lower=[1e308], measured_nodes=plant.measured_nodes),
        gains=ProtocolGains(eta1=np.full(2, 10.0), eta2=np.full(2, 0.5),
                            eta3=np.ones(2)))
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
    scenario = replace(scenario, plant=WaterPlant(
        model=scenario.plant.model, u_lower=scenario.plant.u_lower,
        u_upper=scenario.plant.u_upper, y_lower=y_lower,
        measured_nodes=scenario.plant.measured_nodes))
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
    scenario = replace(cascade_scenario(), plant=FlakyLinear(
        sensitivity=[[1.0, 1.0]], offset=[0.0], u_lower=[0.0, 0.0],
        u_upper=[0.5, 1.0], y_lower=[1.0], measured_nodes=[0]))
    outcome, _ = run(scenario)
    assert outcome.status == "solver_failure"
    assert outcome.detail == "synthetic failure"


def test_message_stats_zero_trace():
    scenario = replace(cascade_scenario(u_upper=(1.0, 1.0)),
                       u0=np.array([0.6, 0.6]))
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


# case: (plant, event, result predicate, error, or the text of a ScenarioError)
DISRUPTIONS = {
    "linear-offset": (
        cascade_scenario().plant, _event("parameter_change", offset=[0.5]),
        lambda d: d.offset.tolist() == [0.5]
        and d.sensitivity.tolist() == [[1.0, 1.0]]),
    "linear-offset-wrong-length": (
        cascade_scenario().plant, _event("parameter_change", offset=[1, 2]),
        ModelError("offset must hold one entry per measured node")),
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
    "grid-remove-cuts-a-bus": (
        GridPlant(grid=GridModel(graph=Graph(node_count=3,
                                             edges=((0, 1), (1, 2))),
                                 susceptances=(10.0, 5.0), generators=(0,),
                                 loads=(1, 2)),
                  u_lower=[1.0, -0.5, -0.4], u_upper=[1.1, -0.4, -0.3],
                  y_lower=[0.94, 0.94]),
        _event("remove_edge", edge=(1, 2)),
        ModelError("buses [2] cannot reach any generator bus")),
    "grid-missing-edge": (
        small_grid_plant(), _event("remove_edge", edge=(1, 1)),
        "edge (1, 1) does not exist in the plant graph"),
    "grid-unsupported": (
        small_grid_plant(), _event("source_outage", node=1),
        "unsupported grid disruption 'source_outage'"),
    "water-remove-pump": (
        two_source_water_plant(), _event("remove_edge", edge=(1, 0)),
        lambda d: d.model.graph.edges == ((1, 2), (2, 3))
        and d.model.edge_laws == (PipeLaw(coefficient=0.001),
                                  PipeLaw(coefficient=0.002))),
    "water-remove-pipe": (
        two_source_water_plant(), _event("remove_edge", edge=(1, 2)),
        lambda d: d.model.graph.edges == ((0, 1), (2, 3))
        and d.model.edge_laws == (PumpLaw(gain=10.0),
                                  PipeLaw(coefficient=0.002))),
    "water-remove-cuts-a-node": (
        small_water_plant(), _event("remove_edge", edge=(1, 2)),
        ModelError("nodes [2] cannot reach any fixed-pressure node")),
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
    if isinstance(expect, (str, Exception)):
        if isinstance(expect, str):
            expect = ScenarioError(expect)
        with pytest.raises(type(expect)) as err:
            plant.disrupted(event)
        assert type(err.value) is type(expect)
        assert str(err.value) == str(expect)
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


def _as_subclass(plant):
    """plant rebuilt as an instance of a subclass of its own type that
    overrides nothing."""
    sub = type("Sub", (type(plant),), {})
    if isinstance(plant, GridPlant):
        return sub(plant.grid, plant.u_lower, plant.u_upper, plant.y_lower)
    limits = (plant.u_lower, plant.u_upper, plant.y_lower,
              plant.measured_nodes)
    if isinstance(plant, WaterPlant):
        return sub(plant.model, *limits)
    return sub(plant.sensitivity, plant.offset, *limits)


@pytest.mark.parametrize("name", ["linear_cascade", "pjm5", "wds10"])
def test_a_plant_subclass_stays_itself_through_its_disruptions(name):
    # each event is applied by disrupted, which builds the plant's own type
    scenario = load_scenario(name)
    if name == "linear_cascade":
        scenario = replace(scenario, disruptions=(DisruptionEvent(
            "parameter_change", {"offset": [0.25]}),))
    sub = _as_subclass(scenario.plant)
    plant, u0 = disrupted_setup(scenario)
    got, got_u0 = disrupted_setup(replace(scenario, plant=sub))
    assert type(got) is type(sub) and type(plant) is type(scenario.plant)
    assert got_u0.tobytes() == u0.tobytes()
    assert got.solve(u0).tobytes() == plant.solve(u0).tobytes()
    assert got.solve(u0).tobytes() != scenario.plant.solve(u0).tobytes()


def test_outcome_carries_the_disrupted_plant_and_its_start():
    scenario = load_scenario("wds10")
    outcome, _ = run(scenario)
    plant, u0 = disrupted_setup(scenario)
    assert outcome.plant.model.pressure_nodes == plant.model.pressure_nodes
    assert outcome.plant.model.graph == plant.model.graph
    assert_array_equal(outcome.plant.u_upper, plant.u_upper)
    assert_array_equal(outcome.u0, u0)
    # none of them takes part in comparisons
    assert outcome == replace(outcome, plant=None, u0=None, u=None, y=None)


def test_disruption_that_leaves_an_invalid_plant_is_a_scenario_error():
    scenario = load_scenario("wds10")
    scenario = replace(scenario, disruptions=scenario.disruptions + (
        DisruptionEvent("source_outage", {"node": 0}),))
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
        scenario = replace(scenario, disruptions=scenario.disruptions + (
            DisruptionEvent(kind, params),))
        disrupted_setup(scenario)


@pytest.mark.parametrize("kind", ["source_outage", "demand_change"])
@pytest.mark.parametrize("node", [-1, 10, 99])
def test_disruption_node_must_be_a_control(kind, node):
    # wds10 has controls 0 to 9: node -1 would pin node 9 through numpy's
    # negative index, and 10 or 99 would escape as a raw IndexError
    scenario = load_scenario("wds10")
    params = {"node": node, "scale": 2.0} if kind == "demand_change" \
        else {"node": node}
    with pytest.raises(ScenarioError, match=rf"^disruption node {node} is "
                       r"outside the control range \[0, 10\)$"):
        scenario = replace(scenario, disruptions=scenario.disruptions + (
            DisruptionEvent(kind, params),))
        disrupted_setup(scenario)
    with pytest.raises(ScenarioError, match="outside the control range"):
        scenario = replace(scenario, disruptions=scenario.disruptions + (
            DisruptionEvent(kind, params),))
        run(scenario)


@pytest.mark.parametrize("kind", ["source_outage", "demand_change"])
def test_short_initial_control_is_rejected_before_any_event(kind):
    # node 9 is past the end of u0[:3]: rebasing it would raise a raw
    # IndexError if the length were checked only after the events
    scenario = load_scenario("wds10")
    params = {"node": 9, "scale": 2.0} if kind == "demand_change" \
        else {"node": 9}
    for call in (disrupted_setup, run):
        with pytest.raises(ScenarioError,
                           match="^initial control has the wrong length$"):
            call(replace(scenario, u0=scenario.u0[:3],
                         disruptions=scenario.disruptions + (
                             DisruptionEvent(kind, params),)))


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
    scenario = replace(cascade_scenario(), gains=ProtocolGains(
        eta1=np.ones(2), eta2=np.full(2, 1e308), eta3=np.full(2, 1e308)))
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError):
        run(scenario)
    assert time.perf_counter() - t0 < 0.1


class ReadsPlusOffset(LinearPlant):
    """An affine plant whose reading adds extra, a non-finite offset that a
    LinearPlant refuses when it is made."""

    extra = np.nan

    def solve(self, u):
        return super().solve(u) + self.extra


def test_non_finite_plant_output_is_solver_failure():
    outcome, records = run(fails_in_round_1())
    assert outcome.status == "solver_failure"
    assert outcome.rounds == 1
    assert "round 1" in outcome.detail
    assert len(records) == 0


def test_one_non_finite_output_is_solver_failure():
    class ReadsInfAtOne(ReadsPlusOffset):
        extra = np.array([0.0, np.inf])

    plant = ReadsInfAtOne(sensitivity=np.eye(2), offset=[0.0, 0.0],
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


def single_agent(eta1=0.5, plant_type=LinearPlant, u0=0.0, u_upper=2.0,
                 y_lower=1.0, **knobs):
    """One agent with y = u, a floor of 1 and a ceiling of 2, from u0 = 0,
    unless given others."""
    plant = plant_type(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                       u_upper=[u_upper], y_lower=[y_lower],
                       measured_nodes=[0])
    return Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                    u0=np.array([u0]),
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
    return replace(cascade_scenario(u_upper=(0.3, 0.4)),
                   gains=ProtocolGains(eta1=np.ones(2), eta2=np.full(2, 2.0),
                                       eta3=np.ones(2)),
                   override_gain_check=True)


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


def test_a_control_exactly_eps_eq_below_its_ceiling_is_pinned():
    # round 1 steps 0.25 = eps_eq from 0.5 to 0.75 = ceiling - eps_eq with
    # the deficit 1.0 left: rule 3 stops the run there
    result, records = stop(single_agent(0.25, u0=0.5, u_upper=1.0,
                                        y_lower=1.5, eps_eq=0.25))
    assert result == ("stalled", 1, True)
    assert records[-1].u.tolist() == [0.75]


def test_a_deficit_of_exactly_eps_feas_never_stalls_the_run():
    # both controls start pinned at ceilings 0.5 under the floor 1.5, so the
    # deficit stays (0.5, 0), and the beacons grow by 0.5 every round
    # (gain norm 1, hence the override): the frozen count passes the
    # window of 3, but a deficit of exactly eps_feas is no violation
    plant = LinearPlant(sensitivity=[[1.0, 1.0]], offset=[0.0],
                        u_lower=[0.0, 0.0], u_upper=[0.5, 0.5],
                        y_lower=[1.5], measured_nodes=[0])
    scenario = Scenario(plant=plant, comm_graph=Graph(2, ((0, 1),)),
                        u0=np.array([0.5, 0.5]),
                        gains=ProtocolGains(eta1=np.ones(2), eta2=np.ones(2),
                                            eta3=np.ones(2)),
                        eps_eq=0.25, eps_feas=0.5, stall_window=3, budget=10,
                        override_gain_check=True)
    result, records = stop(scenario)
    assert result == ("budget_exceeded", 10, False)
    assert records[-1].deficit.tolist() == [0.5, 0.0]
    below = replace(scenario, eps_feas=np.nextafter(0.5, 0.0))
    assert stop(below)[0] == ("stalled", 4, False)


def test_a_terminal_reading_exactly_eps_feas_below_its_floor_is_feasible():
    # pinned at the ceiling 1.0 under the floor 1.5: the beacon steps
    # 0.125 <= eps_eq, so rule 3 stops round 1 at the reading 1.0 =
    # floor - eps_feas
    outcome, records = run(single_agent(0.25, u0=1.0, u_upper=1.0,
                                        y_lower=1.5, eps_eq=0.25,
                                        eps_feas=0.5))
    assert (outcome.status, outcome.rounds, outcome.feasible) == \
        ("converged", 1, True)
    assert outcome.y.tolist() == [1.0]


@pytest.mark.parametrize("u0, beyond", [
    ([-0.5, 0.0], [np.nextafter(-0.5, -1.0), 0.0]),
    ([1.0, 1.5], [1.0, np.nextafter(1.5, 2.0)])], ids=["lower", "upper"])
def test_a_start_exactly_eps_feas_outside_its_box_may_start(u0, beyond):
    # the box is [0, 0.5] x [0, 1] and eps_feas = 0.5; one ulp further out
    # is a start outside the box
    scenario = replace(cascade_scenario(), eps_feas=0.5)
    assert ripplesim.sim.run_setup(replace(scenario, u0=u0))[1].tolist() == u0
    with pytest.raises(ScenarioError, match="violates its box limits"):
        run(replace(scenario, u0=beyond))


def test_a_start_below_its_box_at_one_agent_only_is_rejected():
    scenario = replace(cascade_scenario(), u0=np.array([0.0, -1.0]))
    with pytest.raises(ScenarioError,
                       match="^initial control violates its box limits$"):
        run(scenario)


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


class FailsAboveATenth(LinearPlant):
    """An affine plant whose solve fails once control 0 rises above 0.1."""

    def solve(self, u):
        if u[0] > 0.1:
            raise SolverError("synthetic failure")
        return super().solve(u)


class ReadsOnlyWarm(LinearPlant):
    """An affine plant whose rounds read it, but whose cold solve fails."""

    def solve(self, u):
        raise SolverError("no cold solve")

    def solve_from(self, u, start=None):
        return super().solve(u), None


@pytest.mark.parametrize("scenario, status, rounds, detail", [
    # u rises 0 -> 0.06 -> 0.1164, and the solve fails above 0.1: the run
    # that stops at 0.1164 cannot read its plant there
    (single_agent(0.06, FailsAboveATenth, budget=1), "budget_exceeded", 1,
     ""),
    (single_agent(0.06, FailsAboveATenth, budget=2), "budget_exceeded", 2,
     "terminal plant solve failed: synthetic failure"),
    (single_agent(0.06, FailsAboveATenth, budget=3), "solver_failure", 3,
     "synthetic failure"),
    (single_agent(plant_type=ReadsOnlyWarm), "stalled", 27,
     "terminal plant solve failed: no cold solve"),
], ids=["reading-at-budget-1", "no-reading-at-budget-2",
        "solver-failure-at-budget-3", "equilibrium-without-a-reading"])
def test_a_failed_terminal_solve_ends_in_an_outcome(scenario, status, rounds,
                                                   detail):
    outcome, trace = run(scenario)
    assert (outcome.status, outcome.rounds) == (status, rounds)
    assert outcome.detail == detail
    assert not outcome.feasible
    if outcome.status != "solver_failure":  # the stop's round is kept
        assert_array_equal(outcome.u, trace.u[-1])
    if detail:
        assert outcome.y is None
    else:
        assert_array_equal(outcome.y, outcome.u)  # y = u below the cliff


def corpus_plant(index, population_seed=2024):
    """Scenario `index` of the acceptance corpus at its population seed."""
    rng = np.random.default_rng(population_seed)
    for _ in range(index + 1):
        n = int(rng.integers(1, 11))
        plant, u0 = random_monotone_linear_plant(rng, n)
        graph = random_connected_graph(rng, n) if n > 1 else \
            Graph(node_count=1, edges=())
    return Scenario(plant=plant, comm_graph=graph, u0=u0)


def no_measured_outputs():
    plant = LinearPlant(sensitivity=np.zeros((0, 2)), offset=[],
                        u_lower=[0.0, 0.0], u_upper=[1.0, 1.0], y_lower=[],
                        measured_nodes=[])
    return Scenario(plant=plant, comm_graph=Graph(node_count=2,
                                                  edges=((0, 1),)),
                    u0=np.zeros(2))


def fails_in_round_1():
    """The cascade on a plant whose every reading is NaN."""
    scenario = cascade_scenario()
    plant = scenario.plant
    return replace(scenario, plant=ReadsPlusOffset(
        plant.sensitivity, plant.offset, plant.u_lower, plant.u_upper,
        plant.y_lower, plant.measured_nodes))


def cut_keeping(rows, decimation):
    """Plant 179 of the corpus (27,232 rounds) cut by the budget at which
    its trace keeps `rows` rounds."""
    budget = next(b for b in count(1) if len(
        {1, b, *range(decimation, b + 1, decimation)}) == rows)
    return replace(corpus_plant(179), budget=budget)


def trace_columns(trace):
    return (trace.rounds, trace.u, trace.y, trace.deficit, trace.beacons,
            trace.messages)


def run_parts(scenario):
    """Every compared Outcome field as its repr, and every Trace column as
    its dtype, shape and bytes."""
    outcome, trace = run(scenario)
    return ([repr(getattr(outcome, f.name)) for f in fields(outcome)
             if f.compare],
            [(column.dtype, column.shape, column.tobytes())
             for column in trace_columns(trace)])


STOP_CASES = {
    "exact-fixed-point": exact_fixed_point,
    "eps-eq-deficit-cleared": single_agent,
    "eps-eq-every-control-pinned": partial(cascade_scenario, (0.3, 0.4)),
    "stall-window": expanding_stall,
    "solver-failure-in-round-23": partial(
        single_agent, eta1=0.005, plant_type=FailsAboveATenth),
    "no-measured-outputs": no_measured_outputs,
    "fails-in-round-1": fails_in_round_1,
}


def assert_blocks_match_a_single_join(monkeypatch, scenario, block):
    """The run joined in blocks of `block` rows equals the run whose block
    is above its budget, which joins each column once when it ends."""
    monkeypatch.setattr(ripplesim.sim, "_BLOCK", scenario.budget + 1)
    single = run_parts(scenario)
    monkeypatch.setattr(ripplesim.sim, "_BLOCK", block)
    assert run_parts(scenario) == single


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", STOP_CASES)
@pytest.mark.parametrize("decimation", [1, 3])
@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_joined_blocks_match_a_single_join(monkeypatch, block, decimation,
                                           case):
    scenario = replace(STOP_CASES[case](), trace_decimation=decimation)
    assert_blocks_match_a_single_join(monkeypatch, scenario, block)


@pytest.mark.parametrize("decimation", [1, 3])
@pytest.mark.parametrize("block, rows", [
    (k, rows) for k in (1, 2, 3, 7)
    for rows in (k - 1, k, k + 1, 2 * k + 1) if rows])
def test_budget_cuts_around_a_block_edge_match_a_single_join(
        monkeypatch, block, rows, decimation):
    scenario = replace(cut_keeping(rows, decimation),
                       trace_decimation=decimation)
    outcome, trace = run(scenario)
    assert (outcome.status, len(trace)) == ("budget_exceeded", rows)
    assert_blocks_match_a_single_join(monkeypatch, scenario, block)


def test_a_run_joins_each_full_block_once(monkeypatch):
    # with blocks of 4, a 1,001-row trace joins 250 full blocks in each of
    # its u, y and beacons columns, then each column once when the run
    # ends; joining a column's last four rows after every kept round but
    # the fourth would give the same trace in quadratic time
    monkeypatch.setattr(ripplesim.sim, "_BLOCK", 4)
    scenario = cut_keeping(1001, 1)
    joins, concatenate = [], np.concatenate

    def counted(*args, **kwargs):
        joins.append(None)
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    outcome, trace = run(scenario)
    assert (outcome.status, len(trace)) == ("budget_exceeded", 1001)
    assert len(joins) == 3 * (1001 // 4) + 3


def test_a_long_run_holds_one_block_of_rows_besides_its_trace(monkeypatch):
    # plant 179 has n = 10 and runs past 2,000 rounds; holding one array
    # per kept round and column until the run ends peaks at 3.1 times the
    # bytes of the trace
    monkeypatch.setattr(ripplesim.sim, "_BLOCK", 64)
    scenario = replace(corpus_plant(179), budget=2000)
    assert len(scenario.u0) == 10
    tracemalloc.start()
    try:
        outcome, trace = run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, len(trace)) == ("budget_exceeded", 2000)
    assert peak < 2 * sum(column.nbytes for column in trace_columns(trace))


def degree_sums(records, graph):
    """The summed overlay degree of each record's beaconing agents."""
    degree = adjacency_matrix(graph).sum(axis=1)
    return [int(degree[r.beacons > 0].sum()) for r in records]


def message_exit_cases():
    budget = replace(cascade_scenario(u_upper=(0.3, 0.4)), budget=6)
    flaky = replace(cascade_scenario(), plant=FlakyLinear(
        sensitivity=[[1.0, 1.0]], offset=[0.0], u_lower=[0.0, 0.0],
        u_upper=[0.5, 1.0], y_lower=[1.0], measured_nodes=[0]))
    decimated = replace(load_scenario("pjm5"), trace_decimation=3)
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
    "u", "beacons" or "deficit") of round `at` of the next run; returns the
    list that collects each round's outputs by field."""
    calls = []

    def poisoned(u, beacons, y, *rest):
        deficit, u_next, beacons_next = protocol_round(u, beacons, y, *rest)
        calls.append({"u": u_next, "beacons": beacons_next,
                      "deficit": deficit})
        if len(calls) == at:
            calls[-1][field][0] = np.nan
        return deficit, u_next, beacons_next

    monkeypatch.setattr("ripplesim.sim.protocol_round", poisoned)
    return calls


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
    outputs = nan_after_round(monkeypatch, field, rule_round)
    outcome, records = run(make())
    assert outcome.rounds > rule_round
    if field == "deficit":  # the trace derives its deficit from y
        assert np.isnan(outputs[rule_round - 1][field][0])
    else:
        assert np.isnan(getattr(records[rule_round - 1], field)[0])


@pytest.mark.parametrize("field, value", [
    ("u0", np.array([np.nan, 0.0])),
    ("u0", [0.0, -np.inf]),
    ("u0", ["x", 0.0]),
    ("u0", [None, 0.0]),
    ("eps_eq", np.nan),
    ("eps_eq", -1.0),
    ("eps_feas", np.inf),
    ("eps_feas", 0.0),
    ("eps_eq", True),
    ("eps_feas", True),
])
def test_run_rejects_non_finite_run_numbers(field, value):
    scenario = cascade_scenario()
    with pytest.raises(ScenarioError, match=field if field.startswith("eps")
                       else "^initial control must be finite$"):
        scenario = replace(scenario, **{field: value})
        run(scenario)


def test_a_scenario_keeps_a_read_only_copy_of_its_start():
    # the caller's array can change after the scenario checked it
    u0 = np.zeros(2)
    scenario = replace(cascade_scenario(), u0=u0)
    u0[0] = np.nan
    assert scenario.u0.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        scenario.u0[0] = np.nan
    assert run(scenario)[0].status == "converged"


def test_a_disruption_events_params_are_read_only():
    # Scenario checked event nodes against the plant: no write can undo it
    scenario = load_scenario("wds10")
    with pytest.raises(TypeError):
        scenario.disruptions[1].params["node"] = 99
    params = {"node": 2, "set": -140.0}
    event = DisruptionEvent(kind="demand_change", params=params)
    params["node"] = 99
    assert dict(event.params) == {"node": 2, "set": -140.0}
    assert run(scenario)[0].status == "converged"


@pytest.mark.parametrize("field", ["eps_eq", "eps_feas"])
@pytest.mark.parametrize("value", ["1e-8", None, [1e-8], np.array(1e-8),
                                   np.bool_(True)])
def test_run_rejects_a_tolerance_that_is_not_a_real_number(field, value):
    scenario = cascade_scenario()
    with pytest.raises(ScenarioError,
                       match=f"^{field} must be finite and positive$"):
        scenario = replace(scenario, **{field: value})
        run(scenario)


def tight_cold_reading(plant, u):
    """The plant reading at u, solved from the flat start to a tolerance
    far below the solvers' own, set on their modules for this solve only."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("ripplesim.power.SOLVER_TOL", 1e-13)
        monkeypatch.setattr("ripplesim.water.FLOW_TOL", 1e-12)
        if isinstance(plant, GridPlant):
            grid = plant.grid
            return solve_load_voltages(u[list(grid.loads)],
                                       u[list(grid.generators)], grid).v_load
        sol = solve_network(u, plant.model)
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
    """The bytes of every array a plant's solve state carries: a grid
    solution's load voltages and currents and generator injections, or a
    water solution's pressures, flows, unknowns and flow terms."""
    if isinstance(state, HydraulicSolution):
        return [a.tobytes() for a in (state.pressures, state.flows,
                                      state.unknowns, *state.flow_terms)]
    return [a.tobytes() for a in (state.v_load, state.i_load, state.q_gen)]


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


def test_a_uniform_rise_of_the_fixed_heads_moves_every_free_head_by_it():
    # raising both fixed pressures by one amount keeps every flow and every
    # pressure difference, so the warm solve takes no Newton step; raising
    # one of them starts from the unshifted unknowns, as an array would
    model = two_source_water_plant().model
    u = np.array([5.0, 0.0, -100.0, 5.0])
    sol = solve_network(u, model)
    raised = solve_network(u + [1.5, 0.0, 0.0, 1.5], model, x0=sol)
    assert raised.iterations == 0
    assert raised.flows.tobytes() == sol.flows.tobytes()
    assert_allclose(raised.pressures, sol.pressures + 1.5, rtol=0,
                    atol=1e-13)
    one = u + [0.0, 0.0, 0.0, 1.5]
    moved = solve_network(one, model, x0=sol)
    want = solve_network(one, model, x0=np.array(sol.unknowns))
    assert moved.iterations == want.iterations > 0
    for got, expected in ((moved.pressures, want.pressures),
                          (moved.unknowns, want.unknowns)):
        assert got.tobytes() == expected.tobytes()


def test_failed_warm_start_falls_back_to_the_cold_solve():
    scenario = load_scenario("pjm5")
    plant, u0 = disrupted_setup(scenario)
    _, state = plant.solve_from(u0)
    with pytest.raises(SolverError):
        plant.solve_from(u0, PowerFlowSolution(-state.v_load))

    class Misled(GridPlant):
        """Hands every warm solve negative load voltages as its start."""

        def solve_from(self, u, start=None):
            y, state = super().solve_from(u, start)
            return y, PowerFlowSolution(-state.v_load)

    misled = Misled(plant.grid, plant.u_lower, plant.u_upper, plant.y_lower)
    outcome, records = run(Scenario(
        plant=misled, comm_graph=scenario.comm_graph, u0=u0,
        gains=scenario.gains, budget=40))
    assert (outcome.status, outcome.rounds) == ("budget_exceeded", 40)
    u_prev = u0
    for r in records:
        assert r.y.tobytes() == plant.solve(u_prev).tobytes()
        u_prev = r.u


# (column, value) of the faults audit_inputs injects: a control that
# falls, passes its ceiling or is NaN, a negative beacon, a beacon at an
# unsaturated agent, and a message count that is off by one
AUDIT_FAULTS = (("u", -1.0), ("u", 2.0), ("u", np.nan), ("beacons", -0.5),
                ("beacons", 0.3), ("messages", 1))


@st.composite
def audit_inputs(draw):
    """(trace, graph, u_upper, u0) of 1 to 4 agents and 1 to 6 records with
    gaps in their rounds: a trace that keeps the invariants (save controls
    that rise unprompted), then up to four AUDIT_FAULTS injected into one of
    its records."""
    def column(entries, shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.sampled_from(entries), min_size=size,
                                      max_size=size))).reshape(shape)

    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = Graph(node_count=n, edges=tuple(
        draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))
    rounds = sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6,
                                  unique=True)))
    shape = (len(rounds), n)
    u0, u_upper = column([0.0, 0.5], n), column([1.0, 1.5], n)
    u = np.minimum(u0 + column([0.0, 0.0, 0.5], shape).cumsum(axis=0),
                   u_upper)
    beacons = np.where(u == u_upper, column([0.0, 0.3], shape), 0.0)
    messages = (beacons > 0) @ np.count_nonzero(adjacency_matrix(graph),
                                                axis=1)
    i = draw(st.integers(0, shape[0] - 1))  # the record with the faults
    faults = st.tuples(st.integers(0, n - 1), st.sampled_from(AUDIT_FAULTS))
    for k, (name, value) in draw(st.lists(faults, max_size=4)):
        if name == "messages":
            messages[i] += value
        else:
            {"u": u, "beacons": beacons}[name][i, k] = value
    trace = Trace(np.array(rounds), u, np.zeros((shape[0], 0)),
                  column([0.0, 0.2, 0.2], shape), beacons, messages)
    return trace, graph, u_upper, u0.tolist()


def reference_audit(trace, graph, u_upper, u0):
    """verify_trace and message_stats as one plain loop over the records:
    (problems, total, first_beacon, first_assistance, first_change)."""
    n = graph.node_count
    neighbors = [[j for e in graph.edges if k in e for j in e if j != k]
                 for k in range(n)]
    problems, total, first_beacon, first_assistance, first_change = (
        [], 0, {}, {}, {})
    prev_round, prev_u, prev_beacons = 0, list(u0), [0.0] * n
    for rec in trace:
        t, u = rec.round, rec.u.tolist()
        beacons, deficit = rec.beacons.tolist(), rec.deficit.tolist()
        for text, bad in (
                ("control decreased", any(u[k] < prev_u[k] for k in range(n))),
                ("control exceeds its ceiling",
                 any(u[k] > u_upper[k] for k in range(n))),
                ("negative beacon", any(b < 0 for b in beacons))):
            if bad:
                problems.append(f"round {t}: {text}")
        for k in range(n):
            if beacons[k] > 0 and u[k] != u_upper[k]:
                problems.append(f"round {t}: beacon at unsaturated agent {k}")
        for k in range(n):
            prompted = deficit[k] > 0 or any(prev_beacons[j] > 0
                                             for j in neighbors[k])
            if t == prev_round + 1 and u[k] > prev_u[k] and not prompted:
                problems.append(f"round {t}: control {k} rose without a "
                                "deficit or a neighbor's beacon")
        expect = sum(len(neighbors[k]) for k in range(n) if beacons[k] > 0)
        if rec.messages != expect:
            problems.append(f"round {t}: {rec.messages} messages, expected "
                            f"{expect}")
        total += rec.messages
        for k in range(n):
            if beacons[k] > 0:
                first_beacon.setdefault(k, t)
                for j in neighbors[k]:
                    first_assistance.setdefault(j, t)
            if u[k] != prev_u[k]:
                first_change.setdefault(k, t)
        prev_round, prev_u, prev_beacons = t, u, beacons
    return (problems, total, first_beacon,
            dict(sorted(first_assistance.items())), first_change)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(audit_inputs())
# round 2 breaks every invariant at once: agent 0 falls, agent 1 passes its
# ceiling, rises unprompted and beacons unsaturated, and the count is off
@example((Trace(np.array([1, 2]), np.array([[0.5, 0.5], [0.0, 2.0]]),
                np.zeros((2, 0)), np.zeros((2, 2)),
                np.array([[0.0, 0.0], [-0.5, 0.3]]), np.array([0, 5])),
          Graph(node_count=2, edges=((0, 1),)), np.ones(2), [0.5, 0.5]))
def test_audit_matches_a_plain_loop_over_the_records(inputs):
    trace, graph, u_upper, u0 = inputs
    stats = message_stats(trace, graph, u0)
    got = (verify_trace(trace, graph, u_upper, u0), stats.total,
           stats.first_beacon, stats.first_assistance, stats.first_change)
    expect = reference_audit(trace, graph, u_upper.tolist(), u0)
    assert got == expect
    # the dicts also agree in order, and every key and value is an int
    for g, e in zip(got[2:], expect[2:]):
        assert list(g.items()) == list(e.items())
        assert all(type(x) is int for item in g.items() for x in item)
    assert type(stats.total) is int


class Cliff(LinearPlant):
    """An affine plant whose solve raises once a control passes cliff."""

    def __init__(self, *limits, cliff):
        self.cliff = cliff  # before the plant is made, and then immutable
        super().__init__(*limits)

    def solve(self, u):
        if (np.asarray(u) > self.cliff).any():
            raise SolverError("past the cliff")
        return super().solve(u)


@st.composite
def affine_scenarios(draw):
    """Small affine scenarios for run and its reference: starts at the
    floor, the middle or the ceiling of the box, gains that overflow, short
    budgets and stall windows, and tolerances near the moves."""
    n = draw(st.integers(1, 6))
    measured = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    sensitivity = np.reshape([pick(0.0, 0.25, 1.0, 2.0)
                              for _ in range(n * len(measured))],
                             (len(measured), n))
    u_lower = np.array([pick(0.0, -1.0, 0.5) for _ in range(n)])
    u_upper = u_lower + [pick(0.0, 0.3, 1.0, 2.0) for _ in range(n)]
    u0 = [pick(lo, (lo + hi) / 2, hi) for lo, hi in zip(u_lower, u_upper)]
    limits = (sensitivity, [pick(-1.0, 0.0, 0.5) for _ in measured], u_lower,
              u_upper, [pick(-1.0, 0.5, 1.0, 3.0, 10.0) for _ in measured],
              measured)
    cliff = pick(None, None, max(u0) + 0.05, max(u0) + 0.5)
    plant = LinearPlant(*limits) if cliff is None else Cliff(*limits,
                                                             cliff=cliff)
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    if n > 2 and draw(st.booleans()):
        edges.add((0, n - 1))
    etas = [[pick(1e-3, 0.1, 0.5, 1.0, 2.0) for _ in range(n)]
            for _ in range(3)]
    if draw(st.booleans()):  # a step or a beacon that overflows
        etas[0][0] = etas[2][-1] = 1e300
    return Scenario(
        plant=plant, comm_graph=Graph(node_count=n, edges=tuple(edges)),
        u0=np.array(u0), gains=pick(None, ProtocolGains(*etas)),
        budget=draw(st.integers(1, 60)),
        eps_eq=pick(1e-12, 1e-8, 1e-3, 0.01, 0.05, 0.2),
        eps_feas=pick(1e-12, 1e-6, 1e-3, 0.05, 0.2),
        stall_window=draw(st.integers(1, 5)),
        trace_decimation=draw(st.integers(1, 5)),
        override_gain_check=draw(st.booleans()))


def result_or_error(function, scenario):
    """function(scenario), or the type and text of what it raised."""
    try:
        return function(scenario)
    except (ScenarioError, SolverError) as exc:
        return type(exc), str(exc)


def same_bits(a, b):
    """a and b of one type and, for arrays and floats, with the same bits."""
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and (a.dtype, a.shape) ==
                (b.dtype, b.shape) and a.tobytes() == b.tobytes())
    if isinstance(a, float):
        return type(b) is float and np.float64(a).tobytes() == \
            np.float64(b).tobytes()
    return type(a) is type(b) and a == b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(affine_scenarios())
@example(load_scenario("pjm5"))
@example(load_scenario("wds10"))
@example(load_scenario("twobus"))
@example(load_scenario("linear_cascade"))
@example(exact_fixed_point())  # rule 2 with a violation: stalled
@example(expanding_stall())  # rule 5 after 103 rounds
@example(single_agent(0.06, FailsAboveATenth, budget=2))  # no terminal y
# round 1 moves by eps_eq exactly and leaves a deficit of eps_feas exactly
@example(single_agent(0.5, eps_eq=0.5, eps_feas=1.0, budget=5))
def test_run_matches_its_reference(scenario):
    got = result_or_error(run, scenario)
    expect = result_or_error(reference_run, scenario)
    if not isinstance(got[0], Outcome) or not isinstance(expect[0], Outcome):
        assert got == expect
        return
    (outcome, trace), (ref_outcome, ref_trace) = got, expect
    for f in fields(Outcome):
        a, b = getattr(outcome, f.name), getattr(ref_outcome, f.name)
        if f.name == "plant":  # disrupted_setup builds a new one per call
            assert type(a) is type(b)
            for limit in ("u_lower", "u_upper", "y_lower", "measured_nodes"):
                assert same_bits(getattr(a, limit), getattr(b, limit))
        else:
            assert same_bits(a, b), f.name
    for name in ("rounds", "u", "y", "deficit", "beacons", "messages"):
        assert same_bits(getattr(trace, name), getattr(ref_trace, name)), name
