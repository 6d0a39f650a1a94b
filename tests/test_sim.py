import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ripplesim import (DisruptionEvent, Graph, LinearPlant, PipeLaw,
                       ProtocolGains, PumpLaw, Scenario, ScenarioError,
                       TraceRecord, WaterModel, WaterPlant, apply_disruption,
                       disrupted_setup, load_scenario, message_stats, run,
                       verify_trace)


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
    # path 0-1-2 with ceilings 1: agent 1 saturates in round 2 and beacons
    # to its two neighbors; each case breaks the last round one way
    graph = Graph(node_count=3, edges=((0, 1), (1, 2)))
    u_upper, u0 = np.ones(3), np.zeros(3)

    def trace(u3=(0.6, 1.0, 0.1), b3=(0.0, 0.1, 0.0), m3=2):
        rows = (((0.2, 0.5, 0.0), (0.0, 0.0, 0.0), 0),
                ((0.5, 1.0, 0.0), (0.0, 0.2, 0.0), 2), (u3, b3, m3))
        return [TraceRecord(round=t, u=np.array(u), y=np.zeros(1),
                            deficit=np.zeros(3), beacons=np.array(b),
                            messages=m, wall_time=0.0)
                for t, (u, b, m) in enumerate(rows, start=1)]

    assert verify_trace(trace(), graph, u_upper, u0) == []
    cases = [
        (trace(u3=(0.4, 1.0, 0.1)), "round 3: control decreased"),
        (trace(u3=(0.6, 1.0, 1.5)), "round 3: control exceeds its ceiling"),
        (trace(b3=(0.0, 0.1, -0.1)), "round 3: negative beacon"),
        (trace(b3=(0.3, 0.1, 0.0), m3=3),
         "round 3: beacon at unsaturated agent 0"),
        (trace(m3=5), "round 3: 5 messages, expected 2"),
    ]
    for records, problem in cases:
        assert verify_trace(records, graph, u_upper, u0) == [problem]


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
    expect = sum(scenario.comm_graph.degree(k)
                 for r in records for k in np.nonzero(r.beacons > 0)[0])
    assert stats.total == expect


def test_apply_disruption_water_pump_failure():
    plant = small_water_plant()
    event = DisruptionEvent(kind="remove_edge", params={"edge": (0, 1)})
    with pytest.raises(ScenarioError):
        # dropping the only path to the reference leaves an invalid model
        run(Scenario(plant=plant,
                     comm_graph=Graph(node_count=3,
                                      edges=((0, 1), (1, 2))),
                     u0=np.array([5.0, 0.0, -100.0]),
                     gains=ProtocolGains(eta1=np.ones(3),
                                         eta2=np.full(3, 0.3),
                                         eta3=np.ones(3)),
                     disruptions=(event,)))
    # removing the pipe instead keeps the original plant untouched
    event = DisruptionEvent(kind="remove_edge", params={"edge": (1, 2)})
    disrupted = apply_disruption(plant, event)
    assert len(disrupted.model.graph.edges) == 1
    assert len(plant.model.graph.edges) == 2


def test_apply_disruption_demand_change_rebases_box():
    plant = small_water_plant()
    event = DisruptionEvent(kind="demand_change",
                            params={"node": 2, "set": -120.0})
    disrupted = apply_disruption(plant, event)
    assert disrupted.u_lower[2] == -120.0
    assert_allclose(disrupted.u_upper[2], -20.0)  # flexibility carried over


def test_apply_disruption_source_outage_pins_control():
    plant = small_water_plant()
    event = DisruptionEvent(kind="source_outage", params={"node": 2})
    disrupted = apply_disruption(plant, event)
    assert disrupted.u_lower[2] == 0.0 and disrupted.u_upper[2] == 0.0


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


def test_noop_disruption_keeps_behavior():
    plant = small_water_plant()
    event = DisruptionEvent(kind="demand_change",
                            params={"node": 2, "set": -100.0,
                                    "flexibility": 50.0})
    disrupted = apply_disruption(plant, event)
    u = np.array([5.0, 0.0, -80.0])
    assert_allclose(disrupted.solve(u), plant.solve(u))


def test_invalid_disruption_target():
    plant = small_water_plant()
    event = DisruptionEvent(kind="remove_edge", params={"edge": (0, 2)})
    with pytest.raises(ScenarioError):
        apply_disruption(plant, event)


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
    assert records == []


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
