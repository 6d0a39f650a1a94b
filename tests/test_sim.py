import math
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


def test_audit_rejects_records_of_different_lengths():
    # three records of lengths 2, 1 and 3 hold six entries, which would
    # fill a 3 x 2 array if nobody checked the lengths
    graph = Graph(node_count=2, edges=((0, 1),))
    records = [TraceRecord(round=t, u=np.zeros(k), y=np.zeros(1),
                           deficit=np.zeros(k), beacons=np.zeros(k),
                           messages=0, wall_time=0.0)
               for t, k in enumerate((2, 1, 3), start=1)]
    with pytest.raises(ValueError):
        verify_trace(records, graph, np.ones(2))
    with pytest.raises(ValueError):
        message_stats(records, graph)


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


def test_stop_at_exact_fixed_point():
    # the step eta1 * deficit is below half an ulp of u = 1e6, so nothing
    # moves although the deficit (1e-3) stays above eps_feas
    plant = LinearPlant(sensitivity=[[1.0]], offset=[0.0], u_lower=[0.0],
                        u_upper=[2e6], y_lower=[1e6 + 1e-3],
                        measured_nodes=[0])
    scenario = Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                        u0=np.array([1e6]),
                        gains=ProtocolGains(eta1=[1e-9], eta2=[1.0],
                                            eta3=[1.0]))
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
    scenario = cascade_scenario(u_upper=(0.3, 0.4))
    scenario.gains = ProtocolGains(eta1=np.ones(2), eta2=np.full(2, 2.0),
                                   eta3=np.ones(2))
    scenario.override_gain_check = True
    result, records = stop(scenario)
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


@pytest.mark.parametrize("field, value", [
    ("u0", np.array([np.nan, 0.0])),
    ("u_lower", np.array([-np.inf, 0.0])),
    ("u_upper", np.array([0.5, np.inf])),
    ("y_lower", np.array([np.nan])),
    ("eps_eq", np.nan),
    ("eps_eq", -1.0),
    ("eps_feas", np.inf),
    ("eps_feas", 0.0),
])
def test_run_rejects_non_finite_run_numbers(field, value):
    scenario = cascade_scenario()
    owner = scenario.plant if field in ("u_lower", "u_upper", "y_lower") \
        else scenario
    setattr(owner, field, value)
    with pytest.raises(ScenarioError, match=field if field.startswith("eps")
                       else "finite"):
        run(scenario)
