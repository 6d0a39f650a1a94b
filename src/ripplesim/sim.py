"""Scenario execution: disrupt a plant, run control rounds, record traces.

A run applies the scenario's disruption events to the plant, then loops
plant solve -> protocol round until the state stops moving or the round
budget runs out. Each round's plant solve is warm-started from the
previous round's solution (PlantModel.solve_from), since the control moves
little from round to round. Each retained round yields a TraceRecord; the
terminal state is classified into an Outcome. Runs are single-threaded and
deterministic: the same scenario yields bit-identical traces.
"""
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ModelError, ScenarioError, SolverError
from .graph import Graph, adjacency_matrix, is_connected
from .plant import EPS_FEAS_DEFAULT, PlantModel, feasibility_check
from .protocol import (ProtocolGains, auto_gains, gain_condition,
                       is_equilibrium, message_counts, protocol_round,
                       violation)


@dataclass(frozen=True)
class DisruptionEvent:
    """A change to the plant at time zero.

    Kinds: remove_edge, source_outage, demand_change and parameter_change.
    Each plant type's disrupted method (LinearPlant, GridPlant, WaterPlant)
    applies the kinds it supports and says which params each one takes;
    demand_change and source_outage also move the initial control of their
    params["node"] to its new lower limit (disrupted_setup).
    """

    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    """Everything a run needs: plant, overlay, gains, start, events, knobs."""

    plant: PlantModel
    comm_graph: Graph
    u0: np.ndarray
    gains: ProtocolGains | None = None
    disruptions: tuple = ()
    budget: int = 100_000
    eps_eq: float = 1e-8
    eps_feas: float = EPS_FEAS_DEFAULT
    stall_window: int = 100
    trace_decimation: int = 1
    override_gain_check: bool = False
    seed: int = 0
    labels: tuple | None = None

    def node_label(self, index: int) -> str:
        if self.labels is not None:
            return str(self.labels[index])
        return str(index + 1)


class TraceRecord(NamedTuple):
    """Snapshot taken at the end of one protocol round."""

    round: int
    u: np.ndarray
    y: np.ndarray
    deficit: np.ndarray
    beacons: np.ndarray
    messages: int


@dataclass(frozen=True)
class Outcome:
    """Terminal classification of a run.

    status is one of "converged", "stalled", "solver_failure",
    "budget_exceeded". Converged implies the terminal control passed the
    feasibility check; stalled means the state stopped moving (or froze at
    the ceiling) while a violation persisted. gain_norm is the gain
    condition's spectral norm that run checked before the first round.
    """

    status: str
    rounds: int
    feasible: bool
    equilibrium: bool
    max_violation: float
    max_beacon: float
    gain_norm: float
    detail: str = ""


def disrupted_setup(scenario: Scenario):
    """Apply all events; returns (plant', u0') with event-moved controls rebased."""
    plant = scenario.plant
    u0 = np.array(scenario.u0, dtype=float)
    for event in scenario.disruptions:
        plant = plant.disrupted(event)
        if event.kind in ("demand_change", "source_outage"):
            # the event itself moves this control to its new base
            node = int(event.params["node"])
            u0[node] = plant.u_lower[node]
    return plant, u0


def _validate_run(scenario: Scenario, plant: PlantModel, u0: np.ndarray):
    """Reject a run that cannot start; returns the plant's solve state at u0."""
    n = plant.control_dim
    if scenario.comm_graph.node_count != n:
        raise ScenarioError("communication graph size disagrees with plant")
    if not is_connected(scenario.comm_graph):
        raise ScenarioError("communication graph must be connected")
    if u0.shape != (n,):
        raise ScenarioError("initial control has the wrong length")
    for name in ("eps_eq", "eps_feas"):
        if not 0.0 < getattr(scenario, name) < np.inf:
            raise ScenarioError(f"{name} must be finite and positive")
    for name in ("budget", "stall_window", "trace_decimation"):
        value = getattr(scenario, name)
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ScenarioError(f"{name} must be an integer >= 1, got {value!r}")
    for name, values in (("initial control", u0), ("u_lower", plant.u_lower),
                         ("u_upper", plant.u_upper),
                         ("y_lower", plant.y_lower)):
        if not np.isfinite(values).all():
            raise ScenarioError(f"{name} must be finite")
    if np.any(u0 < plant.u_lower - scenario.eps_feas) or \
            np.any(u0 > plant.u_upper + scenario.eps_feas):
        raise ScenarioError("initial control violates its box limits")
    try:
        return plant.solve_from(u0)[1]
    except (SolverError, ModelError) as exc:
        raise ScenarioError(
            f"disrupted plant is not solvable at the initial control: {exc}"
        ) from exc


def run(scenario: Scenario):
    """Execute the scenario; returns (Outcome, list of TraceRecord).

    Each round solves the plant, computes the deficit and takes one protocol
    round. The solve is warm-started from the previous round's solution (the
    first round from the solve at u0 that validates the run); a warm solve
    that raises a SolverError is retried once from the cold start, so a warm
    start never fails a round that the cold solve passes. The stopping rules
    are tested in this order, and the first that holds ends the run:

      1. solver_failure: the plant solve (the cold retry, after a warm
         start) raised a SolverError or returned a non-finite reading;
      2. exact fixed point: neither controls nor beacons changed at all;
      3. eps_eq with every control pinned: every control sits within eps_eq
         of its ceiling and nothing moved more than eps_eq;
      4. eps_eq with the deficit cleared: no deficit is above eps_feas and
         nothing moved more than eps_eq;
      5. stall window: every control has been pinned with the same deficit,
         above eps_feas, for stall_window rounds in a row (status stalled);
      6. budget: the round budget ran out (status budget_exceeded).

    Rules 2 to 4 end in "converged" when the terminal control passes the
    feasibility check and in "stalled" otherwise. A state that moved less
    than eps_eq but is neither pinned nor clear of its deficit keeps going:
    it may still be crawling toward a feasible point through a weakly
    coupled agent. A NaN passes none of rules 2 to 5. When the solve fails
    at non-finite controls, the detail says that the protocol update
    overflowed.
    """
    try:
        plant, u0 = disrupted_setup(scenario)
    except ModelError as exc:
        raise ScenarioError(f"disruption left an invalid plant: {exc}") from exc
    state = _validate_run(scenario, plant, u0)
    adjacency = adjacency_matrix(scenario.comm_graph)
    gains = scenario.gains
    if gains is None:
        gains = auto_gains(plant, adjacency, u0)
    norm = gain_condition(gains.eta2, gains.eta3, adjacency)
    if not norm < 1.0 and not scenario.override_gain_check:
        raise ScenarioError(
            f"gain condition violated (spectral norm {norm:.6f} is not "
            "below 1); pass override_gain_check to run anyway")

    n = len(u0)
    u, beacons = u0, np.zeros(n)
    u_upper, y_lower = plant.u_upper, plant.y_lower
    measured = np.array(plant.measured_nodes, dtype=int)
    eps_eq, eps_feas = scenario.eps_eq, scenario.eps_feas
    pinned = u_upper - eps_eq
    rows = []
    keep, window = scenario.trace_decimation, scenario.stall_window
    prev_deficit = None
    frozen_rounds = 0
    count = np.count_nonzero

    def trace():
        """The kept rounds as TraceRecords, their messages counted at once."""
        sent = (message_counts([r[4] for r in rows], adjacency).tolist()
                if rows else [])
        return [TraceRecord._make((*row, m)) for row, m in zip(rows, sent)]

    def classify(status, rounds, equilibrium, detail=""):
        feas = False
        if status != "solver_failure":
            feas = feasibility_check(plant, u, eps_feas)
        max_v = float(deficit.max()) if n else 0.0
        max_b = float(beacons.max()) if n else 0.0
        if status == "equilibrium":
            status = "converged" if feas else "stalled"
        return Outcome(status=status, rounds=rounds, feasible=feas,
                       equilibrium=equilibrium, max_violation=max_v,
                       max_beacon=max_b, gain_norm=norm, detail=detail)

    deficit = np.zeros(n)
    for t in range(1, scenario.budget + 1):
        try:
            try:
                y, state = plant.solve_from(u, state)
            except SolverError:
                if state is None:
                    raise
                y, state = plant.solve_from(u)
            if count(np.isfinite(y)) != len(y):
                raise SolverError(f"round {t}: plant output is not finite")
        except SolverError as exc:
            detail = str(exc)
            if count(np.isfinite(u)) != n:
                # u0 is finite, so the update of the round before overflowed
                detail = (f"controls are not finite: the protocol update of "
                          f"round {t - 1} overflowed (a gain times a deficit "
                          f"or a beacon); {detail}")
            outcome = Outcome(status="solver_failure", rounds=t,
                              feasible=False, equilibrium=False,
                              max_violation=float("nan"),
                              max_beacon=float(beacons.max()),
                              gain_norm=norm, detail=detail)
            return outcome, trace()
        deficit = violation(y, y_lower, measured, n)
        u_next, beacons_next = protocol_round(u, beacons, deficit, gains,
                                              adjacency, u_upper)
        # Rules 2 to 4 of the docstring; the eps_eq test runs only when the
        # pinned or cleared test lets it decide. Each test counts the entries
        # that pass it, so a NaN fails it.
        at_ceiling = count(u_next >= pinned) == n
        reached_eq = (not count(u_next != u)
                      and not count(beacons_next != beacons)) or (
            (at_ceiling or count(deficit <= eps_feas) == n)
            and is_equilibrium(u, beacons, u_next, beacons_next, eps_eq))
        if at_ceiling and prev_deficit is not None and \
                count(deficit == prev_deficit) == n:
            frozen_rounds += 1
        else:
            frozen_rounds = 0
        prev_deficit = deficit
        u, beacons = u_next, beacons_next
        if t % keep == 0 or t == 1 or reached_eq:
            rows.append((t, u, y, deficit, beacons))
        if reached_eq:
            return classify("equilibrium", t, True), trace()
        # a NaN deficit has reset frozen_rounds, so it cannot stall the run
        if frozen_rounds >= window and count(deficit > eps_feas):
            return classify("stalled", t, False,
                            detail="controls pinned at the ceiling with a "
                                   "persistent violation"), trace()
    return classify("budget_exceeded", scenario.budget, False), trace()


@dataclass(frozen=True)
class MessageStats:
    """Per-round and cumulative message counts plus activation rounds."""

    per_round: tuple
    total: int
    first_beacon: dict
    first_assistance: dict
    first_change: dict


def _versus_previous(compare, u, u0):
    """compare(control, previous control) per (round, agent); the first
    round compares with u0 and is all False when u0 is None."""
    first = (np.zeros(u[:1].shape, dtype=bool) if u0 is None
             else compare(u[:1], np.asarray(u0, dtype=float)))
    return np.concatenate((first, compare(u[1:], u[:-1])))


def stacked(records, name):
    """One field of every record as a (records, agents) array."""
    rows = [getattr(r, name) for r in records]
    if len(set(map(len, rows))) > 1:
        raise ValueError(f"trace records disagree in the length of {name}")
    return np.concatenate(rows).reshape(len(records), -1)


def _first_rounds(mask, records) -> dict:
    """{agent: first round whose row of mask is set}, in order of that round."""
    agents = np.flatnonzero(mask.any(axis=0))
    first = mask[:, agents].argmax(axis=0)
    return {int(agents[j]): records[first[j]].round
            for j in np.argsort(first, kind="stable")}


def message_stats(records, comm_graph: Graph, u0=None) -> MessageStats:
    """Message accounting over a trace.

    first_beacon[k] is the first round agent k's beacon went positive;
    first_assistance[k] the first round some neighbor's beacon did (i.e.
    a message reached k); first_change[k] the first round k's control moved
    away from its previous value (needs u0 for the first round). Missing
    keys mean the event never happened.
    """
    if not records:
        raise ValueError("empty trace")
    per_round = tuple(r.messages for r in records)
    u = stacked(records, "u")
    beaconing = stacked(records, "beacons") > 0
    first_beacon = _first_rounds(beaconing, records)
    first_assistance = dict(sorted(_first_rounds(
        beaconing @ (adjacency_matrix(comm_graph) > 0), records).items()))
    first_change = _first_rounds(_versus_previous(np.not_equal, u, u0), records)
    return MessageStats(per_round=per_round, total=int(sum(per_round)),
                        first_beacon=first_beacon,
                        first_assistance=first_assistance,
                        first_change=first_change)


def verify_trace(records, comm_graph: Graph, u_upper, u0=None) -> list:
    """Check the protocol invariants on a trace; returns problem strings.

    Checks: controls never decrease and never exceed the ceiling, beacons
    stay nonnegative, a positive beacon always sits on a saturated control,
    every round's message count equals the summed degree of its beaconing
    agents (zero when nobody beacons), and locality: a control rises only if
    its own deficit is positive or a neighbor beaconed in the round before.
    Locality compares a record with the one before it (the first record of
    round 1 with u0 and no beacons), so it skips every record whose round
    does not directly follow the previous record's, as in a decimated trace.
    """
    if not records:
        return []
    u_upper = np.asarray(u_upper, dtype=float)
    adjacency = adjacency_matrix(comm_graph)
    u = stacked(records, "u")
    beacons = stacked(records, "beacons")
    beaconing = beacons > 0
    expect = beaconing @ adjacency.sum(axis=1).astype(int)
    # who beaconed in the round before each record; nobody before round 1
    before = np.vstack((np.zeros_like(beaconing[:1]), beaconing[:-1]))
    prompted = (stacked(records, "deficit") > 0) | (before @ adjacency > 0)
    follows = np.diff([r.round for r in records], prepend=0) == 1
    unprompted = (_versus_previous(np.greater, u, u0) & ~prompted
                  & follows[:, None])
    flags = np.column_stack((np.any(_versus_previous(np.less, u, u0), axis=1),
                             np.any(u > u_upper, axis=1),
                             np.any(beacons < 0, axis=1)))
    unsaturated = beaconing & (u != u_upper)
    messages = np.array([r.messages for r in records])
    problems = []
    for i in np.flatnonzero(flags.any(axis=1) | unsaturated.any(axis=1)
                            | unprompted.any(axis=1)
                            | (messages != expect)):
        r = records[i]
        problems += [f"round {r.round}: {text}" for text, bad in zip(
            ("control decreased", "control exceeds its ceiling",
             "negative beacon"), flags[i]) if bad]
        problems += [f"round {r.round}: beacon at unsaturated agent {k}"
                     for k in np.flatnonzero(unsaturated[i])]
        problems += [f"round {r.round}: control {k} rose without a deficit "
                     "or a neighbor's beacon"
                     for k in np.flatnonzero(unprompted[i])]
        if r.messages != expect[i]:
            problems.append(
                f"round {r.round}: {r.messages} messages, expected {expect[i]}")
    return problems
