"""Scenario execution: disrupt a plant, run control rounds, record traces.

A run applies the scenario's disruption events to the plant and reads it
at the initial control, then loops protocol round -> plant solve until the
state stops moving or the round budget runs out, so each control is read
once. Each plant solve after set-up is warm-started from the previous
solution (PlantModel.solve_from), since the control moves little from
round to round; each reading goes to one call of the round kernel
(protocol_round) on constants built once per run. The arithmetic of
a round stays in numpy; its stopping rules, the equilibrium test
(is_equilibrium) included, compare Python floats from tolist(), which at a
few agents costs less than numpy calls. A retained round appends its
round, u, y and beacons to one list each, and every _BLOCK arrays of a
list are joined into one; when the run ends each list is joined once
more, the deficit and message columns are derived from the y and beacon
columns, and the terminal state is classified into an Outcome. Runs are
single-threaded and deterministic: the same scenario yields bit-identical
traces.
"""
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import isfinite
from numbers import Real
from operator import ge, gt
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ModelError, ScenarioError, SolverError
from .graph import Graph, _integer, adjacency_matrix, is_connected
from .plant import EPS_FEAS_DEFAULT, PlantModel, _frozen
from .protocol import (ProtocolGains, auto_gains, gain_condition,
                       is_equilibrium, message_counts, protocol_round,
                       round_constants)

# kept rounds per joined block of a trace column: a long run holds at most
# this many per-round arrays per column, not one per kept round
_BLOCK = 4096


@dataclass(frozen=True)
class DisruptionEvent:
    """A change to the plant at time zero.

    Kinds: remove_edge, source_outage, demand_change and parameter_change.
    Each plant type's disrupted method (LinearPlant, GridPlant, WaterPlant)
    applies the kinds it supports and says which params each one takes;
    demand_change and source_outage also move the initial control of their
    params["node"] to its new lower limit (disrupted_setup). params is
    kept as a read-only copy. A node index or an end of params["edge"]
    that is not an integer is a ModelError, and so is an edge that is not
    a tuple or list of two ends.
    """

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if "node" in self.params:
            _integer(self.params["node"], "disruption node")
        if "edge" in self.params:
            edge = self.params["edge"]
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise ModelError(f"disruption edge must be a pair of node "
                                 f"indices, got {edge!r}")
            for end in edge:
                _integer(end, "disruption edge end")


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: plant, overlay, gains, start, events, knobs;
    frozen, and checked when made (dataclasses.replace makes a copy). u0
    is kept as a read-only float copy, and labels, None or a tuple or list
    of one label per control with distinct str forms, as a tuple."""

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

    def __post_init__(self):
        n = self.plant.control_dim
        if np.shape(self.u0) != (n,):
            raise ScenarioError("initial control has the wrong length")
        try:
            u0 = _frozen(self.u0)
        except (TypeError, ValueError):  # an entry that is not a number
            u0 = None
        if u0 is None or not all(map(isfinite, u0.tolist())):
            raise ScenarioError("initial control must be finite")
        object.__setattr__(self, "u0", u0)
        if self.gains is not None and len(self.gains.eta1) != n:
            raise ScenarioError(f"gains have {len(self.gains.eta1)} entries "
                                f"but the plant has {n} controls")
        for event in self.disruptions:
            node = event.params.get("node")
            if node is not None and not 0 <= node < n:
                raise ScenarioError(f"disruption node {node} is outside the "
                                    f"control range [0, {n})")
        if self.comm_graph.node_count != n:
            raise ScenarioError("communication graph size disagrees with plant")
        if not is_connected(self.comm_graph):
            raise ScenarioError("communication graph must be connected")
        for name in ("eps_eq", "eps_feas"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or \
                    not 0.0 < value < np.inf:
                raise ScenarioError(f"{name} must be finite and positive")
        for name, least in (("budget", 1), ("stall_window", 1),
                            ("trace_decimation", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, (int, np.integer)) and value >= least):
                raise ScenarioError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if not isinstance(self.override_gain_check, bool):
            raise ScenarioError("override_gain_check must be a bool, got "
                                f"{self.override_gain_check!r}")
        if self.labels is not None:
            labels = tuple(self.labels) if isinstance(
                self.labels, (tuple, list)) else ()
            if len(labels) != n or len(set(map(str, labels))) != n:
                raise ScenarioError(
                    f"labels must name each of the {n} controls once")
            object.__setattr__(self, "labels", labels)

    def node_label(self, index: int) -> str:
        if self.labels is not None:
            return str(self.labels[index])
        return str(index + 1)


class TraceRecord(NamedTuple):
    """One retained round of a Trace: its round, views of its rows of u,
    y, deficit and beacons, and the messages it sent."""

    round: int
    u: np.ndarray
    y: np.ndarray
    deficit: np.ndarray
    beacons: np.ndarray
    messages: int


# (column, dtype, dimensions) of a Trace, in TraceRecord order
_COLUMNS = (("rounds", int, 1), ("u", float, 2), ("y", float, 2),
            ("deficit", float, 2), ("beacons", float, 2),
            ("messages", int, 1))


@dataclass(frozen=True, eq=False)
class Trace(Sequence):
    """The retained rounds of a run as columns, one row per retained round.

    rounds and messages are integer vectors; u, deficit and beacons are
    (records, agents) arrays and y is a (records, measured outputs) array.
    trace[i] is the TraceRecord of row i (its arrays are views of the
    columns), and a Trace iterates over those records.
    """

    rounds: np.ndarray
    u: np.ndarray
    y: np.ndarray
    deficit: np.ndarray
    beacons: np.ndarray
    messages: np.ndarray

    def __post_init__(self):
        records = np.shape(self.rounds)[:1]
        for name, dtype, ndim in _COLUMNS:
            column = np.asarray(getattr(self, name))
            if dtype is int and column.size and column.dtype.kind not in "iu":
                raise ValueError(f"trace column {name} must hold integers")
            column = column.astype(dtype, copy=False)
            if column.ndim != ndim or column.shape[:1] != records:
                raise ValueError(f"trace column {name} must have {ndim} "
                                 "dimension(s) and one row per record")
            object.__setattr__(self, name, column)
        if not self.u.shape == self.deficit.shape == self.beacons.shape:
            raise ValueError("trace columns u, deficit and beacons disagree "
                             "in width")

    def __len__(self):
        return len(self.rounds)

    def __getitem__(self, i):
        return TraceRecord(int(self.rounds[i]), self.u[i], self.y[i],
                           self.deficit[i], self.beacons[i],
                           int(self.messages[i]))


@dataclass(frozen=True)
class Outcome:
    """Terminal classification of a run.

    status is one of "converged", "stalled", "solver_failure",
    "budget_exceeded". feasible means the terminal reading y cleared every
    floor within eps_feas, and converged implies it; stalled means the
    state stopped moving (or froze at the ceiling) while a violation
    persisted; a solver_failure is never feasible and its max_violation is
    NaN. gain_norm is the gain condition's spectral norm that run checked
    before the first round. plant and u0 are the disrupted plant that the
    run acted on and its rebased start (disrupted_setup); u is the control
    the run stopped at and y is plant.solve(u), or None when that solve
    raised a SolverError and after a solver_failure, which solves nothing
    more. These four take no part in comparisons.
    """

    status: str
    rounds: int
    feasible: bool
    equilibrium: bool
    max_violation: float
    max_beacon: float
    gain_norm: float
    detail: str = ""
    plant: PlantModel | None = field(default=None, compare=False, repr=False)
    u0: np.ndarray | None = field(default=None, compare=False, repr=False)
    u: np.ndarray | None = field(default=None, compare=False, repr=False)
    y: np.ndarray | None = field(default=None, compare=False, repr=False)


def disrupted_setup(scenario: Scenario):
    """Apply all events; returns (plant', u0') with event-moved controls
    rebased. An event that leaves an invalid plant raises ScenarioError."""
    plant = scenario.plant
    u0 = np.array(scenario.u0, dtype=float)
    for event in scenario.disruptions:
        try:
            plant = plant.disrupted(event)
        except ModelError as exc:
            raise ScenarioError(
                f"disruption left an invalid plant: {exc}") from exc
        if event.kind in ("demand_change", "source_outage"):
            # the event itself moves this control to its new base
            node = event.params["node"]
            u0[node] = plant.u_lower[node]
    return plant, u0


def run_setup(scenario: Scenario):
    """(plant, u0, y, state, adjacency, gains, gain norm) of a run, or a
    ScenarioError when its disrupted plant cannot start (u0 outside the box,
    or not solvable there to a finite reading): disrupted_setup's plant and
    start, its reading and solve state at u0, the overlay's adjacency, the
    gains (the scenario's, else auto_gains at u0 once it solves) and their
    gain_condition norm, which the caller judges."""
    plant, u0 = disrupted_setup(scenario)
    if (u0 < plant.u_lower - scenario.eps_feas).any() or \
            (u0 > plant.u_upper + scenario.eps_feas).any():
        raise ScenarioError("initial control violates its box limits")
    try:
        y, state = plant.solve_from(u0)
        if not all(map(isfinite, y.tolist())):
            raise SolverError("plant output is not finite")
    except (SolverError, ModelError) as exc:
        raise ScenarioError(
            f"disrupted plant is not solvable at the initial control: {exc}"
        ) from exc
    adjacency = adjacency_matrix(scenario.comm_graph)
    gains = scenario.gains
    if gains is None:
        gains = auto_gains(plant, adjacency, u0)
    return (plant, u0, y, state, adjacency, gains,
            gain_condition(gains.eta2, gains.eta3, adjacency))


def run(scenario: Scenario):
    """Execute the scenario on its disrupted plant; returns (Outcome, Trace).

    Each round takes one protocol round, which also returns the deficit,
    on the reading at its control: round 1 on run_setup's reading at u0,
    and each later round on the plant solved at the control that the round
    before it left, so each control is read once. That solve is
    warm-started from the previous solution (the first from run_setup's
    solve at u0); a warm solve that raises a SolverError is retried once
    from the cold start, so a warm start never fails a round that the cold
    solve passes. The stopping rules are tested in this order, and the
    first that holds ends the run:

      1. solver_failure: the solve for the round (the cold retry, after a
         warm start) raised a SolverError or returned a non-finite
         reading, so the round takes no protocol round;
      2. exact fixed point: neither controls nor beacons changed at all;
      3. eps_eq with every control pinned: every control sits within eps_eq
         of its ceiling and nothing moved more than eps_eq;
      4. eps_eq with the deficit cleared: no deficit is above eps_feas and
         nothing moved more than eps_eq;
      5. stall window: every control has been pinned with the same deficit,
         above eps_feas, for stall_window rounds in a row (status stalled);
      6. budget: the round budget ran out (status budget_exceeded).

    Whichever of rules 2 to 6 fires, the plant is then solved cold once at
    the control the run stopped at (Outcome.u and Outcome.y); a
    solver_failure solves nothing more and leaves Outcome.y None. Rules 2
    to 4 end in "converged" when that reading clears every floor within
    eps_feas and in "stalled" otherwise; a terminal solve that raises a
    SolverError leaves Outcome.y None, and an empty detail then names it.
    A state that moved less than eps_eq but is neither pinned nor clear of
    its deficit keeps going: it may still be crawling toward a feasible
    point through a weakly coupled agent. A NaN passes none of rules 2 to
    5. When the solve fails at non-finite controls, the detail says that
    the protocol update overflowed.

    The trace keeps round 1, every trace_decimation-th round and the round
    the run stopped in (Outcome.rounds), whichever rule stopped it; a round
    whose solve fails is not kept, and round 1 acts on the reading that
    run_setup checked, so a trace is never empty. Its deficit column is
    computed once, from its y column, as protocol_round computes the
    deficit of a round from its reading.
    """
    plant, u0, y, state, adjacency, gains, norm = run_setup(scenario)
    if not norm < 1.0 and not scenario.override_gain_check:
        raise ScenarioError(
            f"gain condition violated (spectral norm {norm:.6f} is not "
            "below 1); pass override_gain_check to run anyway")

    n, m = len(u0), len(plant.measured_nodes)
    u, beacons = u0, np.zeros(n)
    constants = round_constants(gains, adjacency, plant.u_upper,
                                plant.y_lower, plant.measured_nodes)
    eps_eq, eps_feas = scenario.eps_eq, scenario.eps_feas
    # The stopping rules compare Python floats (tolist) entry by entry: each
    # test stops at its first failing entry, and a NaN fails every one. Two
    # lists are equal if each pair of entries is the same object or equal,
    # and two tolist() calls never share an object.
    pinned = (plant.u_upper - eps_eq).tolist()
    feas_floor = [float(eps_feas)] * n
    u_seen = u.tolist()
    prev_deficit = np.full(n, np.nan).tolist()  # all NaN: equal to nothing
    columns = ([], [], [], [])  # kept rounds, u, y, beacons
    keep_round, keep_u, keep_y, keep_beacons = (column.append
                                                 for column in columns)
    keep, window = scenario.trace_decimation, scenario.stall_window
    budget, frozen_rounds = scenario.budget, 0
    stop, detail = None, ""  # set by the stopping rule that ends the run

    for t in range(1, budget + 1):
        deficit, u_next, beacons_next = protocol_round(u, beacons, y,
                                                       constants)
        # Rules 2 to 4 of the docstring; the beacons are compared and the
        # eps_eq test runs only when the tests before them let them decide
        u_now, deficit_now = u_next.tolist(), deficit.tolist()
        at_ceiling = all(map(ge, u_now, pinned))
        reached_eq = (u_now == u_seen
                      and beacons_next.tolist() == beacons.tolist()) or (
            (at_ceiling or all(map(ge, feas_floor, deficit_now)))
            and is_equilibrium(u_seen, beacons.tolist(), u_now,
                               beacons_next.tolist(), eps_eq))
        if at_ceiling and deficit_now == prev_deficit:
            frozen_rounds += 1
        else:
            frozen_rounds = 0
        prev_deficit, u_seen = deficit_now, u_now
        u, beacons = u_next, beacons_next
        if reached_eq:
            stop = "equilibrium"
        # a NaN deficit has reset frozen_rounds, so it cannot stall the run
        elif frozen_rounds >= window and any(map(gt, deficit_now, feas_floor)):
            stop, detail = "stalled", ("controls pinned at the ceiling with a "
                                       "persistent violation")
        elif t == budget:
            stop = "budget_exceeded"
        if t % keep == 0 or t == 1 or stop:
            keep_round(t)
            keep_u(u)
            keep_y(y)
            keep_beacons(beacons)
            if len(columns[0]) % _BLOCK == 0:
                for rows in columns[1:]:
                    rows[-_BLOCK:] = [np.concatenate(rows[-_BLOCK:])]
        if stop:
            break
        try:  # the reading of round t + 1
            try:
                y, state = plant.solve_from(u, state)
            except SolverError:
                if state is None:
                    raise
                y, state = plant.solve_from(u)
            if not all(map(isfinite, y.tolist())):
                raise SolverError(f"round {t + 1}: plant output is not finite")
        except SolverError as exc:  # the run stops in round t + 1
            t, stop, detail = t + 1, "solver_failure", str(exc)
            if not all(map(isfinite, u_seen)):
                # u0 is finite, so the update of the round before overflowed
                detail = (f"controls are not finite: the protocol update of "
                          f"round {t - 1} overflowed (a gain times a deficit "
                          f"or a beacon); {detail}")
            break

    failed, equilibrium = stop == "solver_failure", stop == "equilibrium"
    # the terminal reading, unless a reading failed; the round kernel keeps
    # u inside its box
    try:
        y = None if failed else plant.solve(u)
    except SolverError as exc:
        y, detail = None, detail or f"terminal plant solve failed: {exc}"
    feasible = y is not None and bool((y >= plant.y_lower - eps_feas).all())
    if equilibrium:
        stop = "converged" if feasible else "stalled"
    outcome = Outcome(
        status=stop, rounds=t, feasible=feasible, equilibrium=equilibrium,
        max_violation=float("nan") if failed else float(deficit.max()),
        max_beacon=float(beacons.max()), gain_norm=norm, detail=detail,
        plant=plant, u0=u0, u=u, y=y)
    # the messages are counted at once; each column is joined in turn, and
    # its blocks and per-round arrays are released before the next is joined
    records = len(columns[0])
    u_col, y_col, beacons_col = map(
        _stacked, columns[1:], [(records, width) for width in (n, m, n)])
    deficit_col = np.zeros((records, n))  # as protocol_round computes it
    deficit_col[:, plant.measured_nodes] = np.maximum(
        plant.y_lower - y_col, 0.0)
    return outcome, Trace(columns[0], u_col, y_col, deficit_col, beacons_col,
                          message_counts(beacons_col, adjacency))


def _stacked(rows, shape):
    """A column's list of 1-D rows and joined blocks of them as one array of
    shape (kept rows, width); the list is emptied."""
    stacked = np.concatenate(rows or [np.empty(0)]).reshape(shape)
    rows.clear()
    return stacked


@dataclass(frozen=True)
class MessageStats:
    """Cumulative message count plus activation rounds."""

    total: int
    first_beacon: dict
    first_assistance: dict
    first_change: dict


def _previous(rows, first):
    """rows shifted down by one: row i holds row i - 1, and row 0 first."""
    previous = np.empty_like(rows)
    previous[:1] = first
    previous[1:] = rows[:-1]
    return previous


def _first_rounds(mask, rounds) -> dict:
    """{agent: first round whose row of mask is set}, in order of that round."""
    agents = mask.any(axis=0).nonzero()[0]
    # no agent is set in an empty mask, whose zero rows argmax rejects
    first = mask[:, agents].argmax(axis=0) if agents.size else agents
    order = first.argsort(kind="stable")
    return dict(zip(agents[order].tolist(), rounds[first[order]].tolist()))


def message_stats(trace: Trace, comm_graph: Graph, u0) -> MessageStats:
    """Message accounting over a trace.

    first_beacon[k] is the first round agent k's beacon went positive;
    first_assistance[k] the first round some neighbor's beacon did (i.e.
    a message reached k); first_change[k] the first round k's control moved
    away from its previous value (u0, the run's start, for the first
    round). Missing keys mean the event never happened, so an empty trace
    gives MessageStats(0, {}, {}, {}).
    """
    beaconing, rounds = trace.beacons > 0, trace.rounds
    assisted = beaconing @ (adjacency_matrix(comm_graph) > 0)
    return MessageStats(
        total=sum(trace.messages.tolist()),
        first_beacon=_first_rounds(beaconing, rounds),
        first_assistance=dict(sorted(_first_rounds(assisted, rounds).items())),
        first_change=_first_rounds(trace.u != _previous(trace.u, u0), rounds))


def verify_trace(trace: Trace, comm_graph: Graph, u_upper, u0) -> list:
    """Check the protocol invariants on a trace; returns problem strings.

    Checks: controls never decrease and never exceed the ceiling, beacons
    stay nonnegative, a positive beacon always sits on a saturated control,
    every round's message count equals the summed degree of its beaconing
    agents (zero when nobody beacons), and locality: a control rises only if
    its own deficit is positive or a neighbor beaconed in the round before.
    Locality compares a record with the one before it (the first record of
    round 1 with u0 and no beacons), so it skips every record whose round
    does not directly follow the previous record's, as in a decimated trace.
    An empty trace has no problems.
    """
    u_upper = np.asarray(u_upper, dtype=float)
    adjacency = adjacency_matrix(comm_graph)
    u, beacons, messages = trace.u, trace.beacons, trace.messages
    previous, beaconing = _previous(u, u0), beacons > 0
    expect = beaconing @ adjacency.sum(axis=1).astype(int)
    # who beaconed in the round before each record; nobody before round 1
    prompted = (trace.deficit > 0) | (_previous(beaconing, 0) @ adjacency > 0)
    follows = trace.rounds - _previous(trace.rounds, 0) == 1
    unprompted = (u > previous) & ~prompted & follows[:, None]
    decreased, exceeds, negative = u < previous, u > u_upper, beacons < 0
    unsaturated = beaconing & (u != u_upper)
    bad = decreased | exceeds | negative | unsaturated | unprompted
    problems = []
    for i in (bad.any(axis=1) | (messages != expect)).nonzero()[0]:
        t = trace.rounds[i]
        problems += [f"round {t}: {text}" for text, flags in (
            ("control decreased", decreased), ("control exceeds its ceiling",
             exceeds), ("negative beacon", negative)) if flags[i].any()]
        problems += [f"round {t}: beacon at unsaturated agent {k}"
                     for k in unsaturated[i].nonzero()[0]]
        problems += [f"round {t}: control {k} rose without a deficit "
                     "or a neighbor's beacon"
                     for k in unprompted[i].nonzero()[0]]
        if messages[i] != expect[i]:
            problems.append(
                f"round {t}: {messages[i]} messages, expected {expect[i]}")
    return problems
