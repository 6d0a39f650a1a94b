"""Scenario execution: disrupt a plant, run control rounds, record traces.

A run applies the scenario's disruption events to the plant, then loops
plant solve -> protocol round until the state stops moving or the round
budget runs out. Each retained round yields a TraceRecord; the terminal
state is classified into an Outcome. Runs are single-threaded and
deterministic: the same scenario yields bit-identical traces.
"""
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, ScenarioError, SolverError
from .graph import Graph, adjacency_matrix, is_connected
from .plant import (EPS_FEAS_DEFAULT, LinearPlant, PlantModel,
                    feasibility_check)
from .power import GridModel, GridPlant
from .protocol import (ProtocolGains, auto_gains, gain_condition,
                       is_equilibrium, protocol_round, violation)
from .water import WaterModel, WaterPlant


@dataclass(frozen=True)
class DisruptionEvent:
    """A change to the plant at time zero.

    Kinds:
        remove_edge:      params {"edge": (m, n)}; drops a line or pipe/pump.
        source_outage:    params {"node": k}; water only - the node stops
                          injecting and its control is pinned at zero.
        demand_change:    params {"node": k, "set": value} or
                          {"node": k, "scale": s}; rebases the demand-type
                          control at node k, shifting its box with it.
        parameter_change: params per plant type, e.g. {"edge": (m, n),
                          "susceptance": b} or {"offset": [...]} for the
                          affine test plants.
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


@dataclass(frozen=True)
class TraceRecord:
    """Snapshot taken at the end of one protocol round."""

    round: int
    u: np.ndarray
    y: np.ndarray
    deficit: np.ndarray
    beacons: np.ndarray
    messages: int
    wall_time: float


@dataclass(frozen=True)
class Outcome:
    """Terminal classification of a run.

    status is one of "converged", "stalled", "solver_failure",
    "budget_exceeded". Converged implies the terminal control passed the
    feasibility check; stalled means the state stopped moving (or froze at
    the ceiling) while a violation persisted.
    """

    status: str
    rounds: int
    feasible: bool
    equilibrium: bool
    max_violation: float
    max_beacon: float
    detail: str = ""


def _edge_index(graph: Graph, m: int, n: int) -> int:
    pair = (min(m, n), max(m, n))
    for i, e in enumerate(graph.edges):
        if e == pair:
            return i
    raise ScenarioError(f"edge {pair} does not exist in the plant graph")


def _drop_edge(graph: Graph, idx: int, aligned: tuple):
    edges = tuple(e for i, e in enumerate(graph.edges) if i != idx)
    kept = tuple(x for i, x in enumerate(aligned) if i != idx)
    return Graph(node_count=graph.node_count, edges=edges), kept


def apply_disruption(plant: PlantModel, event: DisruptionEvent) -> PlantModel:
    """Return the post-event plant; the input plant is left untouched."""
    if isinstance(plant, WaterPlant):
        return _disrupt_water(plant, event)
    if isinstance(plant, GridPlant):
        return _disrupt_grid(plant, event)
    if isinstance(plant, LinearPlant):
        return _disrupt_linear(plant, event)
    raise ScenarioError(f"no disruption support for {type(plant).__name__}")


def _disrupt_water(plant: WaterPlant, event: DisruptionEvent) -> WaterPlant:
    model = plant.model
    u_lower = plant.u_lower.copy()
    u_upper = plant.u_upper.copy()
    if event.kind == "remove_edge":
        m, n = event.params["edge"]
        idx = _edge_index(model.graph, m, n)
        graph, laws = _drop_edge(model.graph, idx, model.edge_laws)
        model = WaterModel(graph=graph, edge_laws=laws,
                           pressure_nodes=model.pressure_nodes)
    elif event.kind == "source_outage":
        node = int(event.params["node"])
        if node in model.pressure_nodes:
            pres = tuple(p for p in model.pressure_nodes if p != node)
            model = WaterModel(graph=model.graph, edge_laws=model.edge_laws,
                               pressure_nodes=pres)
        u_lower[node] = 0.0
        u_upper[node] = 0.0
    elif event.kind == "demand_change":
        node = int(event.params["node"])
        base, flex = _rebased_demand(event, u_lower[node],
                                     u_upper[node] - u_lower[node])
        u_lower[node] = base
        u_upper[node] = base + flex
    else:
        raise ScenarioError(f"unsupported water disruption '{event.kind}'")
    return WaterPlant(model=model, u_lower=u_lower, u_upper=u_upper,
                      y_lower=plant.y_lower, measured_nodes=plant.measured_nodes)


def _disrupt_grid(plant: GridPlant, event: DisruptionEvent) -> GridPlant:
    grid = plant.grid
    u_lower = plant.u_lower.copy()
    u_upper = plant.u_upper.copy()
    if event.kind == "remove_edge":
        m, n = event.params["edge"]
        idx = _edge_index(grid.graph, m, n)
        graph, sus = _drop_edge(grid.graph, idx, grid.susceptances)
        grid = GridModel(graph=graph, susceptances=sus,
                         generators=grid.generators, loads=grid.loads)
    elif event.kind == "demand_change":
        node = int(event.params["node"])
        if node not in grid.loads:
            raise ScenarioError(f"bus {node} is not a load bus")
        base, flex = _rebased_demand(event, u_lower[node],
                                     u_upper[node] - u_lower[node])
        u_lower[node] = base
        u_upper[node] = base + flex
    elif event.kind == "parameter_change":
        m, n = event.params["edge"]
        value = float(event.params["susceptance"])
        idx = _edge_index(grid.graph, m, n)
        sus = list(grid.susceptances)
        sus[idx] = value
        grid = GridModel(graph=grid.graph, susceptances=tuple(sus),
                         generators=grid.generators, loads=grid.loads)
    else:
        raise ScenarioError(f"unsupported grid disruption '{event.kind}'")
    return GridPlant(grid=grid, u_lower=u_lower, u_upper=u_upper,
                     y_lower=plant.y_lower)


def _disrupt_linear(plant: LinearPlant, event: DisruptionEvent) -> LinearPlant:
    if event.kind == "parameter_change" and "offset" in event.params:
        offset = np.asarray(event.params["offset"], dtype=float)
        if offset.shape != plant.offset.shape:
            raise ScenarioError("replacement offset has the wrong length")
        return LinearPlant(sensitivity=plant.sensitivity, offset=offset,
                           u_lower=plant.u_lower, u_upper=plant.u_upper,
                           y_lower=plant.y_lower,
                           measured_nodes=plant.measured_nodes)
    raise ScenarioError(f"unsupported linear-plant disruption '{event.kind}'")


def _rebased_demand(event: DisruptionEvent, old_base: float, flex: float):
    """New (base, flexibility) for a demand_change event."""
    if "set" in event.params:
        base = float(event.params["set"])
    elif "scale" in event.params:
        base = float(event.params["scale"]) * old_base
    else:
        raise ScenarioError("demand_change needs 'set' or 'scale'")
    if "flexibility" in event.params:
        flex = float(event.params["flexibility"])
    return base, flex


def _forced_initial(event: DisruptionEvent):
    """Agents whose control is physically moved by the event itself."""
    if event.kind in ("demand_change", "source_outage"):
        return [int(event.params["node"])]
    return []


def disrupted_setup(scenario: Scenario):
    """Apply all events; returns (plant', u0') with event-moved controls rebased."""
    plant = scenario.plant
    u0 = np.array(scenario.u0, dtype=float)
    for event in scenario.disruptions:
        plant = apply_disruption(plant, event)
        for node in _forced_initial(event):
            u0[node] = plant.u_lower[node]
    return plant, u0


def _validate_run(scenario: Scenario, plant: PlantModel, u0: np.ndarray):
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
    for name, values in (("initial control", u0), ("u_lower", plant.u_lower),
                         ("u_upper", plant.u_upper),
                         ("y_lower", plant.y_lower)):
        if not np.isfinite(values).all():
            raise ScenarioError(f"{name} must be finite")
    if np.any(u0 < plant.u_lower - scenario.eps_feas) or \
            np.any(u0 > plant.u_upper + scenario.eps_feas):
        raise ScenarioError("initial control violates its box limits")
    try:
        plant.solve(u0)
    except (SolverError, ModelError) as exc:
        raise ScenarioError(
            f"disrupted plant is not solvable at the initial control: {exc}"
        ) from exc


def run(scenario: Scenario):
    """Execute the scenario; returns (Outcome, list of TraceRecord).

    Each round solves the plant, computes the deficit and takes one protocol
    round. The stopping rules are tested in this order, and the first that
    holds ends the run:

      1. solver_failure: the plant solve raised a SolverError or returned a
         non-finite reading;
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
    coupled agent.
    """
    try:
        plant, u0 = disrupted_setup(scenario)
    except ModelError as exc:
        raise ScenarioError(f"disruption left an invalid plant: {exc}") from exc
    _validate_run(scenario, plant, u0)
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
    measured = plant.measured_nodes
    eps_eq, eps_feas = scenario.eps_eq, scenario.eps_feas
    pinned = u_upper - eps_eq
    records = []
    start = time.perf_counter()
    keep = max(1, int(scenario.trace_decimation))
    prev_deficit = None
    frozen_rounds = 0

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
                       max_beacon=max_b, detail=detail)

    deficit = np.zeros(n)
    for t in range(1, scenario.budget + 1):
        try:
            y = plant.solve(u)
            if not np.isfinite(y).all():
                raise SolverError(f"round {t}: plant output is not finite")
        except SolverError as exc:
            outcome = Outcome(status="solver_failure", rounds=t,
                              feasible=False, equilibrium=False,
                              max_violation=float("nan"),
                              max_beacon=float(beacons.max()),
                              detail=str(exc))
            return outcome, records
        deficit = violation(y, y_lower, measured, n)
        u_next, beacons_next, messages = protocol_round(
            u, beacons, deficit, gains, adjacency, u_upper)
        at_ceiling = (u_next >= pinned).all()
        # rules 2 to 4 of the docstring; the eps_eq test runs only when
        # the pinned or cleared test lets it decide
        reached_eq = (np.array_equal(u_next, u)
                      and np.array_equal(beacons_next, beacons)) or (
            (at_ceiling or deficit.max(initial=0.0) <= eps_feas)
            and is_equilibrium(u, beacons, u_next, beacons_next, eps_eq))
        if at_ceiling and prev_deficit is not None and \
                np.array_equal(deficit, prev_deficit):
            frozen_rounds += 1
        else:
            frozen_rounds = 0
        prev_deficit = deficit
        u, beacons = u_next, beacons_next
        if t % keep == 0 or t == 1 or reached_eq:
            records.append(TraceRecord(
                round=t, u=u, y=y, deficit=deficit, beacons=beacons,
                messages=messages, wall_time=time.perf_counter() - start))
        if reached_eq:
            return classify("equilibrium", t, True), records
        if frozen_rounds >= scenario.stall_window and deficit.max() > eps_feas:
            return classify("stalled", t, False,
                            detail="controls pinned at the ceiling with a "
                                   "persistent violation"), records
    return classify("budget_exceeded", scenario.budget, False), records


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


def _stacked(records, name):
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
    u = _stacked(records, "u")
    beaconing = _stacked(records, "beacons") > 0
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
    and every round's message count equals the summed degree of its
    beaconing agents (zero when nobody beacons).
    """
    if not records:
        return []
    u_upper = np.asarray(u_upper, dtype=float)
    u = _stacked(records, "u")
    beacons = _stacked(records, "beacons")
    beaconing = beacons > 0
    expect = beaconing @ adjacency_matrix(comm_graph).sum(axis=1).astype(int)
    flags = np.column_stack((np.any(_versus_previous(np.less, u, u0), axis=1),
                             np.any(u > u_upper, axis=1),
                             np.any(beacons < 0, axis=1)))
    unsaturated = beaconing & (u != u_upper)
    messages = np.array([r.messages for r in records])
    problems = []
    for i in np.flatnonzero(flags.any(axis=1) | unsaturated.any(axis=1)
                            | (messages != expect)):
        r = records[i]
        problems += [f"round {r.round}: {text}" for text, bad in zip(
            ("control decreased", "control exceeds its ceiling",
             "negative beacon"), flags[i]) if bad]
        problems += [f"round {r.round}: beacon at unsaturated agent {k}"
                     for k in np.flatnonzero(unsaturated[i])]
        if r.messages != expect[i]:
            problems.append(
                f"round {r.round}: {r.messages} messages, expected {expect[i]}")
    return problems
