"""Scenario files: JSON parsing, validation, and round-trip serialization.

A scenario document carries a plant section ("power", "water", or
"linear"), the communication overlay, optional gains ("auto" or explicit
per-agent vectors), the initial control, disruption events, and run knobs.
Node labels are strings; they map to dense 0-based indices in file order.
Power quantities are entered in MVAr against a configured MVA base and
held per-unit internally; water pressures are meters and injections m^3/hr.
"""
import json
import math
from importlib import resources

import numpy as np

from .errors import ScenarioError
from .graph import Graph
from .plant import LinearPlant
from .power import GridModel, GridPlant
from .protocol import ProtocolGains
from .sim import DisruptionEvent, Scenario
from .water import (DARCY_WEISBACH_EXP, PipeLaw, PumpLaw, WaterModel,
                    WaterPlant)

SCHEMA = "ripplesim-scenario/1"


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package."""
    if not name.endswith(".json"):
        name += ".json"
    return resources.files("ripplesim").joinpath("scenarios", name)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; bare names fall back to bundled ones."""
    import os

    if not os.path.exists(path):
        candidate = bundled_scenario_path(str(path))
        if candidate.is_file():
            path = str(candidate)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON ({exc.msg})"
        ) from exc
    return scenario_from_dict(doc, source=str(path))


def _need(doc, key, where):
    if key not in doc:
        raise ScenarioError(f"{where}: missing required key '{key}'")
    return doc[key]


def _num(doc, key, where, default=None):
    if key not in doc:
        if default is None:
            raise ScenarioError(f"{where}: missing required key '{key}'")
        return float(default)
    try:
        value = float(doc[key])
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}.{key}: expected a number") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{where}.{key}: expected a finite number")
    return value


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: scenario document must be an object")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(
            f"{source}: schema must be '{SCHEMA}', got {doc.get('schema')!r}")
    plant_doc = _need(doc, "plant", source)
    kind = _need(plant_doc, "type", "plant")
    if kind == "power":
        plant, labels, u0 = _power_plant(plant_doc)
    elif kind == "water":
        plant, labels, u0 = _water_plant(plant_doc)
    elif kind == "linear":
        plant, labels, u0 = _linear_plant(plant_doc)
    else:
        raise ScenarioError(f"plant.type: unknown plant type '{kind}'")
    index = {lab: i for i, lab in enumerate(labels)}

    comm_doc = _need(doc, "comm_graph", source)
    comm_edges = [( _resolve(index, a, "comm_graph"),
                    _resolve(index, b, "comm_graph"))
                  for a, b in _need(comm_doc, "edges", "comm_graph")]
    comm_graph = Graph(node_count=len(labels), edges=tuple(comm_edges))

    init_doc = doc.get("initial", {})
    if "u0" in init_doc:
        raw = init_doc["u0"]
        if isinstance(raw, dict):
            for lab, val in raw.items():
                u0[_resolve(index, lab, "initial.u0")] = float(val)
        else:
            if len(raw) != len(labels):
                raise ScenarioError("initial.u0: wrong length")
            u0 = np.asarray(raw, dtype=float)

    gains = _gains(doc.get("gains", "auto"), len(labels))
    disruptions = tuple(_event(ev, index, i)
                        for i, ev in enumerate(_event_list(doc)))

    run_doc = doc.get("run", {})
    scenario = Scenario(
        plant=plant,
        comm_graph=comm_graph,
        u0=u0,
        gains=gains,
        disruptions=disruptions,
        budget=int(run_doc.get("budget", 100_000)),
        eps_eq=_num(run_doc, "eps_eq", "run", 1e-8),
        eps_feas=_num(run_doc, "eps_feas", "run", 1e-6),
        stall_window=int(run_doc.get("stall_window", 100)),
        trace_decimation=int(run_doc.get("trace_decimation", 1)),
        override_gain_check=bool(run_doc.get("override_gain_check", False)),
        seed=int(run_doc.get("seed", 0)),
        labels=tuple(labels),
    )
    scenario.raw = _normalized(doc)
    return scenario


def _event_list(doc):
    ev = doc.get("disruption", [])
    if isinstance(ev, dict):
        return [ev]
    return list(ev)


def _resolve(index, label, where):
    lab = str(label)
    if lab not in index:
        raise ScenarioError(f"{where}: unknown node label '{lab}'")
    return index[lab]


def _gains(doc, n):
    if doc == "auto" or doc is None:
        return None
    def vec(key):
        v = doc.get(key, "auto")
        if v == "auto":
            raise ScenarioError(
                f"gains.{key}: mixing auto and explicit gains is not supported")
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0:
            arr = np.full(n, float(arr))
        if arr.shape != (n,):
            raise ScenarioError(f"gains.{key}: wrong length")
        return arr
    eta = {key: vec(key) for key in ("eta1", "eta2", "eta3")}
    try:
        return ProtocolGains(**eta)
    except ValueError as exc:
        raise ScenarioError(f"gains: {exc}") from exc


def _event(ev, index, i):
    where = f"disruption[{i}]"
    kind = _need(ev, "kind", where)
    params = {}
    if kind == "remove_edge":
        params["edge"] = (_resolve(index, _need(ev, "from", where), where),
                          _resolve(index, _need(ev, "to", where), where))
    elif kind == "source_outage":
        params["node"] = _resolve(index, _need(ev, "node", where), where)
    elif kind == "demand_change":
        params["node"] = _resolve(index, _need(ev, "node", where), where)
        if "set" in ev:
            params["set"] = float(ev["set"])
        if "scale" in ev:
            params["scale"] = float(ev["scale"])
        if "flexibility" in ev:
            params["flexibility"] = float(ev["flexibility"])
        if "set" not in params and "scale" not in params:
            raise ScenarioError(f"{where}: demand_change needs 'set' or 'scale'")
    elif kind == "parameter_change":
        if "edge" in ev or ("from" in ev and "to" in ev):
            pair = ev.get("edge") or (ev["from"], ev["to"])
            params["edge"] = (_resolve(index, pair[0], where),
                              _resolve(index, pair[1], where))
        if "susceptance" in ev:
            params["susceptance"] = float(ev["susceptance"])
        if "offset" in ev:
            params["offset"] = tuple(float(x) for x in ev["offset"])
    else:
        raise ScenarioError(f"{where}: unknown disruption kind '{kind}'")
    return DisruptionEvent(kind=kind, params=params)


def _power_plant(doc):
    buses = _need(doc, "buses", "plant")
    base_mva = _num(doc, "base_mva", "plant", 100.0)
    labels = [str(_need(b, "label", f"plant.buses[{i}]"))
              for i, b in enumerate(buses)]
    if len(set(labels)) != len(labels):
        raise ScenarioError("plant.buses: duplicate bus label")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(buses)
    generators, loads = [], []
    u_lower = np.zeros(n)
    u_upper = np.zeros(n)
    u0 = np.zeros(n)
    y_lower = []
    for i, b in enumerate(buses):
        where = f"plant.buses[{i}]"
        kind = _need(b, "kind", where)
        if kind == "generator":
            generators.append(i)
            v0 = _num(b, "v_initial", where)
            u0[i] = v0
            u_lower[i] = v0
            u_upper[i] = _num(b, "v_max", where)
        elif kind == "load":
            loads.append(i)
            q0 = _num(b, "q_mvar", where) / base_mva
            flex = _num(b, "flex_mvar", where, 0.0) / base_mva
            u0[i] = q0
            u_lower[i] = q0
            u_upper[i] = q0 + flex
            y_lower.append(_num(b, "v_min", where))
        else:
            raise ScenarioError(f"{where}.kind: expected generator or load")
    lines = _need(doc, "lines", "plant")
    edges, sus = [], []
    for i, ln in enumerate(lines):
        where = f"plant.lines[{i}]"
        edges.append((_resolve(index, _need(ln, "from", where), where),
                      _resolve(index, _need(ln, "to", where), where)))
        sus.append(_num(ln, "susceptance", where))
    graph = Graph(node_count=n, edges=tuple(edges))
    grid = GridModel(graph=graph, susceptances=tuple(sus),
                     generators=tuple(generators), loads=tuple(loads))
    plant = GridPlant(grid=grid, u_lower=u_lower, u_upper=u_upper,
                      y_lower=np.asarray(y_lower))
    return plant, labels, u0


def _water_plant(doc):
    nodes = _need(doc, "nodes", "plant")
    labels = [str(_need(nd, "label", f"plant.nodes[{i}]"))
              for i, nd in enumerate(nodes)]
    if len(set(labels)) != len(labels):
        raise ScenarioError("plant.nodes: duplicate node label")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(nodes)
    u_lower = np.zeros(n)
    u_upper = np.zeros(n)
    u0 = np.zeros(n)
    pressure_nodes = []
    measured, y_lower = [], []
    for i, nd in enumerate(nodes):
        where = f"plant.nodes[{i}]"
        role = _need(nd, "role", where)
        if role not in ("reservoir", "tank", "junction", "consumer"):
            raise ScenarioError(f"{where}.role: unknown role '{role}'")
        if "pressure" in nd:
            if role not in ("reservoir", "tank"):
                raise ScenarioError(
                    f"{where}: only reservoirs/tanks can fix pressure")
            entry = nd["pressure"]
            pressure_nodes.append(i)
            u0[i] = _num(entry, "initial", f"{where}.pressure")
            u_lower[i] = _num(entry, "min", f"{where}.pressure", u0[i])
            u_upper[i] = _num(entry, "max", f"{where}.pressure", u0[i])
        elif "injection" in nd:
            entry = nd["injection"]
            u0[i] = _num(entry, "initial", f"{where}.injection")
            u_lower[i] = _num(entry, "min", f"{where}.injection", u0[i])
            u_upper[i] = _num(entry, "max", f"{where}.injection", u0[i])
        elif role == "junction":
            pass  # fixed zero injection
        else:
            raise ScenarioError(
                f"{where}: needs a 'pressure' or 'injection' section")
        if "pressure_min" in nd:
            measured.append(i)
            y_lower.append(_num(nd, "pressure_min", where))
    edges_doc = _need(doc, "edges", "plant")
    edges, laws = [], []
    for i, ed in enumerate(edges_doc):
        where = f"plant.edges[{i}]"
        edges.append((_resolve(index, _need(ed, "from", where), where),
                      _resolve(index, _need(ed, "to", where), where)))
        kind = _need(ed, "kind", where)
        if kind == "pipe":
            laws.append(PipeLaw(
                coefficient=_num(ed, "coefficient", where),
                exponent=_num(ed, "exponent", where, DARCY_WEISBACH_EXP)))
        elif kind == "pump":
            laws.append(PumpLaw(gain=_num(ed, "gain", where)))
        else:
            raise ScenarioError(f"{where}.kind: expected pipe or pump")
    graph = Graph(node_count=n, edges=tuple(edges))
    laws = _align_laws(edges, laws, graph)
    model = WaterModel(graph=graph, edge_laws=tuple(laws),
                       pressure_nodes=tuple(pressure_nodes))
    plant = WaterPlant(model=model, u_lower=u_lower, u_upper=u_upper,
                       y_lower=np.asarray(y_lower),
                       measured_nodes=tuple(measured))
    return plant, labels, u0


def _align_laws(declared_edges, laws, graph: Graph):
    """Match edge laws to the graph's canonical edge order.

    Pumps are directional: one declared from m to n boosts pressure in the
    m->n direction. When canonicalization swaps the pair, the pump law is
    marked reversed so the solver keeps the declared boost direction.
    Pipes are symmetric and need no adjustment.
    """
    aligned = [None] * len(graph.edges)
    pos = {e: i for i, e in enumerate(graph.edges)}
    for (m, n), law in zip(declared_edges, laws):
        canon = (min(m, n), max(m, n))
        if isinstance(law, PumpLaw) and (m, n) != canon:
            law = PumpLaw(gain=law.gain, reverse=True)
        aligned[pos[canon]] = law
    return aligned


def _linear_plant(doc):
    sens = np.asarray(_need(doc, "sensitivity", "plant"), dtype=float)
    if sens.ndim != 2:
        raise ScenarioError("plant.sensitivity: expected a matrix")
    m, n = sens.shape
    labels = [str(x) for x in doc.get("labels", [str(i + 1) for i in range(n)])]
    offset = np.asarray(doc.get("offset", np.zeros(m)), dtype=float)
    u_lower = np.asarray(_need(doc, "u_lower", "plant"), dtype=float)
    u_upper = np.asarray(_need(doc, "u_upper", "plant"), dtype=float)
    y_lower = np.asarray(_need(doc, "y_lower", "plant"), dtype=float)
    index = {lab: i for i, lab in enumerate(labels)}
    measured = tuple(_resolve(index, lab, "plant.measured")
                     for lab in _need(doc, "measured", "plant"))
    plant = LinearPlant(sensitivity=sens, offset=offset, u_lower=u_lower,
                        u_upper=u_upper, y_lower=y_lower,
                        measured_nodes=measured)
    return plant, labels, u_lower.copy()


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Reserialize a loaded scenario; inverse of scenario_from_dict."""
    raw = getattr(scenario, "raw", None)
    if raw is None:
        raise ScenarioError(
            "only scenarios loaded from documents can be reserialized")
    return json.loads(json.dumps(raw))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
