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

from .errors import ModelError, ScenarioError
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


def _need(doc, key, where, default=None, kind=object):
    """doc[key], or default when the key is missing and a default is given;
    doc must be a JSON object and the value an instance of kind."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected an object")
    if key not in doc and default is None:
        raise ScenarioError(f"{where}: missing required key '{key}'")
    value = doc.get(key, default)
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}.{key}: expected a {kind.__name__}")
    return value


def _num(doc, key, where, default=None):
    raw = _need(doc, key, where, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = None
    if value is None or isinstance(raw, bool):
        raise ScenarioError(f"{where}.{key}: expected a number")
    if not math.isfinite(value):
        raise ScenarioError(f"{where}.{key}: expected a finite number")
    return value


def _int(doc, key, where, default):
    """A non-negative integer knob: a finite integral number, not a bool."""
    value = _need(doc, key, where, default)
    if isinstance(value, bool) or not isinstance(value, int):
        value = _num(doc, key, where, default)
    if value < 0 or value != int(value):
        raise ScenarioError(f"{where}.{key}: expected a non-negative integer")
    return int(value)


def _finite_array(value, where, length=None):
    """value as a float array; raises ScenarioError unless every entry is a
    finite number and, given a length, it is a list of that many."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: expected numbers") from None
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{where}: expected finite numbers")
    if length is not None and arr.shape != (length,):
        raise ScenarioError(f"{where}: expected {length} numbers")
    return arr


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    """Validate a scenario document; every defect raises ScenarioError."""
    try:
        return _scenario(doc, source)
    except ModelError as exc:  # a model or plant rejected its data
        raise ScenarioError(f"{source}: {exc}") from exc


def _scenario(doc, source):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: scenario document must be an object")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(
            f"{source}: schema must be '{SCHEMA}', got {doc.get('schema')!r}")
    plant_doc = _need(doc, "plant", source, kind=dict)
    kind = _need(plant_doc, "type", "plant", kind=str)
    build = {"power": _power_plant, "water": _water_plant,
             "linear": _linear_plant}.get(kind)
    if build is None:
        raise ScenarioError(f"plant.type: unknown plant type '{kind}'")
    plant, labels, u0 = build(plant_doc)
    index = {lab: i for i, lab in enumerate(labels)}

    comm_doc = _need(doc, "comm_graph", source)
    comm_edges = [_pair(index, pair, "comm_graph.edges") for pair in
                  _need(comm_doc, "edges", "comm_graph", kind=list)]
    comm_graph = Graph(node_count=len(labels), edges=tuple(comm_edges))

    raw = _need(_need(doc, "initial", source, {}), "u0", "initial", u0)
    if isinstance(raw, dict):
        for lab in raw:
            u0[_resolve(index, lab, "initial.u0")] = _num(raw, lab,
                                                          "initial.u0")
    else:
        u0 = _finite_array(raw, "initial.u0", len(labels))

    gains = _gains(doc.get("gains", "auto"), len(labels))
    disruptions = tuple(_event(ev, index, i)
                        for i, ev in enumerate(_event_list(doc)))

    run_doc = _need(doc, "run", source, {})
    scenario = Scenario(
        plant=plant,
        comm_graph=comm_graph,
        u0=u0,
        gains=gains,
        disruptions=disruptions,
        budget=_int(run_doc, "budget", "run", 100_000),
        eps_eq=_num(run_doc, "eps_eq", "run", 1e-8),
        eps_feas=_num(run_doc, "eps_feas", "run", 1e-6),
        stall_window=_int(run_doc, "stall_window", "run", 100),
        trace_decimation=_int(run_doc, "trace_decimation", "run", 1),
        override_gain_check=bool(_need(run_doc, "override_gain_check", "run",
                                       False)),
        seed=_int(run_doc, "seed", "run", 0),
        labels=tuple(labels),
    )
    scenario.raw = _normalized(doc)
    return scenario


def _event_list(doc):
    ev = doc.get("disruption", [])
    if not isinstance(ev, (dict, list)):
        raise ScenarioError("disruption: expected an event or a list of them")
    return [ev] if isinstance(ev, dict) else ev


def _pair(index, pair, where):
    """The node indices of a [from, to] label pair."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ScenarioError(f"{where}: expected [from, to] label pairs")
    return _resolve(index, pair[0], where), _resolve(index, pair[1], where)


def _resolve(index, label, where):
    lab = str(label)
    if lab not in index:
        raise ScenarioError(f"{where}: unknown node label '{lab}'")
    return index[lab]


def _gains(doc, n):
    if doc == "auto" or doc is None:
        return None
    def vec(key):
        v = _need(doc, key, "gains", "auto")
        if v == "auto":
            raise ScenarioError(
                f"gains.{key}: mixing auto and explicit gains is not supported")
        arr = _finite_array(v, f"gains.{key}")
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
            params["set"] = _num(ev, "set", where)
        if "scale" in ev:
            params["scale"] = _num(ev, "scale", where)
        if "flexibility" in ev:
            params["flexibility"] = _num(ev, "flexibility", where)
        if "set" not in params and "scale" not in params:
            raise ScenarioError(f"{where}: demand_change needs 'set' or 'scale'")
    elif kind == "parameter_change":
        if "edge" in ev or ("from" in ev and "to" in ev):
            params["edge"] = _pair(index, ev["edge"] if "edge" in ev
                                   else [ev["from"], ev["to"]], where)
        if "susceptance" in ev:
            params["susceptance"] = _num(ev, "susceptance", where)
        if "offset" in ev:
            offset = _finite_array(ev["offset"], f"{where}.offset")
            params["offset"] = tuple(offset.ravel().tolist())
    else:
        raise ScenarioError(f"{where}: unknown disruption kind '{kind}'")
    return DisruptionEvent(kind=kind, params=params)


def _power_plant(doc):
    buses = _need(doc, "buses", "plant", kind=list)
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
    lines = _need(doc, "lines", "plant", kind=list)
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
    nodes = _need(doc, "nodes", "plant", kind=list)
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
    edges_doc = _need(doc, "edges", "plant", kind=list)
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
    sens = _finite_array(_need(doc, "sensitivity", "plant"),
                         "plant.sensitivity")
    if sens.ndim != 2:
        raise ScenarioError("plant.sensitivity: expected a matrix")
    m, n = sens.shape
    labels = [str(x) for x in _need(doc, "labels", "plant",
                                    list(range(1, n + 1)), kind=list)]
    if len(labels) != n:
        raise ScenarioError(f"plant.labels: expected {n} labels")
    offset = _finite_array(doc.get("offset", np.zeros(m)), "plant.offset", m)
    u_lower, u_upper, y_lower = (
        _finite_array(_need(doc, key, "plant"), f"plant.{key}", size)
        for key, size in (("u_lower", n), ("u_upper", n), ("y_lower", m)))
    index = {lab: i for i, lab in enumerate(labels)}
    measured = tuple(_resolve(index, lab, "plant.measured")
                     for lab in _need(doc, "measured", "plant", kind=list))
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
