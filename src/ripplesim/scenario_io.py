"""Scenario files: JSON parsing and validation.

A scenario document carries a plant section ("power", "water", or
"linear"), the communication overlay, optional gains ("auto" or explicit
per-agent vectors), the initial control, disruption events, and run knobs.
Node labels are strings; they map to dense 0-based indices in file order.
Power quantities are entered in MVAr against a configured MVA base and
held per-unit internally; water pressures are meters and injections m^3/hr.
"""
import json
import math
from functools import partial
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


def _is_number(x):
    """A JSON number: an int or a float, not a bool or a numeric string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _num(doc, key, where, default=None):
    raw = _need(doc, key, where, default)
    if not _is_number(raw):
        raise ScenarioError(f"{where}.{key}: expected a number")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}.{key}: expected a finite number")
    return value


def _int(doc, key, where, default=None):
    """A non-negative integer knob: a finite integral number, not a bool."""
    value = _need(doc, key, where, default)
    if isinstance(value, bool) or not isinstance(value, int):
        value = _num(doc, key, where, default)
    if value < 0 or value != int(value):
        raise ScenarioError(f"{where}.{key}: expected a non-negative integer")
    return int(value)


def _finite_array(value, where, length=None):
    """value as a float array; raises ScenarioError unless every entry is a
    finite number (not a bool or a numeric string) and, given a length, it
    is a list of that many."""
    cells = np.asarray(value, dtype=object)
    if not all(map(_is_number, cells.ravel())):
        raise ScenarioError(f"{where}: expected numbers")
    try:
        arr = cells.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{where}: expected finite numbers") from None
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


# the run section's knobs and their readers
_RUN_KNOBS = {"budget": _int, "eps_eq": _num, "eps_feas": _num,
              "stall_window": _int, "trace_decimation": _int,
              "override_gain_check": partial(_need, kind=bool), "seed": _int}


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
    plant, index, u0 = build(plant_doc)
    labels = tuple(index)

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

    # only the knobs the file sets, so the others keep Scenario's defaults;
    # a run section that is not an object goes to a reader, which rejects it
    run_doc = _need(doc, "run", source, {})
    knobs = {key: read(run_doc, key, "run") for key, read in _RUN_KNOBS.items()
             if not isinstance(run_doc, dict) or key in run_doc}
    for key in ("budget", "eps_eq", "eps_feas", "stall_window",
                "trace_decimation"):  # run's ranges; only seed may be 0
        if knobs.get(key, 1) <= 0:
            raise ScenarioError(f"run.{key}: expected a value above 0, "
                                f"got {knobs[key]!r}")
    return Scenario(plant=plant, comm_graph=comm_graph, u0=u0, gains=gains,
                    disruptions=disruptions, labels=labels, **knobs)


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


def _ends(index, doc, where):
    """The node indices of an object's "from" and then its "to" label."""
    return (_resolve(index, _need(doc, "from", where), where),
            _resolve(index, _need(doc, "to", where), where))


def _label_index(labels, duplicate):
    """{label as a string: position}; a repeated label raises duplicate."""
    index = {str(lab): i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ScenarioError(duplicate)
    return index


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
        params["edge"] = _ends(index, ev, where)
    elif kind == "source_outage":
        params["node"] = _resolve(index, _need(ev, "node", where), where)
    elif kind == "demand_change":
        params["node"] = _resolve(index, _need(ev, "node", where), where)
        params.update((key, _num(ev, key, where))
                      for key in ("set", "scale", "flexibility") if key in ev)
        if "set" not in params and "scale" not in params:
            raise ScenarioError(f"{where}: demand_change needs 'set' or 'scale'")
    elif kind == "parameter_change":
        if "edge" in ev or ("from" in ev and "to" in ev):
            params["edge"] = (_pair(index, ev["edge"], where) if "edge" in ev
                              else _ends(index, ev, where))
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
    index = _label_index([_need(b, "label", f"plant.buses[{i}]")
                          for i, b in enumerate(buses)],
                         "plant.buses: duplicate bus label")
    generators, loads, boxes, y_lower = [], [], [], []
    for i, b in enumerate(buses):
        where = f"plant.buses[{i}]"
        kind = _need(b, "kind", where)
        if kind == "generator":
            generators.append(i)
            v0 = _num(b, "v_initial", where)
            boxes.append((v0, v0, _num(b, "v_max", where)))
        elif kind == "load":
            loads.append(i)
            q0 = _num(b, "q_mvar", where) / base_mva
            flex = _num(b, "flex_mvar", where, 0.0) / base_mva
            boxes.append((q0, q0, q0 + flex))
            y_lower.append(_num(b, "v_min", where))
        else:
            raise ScenarioError(f"{where}.kind: expected generator or load")
    graph, sus = _edge_list(doc, "lines", index, lambda ln, where, _:
                            _num(ln, "susceptance", where))
    grid = GridModel(graph=graph, susceptances=sus,
                     generators=tuple(generators), loads=tuple(loads))
    u0, u_lower, u_upper = np.reshape(boxes, (-1, 3)).T.copy()
    plant = GridPlant(grid=grid, u_lower=u_lower, u_upper=u_upper,
                      y_lower=np.asarray(y_lower))
    return plant, index, u0


def _water_plant(doc):
    nodes = _need(doc, "nodes", "plant", kind=list)
    index = _label_index([_need(nd, "label", f"plant.nodes[{i}]")
                          for i, nd in enumerate(nodes)],
                         "plant.nodes: duplicate node label")
    pressure_nodes, boxes, measured, y_lower = [], [], [], []
    for i, nd in enumerate(nodes):
        where = f"plant.nodes[{i}]"
        role = _need(nd, "role", where)
        if role not in ("reservoir", "tank", "junction", "consumer"):
            raise ScenarioError(f"{where}.role: unknown role '{role}'")
        section = next((s for s in ("pressure", "injection") if s in nd), None)
        if section == "pressure":
            if role not in ("reservoir", "tank"):
                raise ScenarioError(
                    f"{where}: only reservoirs/tanks can fix pressure")
            pressure_nodes.append(i)
        if section is not None:
            entry, at = nd[section], f"{where}.{section}"
            start = _num(entry, "initial", at)
            boxes.append((start, _num(entry, "min", at, start),
                          _num(entry, "max", at, start)))
        elif role == "junction":  # a junction's injection is fixed at zero
            boxes.append((0.0, 0.0, 0.0))
        else:
            raise ScenarioError(
                f"{where}: needs a 'pressure' or 'injection' section")
        if "pressure_min" in nd:
            measured.append(i)
            y_lower.append(_num(nd, "pressure_min", where))
    graph, laws = _edge_list(doc, "edges", index, _edge_law)
    model = WaterModel(graph=graph, edge_laws=laws,
                       pressure_nodes=tuple(pressure_nodes))
    u0, u_lower, u_upper = np.reshape(boxes, (-1, 3)).T.copy()
    plant = WaterPlant(model=model, u_lower=u_lower, u_upper=u_upper,
                       y_lower=np.asarray(y_lower),
                       measured_nodes=tuple(measured))
    return plant, index, u0


def _edge_law(ed, where, ends):
    """The law of one water edge; a pump boosts from its "from" node to its
    "to" node, so one declared from the higher index runs reversed."""
    kind = _need(ed, "kind", where)
    if kind == "pipe":
        return PipeLaw(_num(ed, "coefficient", where),
                       _num(ed, "exponent", where, DARCY_WEISBACH_EXP))
    if kind == "pump":
        return PumpLaw(gain=_num(ed, "gain", where), reverse=ends[0] > ends[1])
    raise ScenarioError(f"{where}.kind: expected pipe or pump")


def _edge_list(doc, key, index, read):
    """(Graph of the edge objects in plant[key], tuple of read(entry, where,
    (from, to)) per entry); the graph keeps the declared edge order."""
    edges, values = [], []
    for i, entry in enumerate(_need(doc, key, "plant", kind=list)):
        where = f"plant.{key}[{i}]"
        edges.append(_ends(index, entry, where))
        values.append(read(entry, where, edges[-1]))
    return Graph(node_count=len(index), edges=tuple(edges)), tuple(values)


def _linear_plant(doc):
    sens = _finite_array(_need(doc, "sensitivity", "plant"),
                         "plant.sensitivity")
    if sens.ndim != 2:
        raise ScenarioError("plant.sensitivity: expected a matrix")
    m, n = sens.shape
    labels = _need(doc, "labels", "plant", list(range(1, n + 1)), kind=list)
    if len(labels) != n:
        raise ScenarioError(f"plant.labels: expected {n} labels")
    index = _label_index(labels, "plant.labels: duplicate label")
    offset = _finite_array(doc.get("offset", np.zeros(m)), "plant.offset", m)
    u_lower, u_upper, y_lower = (
        _finite_array(_need(doc, key, "plant"), f"plant.{key}", size)
        for key, size in (("u_lower", n), ("u_upper", n), ("y_lower", m)))
    measured = tuple(_resolve(index, lab, "plant.measured")
                     for lab in _need(doc, "measured", "plant", kind=list))
    plant = LinearPlant(sensitivity=sens, offset=offset, u_lower=u_lower,
                        u_upper=u_upper, y_lower=y_lower,
                        measured_nodes=measured)
    return plant, index, u_lower.copy()

