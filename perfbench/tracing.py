"""Call-site spans around the program's layers, recorded from outside.

A traced pass replaces, for its duration only, the names the program looks
up at call time (module globals and class attributes) with wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in flat arrays in memory; the benchmark aggregates them and
writes them out when it ends. Nothing inside the package is edited.
"""
import contextlib
import importlib
import time
from array import array

import numpy as np

# (owner, attribute, span name, defining module or None). The owner is a
# module path or "module:Class". When the defining module is given, the
# untraced passes also check that the owner's name is the very object that
# module defines, so an import rebinding shows up as a hygiene failure.
PATCHES = (
    ("ripplesim.sim", "protocol_round", "protocol.protocol_round",
     "ripplesim.protocol"),
    ("ripplesim.sim", "violation", "protocol.violation", "ripplesim.protocol"),
    ("ripplesim.sim", "is_equilibrium", "protocol.is_equilibrium",
     "ripplesim.protocol"),
    ("ripplesim.sim", "feasibility_check", "plant.feasibility_check",
     "ripplesim.plant"),
    ("ripplesim.sim", "auto_gains", "protocol.auto_gains",
     "ripplesim.protocol"),
    ("ripplesim.sim", "gain_condition", "protocol.gain_condition",
     "ripplesim.protocol"),
    ("ripplesim.sim", "disrupted_setup", "sim.disrupted_setup", None),
    ("ripplesim.power", "solve_load_voltages", "power.solve_load_voltages",
     None),
    ("ripplesim.water", "solve_network", "water.solve_network", None),
    ("ripplesim.plant:LinearPlant", "solve", "plant.LinearPlant.solve", None),
    ("ripplesim.graph:Graph", "neighbors", "graph.neighbors", None),
    ("ripplesim.graph:Graph", "degree", "graph.degree", None),
    ("ripplesim.cli", "run", "sim.run", "ripplesim.sim"),
    ("ripplesim.cli", "load_scenario", "scenario_io.load_scenario",
     "ripplesim.scenario_io"),
    ("ripplesim.cli", "disrupted_setup", "sim.disrupted_setup",
     "ripplesim.sim"),
    ("ripplesim.cli", "message_stats", "sim.message_stats", "ripplesim.sim"),
)

UNITS = {
    "sim.rounds": "count", "sim.messages": "count", "sim.records": "count",
    "sim.self_us_per_round": "us", "sim.checks_us_per_round": "us",
    "sim.audit_ms": "ms", "protocol.round_us": "us", "protocol.setup_ms": "ms",
    "plant.solve_us": "us", "plant.solve_share": "ratio",
    "power.solve_us": "us", "power.newton_iters_per_solve": "count",
    "power.solve_failures": "count", "water.solve_us": "us",
    "water.newton_iters_per_solve": "count", "water.solve_failures": "count",
    "graph.calls": "count", "graph.busy_ms": "ms", "scenario_io.load_ms": "ms",
    "cli.self_ms": "ms", "cli.bytes_written": "count",
    "trace.overhead_frac": "ratio",
}

# Solver spans also record the solution's iteration count and residual.
SOLVER_SPANS = ("power.solve_load_voltages", "water.solve_network")


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class HygieneError(RuntimeError):
    """A patched name is not the program's own object outside a traced pass."""


class Tracer:
    """Span recorder plus the table of patch targets found in the program.

    A target whose attribute no longer exists is skipped: that layer then
    reports zero calls instead of failing the run.
    """

    def __init__(self):
        self.targets = []
        for owner_path, attr, span, home in PATCHES:
            owner = _owner(owner_path)
            if attr not in vars(owner):
                continue
            self.targets.append((owner, attr, span, home, vars(owner)[attr]))
        self.names = []
        self._name_id = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.kind = array("h")
        self.op = array("i")
        self.failed = array("b")
        self.iterations = {}
        self.residuals = {}
        self.op_id = -1
        self._stack = [-1]
        self.active = False

    def name_id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def check_originals(self):
        """Raise HygieneError unless every target holds the program's object."""
        for owner, attr, span, home, original in self.targets:
            current = vars(owner).get(attr)
            if current is not original or hasattr(current, "__wrapped_by_perfbench__"):
                raise HygieneError(f"{owner.__name__}.{attr} is not the original")
            if home is not None:
                defined = getattr(importlib.import_module(home), attr, None)
                if defined is not None and current is not defined:
                    raise HygieneError(
                        f"{owner.__name__}.{attr} is not {home}.{attr}")

    def call(self, name, fn, *args):
        """Call fn, inside a span of this name while tracing is active."""
        if not self.active:
            return fn(*args)
        return self._wrap(name, fn)(*args)

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        start, end, parent = self.start, self.end, self.parent
        kind, op, failed, stack = self.kind, self.op, self.failed, self._stack
        clock = time.perf_counter
        solver = name in SOLVER_SPANS
        iterations, residuals = self.iterations, self.residuals
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            kind.append(nid)
            op.append(tracer.op_id)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                failed[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if solver:
                iterations[idx] = result.iterations
                residuals[idx] = result.residual
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore the originals however the body exits."""
        installed = []
        try:
            for owner, attr, span, home, original in self.targets:
                setattr(owner, attr, self._wrap(span, original))
                installed.append((owner, attr, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in installed:
                setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: start, end, parent, kind, op, failed."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "kind": np.frombuffer(self.kind, dtype=np.int16),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def write(self, path):
        """Write every span to an .npz file, names alongside."""
        spans = self.arrays()
        count = len(self.iterations)
        np.savez_compressed(
            path, names=np.array(self.names), **spans,
            solver_span=np.fromiter(self.iterations, np.int64, count),
            iterations=np.fromiter(self.iterations.values(), np.int64, count),
            residual=np.fromiter(self.residuals.values(), np.float64, count))


def layer_metrics(tracer: Tracer, probe, counts: dict, passes: int) -> dict:
    """Per-layer metrics from the recorded spans of `passes` traced passes.

    counts holds the per-pass totals the workload itself observed (rounds,
    messages, records, bytes written). Times are span durations rescaled by
    the speed probe, per call, per round or per pass as the metric's name
    says; layers with no calls report 0.
    """
    s = tracer.arrays()
    n = len(s["start"])
    dur = probe.rescale(s["start"], s["end"])
    parent, kind = s["parent"], s["kind"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_time = dur - child

    def ids(*names):
        return [tracer._name_id[x] for x in names if x in tracer._name_id]

    def mask(*names):
        return np.isin(kind, ids(*names))

    def under(m, *names):
        """Spans in m whose direct parent is one of `names`."""
        out = np.zeros(n, dtype=bool)
        out[m & has_parent] = np.isin(kind[parent[m & has_parent]], ids(*names))
        return out

    def within(m, *names):
        """Spans in m with some ancestor among `names`."""
        target = ids(*names)
        cur = np.where(m, parent, -1)
        out = np.zeros(n, dtype=bool)
        while np.any(cur >= 0):
            live = cur >= 0
            out[live] |= np.isin(kind[cur[live]], target)
            cur[live] = parent[cur[live]]
        return out & m

    def mean(m, values=dur):
        return float(values[m].mean()) if m.any() else 0.0

    runs = mask("sim.run")
    rounds_total = counts["sim.rounds"] * passes
    run_time = float(dur[runs].sum())
    per_round = 1e6 / rounds_total if rounds_total else 0.0
    checks = under(mask("protocol.is_equilibrium", "protocol.violation",
                        "plant.feasibility_check"), "sim.run")
    setup = under(mask("protocol.auto_gains", "protocol.gain_condition"),
                  "sim.run")
    solves = mask("plant.LinearPlant.solve", *SOLVER_SPANS)
    graph = mask("graph.neighbors", "graph.degree")
    graph_top = graph & ~under(graph, "graph.neighbors", "graph.degree")
    out = {
        "sim.rounds": counts["sim.rounds"],
        "sim.messages": counts["sim.messages"],
        "sim.records": counts["sim.records"],
        "sim.self_us_per_round": float(self_time[runs].sum()) * per_round,
        "sim.checks_us_per_round": float(dur[checks].sum()) * per_round,
        "sim.audit_ms": 1e3 * float(dur[mask("sim.verify_trace",
                                             "sim.message_stats")].sum()) / passes,
        "protocol.round_us": 1e6 * mean(mask("protocol.protocol_round")),
        "protocol.setup_ms": (1e3 * float(dur[setup].sum()) / runs.sum()
                              if runs.any() else 0.0),
        "plant.solve_us": 1e6 * mean(mask("plant.LinearPlant.solve")),
        "plant.solve_share": (float(dur[within(solves, "sim.run")].sum())
                              / run_time if run_time else 0.0),
        "graph.calls": int(graph.sum()) // passes,
        "graph.busy_ms": 1e3 * float(dur[graph_top].sum()) / passes,
        "scenario_io.load_ms": 1e3 * mean(mask("scenario_io.load_scenario")),
        "cli.self_ms": 1e3 * mean(mask("cli.main"), self_time),
        "cli.bytes_written": counts["cli.bytes_written"],
    }
    for layer, span in (("power", "power.solve_load_voltages"),
                        ("water", "water.solve_network")):
        m = mask(span)
        done = [tracer.iterations[i] for i in np.nonzero(m)[0]
                if i in tracer.iterations]
        out[f"{layer}.solve_us"] = 1e6 * mean(m)
        out[f"{layer}.newton_iters_per_solve"] = (
            sum(done) / len(done) if done else 0.0)
        out[f"{layer}.solve_failures"] = int(s["failed"][m].sum()) // passes
    return out
