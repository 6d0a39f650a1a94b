"""Water network hydraulics: flow conservation plus dissipative edge laws.

Every node balances its injection against the flows on incident edges;
every edge relates its flow to the endpoint pressure difference. Pipes
follow a friction law drop = c * sign(flow) * |flow|^e (e = 2 for the
quadratic law, 1.852 for the Hazen-Williams fit), regularized to a linear
segment below a small cutoff flow so the slope neither vanishes nor blows
up at zero. Fixed-speed pumps add a constant pressure gain along their
design direction and refuse reverse flow.

The solve is the global gradient method of Todini & Pilati (1988). Its
unknowns are the edge flows and the pressures at non-fixed nodes: one row
per pipe matches the friction drop of its flow to the pressure difference
across it, one row per pump matches that difference to the pump's gain,
and one row per non-fixed node conserves flow. The damped Newton shared
with the grid solver (plant.damped_newton) solves this system. Only the
forward friction law is evaluated, and the linear segment bounds its
slope below, so the pipe slopes D are positive and each step can
eliminate the pipe flows first: with A_p and A_u the pipe and pump rows
of the edge by free node incidence, W = D^-1 and r the residual (pipe,
pump, conservation rows), the step solves the nodal system

    [[A_p^T W A_p, A_u^T], [A_u, 0]] [dp; dq_pump]
        = [A_p^T W r_pipe - r_cons; -r_pump]

with one row per free node and per pump, then sets dq_pipe = W (A_p dp -
r_pipe). That is the step of the full saddle-point Jacobian, which is
singular exactly when this matrix is. At least one node must hold a fixed
pressure, and every node must reach one through the network.
"""
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import (HydraulicInfeasibleError, ModelError,
                     PumpReverseFlowError, ScenarioError)
from .graph import Graph, _integer, reachable, without_edge
from .plant import PlantModel, _kept, damped_newton

FLOW_TOL = 1e-9
MAX_HYDRAULIC_ITER = 100
LINEAR_FLOW_CUTOFF = 1e-3  # m^3/hr; below this the friction law is linearized

DARCY_WEISBACH_EXP = 2.0
HAZEN_WILLIAMS_EXP = 1.852


@dataclass(frozen=True)
class PipeLaw:
    """Friction law drop = coefficient * sign(flow) * |flow|^exponent."""

    coefficient: float
    exponent: float = DARCY_WEISBACH_EXP

    def __post_init__(self):
        if not 0 < self.coefficient < np.inf:
            raise ModelError("pipe friction coefficient must be finite and "
                             "positive")
        if not 1.0 <= self.exponent < np.inf:
            raise ModelError("pipe friction exponent must be finite and >= 1")


@dataclass(frozen=True)
class PumpLaw:
    """Fixed-speed pump: constant pressure gain along its design direction.

    Edge laws align with the graph's canonical (low, high) edge pairs;
    reverse=True means the pump boosts from the higher-indexed node into
    the lower-indexed one. Flow against the design direction is refused.
    """

    gain: float
    reverse: bool = False

    def __post_init__(self):
        if not 0 < self.gain < np.inf:
            raise ModelError("pump gain must be finite and positive")


def _friction(flow, coefficient, exponent, power, cutoff):
    """The regularized friction law, elementwise: (drop, d drop / d flow).

    drop = coefficient * max(|flow|, cutoff)^power * flow, with power =
    exponent - 1, is coefficient * sign(flow) * |flow|^exponent beyond the
    linear cutoff and the linear segment through zero within it.
    """
    size = np.abs(flow)
    r = coefficient * np.maximum(size, cutoff) ** power
    return r * flow, np.where(size > cutoff, r * exponent, r)


def edge_pressure_drop(flow: float, law) -> float:
    """Pressure drop for a given flow, measured along the law's own direction.

    Pipes dissipate (odd, strictly increasing in the flow); pumps return
    the constant -gain, a pressure rise along the design direction, for any
    flow in their operating range. Pipe flows below the linear cutoff use
    the linearized segment.
    """
    if isinstance(law, PumpLaw):
        return -law.gain
    return float(_friction(float(flow), law.coefficient, law.exponent,
                           law.exponent - 1.0, LINEAR_FLOW_CUTOFF)[0])


class _Incidence:
    """Index and parameter arrays of a WaterModel, derived at construction.

    Edges run in law order, pipes then pumps, from tail to head (a pump
    along its boost); sign is -1 at a reversed pump, else +1, and law the
    pipe laws as the arrays that _friction takes after the flows. The Newton
    unknowns are the edge flows in that order and orientation, then the
    free pressures. The edge by free node incidence matrix A_f holds
    a_vals at (a_rows, a_cols): +1 where an edge leaves a free node, -1
    where it enters one. lap_at and lap_sign scatter A_f^T A_f into a flat
    free by free array. k_at scatters the step matrix of the module
    docstring, with its right-hand side as a last column, into a flat array
    of (free nodes + pumps) rows: the pipe entries of A_f^T A_f, the pump
    border, the right-hand side. Entry i is k_coef[i] times entry k_src[i]
    of (1/slopes, the pipe residual rows over their slopes, the other
    residual rows, 1). Every array is built in O(edges), after the check
    that every node reaches a fixed-pressure node (else a ModelError).
    """

    def __init__(self, model):
        g, laws = model.graph, model.edge_laws
        n = g.node_count
        cut = sorted(set(range(n)) - reachable(g, model.pressure_nodes))
        if cut:
            raise ModelError(
                f"nodes {cut} cannot reach any fixed-pressure node")
        self.fixed = np.array(model.pressure_nodes, dtype=int)
        is_free = np.ones(n, dtype=bool)
        is_free[self.fixed] = False
        self.free = np.flatnonzero(is_free)
        pipes = [i for i, law in enumerate(laws) if isinstance(law, PipeLaw)]
        pumps = [i for i, law in enumerate(laws) if isinstance(law, PumpLaw)]
        self.n_pipes = len(pipes)
        self.edges = np.array(pipes + pumps, dtype=int)
        flip = np.array([False] * len(pipes)
                        + [laws[i].reverse for i in pumps], dtype=bool)
        ends = np.array([g.edges[i] for i in self.edges], dtype=int).reshape(-1, 2)
        self.tail, self.head = np.where(flip[:, None], ends[:, ::-1], ends).T
        self.sign = np.where(flip, -1.0, 1.0)
        exponent = np.array([laws[i].exponent for i in pipes])
        self.law = (np.array([laws[i].coefficient for i in pipes]), exponent,
                    exponent - 1.0, np.full(len(pipes), LINEAR_FLOW_CUTOFF))
        self.gain = np.array([laws[i].gain for i in pumps])
        pos = np.cumsum(is_free) - 1  # a free node's column in A_f
        out = np.flatnonzero(is_free[self.tail])
        into = np.flatnonzero(is_free[self.head])
        self.a_rows = np.concatenate((out, into))
        self.a_cols = pos[np.concatenate((self.tail[out], self.head[into]))]
        self.a_vals = np.repeat([1.0, -1.0], [len(out), len(into)])
        # the entries of A_f^T A_f, each from one edge: a +1 on the
        # diagonal per incidence entry, and a -1 on both sides of it for
        # an edge between two free nodes
        both = np.flatnonzero(is_free[self.tail] & is_free[self.head])
        tails, heads = pos[self.tail[both]], pos[self.head[both]]
        rows = np.concatenate((self.a_cols, tails, heads))
        cols = np.concatenate((self.a_cols, heads, tails))
        edge = np.concatenate((self.a_rows, both, both))
        sign = np.repeat([1.0, -1.0], [len(self.a_rows), 2 * len(both)])
        nf = len(self.free)
        self.lap_at, self.lap_sign = rows * nf + cols, sign
        # the step matrix, with its right-hand side as one more column:
        # the pipe entries of A_f^T A_f, pump j's incidence row as row and
        # column nf + j, then the right-hand side's pipe incidence entries,
        # pump rows and free-node rows
        size = nf + len(pumps)
        width = size + 1
        pipe = edge < self.n_pipes
        pump = np.flatnonzero(self.a_rows >= self.n_pipes)
        border = nf + self.a_rows[pump] - self.n_pipes, self.a_cols[pump]
        pipe_entry = np.flatnonzero(self.a_rows < self.n_pipes)
        rhs = np.concatenate((self.a_cols[pipe_entry],
                              nf + np.arange(len(pumps)), np.arange(nf)))
        self.k_at = np.concatenate((rows[pipe] * width + cols[pipe],
                                    border[0] * width + border[1],
                                    border[1] * width + border[0],
                                    rhs * width + size))
        k = self.n_pipes  # and size residual rows past the pipes
        self.k_src = np.concatenate((
            edge[pipe], np.full(2 * len(pump), 2 * k + size),
            k + self.a_rows[pipe_entry], 2 * k + np.arange(size)))
        self.k_coef = np.concatenate((
            sign[pipe], np.tile(self.a_vals[pump], 2),
            self.a_vals[pipe_entry], np.full(size, -1.0)))
        self.one = np.ones(1)

    def across(self, y):
        """A_f y: the difference of free-node values y across each edge."""
        return np.bincount(self.a_rows, self.a_vals * y[self.a_cols],
                           len(self.tail))

    def outflow(self, q):
        """A_f^T q: the net outflow of edge flows q at each free node."""
        return np.bincount(self.a_cols, self.a_vals * q[self.a_rows],
                           len(self.free))


@dataclass(frozen=True)
class WaterModel:
    """Network data: graph, one edge law per edge, fixed-pressure node set.

    pressure_nodes are the node indices whose pressure is imposed by the
    control vector; every other node imposes its injection instead
    (consumers negative, sources positive, junctions zero).
    """

    graph: Graph
    edge_laws: tuple
    pressure_nodes: tuple

    def __post_init__(self):
        if len(self.edge_laws) != len(self.graph.edges):
            raise ModelError("edge laws must align with graph edges")
        pres = tuple(sorted(_integer(i, "pressure node")
                            for i in self.pressure_nodes))
        if not pres:
            raise ModelError("at least one fixed-pressure node is required")
        if len(set(pres)) != len(pres):
            raise ModelError("duplicate fixed-pressure node")
        for p in pres:
            if not 0 <= p < self.graph.node_count:
                raise ModelError(f"pressure node {p} outside node range")
        object.__setattr__(self, "pressure_nodes", pres)
        object.__setattr__(self, "_incidence", _Incidence(self))


class HydraulicSolution:
    """Nodal pressures, per-edge flows, and solver bookkeeping.

    Flows are oriented along each edge's canonical (low, high) direction;
    the reverse flow is the negation. unknowns is the converged Newton
    vector (law-order edge flows, free pressures), model the WaterModel
    solved, and flow_terms (its pipe drops, slopes and free-node outflows)
    and heads (the fixed pressures it was solved at) the record that a
    solve of that model from this x0 reuses, all read-only; without that
    record a solution starts as its unknowns would. flows is scattered
    from unknowns on first read, then cached; a flows passed in is used as
    is. Without one, flows raises ModelError unless model= and unknowns=
    were given.
    """

    __slots__ = ("pressures", "residual", "iterations", "unknowns",
                 "flow_terms", "heads", "model", "_flows")

    def __init__(self, pressures, flows=None, residual=0.0, iterations=0,
                 unknowns=None, flow_terms=None, model=None, heads=None):
        self.pressures, self._flows = pressures, flows
        self.residual, self.iterations = residual, iterations
        self.unknowns, self.flow_terms = unknowns, flow_terms
        self.model, self.heads = model, heads

    @property
    def flows(self) -> np.ndarray:
        if self._flows is None:
            model = _kept(self, "flows", "model")
            net, unknowns = model._incidence, _kept(self, "flows", "unknowns")
            self._flows = np.zeros(len(model.graph.edges))
            self._flows[net.edges] = net.sign * unknowns[:len(net.tail)]
        return self._flows


def _newton_step(net: _Incidence, r, slope):
    """The Newton step of solve_network's system at residual r and pipe
    slopes slope, through the nodal system of the module docstring; a
    singular one raises LinAlgError."""
    k, nf = net.n_pipes, len(net.free)
    size = nf + len(net.gain)
    w = np.reciprocal(slope)
    w_r = w * r[:k]
    # the step matrix, with the right-hand side as its last column
    system = np.bincount(net.k_at, net.k_coef * np.concatenate(
        (w, w_r, r[k:], net.one))[net.k_src], size * (size + 1))
    system = system.reshape(size, size + 1)
    sol = np.linalg.solve(system[:, :size], system[:, size])
    dp = sol[:nf]
    return np.concatenate((w * net.across(dp)[:k] - w_r, sol[nf:], dp))


def solve_network(u, model: WaterModel, x0=None) -> HydraulicSolution:
    """Solve for nodal pressures and edge flows given the control vector.

    u holds one entry per node: pressure (m) at fixed-pressure nodes,
    injection (m^3/hr) everywhere else. Newton runs to FLOW_TOL from x0:
    the edge flows in law order (pipes then pumps, each pump along its
    boost) then the free pressures, as in HydraulicSolution.unknowns, or a
    previous HydraulicSolution, whose unknowns it starts at, with their
    flow_terms if it holds the record of its solve of this model
    (flow_terms and heads). If every fixed pressure in u then differs from
    its heads by one finite, nonzero amount c, every free pressure of the
    start is raised by c: pressures enter the system only through
    differences, so the pipe, pump and conservation rows stay those of the
    solution. Such a start that meets FLOW_TOL is the solution, with that
    solution's flows and flow terms, which the solve that made them tested
    for pump reverse flow already; any other solution starts as its
    unknowns would. When x0 is None it starts from the minimum-norm flows
    that conserve the injections and every free pressure at the mean fixed
    pressure. Raises ModelError when u or x0 has the wrong length,
    HydraulicInfeasibleError at damped_newton's stop ("no hydraulic
    solution: " and the stop it reached), and PumpReverseFlowError when
    the solution would push flow backwards through a pump.
    """
    u = np.asarray(u, dtype=float)
    n = model.graph.node_count
    if u.shape != (n,):
        raise ModelError("control vector must hold one entry per node")
    net = model._incidence
    free, tail, head, k = net.free, net.tail, net.head, net.n_pipes
    m, nf = len(tail), len(free)
    u_free = u[free]

    def residual(x, terms=None):
        """Pipe drop minus pressure difference, pressure difference plus
        pump gain, then net outflow minus injection at free nodes; aux
        carries the pressures and the flow terms, given as terms if known."""
        if terms is None:
            terms = (*_friction(x[:k], *net.law), net.outflow(x[:m]))
        pres = u.copy()
        pres[free] = x[m:]
        diff = pres[tail] - pres[head]
        return np.concatenate((terms[0] - diff[:k], diff[k:] + net.gain,
                               terms[2] - u_free)), (pres, terms)

    heads = u[net.fixed]  # a copy, which the solution keeps
    heads.setflags(write=False)
    start, terms = x0, None
    if isinstance(start, HydraulicSolution):
        x0 = start.unknowns
        if start.model is model and start.flow_terms is not None and \
                start.heads is not None:
            terms, shift = start.flow_terms, (heads - start.heads).tolist()
            c = shift[0]
            if c != 0.0 and isfinite(c) and shift.count(c) == len(shift):
                x0 = x0.copy()
                x0[m:] += c
    reused = terms
    if x0 is None:
        lap = np.bincount(net.lap_at, net.lap_sign, nf * nf).reshape(nf, nf)
        x0, terms = np.concatenate((net.across(np.linalg.solve(lap, u_free)),
                                    np.full(nf, np.mean(heads)))), None
    elif np.shape(x0) != (m + nf,):
        raise ModelError("start vector must hold the edge flows and the "
                         "free pressures")
    # a copy of a caller's array, so that no solution shares it
    x0 = np.array(x0, dtype=float) if terms is None else x0
    x, (pressures, terms), rnorm, iters = damped_newton(
        x0, residual, lambda x, r, aux: _newton_step(net, r, aux[1][1]),
        lambda it: HydraulicInfeasibleError(
            f"singular hydraulic Jacobian at iteration {it}"),
        lambda why: HydraulicInfeasibleError("no hydraulic solution: " + why),
        FLOW_TOL, MAX_HYDRAULIC_ITER, residual(x0, terms))
    x.setflags(write=False)
    if terms is not reused:  # reused ones were tested when solved
        q = x[:m]
        backward = q[k:] < -1e-6
        if np.logical_or.reduce(backward):
            j = k + backward.argmax()
            raise PumpReverseFlowError(
                f"pump {tail[j]}->{head[j]} would carry reverse flow "
                f"{q[j]:.3f}")
        for a in terms:
            a.setflags(write=False)
    return HydraulicSolution(pressures, None, rnorm, iters, x, terms, model,
                             heads)


def check_pressure_ordering(model: WaterModel, u_hi, u_lo) -> bool:
    """Ordered controls must give ordered pressures at non-fixed nodes.

    Requires u_hi >= u_lo entrywise (higher source pressures and higher
    injections). Solves both and returns True iff every non-fixed nodal
    pressure under u_hi is at least the one under u_lo, within 1e-6.
    """
    u_hi = np.asarray(u_hi, dtype=float)
    u_lo = np.asarray(u_lo, dtype=float)
    if np.any(u_hi < u_lo):
        raise ValueError("u_hi must dominate u_lo entrywise")
    hi = solve_network(u_hi, model)
    lo = solve_network(u_lo, model)
    others = model._incidence.free
    return bool(np.all(hi.pressures[others] >= lo.pressures[others] - 1e-6))


class WaterPlant(PlantModel):
    """Node-indexed plant view of a WaterModel.

    The control vector holds pressure set points at fixed-pressure nodes
    and injections elsewhere; outputs are the pressures at the measured
    nodes, which carry the minimum-pressure requirements.
    """

    def __init__(self, model: WaterModel, u_lower, u_upper, y_lower,
                 measured_nodes):
        self.model = model
        if len(u_upper) != model.graph.node_count:
            raise ModelError("control limits must cover every node")
        self._set_limits(u_lower, u_upper, y_lower, measured_nodes)

    def solve(self, u):
        return self.solve_from(u)[0]

    def solve_from(self, u, start=None):
        """Measured pressures solved from start, a previous state (None:
        cold); the state is the HydraulicSolution, whose read-only unknowns
        and flow terms the next solve starts from."""
        sol = solve_network(np.asarray(u, dtype=float), self.model, x0=start)
        return sol.pressures[self._measured], sol

    def disrupted(self, event):
        """Supports remove_edge {"edge": (m, n)}, which drops a pipe or pump;
        source_outage {"node": k}: node k stops injecting, its control is
        pinned at zero and, if it held a fixed pressure, it no longer does;
        and demand_change (PlantModel._rebased_limits). Builds type(self):
        a subclass with another constructor overrides this."""
        model, limits = self.model, (self.u_lower, self.u_upper)
        if event.kind == "remove_edge":
            graph, laws = without_edge(model.graph, event.params["edge"],
                                       model.edge_laws)
            model = WaterModel(graph, laws, model.pressure_nodes)
        elif event.kind == "source_outage":
            node = event.params["node"]
            fixed = tuple(p for p in model.pressure_nodes if p != node)
            if fixed != model.pressure_nodes:
                model = WaterModel(model.graph, model.edge_laws, fixed)
            u_lower, u_upper = self.u_lower.copy(), self.u_upper.copy()
            u_lower[node] = u_upper[node] = 0.0
            limits = (u_lower, u_upper)
        elif event.kind == "demand_change":
            limits = self._rebased_limits(event)
        else:
            raise ScenarioError(f"unsupported water disruption '{event.kind}'")
        return type(self)(model, *limits, y_lower=self.y_lower,
                          measured_nodes=self.measured_nodes)
