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
with the grid solver (plant.damped_newton) solves this system with its
full saddle-point Jacobian. Only the forward friction law is evaluated,
and the linear segment bounds its slope below, so no pipe row degenerates.
At least one node must hold a fixed pressure, and every node must reach
one through the network.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (HydraulicInfeasibleError, ModelError,
                     PumpReverseFlowError)
from .graph import Graph, reachable
from .plant import PlantModel, damped_newton, newton_failure

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
        if self.coefficient <= 0:
            raise ModelError("pipe friction coefficient must be positive")
        if self.exponent < 1.0:
            raise ModelError("pipe friction exponent must be >= 1")


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
        if self.gain <= 0:
            raise ModelError("pump gain must be positive")


def _friction(flow, coefficient, exponent):
    """The regularized friction law, elementwise: (drop, d drop / d flow).

    drop = coefficient * max(|flow|, cutoff)^(exponent - 1) * flow, which
    is coefficient * sign(flow) * |flow|^exponent beyond the linear cutoff
    and the linear segment through zero within it.
    """
    size = np.abs(flow)
    r = coefficient * np.maximum(size, LINEAR_FLOW_CUTOFF) ** (exponent - 1.0)
    return r * flow, np.where(size > LINEAR_FLOW_CUTOFF, r * exponent, r)


def edge_pressure_drop(flow: float, law) -> float:
    """Pressure drop for a given flow, measured along the law's own direction.

    Pipes dissipate (odd, strictly increasing in the flow); pumps return
    the constant -gain, a pressure rise along the design direction, for any
    flow in their operating range. Pipe flows below the linear cutoff use
    the linearized segment.
    """
    if isinstance(law, PumpLaw):
        return -law.gain
    return float(_friction(float(flow), law.coefficient, law.exponent)[0])


class _Incidence:
    """Index and parameter arrays of a WaterModel, derived at construction.

    Edges run in law order, pipes then pumps, from tail to head (a pump
    along its boost). The Newton unknowns are the edge flows in that order
    and orientation, then the free pressures. The edge by free node
    incidence matrix A_f holds a_vals at (a_rows, a_cols): +1 where an
    edge leaves a free node, -1 where it enters one.
    """

    def __init__(self, model):
        g, laws = model.graph, model.edge_laws
        n = g.node_count
        self.unreachable = sorted(set(range(n))
                                  - reachable(g, model.pressure_nodes))
        self.fixed = np.array(model.pressure_nodes, dtype=int)
        is_free = np.ones(n, dtype=bool)
        is_free[self.fixed] = False
        self.free = np.flatnonzero(is_free)
        pipes = [i for i, law in enumerate(laws) if isinstance(law, PipeLaw)]
        pumps = [i for i, law in enumerate(laws) if isinstance(law, PumpLaw)]
        self.n_pipes = len(pipes)
        self.edges = np.array(pipes + pumps, dtype=int)
        self.flip = np.array([False] * len(pipes)
                             + [laws[i].reverse for i in pumps], dtype=bool)
        ends = np.array([g.edges[i] for i in self.edges], dtype=int).reshape(-1, 2)
        self.tail, self.head = np.where(self.flip[:, None], ends[:, ::-1], ends).T
        self.coefficient = np.array([laws[i].coefficient for i in pipes])
        self.exponent = np.array([laws[i].exponent for i in pipes])
        self.gain = np.array([laws[i].gain for i in pumps])
        pos = np.cumsum(is_free) - 1  # a free node's column in A_f
        out = np.flatnonzero(is_free[self.tail])
        into = np.flatnonzero(is_free[self.head])
        self.a_rows = np.concatenate((out, into))
        self.a_cols = pos[np.concatenate((self.tail[out], self.head[into]))]
        self.a_vals = np.repeat([1.0, -1.0], [len(out), len(into)])


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
        pres = tuple(sorted(int(i) for i in self.pressure_nodes))
        if not pres:
            raise ModelError("at least one fixed-pressure node is required")
        if len(set(pres)) != len(pres):
            raise ModelError("duplicate fixed-pressure node")
        for p in pres:
            if not 0 <= p < self.graph.node_count:
                raise ModelError(f"pressure node {p} outside node range")
        object.__setattr__(self, "pressure_nodes", pres)
        object.__setattr__(self, "_incidence", _Incidence(self))


@dataclass(frozen=True)
class HydraulicSolution:
    """Nodal pressures, per-edge flows, and solver bookkeeping.

    Flows are oriented along each edge's canonical (low, high) direction;
    the reverse flow is the negation. unknowns is the converged Newton
    vector (law-order edge flows, free pressures): a later solve's x0.
    """

    pressures: np.ndarray
    flows: np.ndarray
    residual: float
    iterations: int
    unknowns: np.ndarray | None = None


def solve_network(u, model: WaterModel, tol: float = FLOW_TOL,
                  max_iter: int = MAX_HYDRAULIC_ITER,
                  x0=None) -> HydraulicSolution:
    """Solve for nodal pressures and edge flows given the control vector.

    u holds one entry per node: pressure (m) at fixed-pressure nodes,
    injection (m^3/hr) everywhere else. The Newton iteration starts from x0,
    the edge flows in law order (pipes then pumps, each pump along its
    boost) then the free pressures, as in HydraulicSolution.unknowns; when
    x0 is None it starts from the minimum-norm flows that conserve the
    injections and every free pressure at the mean fixed pressure. Raises ModelError when some node
    cannot reach a fixed-pressure node or x0 has the wrong length,
    HydraulicInfeasibleError when the Newton iteration stops unconverged
    (the message names the stop), and
    PumpReverseFlowError when the solution would push flow backwards
    through a pump.
    """
    u = np.asarray(u, dtype=float)
    n = model.graph.node_count
    if u.shape != (n,):
        raise ModelError("control vector must hold one entry per node")
    net = model._incidence
    if net.unreachable:
        raise ModelError(
            f"nodes {net.unreachable} cannot reach any fixed-pressure node")
    free, tail, head, k = net.free, net.tail, net.head, net.n_pipes
    m, nf = len(tail), len(free)
    u_free = u[free]
    a_f = np.zeros((m, nf))
    a_f[net.a_rows, net.a_cols] = net.a_vals
    # rows: pipe laws, pump gains, conservation; columns: flows, free pressures
    jac = np.zeros((m + nf, m + nf))
    jac[:k, m:] = -a_f[:k]
    jac[k:m, m:] = a_f[k:]
    jac[m:, :m] = a_f.T
    pipes = np.arange(k)

    def residual(x):
        """Pipe drop minus pressure difference, pressure difference plus
        pump gain, then net outflow minus injection at free nodes; aux
        carries the pressures and the pipe slopes."""
        pres = u.copy()
        pres[free] = x[m:]
        diff = pres[tail] - pres[head]
        drop, slope = _friction(x[:k], net.coefficient, net.exponent)
        return np.concatenate((drop - diff[:k], diff[k:] + net.gain,
                               a_f.T @ x[:m] - u_free)), (pres, slope)

    def jacobian(x, aux):
        jac[pipes, pipes] = aux[1]
        return jac

    if x0 is None:
        x0 = np.concatenate((a_f @ np.linalg.solve(a_f.T @ a_f, u_free),
                             np.full(nf, np.mean(u[net.fixed]))))
    elif np.shape(x0) != (m + nf,):
        raise ModelError("start vector must hold the edge flows and the "
                         "free pressures")
    x, (pressures, _), rnorm, iters = damped_newton(
        np.asarray(x0, dtype=float), residual, jacobian,
        lambda it: HydraulicInfeasibleError(
            f"singular hydraulic Jacobian at iteration {it}"),
        tol, max_iter)
    if not rnorm <= tol:  # a NaN residual is no solution
        raise HydraulicInfeasibleError(
            "no hydraulic solution: " + newton_failure(rnorm, iters, max_iter))
    q = x[:m]
    backward = q[k:] < -1e-6
    if backward.any():
        j = k + backward.argmax()
        raise PumpReverseFlowError(
            f"pump {tail[j]}->{head[j]} would carry reverse flow {q[j]:.3f}")
    flows = np.zeros(len(model.graph.edges))
    flows[net.edges] = np.where(net.flip, -q, q)
    return HydraulicSolution(pressures=pressures, flows=flows,
                             residual=rnorm, iterations=iters, unknowns=x)


def check_pressure_ordering(model: WaterModel, u_hi, u_lo,
                            tol: float = 1e-6) -> bool:
    """Ordered controls must give ordered pressures at non-fixed nodes.

    Requires u_hi >= u_lo entrywise (higher source pressures and higher
    injections). Solves both and returns True iff every non-fixed nodal
    pressure under u_hi is at least the one under u_lo, within tol.
    """
    u_hi = np.asarray(u_hi, dtype=float)
    u_lo = np.asarray(u_lo, dtype=float)
    if np.any(u_hi < u_lo):
        raise ValueError("u_hi must dominate u_lo entrywise")
    hi = solve_network(u_hi, model)
    lo = solve_network(u_lo, model)
    others = model._incidence.free
    return bool(np.all(hi.pressures[others] >= lo.pressures[others] - tol))


class WaterPlant(PlantModel):
    """Node-indexed plant view of a WaterModel.

    The control vector holds pressure set points at fixed-pressure nodes
    and injections elsewhere; outputs are the pressures at the measured
    nodes, which carry the minimum-pressure requirements. The measured-node
    index array that picks them out is built once, here.
    """

    def __init__(self, model: WaterModel, u_lower, u_upper, y_lower,
                 measured_nodes):
        self.model = model
        self.u_lower = np.asarray(u_lower, dtype=float)
        self.u_upper = np.asarray(u_upper, dtype=float)
        self.y_lower = np.asarray(y_lower, dtype=float)
        self.measured_nodes = tuple(int(i) for i in measured_nodes)
        self._measured = np.array(self.measured_nodes, dtype=int)
        if len(self.u_upper) != model.graph.node_count:
            raise ModelError("control limits must cover every node")
        self._check_limit_shapes()

    def solve(self, u):
        return self.solve_from(u)[0]

    def solve_from(self, u, start=None):
        """Measured pressures solved from start, a previous state (None:
        cold); the state is the converged Newton unknown vector."""
        sol = solve_network(np.asarray(u, dtype=float), self.model, x0=start)
        return sol.pressures[self._measured], sol.unknowns
