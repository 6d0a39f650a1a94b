"""Water network hydraulics: flow conservation plus dissipative edge laws.

Every node balances its injection against the flows on incident edges;
every edge relates its flow to the endpoint pressure difference. Pipes
follow a friction law drop = c * sign(flow) * |flow|^e (e = 2 for the
quadratic law, 1.852 for the Hazen-Williams fit), regularized to a linear
segment below a small cutoff flow so the slope neither vanishes nor blows
up at zero. Fixed-speed pumps add a constant pressure gain along their
design direction and refuse reverse flow.

The solve treats pressures at non-fixed nodes and pump flows as unknowns:
pipe flows follow from pressure differences by inverting the friction law,
pump constraint rows pin the pressure difference across each pump, and
the damped Newton shared with the grid solver (plant.damped_newton)
drives the nodal imbalances to zero. At least one node must hold a fixed
pressure, and every node must reach one through the network.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (HydraulicInfeasibleError, ModelError,
                     PumpReverseFlowError)
from .graph import Graph, reachable
from .plant import PlantModel, damped_newton

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


def edge_pressure_drop(flow: float, law) -> float:
    """Pressure drop for a given flow, measured along the law's own direction.

    Pipes dissipate (odd, strictly increasing in the flow); pumps return
    the constant -gain, a pressure rise along the design direction, for any
    flow in their operating range. Pipe flows below the linear cutoff use
    the linearized segment.
    """
    if isinstance(law, PumpLaw):
        return -law.gain
    s = float(flow)
    a = abs(s)
    if a <= LINEAR_FLOW_CUTOFF:
        return law.coefficient * LINEAR_FLOW_CUTOFF ** (law.exponent - 1.0) * s
    return law.coefficient * np.sign(s) * a ** law.exponent


class _PipeLaws:
    """A sequence of PipeLaws as arrays, with the constants of their inverse."""

    def __init__(self, laws):
        c = np.array([law.coefficient for law in laws])
        e = np.array([law.exponent for law in laws])
        self.coefficient, self.ce = c, c * e
        self.drop_cut = c * np.float_power(LINEAR_FLOW_CUTOFF, e)
        self.linear_slope = 1.0 / (c * np.float_power(LINEAR_FLOW_CUTOFF, e - 1.0))
        self.flow_exp = 1.0 / e
        self.slope_exp = 1.0 / e - 1.0


def _pipe_flow_from_drop(drop, pipes: _PipeLaws):
    """Invert the (regularized) friction laws elementwise.

    drop is an array aligned with pipes; returns the arrays (flow,
    dflow/ddrop). Powers go through np.float_power, which evaluates libm
    pow: np.power's SIMD loop can differ from it in the last bit.
    """
    a = np.abs(drop)
    linear = a <= pipes.drop_cut
    # the linear entries, discarded below, must not raise 0 to a negative power
    x = np.maximum(a, pipes.drop_cut) / pipes.coefficient
    flow = np.where(linear, drop * pipes.linear_slope,
                    np.sign(drop) * np.float_power(x, pipes.flow_exp))
    slope = np.where(linear, pipes.linear_slope,
                     np.float_power(x, pipes.slope_exp) / pipes.ce)
    return flow, slope


class _Incidence:
    """Index structure of a WaterModel, derived once at construction.

    Edges run in law order, pipes then pumps, from tail to head (a pump
    along its boost). Unknowns are the free pressures, then the pump flows;
    fixed nodes map to one extra sink row and column that the solver
    drops. Edge j's flow leaves its tail's row and enters its head's
    (flow_rows, flow_signs); its four Jacobian entries (jac_rows,
    jac_cols) carry jac_signs times its slope, dflow/ddrop for a pipe and
    1 for a pump. Both lists run edge by edge, the order in which the
    solver accumulates them.
    """

    def __init__(self, model):
        g, laws = model.graph, model.edge_laws
        n = g.node_count
        fixed = set(model.pressure_nodes)
        self.unreachable = sorted(set(range(n)) - reachable(g, fixed))
        # set order on purpose: the start pressure is the mean of the fixed
        # pressures summed in this order, and its last bit steers the Newton path
        self.fixed = np.array(list(fixed), dtype=int)
        self.free = np.array([i for i in range(n) if i not in fixed], dtype=int)
        pipes = [i for i, law in enumerate(laws) if isinstance(law, PipeLaw)]
        pumps = [i for i, law in enumerate(laws) if isinstance(law, PumpLaw)]
        self.n_pipes = len(pipes)
        self.edges = np.array(pipes + pumps, dtype=int)
        self.flip = np.array([False] * len(pipes)
                             + [laws[i].reverse for i in pumps], dtype=bool)
        ends = np.array([g.edges[i] for i in self.edges], dtype=int).reshape(-1, 2)
        self.tail, self.head = np.where(self.flip[:, None], ends[:, ::-1], ends).T
        self.pipe_laws = _PipeLaws([laws[i] for i in pipes])
        self.gain = np.array([laws[i].gain for i in pumps])
        nf = len(self.free)
        self.dim = nf + len(pumps)
        pos = np.full(n, self.dim)
        pos[self.free] = np.arange(nf)
        t, h = pos[self.tail], pos[self.head]
        self.flow_rows = np.stack((t, h), axis=1).ravel()
        self.flow_signs = np.tile([-1.0, 1.0], len(t))
        c = nf + np.arange(len(t)) - len(pipes)  # a pump's column and row
        pipe = (np.arange(len(t)) < len(pipes))[:, None]
        self.jac_rows = np.where(pipe, np.stack((t, t, h, h), axis=1),
                                 np.stack((t, h, c, c), axis=1)).ravel()
        self.jac_cols = np.where(pipe, np.stack((t, h, t, h), axis=1),
                                 np.stack((c, c, t, h), axis=1)).ravel()
        self.jac_signs = np.tile([-1.0, 1.0, 1.0, -1.0], len(t))


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
    the reverse flow is the negation.
    """

    pressures: np.ndarray
    flows: np.ndarray
    residual: float
    iterations: int


def solve_network(u, model: WaterModel, tol: float = FLOW_TOL,
                  max_iter: int = MAX_HYDRAULIC_ITER) -> HydraulicSolution:
    """Solve for nodal pressures and edge flows given the control vector.

    u holds one entry per node: pressure (m) at fixed-pressure nodes,
    injection (m^3/hr) everywhere else. Raises ModelError when some node
    cannot reach a fixed-pressure node, HydraulicInfeasibleError when the
    Newton iteration fails, and PumpReverseFlowError when the solution
    would push flow backwards through a pump.
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
    nf = len(free)
    start = np.full(n, float(np.mean(u[net.fixed])))
    start[net.fixed] = u[net.fixed]
    u_free, sink, pump_slope = u[free], np.zeros(1), np.ones(len(tail) - k)

    def residual(x):
        """Conservation at free nodes, then the pump rows; aux carries the
        pressures, the edge flows and the pipe slopes."""
        pres = start.copy()
        pres[free] = x[:nf]
        flow, dflow = _pipe_flow_from_drop(pres[tail[:k]] - pres[head[:k]],
                                           net.pipe_laws)
        q = np.concatenate((flow, x[nf:]))
        res = np.concatenate(
            (u_free, pres[tail[k:]] - pres[head[k:]] + net.gain, sink))
        np.add.at(res, net.flow_rows, q.repeat(2) * net.flow_signs)
        return res[:-1], (pres, q, dflow)

    def jacobian(x, aux):
        slope = np.concatenate((aux[2], pump_slope)).repeat(4)
        jac = np.zeros((net.dim + 1, net.dim + 1))
        np.add.at(jac, (net.jac_rows, net.jac_cols), slope * net.jac_signs)
        return jac[:-1, :-1]

    _, (pressures, q, _), rnorm, iters = damped_newton(
        np.concatenate((start[free], np.zeros(len(tail) - k))),
        residual, jacobian,
        lambda it: HydraulicInfeasibleError(
            f"singular hydraulic Jacobian at iteration {it}"),
        tol, max_iter)
    if rnorm > tol:
        raise HydraulicInfeasibleError(
            f"hydraulic solve stalled after {iters} iterations "
            f"(residual {rnorm:.3e})")
    backward = k + np.flatnonzero(q[k:] < -1e-6)
    if backward.size:
        j = backward[0]
        raise PumpReverseFlowError(
            f"pump {tail[j]}->{head[j]} would carry reverse flow {q[j]:.3f}")
    flows = np.zeros(len(model.graph.edges))
    flows[net.edges] = np.where(net.flip, -q, q)
    return HydraulicSolution(pressures=pressures, flows=flows,
                             residual=rnorm, iterations=iters)


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
    nodes, which carry the minimum-pressure requirements.
    """

    def __init__(self, model: WaterModel, u_lower, u_upper, y_lower,
                 measured_nodes):
        self.model = model
        self.u_lower = np.asarray(u_lower, dtype=float)
        self.u_upper = np.asarray(u_upper, dtype=float)
        self.y_lower = np.asarray(y_lower, dtype=float)
        self.measured_nodes = tuple(int(i) for i in measured_nodes)
        if len(self.u_upper) != model.graph.node_count:
            raise ModelError("control limits must cover every node")
        self._check_limit_shapes()

    def solve(self, u):
        sol = solve_network(np.asarray(u, dtype=float), self.model)
        return sol.pressures[list(self.measured_nodes)]
