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
damped Newton drives the nodal imbalances to zero. At least one node must
hold a fixed pressure, and every node must reach one through the network.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (HydraulicInfeasibleError, ModelError,
                     PumpReverseFlowError)
from .graph import Graph, reachable
from .plant import PlantModel

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


def _pipe_flow_from_drop(drop: float, law: PipeLaw):
    """Invert the (regularized) friction law; returns (flow, dflow/ddrop)."""
    c, e = law.coefficient, law.exponent
    lin_slope = 1.0 / (c * LINEAR_FLOW_CUTOFF ** (e - 1.0))
    drop_cut = c * LINEAR_FLOW_CUTOFF ** e
    a = abs(drop)
    if a <= drop_cut:
        return drop * lin_slope, lin_slope
    flow = np.sign(drop) * (a / c) ** (1.0 / e)
    dflow = (a / c) ** (1.0 / e - 1.0) / (c * e)
    return float(flow), float(dflow)


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
    g = model.graph
    n = g.node_count
    if u.shape != (n,):
        raise ModelError("control vector must hold one entry per node")
    fixed = set(model.pressure_nodes)
    missing = sorted(set(range(n)) - reachable(g, fixed))
    if missing:
        raise ModelError(
            f"nodes {missing} cannot reach any fixed-pressure node")

    free = [i for i in range(n) if i not in fixed]
    free_pos = {node: k for k, node in enumerate(free)}
    pipes = [(ei, e) for ei, e in enumerate(g.edges)
             if isinstance(model.edge_laws[ei], PipeLaw)]
    pumps = [(ei, e) for ei, e in enumerate(g.edges)
             if isinstance(model.edge_laws[ei], PumpLaw)]
    n_free, n_pump = len(free), len(pumps)
    dim = n_free + n_pump

    pressures = np.zeros(n)
    ref_mean = float(np.mean([u[p] for p in fixed]))
    for node in range(n):
        pressures[node] = u[node] if node in fixed else ref_mean
    pump_flows = np.zeros(n_pump)

    def assemble(pres, pflow):
        """Residual vector and Jacobian for the current iterate."""
        res = np.zeros(dim)
        jac = np.zeros((dim, dim))
        flows = np.zeros(len(g.edges))
        # conservation residuals: injection minus net outflow at free nodes
        for k, node in enumerate(free):
            res[k] = u[node]
        for ei, (m, nn) in pipes:
            law = model.edge_laws[ei]
            flow, dflow = _pipe_flow_from_drop(pres[m] - pres[nn], law)
            flows[ei] = flow
            if m in free_pos:
                k = free_pos[m]
                res[k] -= flow
                jac[k, free_pos[m]] -= dflow
                if nn in free_pos:
                    jac[k, free_pos[nn]] += dflow
            if nn in free_pos:
                k = free_pos[nn]
                res[k] += flow
                jac[k, free_pos[nn]] -= dflow
                if m in free_pos:
                    jac[k, free_pos[m]] += dflow
        for pi, (ei, (m, nn)) in enumerate(pumps):
            law = model.edge_laws[ei]
            tail, head = (nn, m) if law.reverse else (m, nn)
            flows[ei] = -pflow[pi] if law.reverse else pflow[pi]
            col = n_free + pi
            if tail in free_pos:
                res[free_pos[tail]] -= pflow[pi]
                jac[free_pos[tail], col] -= 1.0
            if head in free_pos:
                res[free_pos[head]] += pflow[pi]
                jac[free_pos[head], col] += 1.0
            # pump row: pressure rise tail -> head equals the gain
            row = n_free + pi
            res[row] = pres[tail] - pres[head] + law.gain
            if tail in free_pos:
                jac[row, free_pos[tail]] = 1.0
            if head in free_pos:
                jac[row, free_pos[head]] = -1.0
        return res, jac, flows

    res, jac, flows = assemble(pressures, pump_flows)
    rnorm = float(np.max(np.abs(res))) if dim else 0.0
    iters = 0
    while rnorm > tol and iters < max_iter:
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise HydraulicInfeasibleError(
                f"singular hydraulic Jacobian at iteration {iters}") from exc
        scale = 1.0
        best = None
        for _ in range(11):
            cand_p = pressures.copy()
            for k, node in enumerate(free):
                cand_p[node] += scale * step[k]
            cand_f = pump_flows + scale * step[n_free:]
            rc, jc, fc = assemble(cand_p, cand_f)
            rcn = float(np.max(np.abs(rc)))
            if best is None or rcn < best[0]:
                best = (rcn, cand_p, cand_f, rc, jc, fc)
            if rcn < rnorm:
                break
            scale *= 0.5
        rnorm, pressures, pump_flows, res, jac, flows = best
        iters += 1
    if rnorm > tol:
        raise HydraulicInfeasibleError(
            f"hydraulic solve stalled after {iters} iterations "
            f"(residual {rnorm:.3e})")
    for pi, (ei, (m, nn)) in enumerate(pumps):
        if pump_flows[pi] < -1e-6:
            law = model.edge_laws[ei]
            tail, head = (nn, m) if law.reverse else (m, nn)
            raise PumpReverseFlowError(
                f"pump {tail}->{head} would carry reverse flow "
                f"{pump_flows[pi]:.3f}")
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
    others = [i for i in range(model.graph.node_count)
              if i not in model.pressure_nodes]
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
