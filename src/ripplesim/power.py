"""Lossless reactive-power grid model with Newton load-voltage solves.

The model is the standard linear-susceptance approximation: with B the
weighted Laplacian of the line graph (per-unit susceptances), nodal
reactive injections satisfy q = diag(v) B v. Buses split into generators
(voltage magnitude is the control) and loads (reactive injection is the
control, voltage magnitude is the regulated output). Partitioning B
accordingly and fixing (q_L, v_G) leaves a quadratic system in the load
voltages, solved by the damped Newton shared with the water solver
(plant.damped_newton). A cold solve starts at the open-circuit voltages
GridModel.open_circuit v_G, the exact solution at zero load injection.

The implicit-function Jacobian of the solved map (PowerFlowSolution.jacobian)
is closed-form through G = diag(i_L) + diag(v_L) B_LL, i_L = B_LG v_G +
B_LL v_L. It is entrywise nonnegative whenever the certificate matrix
diag(q_L / v_L^2) + B_LL is positive definite (G is then an M-matrix, so
its inverse is nonnegative); its smallest eigenvalue is monotonicity_margin.
"""
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ModelError, PowerFlowInfeasibleError, ScenarioError,
                     SingularJacobianError)
from .graph import (Graph, _integer, edge_index, reachable,
                    weighted_laplacian, without_edge)
from .plant import PlantModel, _frozen, _kept, damped_newton

SOLVER_TOL = 1e-8
MAX_NEWTON_ITER = 50


@dataclass(frozen=True)
class GridModel:
    """Grid data: line graph, per-line susceptances, bus partition.

    generators and loads are disjoint bus-index tuples covering the graph,
    and every load bus reaches a generator bus through the lines.
    The read-only load/generator blocks b_ll, b_lg and b_gg of the
    Laplacian B are derived once at construction; with open_circuit, built
    on first use, they are all the solvers read. b_matrix rebuilds B on
    access, so a model never stores B twice. The model is immutable
    afterwards.
    """

    graph: Graph
    susceptances: tuple
    generators: tuple
    loads: tuple

    def __post_init__(self):
        gens = tuple(sorted(_integer(i, "generator bus")
                            for i in self.generators))
        loads = tuple(sorted(_integer(i, "load bus") for i in self.loads))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "loads", loads)
        if set(gens) & set(loads):
            raise ModelError("a bus cannot be both generator and load")
        if set(gens) | set(loads) != set(range(self.graph.node_count)):
            raise ModelError("bus partition must cover the whole graph")
        if not gens:
            raise ModelError("at least one generator bus is required")
        cut = sorted(set(loads) - reachable(self.graph, gens))
        if cut:
            raise ModelError(f"buses {cut} cannot reach any generator bus")
        b = self.b_matrix
        for name, rows, cols in (("b_ll", loads, loads), ("b_lg", loads, gens),
                                 ("b_gg", gens, gens)):
            block = b[np.ix_(rows, cols)]
            block.flags.writeable = False
            object.__setattr__(self, name, block)

    @property
    def b_matrix(self) -> np.ndarray:
        """The weighted Laplacian B, built afresh on each access."""
        return weighted_laplacian(self.graph, self.susceptances)

    @cached_property
    def open_circuit(self) -> np.ndarray:
        """The read-only (loads x generators) map -B_LL^-1 B_LG from
        generator voltages to the load voltages at zero load injection,
        built on first use. B_LL is a nonsingular M-matrix (every load
        reaches a generator) and the rows of [B_LL B_LG] sum to zero, so
        each row is nonnegative and sums to 1."""
        oc = np.linalg.solve(self.b_ll, -self.b_lg)
        oc.flags.writeable = False
        return oc


class PowerFlowSolution:
    """Solved load voltages plus bookkeeping from the Newton iteration.

    q_gen, the generator injections v_G * (B_GG v_G + B_LG^T v_L), is built
    on first read from the kept v_gen and grid, then cached; a q_gen given
    to the constructor is returned as it is. i_gen = B_LG v_G, v_gen and
    g_inv (an inverse of the Newton matrix, or None) are the record that
    solve_load_voltages reuses. q_gen raises ModelError without grid= or
    v_gen=, and jacobian and monotonicity_margin without grid= or i_load=.
    """

    __slots__ = ("v_load", "i_load", "iterations", "residual", "_q_gen",
                 "_v_gen", "_grid", "_i_gen", "_g_inv")

    def __init__(self, v_load, q_gen=None, i_load=None, iterations=0,
                 residual=0.0, *, v_gen=None, grid=None, i_gen=None,
                 g_inv=None):
        self.v_load, self.i_load = v_load, i_load
        self.iterations, self.residual = iterations, residual
        self._q_gen, self._v_gen, self._grid = q_gen, v_gen, grid
        self._i_gen, self._g_inv = i_gen, g_inv

    @property
    def q_gen(self) -> np.ndarray:
        if self._q_gen is None:
            grid = _kept(self, "q_gen", "_grid")
            v_gen = _kept(self, "q_gen", "_v_gen")
            self._q_gen = v_gen * (grid.b_gg.dot(v_gen)
                                   + grid.b_lg.T.dot(self.v_load))
        return self._q_gen

    @property
    def jacobian(self) -> np.ndarray:
        """dv_L/du, one column per bus in bus order: the solution X of
        G X = [I | -diag(v_L) B_LG] (load columns, then generator columns),
        reordered by bus. Derived from the kept grid on each read."""
        grid, v = _kept(self, "jacobian", "_grid"), self.v_load
        i_load = _kept(self, "jacobian", "i_load")
        rhs = np.hstack((np.eye(len(v)), -v[:, None] * grid.b_lg))
        try:
            x = np.linalg.solve(_gain_matrix(v, i_load, grid.b_ll), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "sensitivity matrix G is singular") from exc
        return x[:, np.argsort(grid.loads + grid.generators)]

    @property
    def monotonicity_margin(self) -> float:
        """Smallest eigenvalue of diag(q_L/v_L^2) + B_LL (i_L / v_L at the
        solution); a positive one certifies a nonnegative jacobian. A grid
        with no load bus has no eigenvalue, and its margin is inf."""
        grid = _kept(self, "monotonicity_margin", "_grid")
        i_load = _kept(self, "monotonicity_margin", "i_load")
        cert = np.diag(i_load / self.v_load) + grid.b_ll
        return float(np.min(np.linalg.eigvalsh(cert), initial=np.inf))


def reactive_injections(v, b_matrix) -> np.ndarray:
    """Nodal reactive injections q = diag(v) B v for a full voltage vector."""
    v = np.asarray(v, dtype=float)
    return v * (np.asarray(b_matrix, dtype=float) @ v)


def _gain_matrix(v_load, i_load, b_ll) -> np.ndarray:
    """G = diag(i_L) + diag(v_L) B_LL, formed in O(n^2): each row of B_LL
    scaled by its load voltage, then i_L added on the diagonal."""
    g = b_ll * v_load[:, None]
    g.ravel()[::len(v_load) + 1] += i_load
    return g


def solve_load_voltages(q_load, v_gen, grid: GridModel,
                        v0=None) -> PowerFlowSolution:
    """Solve diag(v_L)(B_LG v_G + B_LL v_L) = q_L for the load voltages.

    Runs plant.damped_newton to SOLVER_TOL from the open-circuit voltages
    grid.open_circuit v_G, or from v0: load voltages, or a previous
    PowerFlowSolution, at its v_load.
    A v0 whose record (i_gen, v_gen) solved this grid at these v_gen bytes
    reuses that record and its i_load, and first tries one chord step with
    the inverse it carries (the README gives the warm path); the solution
    keeps v0's v_gen array. v_load and i_load are read-only.
    Raises ModelError when a vector, v0's load voltages included, does not
    match the partition or a generator voltage is not positive,
    PowerFlowInfeasibleError at damped_newton's stop ("no load-voltage
    solution: " and the stop it reached) or a non-physical root (v <= 0),
    and SingularJacobianError when the iteration matrix degenerates.
    """
    q_load = np.asarray(q_load, dtype=float)
    v_gen = np.asarray(v_gen, dtype=float)
    nl = len(grid.loads)
    if q_load.shape != (nl,) or v_gen.shape != (len(grid.generators),):
        raise ModelError("injection/voltage vectors disagree with partition")
    start = g_inv = iters = None  # iters: set once a root is found
    if isinstance(v0, PowerFlowSolution):
        if v0._i_gen is not None and v0._v_gen is not None and \
                v0._grid is grid and v0._v_gen.tobytes() == v_gen.tobytes():
            v_gen, i_gen, g_inv = v0._v_gen, v0._i_gen, v0._g_inv
            start = (v0.v_load * v0.i_load - q_load, v0.i_load)
        v = v0 = v0.v_load
    if start is None:
        if np.fmin.reduce(v_gen) <= 0.0:  # a NaN passes, and fails the solve
            raise ModelError("generator voltages must be positive")
        v_gen = _frozen(v_gen)  # a copy: the solution keeps it
        i_gen = grid.b_lg.dot(v_gen)
        v = (grid.open_circuit.dot(v_gen) if v0 is None
             else np.array(v0, dtype=float))
        if v.shape != (nl,):
            raise ModelError("start vector must hold one voltage per load bus")

    def residual(vl):
        il = i_gen + grid.b_ll.dot(vl)
        return vl * il - q_load, il

    def singular(k):
        return SingularJacobianError(
            f"singular iteration matrix at iteration {k}")

    if start is not None and SOLVER_TOL < np.maximum.reduce(
            np.abs(start[0]), initial=0.0) < np.inf:
        if g_inv is None:
            try:
                g_inv = np.linalg.inv(_gain_matrix(v, start[1], grid.b_ll))
            except np.linalg.LinAlgError as exc:  # so would Newton's step
                raise singular(0) from exc
        vc = v - g_inv.dot(start[0])
        r, i_load = residual(vc)
        rnorm = float(np.maximum.reduce(np.abs(r)))
        if rnorm <= SOLVER_TOL and np.fmin.reduce(vc) > 0.0:
            v, iters = vc, 1
        else:
            g_inv = None
    if iters is None:
        v, i_load, rnorm, iters = damped_newton(
            v if start is None else v.copy(), residual,  # not the start's
            lambda vl, r, il: np.linalg.solve(
                _gain_matrix(vl, il, grid.b_ll), -r),
            singular, lambda why: PowerFlowInfeasibleError(
                "no load-voltage solution: " + why),
            SOLVER_TOL, MAX_NEWTON_ITER, start)
        if np.fmin.reduce(v, initial=np.inf) <= 0.0:
            raise PowerFlowInfeasibleError("converged to non-physical voltages")
    v.setflags(write=False)
    i_load.setflags(write=False)
    return PowerFlowSolution(v, None, i_load, iters, rnorm, v_gen=v_gen,
                             grid=grid, i_gen=i_gen, g_inv=g_inv)


@dataclass(frozen=True)
class SweepPoint:
    scale: float
    solved: bool
    margin: float | None


def loadability_sweep(grid: GridModel, q_load_nominal, v_gen, scales) -> list:
    """Scale nominal load injections and track solvability and the margin.

    For each multiplier the load-voltage solve is attempted; failures are
    recorded rather than raised. Returns one SweepPoint per scale.
    """
    q0 = np.asarray(q_load_nominal, dtype=float)
    out = []
    for s in scales:
        try:
            sol = solve_load_voltages(s * q0, v_gen, grid)
        except (PowerFlowInfeasibleError, SingularJacobianError):
            out.append(SweepPoint(scale=float(s), solved=False, margin=None))
            continue
        out.append(SweepPoint(scale=float(s), solved=True,
                              margin=sol.monotonicity_margin))
    return out


class GridPlant(PlantModel):
    """Node-indexed plant view of a GridModel.

    The control vector holds one entry per bus: voltage set point at
    generator buses, reactive injection at load buses (all per-unit).
    Outputs are the load-bus voltages, which carry the lower limits. The
    generator index array that splits u from the loads (the measured nodes)
    is built once, here. A generator's lower voltage limit must be positive.
    """

    def __init__(self, grid: GridModel, u_lower, u_upper, y_lower):
        self.grid = grid
        self._gens = np.array(grid.generators, dtype=int)
        if len(u_upper) != grid.graph.node_count:
            raise ModelError("control limits must cover every bus")
        self._set_limits(u_lower, u_upper, y_lower, grid.loads)
        if (self.u_lower[self._gens] <= 0.0).any():
            raise ModelError("generator voltage limits must be positive")

    def solve(self, u):
        return self.solve_from(u)[0]

    def solve_from(self, u, start=None):
        """Load voltages solved from start, a previous state (None: the
        open-circuit voltages); the state is the PowerFlowSolution."""
        u = np.asarray(u, dtype=float)
        sol = solve_load_voltages(u[self._measured], u[self._gens], self.grid,
                                  start)
        return sol.v_load, sol

    def disrupted(self, event):
        """Supports remove_edge {"edge": (m, n)}, which trips a line;
        demand_change at a load bus (PlantModel._rebased_limits); and
        parameter_change {"edge": (m, n), "susceptance": b}. Builds
        type(self): a subclass with another constructor overrides this."""
        grid, limits = self.grid, (self.u_lower, self.u_upper)
        if event.kind == "remove_edge":
            graph, sus = without_edge(grid.graph, event.params["edge"],
                                      grid.susceptances)
            grid = GridModel(graph, sus, grid.generators, grid.loads)
        elif event.kind == "demand_change":
            node = event.params["node"]
            if node not in grid.loads:
                raise ScenarioError(f"bus {node} is not a load bus")
            limits = self._rebased_limits(event)
        elif event.kind == "parameter_change":
            if not {"edge", "susceptance"} <= event.params.keys():
                raise ScenarioError("grid parameter_change needs 'edge' and "
                                    "'susceptance'")
            value = float(event.params["susceptance"])
            sus = list(grid.susceptances)
            sus[edge_index(grid.graph, event.params["edge"])] = value
            grid = GridModel(grid.graph, tuple(sus), grid.generators,
                             grid.loads)
        else:
            raise ScenarioError(f"unsupported grid disruption '{event.kind}'")
        return type(self)(grid, *limits, y_lower=self.y_lower)
