"""Abstract plant contract, feasibility queries, and the monotonicity probe.

A plant maps a control vector u (one entry per node, mixed units allowed)
to a vector of measured outputs y over a subset of nodes. Controls carry
box limits; measured outputs carry lower limits. A control is feasible when
it sits inside its box and the resulting outputs clear their floors.
"""
import abc
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, PlantSolveError, ScenarioError, SolverError
from .graph import _integer

EPS_FEAS_DEFAULT = 1e-6
MONOTONE_TOL = 1e-7


def _frozen(values) -> np.ndarray:
    """A read-only float copy of values."""
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


class PlantModel(abc.ABC):
    """Deterministic steady-state plant.

    Concrete plants expose:
        u_lower, u_upper: finite per-node control limits (u_lower <= u_upper)
        measured_nodes:   distinct node indices carrying output sensors
        y_lower:          finite output floors aligned with measured_nodes
        solve(u):         outputs over measured_nodes for control u
        solve_from(u, start=None) -> (y, state):
                          the same outputs, solved from the state a previous
                          solve_from returned (None: the cold start of solve)
        disrupted(event): a new plant with the DisruptionEvent applied

    The limits are read-only float copies, checked when the plant is made
    (_set_limits, the last step of making one). A plant is immutable: once
    made, it refuses attribute assignment with an AttributeError.

    solve must be a pure function of u (same input, same output) and must
    not keep mutable state across calls, so concurrent read-only use is safe.
    The state is the solution object that the plant's solver returned (a
    grid's PowerFlowSolution, a water network's HydraulicSolution), to be
    read only: the solver unknowns, the terms of them that the next solve
    reuses, and the iterations and residual. An iteratively solved plant
    starts its next solve there, so a control that moved little converges
    in few steps. A warm solve agrees with the cold one to within the
    solver tolerance. The default has no state to reuse: it returns
    (solve(u), None).
    """

    u_lower: np.ndarray
    u_upper: np.ndarray
    y_lower: np.ndarray
    measured_nodes: tuple
    _made = False

    def __setattr__(self, name, value):
        if self._made:
            raise AttributeError(f"cannot set {name!r}: a plant is immutable")
        object.__setattr__(self, name, value)

    @property
    def control_dim(self) -> int:
        return len(self.u_upper)

    @abc.abstractmethod
    def solve(self, u: np.ndarray) -> np.ndarray:
        """Return outputs over measured_nodes for control vector u."""

    def solve_from(self, u: np.ndarray, start=None):
        """Return (outputs, state), solving from start, a previous state."""
        return self.solve(u), None

    def disrupted(self, event):
        """The plant after the event; this plant is left untouched.

        Each plant type applies the event kinds it supports and raises
        ScenarioError for the others; the base plant supports none.
        """
        raise ScenarioError(
            f"no disruption support for {type(self).__name__}")

    def _rebased_limits(self, event):
        """Copies of (u_lower, u_upper) after a demand_change event.

        The event's params are {"node": k} with either "set", the new base
        (lower limit) of control k, or "scale", a factor on the old base; an
        optional "flexibility" replaces the width of k's box, which
        otherwise moves with its base.
        """
        params, node = event.params, event.params["node"]
        u_lower, u_upper = self.u_lower.copy(), self.u_upper.copy()
        if "set" in params:
            base = float(params["set"])
        elif "scale" in params:
            base = float(params["scale"]) * u_lower[node]
        else:
            raise ScenarioError("demand_change needs 'set' or 'scale'")
        flex = float(params.get("flexibility", u_upper[node] - u_lower[node]))
        u_lower[node], u_upper[node] = base, base + flex
        return u_lower, u_upper

    def _set_limits(self, u_lower, u_upper, y_lower, measured_nodes):
        """Store the limits as read-only float copies and measured_nodes as
        ints, and as the int array _measured; check that the limits are
        finite and agree with each other and with the sensors, which sit at
        distinct nodes in [0, control_dim). Then the plant is made."""
        self.u_lower, self.u_upper, self.y_lower = map(
            _frozen, (u_lower, u_upper, y_lower))
        self.measured_nodes = tuple(_integer(i, "measured node")
                                    for i in measured_nodes)
        for name in ("u_lower", "u_upper", "y_lower"):
            if not np.isfinite(getattr(self, name)).all():
                raise ModelError(f"{name} must be finite")
        if self.u_lower.shape != self.u_upper.shape:
            raise ModelError("control limit vectors disagree in shape")
        if np.any(self.u_lower > self.u_upper):
            raise ModelError("u_lower exceeds u_upper")
        if len(self.y_lower) != len(self.measured_nodes):
            raise ModelError("y_lower must align with measured_nodes")
        if len(set(self.measured_nodes)) != len(self.measured_nodes):
            raise ModelError("a measured node is repeated")
        if not all(0 <= i < self.control_dim for i in self.measured_nodes):
            raise ModelError("measured node outside the control range")
        self._measured = np.array(self.measured_nodes, dtype=int)
        self._made = True


class LinearPlant(PlantModel):
    """Affine plant y = S u + offset over the measured nodes.

    Mainly used by synthetic corpora and tests; S >= 0 yields a monotone
    plant, and deliberately negative entries give counterexamples.
    """

    def __init__(self, sensitivity, offset, u_lower, u_upper, y_lower,
                 measured_nodes):
        self.sensitivity = _frozen(sensitivity)
        self.offset = _frozen(offset)
        if self.sensitivity.ndim != 2:
            raise ModelError("sensitivity must be a matrix")
        m, n = self.sensitivity.shape
        if m != len(measured_nodes) or n != len(u_upper):
            raise ModelError("sensitivity shape disagrees with limits")
        if self.offset.shape != (m,):
            raise ModelError("offset must hold one entry per measured node")
        for name in ("sensitivity", "offset"):
            if not np.isfinite(getattr(self, name)).all():
                raise ModelError(f"{name} must be finite")
        self._set_limits(u_lower, u_upper, y_lower, measured_nodes)

    def solve(self, u):
        return self.sensitivity.dot(u) + self.offset

    def disrupted(self, event):
        """Supports parameter_change with {"offset": [...]}, a replacement
        offset of the same length."""
        if event.kind != "parameter_change" or "offset" not in event.params:
            raise ScenarioError(
                f"unsupported linear-plant disruption '{event.kind}'")
        return LinearPlant(self.sensitivity, event.params["offset"],
                           self.u_lower, self.u_upper, self.y_lower,
                           self.measured_nodes)


def feasibility_check(plant: PlantModel, u, eps_feas: float = EPS_FEAS_DEFAULT) -> bool:
    """True iff u is inside its box and plant outputs clear their floors.

    Both comparisons are slackened by eps_feas. Plant solve failures are
    re-raised as PlantSolveError carrying the offending control vector.
    """
    u = np.asarray(u, dtype=float)
    if (u < plant.u_lower - eps_feas).any() or (u > plant.u_upper + eps_feas).any():
        return False
    try:
        y = plant.solve(u)
    except SolverError as exc:
        raise PlantSolveError(f"plant solve failed: {exc}", control=u) from exc
    return bool((y >= plant.y_lower - eps_feas).all())


def max_effort_feasibility(plant: PlantModel, eps_feas: float = EPS_FEAS_DEFAULT) -> bool:
    """True iff outputs clear their floors at the upper control limit.

    For a monotone plant this decides whether any feasible control exists
    inside the box: the maximum effort dominates every other choice.
    """
    try:
        y = plant.solve(plant.u_upper)
    except SolverError as exc:
        raise PlantSolveError(f"plant solve failed at maximum effort: {exc}",
                              control=np.array(plant.u_upper)) from exc
    return bool(np.all(y >= plant.y_lower - eps_feas))


def damped_newton(x, residual, direction, singular, tol: float,
                  max_iter: int, start=None):
    """Backtracking Newton iteration for the square system F(x) = 0.

    residual(x) returns (F(x), aux), and start is residual(x) when the
    caller has it; direction(x, F(x), aux) returns the Newton step, the
    solution of J step = -F with J = dF/dx, however the caller solves it.
    Each iteration takes the first of x + step, x + step/2, ..., x +
    step/1024 that lowers the residual inf-norm. Stops at inf-norm <= tol,
    after max_iter iterations, or where no step lowers it (iterations <
    max_iter), at the lowest residual reached. Returns (x, aux, inf-norm,
    iterations); a LinAlgError from direction (a singular J) raises
    singular(iteration).
    """
    r, aux = residual(x) if start is None else start
    rnorm = float(np.maximum.reduce(np.abs(r))) if r.size else 0.0
    iters = 0
    while rnorm > tol and iters < max_iter:
        try:
            step = direction(x, r, aux)
        except np.linalg.LinAlgError as exc:
            raise singular(iters) from exc
        for k in range(11):
            cand = x + step / 2 ** k if k else x + step
            rc, ac = residual(cand)
            if (rcn := float(np.maximum.reduce(np.abs(rc)))) < rnorm:
                break
        else:
            break
        rnorm, x, r, aux = rcn, cand, rc, ac
        iters += 1
    return x, aux, rnorm, iters


def newton_failure(rnorm: float, iters: int, max_iter: int) -> str:
    """Which stop ended an unconverged damped_newton run, and where.

    Every accepted step lowers the residual, so a non-finite one can only
    be the starting point's, where no line search ran.
    """
    if not np.isfinite(rnorm):
        return (f"the residual at the starting point is not finite "
                f"(residual {rnorm:.3e})")
    if iters < max_iter:
        return (f"no step along the Newton direction lowers the residual "
                f"at iteration {iters} (residual {rnorm:.3e})")
    return f"iteration cap {max_iter} reached (residual {rnorm:.3e})"


@dataclass(frozen=True)
class ProbeResult:
    """Finite-difference sensitivity estimate and a monotonicity verdict."""

    jacobian: np.ndarray
    monotone: bool


def monotonicity_probe(plant: PlantModel, u0) -> ProbeResult:
    """Central-difference output Jacobian at u0, with a sign verdict.

    The probe perturbs each control by +-step around u0 and declares the
    plant monotone at u0 when every sensitivity entry is >= -MONOTONE_TOL.
    The step is 1e-5 * max(1, |u0|_inf), balancing truncation against
    cancellation for the iteratively solved plants. Perturbed points may
    leave the control box: the box constrains the controller, not the
    physics, so the plant is still asked to solve there.
    """
    u0 = np.asarray(u0, dtype=float)
    n = plant.control_dim
    step = 1e-5 * max(1.0, float(np.max(np.abs(u0))) if n else 1.0)
    jac = np.zeros((len(plant.measured_nodes), n))
    for k in range(n):
        up = u0.copy()
        dn = u0.copy()
        up[k] += step
        dn[k] -= step
        try:
            y_up = plant.solve(up)
            y_dn = plant.solve(dn)
        except SolverError as exc:
            raise PlantSolveError(
                f"plant solve failed while probing control {k}: {exc}",
                control=u0, direction=k) from exc
        jac[:, k] = (y_up - y_dn) / (2.0 * step)
    return ProbeResult(jacobian=jac,
                       monotone=bool(np.all(jac >= -MONOTONE_TOL)))
