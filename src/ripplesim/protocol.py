"""Saturation-driven control rounds with event-triggered beacon messages.

Each node hosts an agent holding one control value. A round works on the
latest plant reading and the beacons received from communication neighbors:

  1. every measured node turns its output shortfall into a nonnegative
     deficit (zero when the output clears its floor, or when unmeasured);
  2. each agent computes a raw target: current control, plus its own
     deficit scaled by eta1, plus the beacon sum from its neighbors scaled
     by eta2;
  3. the part of the target that overshoots the control ceiling becomes the
     agent's new beacon (scaled by eta3, clamped at zero), so only agents
     pinned at their ceiling ever signal for help;
  4. the implemented control is the target clipped to the ceiling.

Controls therefore never decrease and never exceed their ceilings, and a
beacon is only ever positive at an agent whose control is saturated. With
the gain product small enough (see gain_condition) the beacon relay is a
contraction, so runs settle instead of echoing forever.
"""
from dataclasses import dataclass

import numpy as np

from .plant import monotonicity_probe


@dataclass(frozen=True)
class ProtocolGains:
    """Per-agent step sizes; all entries must be finite and strictly positive."""

    eta1: np.ndarray
    eta2: np.ndarray
    eta3: np.ndarray

    def __post_init__(self):
        for name in ("eta1", "eta2", "eta3"):
            v = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v) & (v > 0)):
                raise ValueError(f"{name} must be finite and strictly positive")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if not (len(self.eta1) == len(self.eta2) == len(self.eta3)):
            raise ValueError("gain vectors disagree in length")


def violation(y, y_lower, measured_nodes, node_count: int) -> np.ndarray:
    """Per-node output deficit: max(0, floor - reading), zero if unmeasured.

    y and y_lower go to np.subtract as they are, and an integer index array
    passes np.asarray unconverted, so a caller that runs many rounds
    converts its floors and measured indices once. A reading or floor that
    does not match measured_nodes in length raises ValueError.
    """
    f = np.zeros(node_count)
    f[np.asarray(measured_nodes, dtype=np.intp)] = np.maximum(
        np.subtract(y_lower, y), 0.0)
    return f


def spectral_norm(matrix) -> float:
    """Largest singular value (the matrix 2-norm); 0 for an empty matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def gain_condition(eta2, eta3, adjacency) -> float:
    """Spectral norm of diag(eta2) diag(eta3) A; values < 1 certify settling.

    Returns inf when the scaled matrix is not finite (the gain product
    overflowed), so the certificate cannot pass by accident.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.asarray(eta2, dtype=float) * np.asarray(eta3, dtype=float)
        m = d[:, None] * np.asarray(adjacency, dtype=float)
    if not np.all(np.isfinite(m)):
        return float("inf")
    return spectral_norm(m)


def protocol_round(u, beacons, deficit, gains: ProtocolGains, adjacency,
                   u_upper):
    """Advance one synchronous round; returns (u_next, beacons_next).

    deficit is the violation of the reading taken at controls u. beacons are
    the ones computed last round (they arrive one round late by
    construction). message_counts(beacons_next, adjacency) is the number of
    messages the round sends.
    """
    target = u + gains.eta1 * deficit + gains.eta2 * (adjacency @ beacons)
    beacons_next = np.maximum(0.0, gains.eta3 * (target - u_upper))
    return np.minimum(target, u_upper), beacons_next


def message_counts(beacons, adjacency):
    """Messages sent with these beacons: the summed overlay degree of the
    agents whose beacon is positive (each sends one message per
    communication neighbor). beacons is one round's row, giving one count,
    or a (rounds, n) stack, giving one count per row.
    """
    return (np.asarray(beacons) > 0.0) @ np.count_nonzero(adjacency, axis=1)


def is_equilibrium(u, beacons, u_next, beacons_next, eps_eq: float = 1e-8) -> bool:
    """True when neither controls nor beacons moved more than eps_eq
    (inf-norm); a NaN counts as moved."""
    if np.shape(u) != np.shape(u_next):
        raise ValueError("states disagree in dimension")
    n = len(u)
    return (np.count_nonzero(abs(u_next - u) <= eps_eq) == n
            and np.count_nonzero(abs(beacons_next - beacons) <= eps_eq) == n)


def auto_gains(plant, adjacency, u0=None, target_norm: float = 0.5) -> ProtocolGains:
    """Default gains for a scenario that does not pin them down.

    eta3 is 1 everywhere; eta2 is uniform and sized so the gain_condition
    norm equals target_norm (a 2x safety margin below 1 by default); eta1
    is 0.5 over each agent's own probed sensitivity, so one round of pure
    local control covers about half of a deficit. Agents without a measured
    output at their own node fall back to their largest column sensitivity,
    and to 1.0 when the plant does not respond to them at all.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = plant.control_dim
    eta3 = np.ones(n)
    norm_a = spectral_norm(adjacency)
    eta2 = np.full(n, target_norm / norm_a if norm_a > 0 else 1.0)
    if u0 is None:
        u0 = 0.5 * (plant.u_lower + plant.u_upper)
    jac = monotonicity_probe(plant, u0).jacobian
    row_of = {node: i for i, node in enumerate(plant.measured_nodes)}
    eta1 = np.ones(n)
    for k in range(n):
        if k in row_of:
            sens = jac[row_of[k], k]
        else:
            sens = float(np.max(np.abs(jac[:, k]))) if jac.size else 0.0
        if sens > 1e-12:
            eta1[k] = 0.5 / sens
    return ProtocolGains(eta1=eta1, eta2=eta2, eta3=eta3)
