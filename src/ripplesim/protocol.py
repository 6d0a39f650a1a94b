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


def round_constants(gains: ProtocolGains, adjacency, u_upper, y_lower,
                    measured_nodes) -> tuple:
    """protocol_round's constants, one tuple built once per run: the gain
    vectors, adjacency.dot, the ceilings, the floors, the measured node
    indices and zero vectors as long as the floors and the ceilings."""
    u_upper, y_lower = np.asarray(u_upper, float), np.asarray(y_lower, float)
    return (gains.eta1, gains.eta2, gains.eta3,
            np.asarray(adjacency, dtype=float).dot, u_upper, y_lower,
            np.asarray(measured_nodes, dtype=np.intp),
            np.zeros(len(y_lower)), np.zeros(len(u_upper)))


def protocol_round(u, beacons, y, constants):
    """All four steps of one round from the reading y taken at controls u;
    returns (deficit, u_next, beacons_next). The deficit is max(0, floor -
    reading) at the measured nodes and zero elsewhere; a reading or floor
    that does not match them in length raises ValueError. beacons are last
    round's (one round late by construction); constants are the run's
    round_constants. message_counts(beacons_next, adjacency) counts the
    messages the round sends."""
    eta1, eta2, eta3, dot, u_upper, y_lower, measured, zero_y, zero = constants
    deficit = zero.copy()
    deficit[measured] = np.maximum(y_lower - y, zero_y)
    target = u + eta1 * deficit + eta2 * dot(beacons)
    return (deficit, np.minimum(target, u_upper),
            np.maximum(zero, eta3 * (target - u_upper)))


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


def auto_gains(plant, adjacency, u0) -> ProtocolGains:
    """Default gains for a scenario that does not pin them down.

    eta3 is 1 everywhere; eta2 is uniform and sized so the gain_condition
    norm equals 0.5 (a 2x safety margin below 1); eta1 is 0.5 over each
    agent's own sensitivity, probed at u0, so one round of pure local
    control covers about half of a deficit. Agents without a measured
    output at their own node fall back to their largest column sensitivity,
    and to 1.0 when the plant does not respond to them at all.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = plant.control_dim
    eta3 = np.ones(n)
    norm_a = spectral_norm(adjacency)
    eta2 = np.full(n, 0.5 / norm_a if norm_a > 0 else 1.0)
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
