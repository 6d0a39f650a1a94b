"""A plain restatement of ripplesim.sim.run, written from its docstring.

reference_run(scenario) sets the run up with run_setup, whose reading at
u0 round 1 acts on, then keeps one loop on numpy arrays: a protocol_round
on the reading it holds, the stopping rules 2 to 6, each tested with numpy
on arrays in the documented order, and then the plant solve for the next
round (warm, then cold on a SolverError), rule 1. It keeps round 1, every
trace_decimation-th round and the last, solves the plant cold at the end
unless a solve failed, and stacks each trace column once when the loop
ends. tests/test_sim.py compares it with run bit for bit.
"""
import numpy as np

from ripplesim.errors import ScenarioError, SolverError
from ripplesim.protocol import message_counts, protocol_round, round_constants
from ripplesim.sim import Outcome, Trace, run_setup


def reference_run(scenario):
    """(Outcome, Trace) of the scenario, as run's docstring describes them."""
    plant, u0, y, state, adjacency, gains, norm = run_setup(scenario)
    if not norm < 1.0 and not scenario.override_gain_check:
        raise ScenarioError(
            f"gain condition violated (spectral norm {norm:.6f} is not "
            "below 1); pass override_gain_check to run anyway")
    constants = round_constants(gains, adjacency, plant.u_upper,
                                plant.y_lower, plant.measured_nodes)
    eps_eq, eps_feas = scenario.eps_eq, scenario.eps_feas
    u, beacons = u0, np.zeros(len(u0))
    previous_deficit, frozen_rounds = None, 0
    kept = []  # (round, u, y, deficit, beacons) of each kept round
    status, detail = None, ""

    t = 1
    while True:  # round t acts on y, the reading at u
        deficit, u_next, beacons_next = protocol_round(u, beacons, y,
                                                       constants)
        unchanged = (np.array_equal(u_next, u)
                     and np.array_equal(beacons_next, beacons))
        with np.errstate(all="ignore"):  # a NaN move (inf - inf) is a move
            moved = np.abs(np.concatenate((u_next - u,
                                           beacons_next - beacons)))
            still = (moved <= eps_eq).all()
            pinned = (u_next >= plant.u_upper - eps_eq).all()
            cleared = (deficit <= eps_feas).all()
        frozen_rounds = frozen_rounds + 1 if pinned and (
            previous_deficit is not None
            and np.array_equal(deficit, previous_deficit)) else 0
        u, beacons, previous_deficit = u_next, beacons_next, deficit
        if unchanged:
            status = "equilibrium"  # rule 2: nothing changed at all
        elif pinned and still:
            status = "equilibrium"  # rule 3: pinned, moved at most eps_eq
        elif cleared and still:
            status = "equilibrium"  # rule 4: cleared, moved at most eps_eq
        # rule 5: pinned with the same deficit, not cleared, for a window
        elif frozen_rounds >= scenario.stall_window and not cleared:
            status, detail = "stalled", ("controls pinned at the ceiling "
                                         "with a persistent violation")
        elif t == scenario.budget:
            status = "budget_exceeded"  # rule 6
        if t == 1 or t % scenario.trace_decimation == 0 or status:
            kept.append((t, u, y, deficit, beacons))
        if status:
            break
        t += 1
        # rule 1: the solve for round t, retried cold after a failed warm
        # start, raised or read a non-finite output
        try:
            try:
                y, state = plant.solve_from(u, state)
            except SolverError:
                y, state = plant.solve_from(u)
            if not np.isfinite(y).all():
                raise SolverError(f"round {t}: plant output is not finite")
        except SolverError as exc:
            status, detail = "solver_failure", str(exc)
            if not np.isfinite(u).all():
                detail = (f"controls are not finite: the protocol update of "
                          f"round {t - 1} overflowed (a gain times a deficit "
                          f"or a beacon); {detail}")
            break

    failed = status == "solver_failure"
    equilibrium = status == "equilibrium"
    y = None  # a failed solve ends the run without a terminal reading
    if not failed:  # the terminal reading, solved cold where the run ended
        try:
            y = plant.solve(u)
        except SolverError as exc:
            detail = detail or f"terminal plant solve failed: {exc}"
    feasible = (not failed and y is not None
                and bool((y >= plant.y_lower - eps_feas).all()))
    if equilibrium:
        status = "converged" if feasible else "stalled"
    outcome = Outcome(
        status=status, rounds=t, feasible=feasible, equilibrium=equilibrium,
        max_violation=float("nan") if failed else float(deficit.max()),
        max_beacon=float(beacons.max()), gain_norm=norm, detail=detail,
        plant=plant, u0=u0, u=u, y=y)
    widths = (len(u0), len(plant.measured_nodes), len(u0), len(u0))
    columns = [np.vstack([np.empty((0, width))] + [row[i] for row in kept])
               for i, width in enumerate(widths, 1)]
    rounds = np.array([row[0] for row in kept], dtype=int)
    messages = np.array([message_counts(row[4], adjacency) for row in kept],
                        dtype=int)
    return outcome, Trace(rounds, *columns, messages)
