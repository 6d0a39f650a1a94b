"""Output checks that belong to the benchmark, independent of the program's.

Each function returns a list of problem strings; an empty list means the
output passed. None of them calls the program's own audit (verify_trace),
so a change to the program cannot weaken them.
"""
import csv
import json
from pathlib import Path

import numpy as np

from ripplesim.power import reactive_injections
from ripplesim.water import PipeLaw, edge_pressure_drop

SOLUTION_TOL = 1e-7


def degrees(node_count, edges) -> np.ndarray:
    """Node degrees counted from the edge list."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1)
    return np.bincount(ends, minlength=node_count)


def trace_invariants(u0, u, beacons, messages, u_upper, degree) -> list:
    """The protocol's invariants on a whole trace, one row per record.

    Controls never decrease and never exceed the ceiling, beacons are
    nonnegative and positive only at saturated agents, and each record's
    message count equals the summed degree of its beaconing agents.
    """
    u = np.asarray(u, dtype=float)
    beacons = np.asarray(beacons, dtype=float)
    u_upper = np.asarray(u_upper, dtype=float)
    problems = []
    prev = np.vstack([np.asarray(u0, dtype=float)[None, :], u[:-1]])
    if np.any(u < prev):
        problems.append("a control decreased")
    if np.any(u > u_upper):
        problems.append("a control exceeds its ceiling")
    if np.any(beacons < 0):
        problems.append("a beacon is negative")
    if np.any((beacons > 0) & (u < u_upper)):
        problems.append("a beacon is positive at an unsaturated agent")
    expect = (beacons > 0).astype(np.int64) @ np.asarray(degree, np.int64)
    if not np.array_equal(np.asarray(messages, np.int64), expect):
        problems.append("a message count differs from the beaconing degree sum")
    return problems


def corpus_reference(status, rounds, terminal_u, ref, eps_eq) -> list:
    """Outcome status and rounds equal the reference; controls within eps_eq."""
    problems = []
    if status != ref["status"]:
        problems.append(f"status {status}, reference {ref['status']}")
    if rounds != ref["rounds"]:
        problems.append(f"{rounds} rounds, reference {ref['rounds']}")
    gap = np.max(np.abs(np.asarray(terminal_u) - np.asarray(ref["terminal_u"])))
    if not gap <= eps_eq:
        problems.append(f"terminal controls differ by {gap:.3e}")
    return problems


def read_trace_csv(path):
    """(u, beacons, messages) columns of a trace.csv file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float).reshape(
        len(rows) - 1, len(rows[0]))
    u_cols = [i for i, h in enumerate(header) if h.startswith("u_")]
    b_cols = [i for i, h in enumerate(header) if h.startswith("lambda_")]
    m_col = header.index("messages")
    return body[:, u_cols], body[:, b_cols], body[:, m_col].astype(np.int64)


def cli_output(exit_code, outdir, expect) -> list:
    """A `simulate` run: exit code, summary, trace rows, floors, invariants.

    expect holds the reference rounds and records, the disrupted plant's
    floors, ceiling and initial control, eps_feas and the overlay degrees.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    outdir = Path(outdir)
    problems = []
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    outcome = summary["outcome"]
    if outcome["status"] != "converged":
        problems.append(f"status {outcome['status']}")
    if outcome["rounds"] != expect["rounds"]:
        problems.append(f"{outcome['rounds']} rounds, reference "
                        f"{expect['rounds']}")
    u, beacons, messages = read_trace_csv(outdir / "trace.csv")
    if not len(u) == summary["run"]["records"] == expect["records"]:
        problems.append(f"{len(u)} trace rows, summary "
                        f"{summary['run']['records']}, reference "
                        f"{expect['records']}")
    if summary["messages_total"] != int(messages.sum()):
        problems.append("summary message total differs from the trace")
    y = summary["terminal_y"]
    floors = np.asarray(expect["y_lower"], dtype=float)
    if y is None or np.any(np.asarray(y, float) < floors - expect["eps_feas"]):
        problems.append("a terminal reading is below its floor")
    problems += trace_invariants(expect["u0"], u, beacons, messages,
                                 expect["u_upper"], expect["degree"])
    return problems


def power_solution(q_load, v_gen, grid, sol, tol=SOLUTION_TOL) -> list:
    """Recompute injections q = diag(v) B v from the solved voltages."""
    v = np.zeros(grid.graph.node_count)
    v[list(grid.loads)] = sol.v_load
    v[list(grid.generators)] = v_gen
    q = reactive_injections(v, grid.b_matrix)
    problems = []
    if np.any(sol.v_load <= 0):
        problems.append("non-positive load voltage")
    if not np.max(np.abs(q[list(grid.loads)] - q_load), initial=0.0) <= tol:
        problems.append("load injections do not match the solved voltages")
    if not np.max(np.abs(q[list(grid.generators)] - sol.q_gen)) <= tol:
        problems.append("generator injections do not match the voltages")
    return problems


def water_solution(u, model, sol, tol=SOLUTION_TOL) -> list:
    """Nodal conservation from the flows and each pipe's law from the drops."""
    g = model.graph
    fixed = list(model.pressure_nodes)
    free = np.ones(g.node_count, dtype=bool)
    free[fixed] = False
    edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    flows = np.asarray(sol.flows, dtype=float)
    outflow = (np.bincount(edges[:, 0], weights=flows, minlength=g.node_count)
               - np.bincount(edges[:, 1], weights=flows, minlength=g.node_count))
    problems = []
    if not np.max(np.abs(u[free] - outflow[free]), initial=0.0) <= tol:
        problems.append("flows do not conserve the injections")
    if not np.array_equal(sol.pressures[fixed], u[fixed]):
        problems.append("a fixed pressure moved")
    worst = 0.0
    for (m, n), flow, law in zip(g.edges, flows, model.edge_laws):
        if not isinstance(law, PipeLaw):
            problems.append("the check covers pipe-only networks")
            break
        drop = edge_pressure_drop(flow, law)
        worst = max(worst, abs(sol.pressures[m] - sol.pressures[n] - drop))
    if not worst <= tol:
        problems.append(f"pressure drops miss the pipe laws by {worst:.3e}")
    return problems
