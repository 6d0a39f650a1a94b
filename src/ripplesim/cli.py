"""Command-line front end.

Subcommands:
    simulate            run a scenario, write trace.csv / summary.json /
                        effort.csv into the output directory
    check-gains         print the gain-condition spectral norm and pass/fail
    check-monotonicity  probe the plant response sign at sampled points
    sweep               scale nominal load injections on a grid scenario and
                        record solvability plus the monotonicity margin
    feasibility         report whether maximum control effort satisfies the
                        output floors

Exit codes: 0 success/converged, 1 stalled or budget exceeded (or a failed
check), 2 validation error (ScenarioError, ModelError), 3 solver failure.
"""
import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ModelError, ScenarioError, SolverError
from .plant import max_effort_feasibility, monotonicity_probe
from .power import GridPlant, loadability_sweep
from .scenario_io import load_scenario
from .sim import disrupted_setup, message_stats, run, run_setup


_ROW_BLOCK = 4096  # rows of a CSV table converted to text at once


def entry():
    sys.exit(main())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ModelError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripplesim",
        description="Simulate saturation-driven distributed control on "
                    "networked plants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write traces")
    p.add_argument("scenario", help="scenario file (or bundled name)")
    p.add_argument("--output-dir", default=".", type=Path)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--decimate", type=int, default=None,
                   help="keep round 1, every k-th round and the last")
    p.add_argument("--override-gain-check", action="store_true", default=None,
                   help="run even if the gain condition fails")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-gains", help="evaluate the gain condition")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check_gains)

    p = sub.add_parser("check-monotonicity",
                       help="probe the plant response sign")
    p.add_argument("scenario")
    p.add_argument("--points", type=int, default=3,
                   help="number of sampled control points")
    p.add_argument("--disrupted", action="store_true",
                   help="probe the post-disruption plant")
    p.set_defaults(func=cmd_check_monotonicity)

    p = sub.add_parser("sweep", help="load scaling sweep (grid scenarios)")
    p.add_argument("scenario")
    p.add_argument("--scale-min", type=float, default=1.0)
    p.add_argument("--scale-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--output-dir", default=".", type=Path)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("feasibility",
                       help="maximum-effort feasibility of the scenario")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_feasibility)
    return parser


def cmd_simulate(args) -> int:
    knobs = {"budget": args.budget, "trace_decimation": args.decimate,
             "override_gain_check": args.override_gain_check}
    scenario = replace(load_scenario(args.scenario), **{
        key: value for key, value in knobs.items() if value is not None})
    outcome, trace = run(scenario)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    plant = outcome.plant
    labels = [scenario.node_label(i) for i in range(plant.control_dim)]
    measured_labels = [scenario.node_label(i) for i in plant.measured_nodes]
    _write_trace(outdir / "trace.csv", trace, labels, measured_labels)
    _write_effort(outdir / "effort.csv", outcome, trace, labels)
    _write_summary(outdir / "summary.json", scenario, outcome, trace, labels)
    print(f"{outcome.status} after {outcome.rounds} rounds "
          f"(feasible={outcome.feasible}, "
          f"max violation={outcome.max_violation:.3e})")
    return {"converged": 0, "solver_failure": 3}.get(outcome.status, 1)


def _write_rows(path, header, rounds, table, messages=None):
    """CSV of the header, then one line per row of table (floats): its
    round, the repr of each entry and, when given, its message count. An
    entry with the bits of the entry above reuses its text, so each column
    calls repr once per change (-0.0 under 0.0 is a change); a column that
    changes in every row of a block takes its texts as they come. Rows are
    converted a block at a time, which keeps the peak memory low."""
    bits = table.view(np.int64)
    changed = np.ones(table.shape, dtype=bool)
    changed[1:] = bits[1:] != bits[:-1]
    changed[::_ROW_BLOCK] = True  # each block formats its first row
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for block in range(0, len(table), _ROW_BLOCK):
            rows = slice(block, block + _ROW_BLOCK)
            columns = [list(map(str, rounds[rows].tolist()))]
            for values, new in zip(table[rows].T, changed[rows].T):
                if new.all():
                    columns.append(list(map(repr, values.tolist())))
                else:
                    texts = np.array(list(map(repr, values[new].tolist())),
                                     dtype=object)
                    columns.append(texts[np.cumsum(new) - 1].tolist())
            if messages is not None:
                columns.append(list(map(str, messages[rows].tolist())))
            # the line csv.writer writes: repr floats and ints need no quoting
            fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def _write_trace(path, trace, labels, measured_labels):
    """One row per record: round, u, y, deficit, beacons, messages."""
    _write_rows(path, ["round"] + [f"u_{lab}" for lab in labels]
                + [f"y_{lab}" for lab in measured_labels]
                + [f"f_{lab}" for lab in labels]
                + [f"lambda_{lab}" for lab in labels] + ["messages"],
                trace.rounds,
                np.hstack((trace.u, trace.y, trace.deficit, trace.beacons)),
                trace.messages)


def _write_effort(path, outcome, trace, labels):
    """Normalized control effort (u(t)-u(0))/(ceiling-u(0)) per flexible
    agent, from the run's rebased start and the disrupted plant's ceiling."""
    u0 = outcome.u0
    headroom = outcome.plant.u_upper - u0
    cols = np.flatnonzero(headroom > 1e-12)
    _write_rows(path, ["round"] + [f"effort_{labels[i]}" for i in cols],
                trace.rounds, (trace.u[:, cols] - u0[cols]) / headroom[cols])


def _write_summary(path, scenario, outcome, trace, labels):
    stats = message_stats(trace, scenario.comm_graph, outcome.u0)
    doc = {
        "schema": "ripplesim-summary/1",
        "outcome": {
            "status": outcome.status,
            "rounds": outcome.rounds,
            "feasible": outcome.feasible,
            "equilibrium": outcome.equilibrium,
            "max_violation": outcome.max_violation,
            "max_beacon": outcome.max_beacon,
            "detail": outcome.detail,
        },
        "gain_condition": outcome.gain_norm,
        "messages_total": stats.total,
        "first_assistance": {labels[k]: v for k, v in
                             stats.first_assistance.items()},
        "terminal_u": dict(zip(labels, outcome.u.tolist())),
        "terminal_y": None if outcome.y is None else outcome.y.tolist(),
        "run": {
            "budget": scenario.budget,
            "eps_eq": scenario.eps_eq,
            "eps_feas": scenario.eps_feas,
            "trace_decimation": scenario.trace_decimation,
            "records": len(trace),
        },
    }
    # strict JSON: NaN and infinities become null
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_check_gains(args) -> int:
    scenario = load_scenario(args.scenario)
    gains, norm = run_setup(scenario)[4:]
    if scenario.gains is None:
        print(f"auto gains: eta1={np.array2string(gains.eta1, precision=4)} "
              f"eta2={np.array2string(gains.eta2, precision=4)} "
              f"eta3={np.array2string(gains.eta3, precision=4)}")
    verdict = "pass" if norm < 1.0 else "fail"
    print(f"gain-condition spectral norm: {norm:.10g} -> {verdict}")
    return 0 if norm < 1.0 else 1


def cmd_check_monotonicity(args) -> int:
    if args.points < 1:
        raise ScenarioError("points must be >= 1")
    scenario = load_scenario(args.scenario)
    if args.disrupted:
        plant, u0 = disrupted_setup(scenario)
    else:
        plant, u0 = scenario.plant, np.asarray(scenario.u0, float)
    rng = np.random.default_rng(scenario.seed)
    points = [u0]
    span = plant.u_upper - plant.u_lower
    for _ in range(args.points - 1):
        frac = rng.uniform(0.1, 0.9, size=plant.control_dim)
        points.append(plant.u_lower + frac * span)
    all_ok = True
    failures = 0
    for i, point in enumerate(points):
        try:
            probe = monotonicity_probe(plant, point)
        except SolverError as exc:
            print(f"point {i}: probe failed ({exc})")
            failures += 1
            continue
        line = f"point {i}: monotone={probe.monotone} " \
               f"min sensitivity={probe.jacobian.min(initial=np.inf):.3e}"
        if isinstance(plant, GridPlant):
            sol = plant.solve_from(point)[1]
            line += f" margin={sol.monotonicity_margin:.6f}"
        print(line)
        all_ok = all_ok and probe.monotone
    if failures:
        return 3
    print("monotonicity check:", "pass" if all_ok else "fail")
    return 0 if all_ok else 1


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    plant = scenario.plant
    if not isinstance(plant, GridPlant):
        raise ScenarioError("sweep requires a power-plant scenario")
    if args.steps < 1:
        raise ScenarioError("steps must be >= 1")
    if not np.isfinite([args.scale_min, args.scale_max]).all():
        raise ScenarioError("scale bounds must be finite")
    u0 = np.asarray(scenario.u0, float)
    q_nominal = u0[list(plant.grid.loads)]
    v_gen = u0[list(plant.grid.generators)]
    scales = np.linspace(args.scale_min, args.scale_max, args.steps)
    points = loadability_sweep(plant.grid, q_nominal, v_gen, scales)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["scale", "solved", "lambda_min"])
        for pt in points:
            w.writerow([repr(float(pt.scale)), int(pt.solved),
                        "" if pt.margin is None else repr(float(pt.margin))])
    solved = sum(1 for pt in points if pt.solved)
    print(f"sweep: {solved}/{len(points)} scales solved -> {path}")
    return 0


def cmd_feasibility(args) -> int:
    scenario = load_scenario(args.scenario)
    plant, _ = disrupted_setup(scenario)
    if scenario.disruptions:
        base_ok = max_effort_feasibility(scenario.plant, scenario.eps_feas)
        print(f"base plant max-effort feasible: {base_ok}")
    ok = max_effort_feasibility(plant, scenario.eps_feas)
    print(f"effective plant max-effort feasible: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    entry()
