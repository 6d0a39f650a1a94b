import csv
import json

import numpy as np
import pytest

from ripplesim.cli import main
from ripplesim.scenario_io import bundled_scenario_path, load_scenario
from ripplesim.sim import disrupted_setup, run


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_linear_cascade(tmp_path):
    code = main(["simulate", "linear_cascade",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "trace.csv")
    assert rows[0]["round"] == "1"
    assert float(rows[0]["u_1"]) == 0.5
    assert rows[0]["messages"] == "1"
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["outcome"]["status"] == "converged"
    efforts = read_csv(tmp_path / "effort.csv")
    assert float(efforts[-1]["effort_1"]) == 1.0  # agent 1 fully used


def test_simulate_pjm5(tmp_path):
    code = main(["simulate", "pjm5", "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["outcome"]["status"] == "converged"
    assert all(v >= 0.94 - 1e-6 for v in summary["terminal_y"])
    rows = read_csv(tmp_path / "trace.csv")
    assert len(rows) == summary["run"]["records"]


def test_simulate_wds10_decimated(tmp_path):
    code = main(["simulate", "wds10", "--output-dir", str(tmp_path),
                 "--decimate", "25"])
    assert code == 0
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["outcome"]["status"] == "converged"
    floors = [10, 7, 10, 10, 5, 10, 10, 10]
    assert all(y >= f - 1e-6 for y, f in zip(summary["terminal_y"], floors))
    rows = read_csv(tmp_path / "trace.csv")
    assert len(rows) < summary["outcome"]["rounds"]
    assert int(rows[-1]["round"]) == summary["outcome"]["rounds"]


def test_simulate_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad), "--output-dir", str(tmp_path)]) == 2


def test_simulate_budget_exceeded_exit(tmp_path):
    code = main(["simulate", "pjm5", "--output-dir", str(tmp_path),
                 "--budget", "3"])
    assert code == 1
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["outcome"]["status"] == "budget_exceeded"


def test_check_gains_pass(capsys):
    assert main(["check-gains", "pjm5"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_check_gains_fail(tmp_path, capsys):
    doc = json.load(open(bundled_scenario_path("linear_cascade")))
    doc["gains"] = {"eta1": 1.0, "eta2": 1.0, "eta3": 1.0}
    path = tmp_path / "hot.json"
    json.dump(doc, open(path, "w"))
    assert main(["check-gains", str(path)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "1" in out


def test_check_gains_disconnected(tmp_path, capsys):
    doc = json.load(open(bundled_scenario_path("linear_cascade")))
    doc["comm_graph"]["edges"] = []
    path = tmp_path / "nocomm.json"
    json.dump(doc, open(path, "w"))
    assert main(["check-gains", str(path)]) == 2
    out = capsys.readouterr().out
    assert "spectral norm: 0" in out  # empty overlay scores zero, then fails


def test_check_monotonicity_scenarios(capsys):
    assert main(["check-monotonicity", "pjm5", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert "margin=" in out and "pass" in out
    assert main(["check-monotonicity", "wds10", "--points", "2"]) == 0


def test_check_monotonicity_flags_decreasing(tmp_path, capsys):
    doc = {
        "schema": "ripplesim-scenario/1",
        "plant": {
            "type": "linear",
            "sensitivity": [[-1.0]],
            "offset": [0.0],
            "u_lower": [0.0],
            "u_upper": [2.0],
            "y_lower": [-10.0],
            "measured": ["1"],
        },
        "comm_graph": {"edges": []},
        "run": {},
    }
    path = tmp_path / "anti.json"
    json.dump(doc, open(path, "w"))
    assert main(["check-monotonicity", str(path), "--points", "1"]) == 1
    assert "fail" in capsys.readouterr().out


def test_sweep_two_bus(tmp_path):
    code = main(["sweep", "twobus", "--scale-min", "1", "--scale-max", "30",
                 "--steps", "12", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 12
    margins = [float(r["lambda_min"]) for r in rows if r["solved"] == "1"]
    assert np.all(np.diff(margins) < 0)
    for r in rows:
        assert (r["solved"] == "1") == (float(r["scale"]) < 25.0)


def test_sweep_single_step(tmp_path):
    code = main(["sweep", "twobus", "--scale-min", "1", "--scale-max", "1",
                 "--steps", "1", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 1
    # consistency with the direct margin at the nominal point
    from ripplesim import load_scenario, monotonicity_margin, solve_load_voltages

    plant = load_scenario("twobus").plant
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), plant.grid)
    assert abs(float(rows[0]["lambda_min"])
               - monotonicity_margin(sol, plant.grid)) < 1e-12


def test_sweep_rejects_non_power(tmp_path):
    assert main(["sweep", "wds10", "--output-dir", str(tmp_path)]) == 2


def test_feasibility_reports(capsys):
    assert main(["feasibility", "wds10"]) == 0
    out = capsys.readouterr().out
    assert "base plant max-effort feasible: True" in out
    assert "effective plant max-effort feasible: True" in out


def test_feasibility_infeasible_exit(tmp_path):
    doc = json.load(open(bundled_scenario_path("linear_cascade")))
    doc["plant"]["u_upper"] = [0.3, 0.4]
    path = tmp_path / "tight.json"
    json.dump(doc, open(path, "w"))
    assert main(["feasibility", str(path)]) == 1


def write_cascade(tmp_path, edit):
    doc = json.load(open(bundled_scenario_path("linear_cascade")))
    edit(doc)
    path = tmp_path / "edited.json"
    json.dump(doc, open(path, "w"))
    return str(path)


def test_simulate_rejects_bad_gains(tmp_path):
    for bad in (float("nan"), -1.0):
        path = write_cascade(tmp_path,
                             lambda doc: doc["gains"].update(eta2=bad))
        assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2


def test_check_gains_overflowing_gains_fail(tmp_path, capsys):
    path = write_cascade(tmp_path, lambda doc: doc["gains"].update(
        eta2=1e308, eta3=1e308))
    assert main(["check-gains", path]) == 1
    assert "inf -> fail" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulate_non_finite_plant_output_exit(tmp_path):
    # finite inputs whose reading overflows: 1.7e308 * (0.5 + 1.0) is inf
    path = write_cascade(tmp_path, lambda doc: (
        doc["plant"].update(sensitivity=[[1.7e308, 1.7e308]]),
        doc["initial"].update(u0=[0.5, 1.0])))
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 3

    def reject(constant):
        raise ValueError(f"summary.json holds the non-JSON number {constant}")

    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["outcome"]["status"] == "solver_failure"
    assert summary["outcome"]["max_violation"] is None
    assert summary["terminal_y"] == [None]


@pytest.mark.parametrize("edit", [
    lambda doc: doc["initial"].update(u0=[float("nan"), 0.0]),
    lambda doc: doc["plant"].update(u_upper=[float("nan"), 1.0]),
    lambda doc: doc["plant"].update(u_upper=[0.5, float("inf")]),
    lambda doc: doc["plant"].update(u_lower=[-float("inf"), 0.0]),
    lambda doc: doc["plant"].update(y_lower=[float("nan")]),
    lambda doc: doc["run"].update(eps_eq=float("nan")),
    lambda doc: doc["run"].update(eps_eq=-1.0),
    lambda doc: doc["run"].update(eps_feas=float("nan")),
], ids=["u0-nan", "u_upper-nan", "u_upper-inf", "u_lower-minus-inf",
        "y_lower-nan", "eps_eq-nan", "eps_eq-negative", "eps_feas-nan"])
def test_simulate_rejects_non_finite_run_numbers(tmp_path, edit):
    path = write_cascade(tmp_path, edit)
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("knob, value", [
    ("budget", float("nan")), ("budget", 2.5), ("stall_window", "x"),
    ("trace_decimation", float("inf")), ("seed", [1]),
    ("budget", 0), ("stall_window", 0), ("trace_decimation", -2),
    ("budget", True), ("stall_window", False),
])
def test_simulate_rejects_malformed_integer_knobs(tmp_path, knob, value):
    path = write_cascade(tmp_path, lambda doc: doc["run"].update({knob: value}))
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2


def test_check_monotonicity_rejects_a_negative_seed(tmp_path):
    # the seed feeds np.random.default_rng, which raises on negative seeds
    path = write_cascade(tmp_path, lambda doc: doc["run"].update(seed=-1))
    assert main(["check-monotonicity", path]) == 2


@pytest.mark.parametrize("flags", [["--budget", "-5"], ["--budget", "0"],
                                   ["--decimate", "0"], ["--decimate", "-2"]])
def test_simulate_rejects_command_line_knobs_below_one(tmp_path, capsys,
                                                        flags):
    assert main(["simulate", "linear_cascade", "--output-dir", str(tmp_path)]
                + flags) == 2
    assert "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "feasibility", "check-gains",
                                     "check-monotonicity"])
@pytest.mark.parametrize("edit", [
    lambda doc: doc["plant"].update(u_upper=[0.5, float("inf")]),
    lambda doc: doc["plant"].update(y_lower=[float("nan")]),
], ids=["u_upper-inf", "y_lower-nan"])
def test_non_finite_linear_plant_is_rejected_by_every_command(tmp_path,
                                                              command, edit):
    argv = [command, write_cascade(tmp_path, edit)]
    if command == "simulate":
        argv += ["--output-dir", str(tmp_path)]
    assert main(argv) == 2


def reference_trace_and_effort(outdir, scenario, records):
    """trace.csv and effort.csv as written cell by cell through csv.writer,
    the form the column writers must reproduce byte for byte."""
    plant, u0 = disrupted_setup(scenario)
    labels = [scenario.node_label(i) for i in range(plant.control_dim)]
    measured = [scenario.node_label(i) for i in plant.measured_nodes]
    with open(outdir / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round"] + [f"u_{lab}" for lab in labels]
                   + [f"y_{lab}" for lab in measured]
                   + [f"f_{lab}" for lab in labels]
                   + [f"lambda_{lab}" for lab in labels] + ["messages"])
        for r in records:
            w.writerow([r.round]
                       + [repr(float(x)) for x in r.u]
                       + [repr(float(x)) for x in r.y]
                       + [repr(float(x)) for x in r.deficit]
                       + [repr(float(x)) for x in r.beacons]
                       + [r.messages])
    headroom = plant.u_upper - u0
    cols = [i for i, h in enumerate(headroom) if h > 1e-12]
    with open(outdir / "effort.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round"] + [f"effort_{labels[i]}" for i in cols])
        for r in records:
            w.writerow([r.round] + [repr(float((r.u[i] - u0[i]) / headroom[i]))
                                    for i in cols])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["pjm5", "wds10", "linear_cascade-decimate-3",
                                  "non-finite-empty-trace"])
def test_trace_writers_match_the_csv_writer_reference(tmp_path, case):
    args = []
    if case == "non-finite-empty-trace":
        source = write_cascade(tmp_path, lambda doc: (
            doc["plant"].update(sensitivity=[[1.7e308, 1.7e308]]),
            doc["initial"].update(u0=[0.5, 1.0])))
    else:
        source = case.split("-")[0]
        if case.endswith("decimate-3"):
            args = ["--decimate", "3"]
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    main(["simulate", source, "--output-dir", str(out)] + args)
    scenario = load_scenario(source)
    if args:
        scenario.trace_decimation = 3
    outcome, records = run(scenario)
    assert (len(records) == 0) == (case == "non-finite-empty-trace")
    reference_trace_and_effort(ref, scenario, records)
    for name in ("trace.csv", "effort.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
