import csv
import json

import numpy as np
import pytest

from ripplesim.cli import main
from ripplesim.scenario_io import bundled_scenario_path


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


def test_simulate_non_finite_plant_output_exit(tmp_path):
    path = write_cascade(tmp_path,
                         lambda doc: doc["plant"].update(offset=[float("nan")]))
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
