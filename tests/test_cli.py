import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import ripplesim.cli
import ripplesim.sim
from ripplesim import (Graph, GridPlant, LinearPlant, ProtocolGains,
                       Scenario, SolverError, Trace, adjacency_matrix,
                       auto_gains, gain_condition)
from ripplesim.cli import main
from ripplesim.scenario_io import bundled_scenario_path, load_scenario
from ripplesim.sim import disrupted_setup, run, run_setup


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
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"]["status"] == "converged"
    efforts = read_csv(tmp_path / "effort.csv")
    assert float(efforts[-1]["effort_1"]) == 1.0  # agent 1 fully used


def test_simulate_pjm5(tmp_path):
    code = main(["simulate", "pjm5", "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"]["status"] == "converged"
    assert all(v >= 0.94 - 1e-6 for v in summary["terminal_y"])
    rows = read_csv(tmp_path / "trace.csv")
    assert len(rows) == summary["run"]["records"]


def test_simulate_wds10_decimated(tmp_path):
    code = main(["simulate", "wds10", "--output-dir", str(tmp_path),
                 "--decimate", "25"])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
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
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"]["status"] == "budget_exceeded"


def test_decimated_budget_run_ends_at_its_last_round(tmp_path):
    # 500 is not a multiple of 7: the trace still ends at round 500, and
    # the summary's terminal state is that round's
    code = main(["simulate", "wds10", "--output-dir", str(tmp_path),
                 "--budget", "500", "--decimate", "7"])
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    rows = read_csv(tmp_path / "trace.csv")
    assert summary["outcome"]["rounds"] == int(rows[-1]["round"]) == 500
    assert summary["run"]["records"] == len(rows) == 73
    assert summary["terminal_u"] == {key[2:]: float(value) for key, value
                                     in rows[-1].items()
                                     if key.startswith("u_")}


class FailsAboveATenth(LinearPlant):
    def solve(self, u):
        if u[0] > 0.1:
            raise SolverError("synthetic failure")
        return super().solve(u)


def test_decimated_failure_after_a_dropped_round_ends_at_its_control(
        tmp_path, monkeypatch):
    # u rises 0 -> 0.06 -> 0.1164 and the solve fails above 0.1: round 3
    # fails at the control of round 2, which --decimate 3 did not keep
    plant = FailsAboveATenth(sensitivity=[[1.0]], offset=[0.0],
                             u_lower=[0.0], u_upper=[2.0], y_lower=[1.0],
                             measured_nodes=[0])
    scenario = Scenario(plant=plant, comm_graph=Graph(node_count=1, edges=()),
                        u0=np.zeros(1), gains=ProtocolGains(
                            eta1=[0.06], eta2=[1.0], eta3=[1.0]))
    monkeypatch.setattr(ripplesim.cli, "load_scenario", lambda _: scenario)
    assert main(["simulate", "failing", "--decimate", "3",
                 "--output-dir", str(tmp_path)]) == 3
    outcome, trace = run(replace(scenario, trace_decimation=3))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"]["rounds"] == outcome.rounds == 3
    assert [int(row["round"]) for row in read_csv(tmp_path / "trace.csv")] \
        == trace.rounds.tolist() == [1]
    assert summary["terminal_u"] == {"1": outcome.u[0]}
    assert outcome.u[0] == 0.06 + 0.06 * 0.94 != trace.u[-1, 0]
    assert summary["terminal_y"] is None


def test_simulate_override_gain_check(tmp_path, capsys):
    # unit gains put the gain condition's spectral norm at 1
    path = write_edited(tmp_path, lambda doc: doc.update(
        gains={"eta1": 1.0, "eta2": 1.0, "eta3": 1.0}))
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2
    assert "gain condition violated" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert main(["simulate", path, "--output-dir", str(tmp_path),
                 "--override-gain-check"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["gain_condition"] == 1.0
    assert summary["outcome"]["status"] == "converged"


def test_check_pjm5_prints_every_hypothesis(capsys):
    # the gain condition, the disrupted plant's probe points (point 0's
    # margin from set-up's solve), both max-effort verdicts, then the verdict
    assert main(["check", "pjm5"]) == 0
    assert capsys.readouterr().out == (
        "gain-condition spectral norm: 0.692820323 -> pass\n"
        "point 0: monotone=True min sensitivity=5.078e-03 margin=16.553246\n"
        "point 1: monotone=True min sensitivity=5.017e-03 margin=16.666594\n"
        "point 2: monotone=True min sensitivity=4.973e-03 margin=16.702444\n"
        "base plant max-effort feasible: True\n"
        "effective plant max-effort feasible: True\n"
        "check: pass\n")


@pytest.mark.parametrize("points", [1, 2, 3])
def test_check_solves_each_grid_point_once(monkeypatch, capsys, points):
    solves = []
    solve_from = GridPlant.solve_from

    def counted(plant, u, start=None):
        solves.append(np.array(u, dtype=float))
        return solve_from(plant, u, start)

    monkeypatch.setattr(GridPlant, "solve_from", counted)
    assert main(["check", "pjm5", "--points", str(points)]) == 0
    capsys.readouterr()
    u0 = disrupted_setup(load_scenario("pjm5"))[1]
    n = len(u0)
    # set-up's solve at u0, which point 0's margin reads, one margin solve
    # for each other point, a probe of 2 n solves for each point and the two
    # max-effort solves
    assert sum((u == u0).all() for u in solves) == 1
    assert len(solves) == points + points * 2 * n + 2


def test_check_gains_fail(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("linear_cascade").read_text())
    doc["gains"] = {"eta1": 1.0, "eta2": 1.0, "eta3": 1.0}
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "spectral norm: 1 -> fail" in out
    assert out.endswith("check: fail\n")


def test_check_disconnected(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("linear_cascade").read_text())
    doc["comm_graph"]["edges"] = []
    path = tmp_path / "nocomm.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # the run is set up before anything is printed
    assert err == "validation error: communication graph must be connected\n"


def test_check_prints_auto_gains(tmp_path, capsys):
    path = write_edited(tmp_path, lambda doc: doc.update(gains="auto"))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("auto gains: eta1=[0.5 0.5] ")
    assert "spectral norm: 0.5 -> pass" in out


def test_check_scenarios(capsys):
    assert main(["check", "pjm5", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert "margin=" in out and out.endswith("check: pass\n")
    assert main(["check", "wds10", "--points", "2"]) == 0


def test_check_flags_decreasing(tmp_path, capsys):
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
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--points", "1"]) == 1
    out = capsys.readouterr().out
    assert "point 0: monotone=False " in out and out.endswith("check: fail\n")


def test_check_refuses_a_start_past_the_fold_as_simulate_does(tmp_path,
                                                              capsys):
    # a 400 Mvar load is past the two-bus fold at 250 Mvar, so the load
    # voltage has no solution at the start, and set-up refuses the run
    path = write_edited(tmp_path, lambda doc: doc["plant"]["buses"][1].update(
        q_mvar=-400.0), name="twobus")
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) \
        == 2
    simulated = capsys.readouterr()
    assert main(["check", path]) == 2
    out, err = capsys.readouterr()
    assert out == simulated.out == ""
    assert err == simulated.err
    assert err.startswith("validation error: disrupted plant is not "
                          "solvable at the initial control: ")


def all_generator_grid(doc):
    """twobus with its load bus made a generator: no measured output."""
    doc["plant"]["buses"][1] = {"label": "2", "kind": "generator",
                                "v_initial": 1.0, "v_max": 1.02}


def no_pressure_floors(doc):
    """wds10 with every pressure floor removed: no measured output."""
    for node in doc["plant"]["nodes"]:
        node.pop("pressure_min", None)


@pytest.mark.parametrize("name, edit, margin", [
    ("twobus", all_generator_grid, " margin=inf"),
    ("wds10", no_pressure_floors, "")], ids=["twobus", "wds10"])
def test_check_of_a_plant_with_no_measured_output(tmp_path, capsys, name,
                                                   edit, margin):
    # no sensitivity and no certificate eigenvalue: both minimums are inf
    path = write_edited(tmp_path, edit, name=name)
    assert main(["check", path, "--points", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("point ")] == [
        f"point {i}: monotone=True min sensitivity=inf{margin}"
        for i in range(2)]
    assert lines[-1] == "check: pass"


def reverse_pump_flow(doc):
    """Consumer 3 may turn into a 500 m^3/hr source; at that injection the
    pump from node 1 to node 2 would have to carry flow backwards."""
    doc["plant"]["nodes"][2]["injection"]["max"] = 500.0


def test_a_failed_probe_names_the_cause(tmp_path, capsys):
    # wds10 with the reversed pump: probe points 2, 3 and 5 of 6 fail, and
    # then so does the base plant's max-effort solve
    path = write_edited(tmp_path, reverse_pump_flow, name="wds10")
    assert main(["check", path, "--points", "6"]) == 3
    out, err = capsys.readouterr()
    points = [line.split(" (")[0].split(" min ")[0]
              for line in out.splitlines() if line.startswith("point ")]
    assert points == ["point 0: monotone=True", "point 1: monotone=True",
                      "point 2: probe failed", "point 3: probe failed",
                      "point 4: monotone=True", "point 5: probe failed"]
    for line in out.splitlines():
        if "probe failed" in line:
            # the disrupted plant, which lost pump 0->1, is probed
            assert "probe failed (plant solve failed while probing " \
                "control 0: pump 6->2 would carry reverse flow -" in line
    assert "check:" not in out
    assert err.startswith("solver failure: plant solve failed at maximum "
                          "effort: pump 0->1 would carry reverse flow -")


@pytest.mark.parametrize("feasible", [True, False])
def test_a_failed_probe_outranks_a_failed_check(tmp_path, capsys,
                                                monkeypatch, feasible):
    # the run above with its max-effort verdicts passing or failing instead
    # of raising: the failed probes still make the exit code 3
    monkeypatch.setattr(ripplesim.cli, "max_effort_feasibility",
                        lambda plant, eps_feas: feasible)
    path = write_edited(tmp_path, reverse_pump_flow, name="wds10")
    assert main(["check", path, "--points", "6"]) == 3
    out, err = capsys.readouterr()
    assert out.count("probe failed") == 3 and err == ""
    assert out.endswith(f"effective plant max-effort feasible: {feasible}\n"
                        "check: fail\n")


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
    from ripplesim import load_scenario, solve_load_voltages

    plant = load_scenario("twobus").plant
    sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), plant.grid)
    assert abs(float(rows[0]["lambda_min"]) - sol.monotonicity_margin) < 1e-12


def test_sweep_of_a_grid_with_no_load_bus(tmp_path, capsys):
    path = write_edited(tmp_path, all_generator_grid, name="twobus")
    assert main(["sweep", path, "--steps", "3",
                 "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("sweep: 3/3 scales solved")
    rows = read_csv(tmp_path / "sweep.csv")
    assert [(r["solved"], r["lambda_min"]) for r in rows] == [("1", "inf")] * 3


@pytest.mark.parametrize("bound", ["--scale-min=nan", "--scale-max=inf",
                                   "--scale-min=-inf"])
def test_sweep_rejects_non_finite_bounds(tmp_path, capsys, bound):
    assert main(["sweep", "twobus", bound, "--output-dir", str(tmp_path)]) == 2
    assert "scale bounds must be finite" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_steps_below_one(tmp_path, capsys):
    assert main(["sweep", "twobus", "--steps", "0",
                 "--output-dir", str(tmp_path)]) == 2
    assert "steps must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_non_power(tmp_path):
    assert main(["sweep", "wds10", "--output-dir", str(tmp_path)]) == 2


def test_check_reports_feasibility(capsys):
    assert main(["check", "wds10"]) == 0
    out = capsys.readouterr().out
    assert "base plant max-effort feasible: True" in out
    assert "effective plant max-effort feasible: True" in out


def test_check_infeasible_exit(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("linear_cascade").read_text())
    doc["plant"]["u_upper"] = [0.3, 0.4]
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.endswith(
        "effective plant max-effort feasible: False\ncheck: fail\n")


@pytest.mark.parametrize("name", ["linear_cascade", "pjm5", "twobus",
                                  "wds10"])
def test_check_prints_the_hypotheses_in_order(tmp_path, monkeypatch, capsys,
                                              name):
    # gain condition, one line per point, the base plant's feasibility only
    # when there are disruptions, the disrupted plant's, then the verdict;
    # nothing is written to the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["check", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    scenario = load_scenario(name)
    plant, *_, norm = run_setup(scenario)
    feasible = ["effective plant max-effort feasible: True"]
    if scenario.disruptions:
        feasible.insert(0, "base plant max-effort feasible: True")
    assert lines[0] == f"gain-condition spectral norm: {norm:.10g} -> pass"
    assert [line.split(":")[0] for line in lines[1:4]] == [
        "point 0", "point 1", "point 2"]
    assert all(("margin=" in line) == isinstance(plant, GridPlant)
               for line in lines[1:4])
    assert lines[4:] == feasible + ["check: pass"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", [1, 2, 4])
def test_check_points_are_a_prefix_of_more_points(capsys, points):
    # the seeded points do not depend on how many are asked for
    def point_lines(k):
        assert main(["check", "twobus", "--points", str(k)]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("point ")]

    assert point_lines(points) == point_lines(5)[:points]


@pytest.mark.parametrize("base, effective, code", [
    (True, True, 0), (False, True, 0), (True, False, 1), (False, False, 1)])
def test_only_the_disrupted_plants_feasibility_decides(capsys, monkeypatch,
                                                       base, effective,
                                                       code):
    # the base plant's max-effort line is information only
    verdicts = [base, effective]
    plants = []

    def feasibility(plant, eps_feas):
        plants.append(plant)
        return verdicts[len(plants) - 1]

    monkeypatch.setattr(ripplesim.cli, "max_effort_feasibility", feasibility)
    assert main(["check", "wds10", "--points", "1"]) == code
    out = capsys.readouterr().out
    assert len(plants) == 2 and plants[0] is not plants[1]
    assert out.endswith(f"base plant max-effort feasible: {base}\n"
                        f"effective plant max-effort feasible: {effective}\n"
                        f"check: {'pass' if code == 0 else 'fail'}\n")


@pytest.mark.parametrize("hot", [False, True], ids=["cool", "hot"])
@pytest.mark.parametrize("decreasing", [False, True],
                         ids=["increasing", "decreasing"])
@pytest.mark.parametrize("tight", [False, True], ids=["roomy", "tight"])
def test_check_fails_when_any_hypothesis_fails(tmp_path, capsys, hot,
                                                decreasing, tight):
    # y1 = 3 u1 -/+ 0.1 u2: at u_upper = [0.5, 1] or [0.3, 0.4] the floor
    # of 1 is cleared or not, whatever the sign of the second entry
    def edit(doc):
        doc["plant"]["sensitivity"] = [[3.0, -0.1 if decreasing else 0.1]]
        if tight:
            doc["plant"]["u_upper"] = [0.3, 0.4]
        if hot:
            doc["gains"] = {"eta1": 1.0, "eta2": 1.0, "eta3": 1.0}

    path = write_edited(tmp_path, edit)
    ok = not (hot or decreasing or tight)
    assert main(["check", path, "--points", "2"]) == (0 if ok else 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("-> fail" if hot else "-> pass")
    assert lines[1:3] == [f"point {i}: monotone={not decreasing} min "
                          f"sensitivity={-0.1 if decreasing else 0.1:.3e}"
                          for i in range(2)]
    assert lines[3:] == [
        f"effective plant max-effort feasible: {not tight}",
        f"check: {'pass' if ok else 'fail'}"]


@pytest.mark.parametrize("name", ["linear_cascade", "pjm5", "twobus",
                                  "wds10"])
def test_check_prints_auto_gains_first(tmp_path, capsys, name):
    path = write_edited(tmp_path, lambda doc: doc.update(gains="auto"), name)
    norm = run_setup(load_scenario(path))[-1]
    assert main(["check", path, "--points", "1"]) == 0
    gains, _, rest = capsys.readouterr().out.partition(
        "\ngain-condition spectral norm: ")
    assert gains.startswith("auto gains: eta1=") and " eta3=" in gains
    assert rest.startswith(f"{norm:.10g} -> pass\npoint 0: ")
    assert rest.endswith("\ncheck: pass\n")


@pytest.mark.parametrize("argv", [
    ["check-gains", "pjm5"], ["check-monotonicity", "pjm5"],
    ["feasibility", "pjm5"], ["check", "pjm5", "--disrupted"],
    ["check", "pjm5", "--points", "x"], ["check", "pjm5", "--points", "1.5"],
    ["check", "pjm5", "--points", "2e0"]],
    ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_the_parser_refuses_what_check_replaced_and_bad_points(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ripplesim ")


def write_edited(tmp_path, edit, name="linear_cascade"):
    doc = json.loads(bundled_scenario_path(name).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def overflowing_start(doc):
    """A reading that overflows at the start, so set-up refuses the run."""
    doc["plant"].update(sensitivity=[[1.7e308, 1.7e308]])
    doc["initial"].update(u0=[0.5, 1.0])


def overflowing_in_round_3(doc):
    """A reading that is finite at (0, 0) and (1, 0) and overflows at
    (1, 1), the control that round 2 leaves: the run fails in round 3 and
    keeps rounds 1 and 2."""
    doc["plant"].update(sensitivity=[[1e308, 1e308]], u_upper=[1.0, 1.0],
                        y_lower=[1.5e308])
    doc["initial"].update(u0=[0.0, 0.0])


def test_simulate_computes_auto_gains_once(tmp_path, monkeypatch):
    doc = json.loads(bundled_scenario_path("wds10").read_text())
    doc["gains"] = "auto"
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(doc))
    calls = []

    def counted(*args):
        calls.append(args)
        return auto_gains(*args)

    monkeypatch.setattr(ripplesim.sim, "auto_gains", counted)
    assert main(["simulate", str(path), "--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    monkeypatch.undo()
    scenario = load_scenario(path)
    outcome, _ = run(scenario)
    assert summary["gain_condition"] == outcome.gain_norm
    # gain_norm is the norm of the gains worked out for the disrupted plant
    plant, u0 = disrupted_setup(scenario)
    adjacency = adjacency_matrix(scenario.comm_graph)
    gains = auto_gains(plant, adjacency, u0)
    assert outcome.gain_norm == gain_condition(gains.eta2, gains.eta3,
                                               adjacency)


def test_simulate_rejects_bad_gains(tmp_path):
    for bad in (float("nan"), -1.0):
        path = write_edited(tmp_path,
                             lambda doc: doc["gains"].update(eta2=bad))
        assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2


def test_check_overflowing_gains_fail(tmp_path, capsys):
    path = write_edited(tmp_path, lambda doc: doc["gains"].update(
        eta2=1e308, eta3=1e308))
    assert main(["check", path]) == 1
    assert "inf -> fail" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulate_non_finite_plant_output_exit(tmp_path, capsys):
    # finite inputs whose reading overflows at the start, 1.7e308 * (0.5 +
    # 1.0) is inf, cannot start: a validation error and no output
    path = write_edited(tmp_path, overflowing_start)
    out = tmp_path / "start"
    assert main(["simulate", path, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "validation error: disrupted plant is not solvable at the initial "
        "control: plant output is not finite\n")
    assert not out.exists()
    # one whose reading overflows in round 3 is a solver failure
    path = write_edited(tmp_path, overflowing_in_round_3)
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 3

    def reject(constant):
        raise ValueError(f"summary.json holds the non-JSON number {constant}")

    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["outcome"]["status"] == "solver_failure"
    assert summary["outcome"]["detail"] == \
        "round 3: plant output is not finite"
    assert summary["outcome"]["max_violation"] is None
    assert summary["terminal_y"] is None


@pytest.mark.parametrize("edit", [
    lambda doc: doc["initial"].update(u0=[float("nan"), 0.0]),
    lambda doc: doc["plant"].update(u_upper=[float("nan"), 1.0]),
    lambda doc: doc["plant"].update(u_upper=[0.5, float("inf")]),
    lambda doc: doc["plant"].update(u_lower=[-float("inf"), 0.0]),
    lambda doc: doc["plant"].update(y_lower=[float("nan")]),
    lambda doc: doc["run"].update(eps_eq=float("nan")),
    lambda doc: doc["run"].update(eps_eq=-1.0),
    lambda doc: doc["run"].update(eps_feas=float("nan")),
    lambda doc: doc["run"].update(eps_eq="1e-8"),
    lambda doc: doc["run"].update(budget="5"),
    lambda doc: doc["plant"].update(
        u_upper=[str(x) for x in doc["plant"]["u_upper"]]),
], ids=["u0-nan", "u_upper-nan", "u_upper-inf", "u_lower-minus-inf",
        "y_lower-nan", "eps_eq-nan", "eps_eq-negative", "eps_feas-nan",
        "eps_eq-string", "budget-string", "u_upper-strings"])
def test_simulate_rejects_non_finite_run_numbers(tmp_path, edit):
    path = write_edited(tmp_path, edit)
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("knob, value", [
    ("budget", float("nan")), ("budget", 2.5), ("stall_window", "x"),
    ("trace_decimation", float("inf")), ("seed", [1]),
    ("budget", 0), ("stall_window", 0), ("trace_decimation", -2),
    ("budget", True), ("stall_window", False),
])
def test_simulate_rejects_malformed_integer_knobs(tmp_path, knob, value):
    path = write_edited(tmp_path, lambda doc: doc["run"].update({knob: value}))
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 2


def test_check_rejects_a_negative_seed(tmp_path):
    # the seed feeds np.random.default_rng, which raises on negative seeds
    path = write_edited(tmp_path, lambda doc: doc["run"].update(seed=-1))
    assert main(["check", path]) == 2


@pytest.mark.parametrize("points", ["0", "-3"])
def test_check_rejects_points_below_one(capsys, points):
    assert main(["check", "linear_cascade", "--points", points]) == 2
    assert "points must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--budget", "-5"], ["--budget", "0"],
                                   ["--decimate", "0"], ["--decimate", "-2"]])
def test_simulate_rejects_command_line_knobs_below_one(tmp_path, capsys,
                                                        flags):
    assert main(["simulate", "linear_cascade", "--output-dir", str(tmp_path)]
                + flags) == 2
    assert "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("edit", [
    lambda doc: doc["plant"].update(u_upper=[0.5, float("inf")]),
    lambda doc: doc["plant"].update(y_lower=[float("nan")]),
], ids=["u_upper-inf", "y_lower-nan"])
def test_non_finite_linear_plant_is_rejected_by_every_command(tmp_path,
                                                              command, edit):
    argv = [command, write_edited(tmp_path, edit)]
    if command == "simulate":
        argv += ["--output-dir", str(tmp_path)]
    assert main(argv) == 2


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("event", [
    {"kind": "source_outage", "node": "1"},
    {"kind": "remove_edge", "from": "1", "to": "2"},
], ids=["outage-of-the-only-fixed-pressure", "cut-from-fixed-pressure"])
def test_water_network_left_without_a_fixed_pressure_fails_validation(
        tmp_path, capsys, command, event):
    # node "1" is wds10's only fixed-pressure node, and edge 1-2 its only
    # link to the rest of the network
    path = write_edited(tmp_path, lambda doc: doc["disruption"].append(event),
                        "wds10")
    argv = {"simulate": ["--output-dir", str(tmp_path)]}.get(command, [])
    assert main([command, path] + argv) == 2
    assert "validation error" in capsys.readouterr().err


def pump_reverse_flow(doc):
    """wds10 with consumer 3 injecting 500 m3/hr: at the start, pump 6->2
    would carry reverse flow, so the disrupted plant cannot be solved."""
    doc["plant"]["nodes"][2]["injection"] = {"initial": 500, "min": -170,
                                             "max": 500}


def auto(edit):
    """edit, then the scenario's gains set to "auto"."""
    def edited(doc):
        edit(doc)
        doc["gains"] = "auto"
    return edited


@pytest.mark.parametrize("name, edit, message", [
    ("wds10", auto(pump_reverse_flow), "disrupted plant is not solvable at "
     "the initial control: pump 6->2 would carry reverse flow -500.000"),
    ("wds10", pump_reverse_flow, "disrupted plant is not solvable at the "
     "initial control: pump 6->2 would carry reverse flow -500.000"),
    ("wds10", auto(lambda doc: doc["disruption"].append(
        {"kind": "remove_edge", "from": "1", "to": "2"})),
     "disruption left an invalid plant: nodes [1, 2, 3, 4, 5, 6, 7, 8, 9] "
     "cannot reach any fixed-pressure node"),
    ("linear_cascade", lambda doc: doc["comm_graph"].update(edges=[]),
     "communication graph must be connected"),
    ("linear_cascade", lambda doc: doc["initial"].update(u0=[0.0, 1.5]),
     "initial control violates its box limits"),
], ids=["auto-gains-pump", "explicit-gains-pump", "auto-gains-cut-source",
        "disconnected-overlay", "start-outside-its-box"])
def test_check_rejects_a_scenario_that_cannot_start_as_simulate_does(
        tmp_path, capsys, name, edit, message):
    path = write_edited(tmp_path, edit, name)
    simulate = main(["simulate", path, "--output-dir", str(tmp_path / "out")])
    simulated = capsys.readouterr()
    assert main(["check", path]) == simulate == 2
    out, err = capsys.readouterr()
    assert out == simulated.out == ""
    assert err == simulated.err == f"validation error: {message}\n"


@pytest.mark.parametrize("name, argv", [
    ("linear_cascade", ["simulate", "--output-dir", "out"]),
    ("linear_cascade", ["check"]),
    ("pjm5", ["sweep", "--output-dir", "out"])],
    ids=lambda value: " ".join(value[:2]).replace(" --output-dir", "")
    if isinstance(value, list) else value)
def test_every_command_rejects_a_disconnected_overlay(tmp_path, capsys,
                                                      monkeypatch, name, argv):
    monkeypatch.chdir(tmp_path)
    path = write_edited(
        tmp_path, lambda doc: doc["comm_graph"].update(edges=[]), name)
    assert main([argv[0], path] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "validation error: communication graph must be connected\n"


def demand_overflow(doc):
    """pjm5 with bus 4's demand_change set so far that its ceiling, base
    plus flexibility, overflows to infinity."""
    doc["disruption"][1] = {"kind": "demand_change", "node": "4",
                            "set": 1e308, "flexibility": 1e308}


def also_remove(ends):
    """An edit that appends a remove_edge of the line between ends."""
    return lambda doc: doc["disruption"].append(
        {"kind": "remove_edge", "from": ends[0], "to": ends[1]})


@pytest.mark.parametrize("name, edit, message", [
    ("pjm5", demand_overflow, "u_upper must be finite"),
    ("pjm5", also_remove("45"), "buses [4] cannot reach any generator bus"),
    ("wds10", also_remove("12"), "nodes [1, 2, 3, 4, 5, 6, 7, 8, 9] cannot "
     "reach any fixed-pressure node"),
], ids=["pjm5-overflow", "pjm5-cut-bus", "wds10-cut-source"])
def test_every_command_rejects_a_broken_disrupted_plant_alike(
        tmp_path, capsys, name, edit, message):
    path = write_edited(tmp_path, edit, name)
    for argv in (["simulate", "--output-dir", str(tmp_path / "out")],
                 ["check"]):
        assert main([argv[0], path] + argv[1:]) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == "", argv[0]
        assert err == ("validation error: disruption left an invalid "
                       f"plant: {message}\n"), argv[0]


def negative_generator_floor(doc):
    """pjm5 with generator bus 1 allowed from -1.0 to 1.0 p.u."""
    doc["plant"]["buses"][0].update(v_initial=-1.0, v_max=1.0)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["plant"].update(base_mva=0),
     "plant.base_mva: expected a positive number"),
    (lambda doc: doc["plant"].update(base_mva=-100),
     "plant.base_mva: expected a positive number"),
    (negative_generator_floor,
     "{path}: generator voltage limits must be positive"),
], ids=["base-mva-zero", "base-mva-negative", "generator-floor"])
def test_every_command_rejects_a_broken_power_file_alike(
        tmp_path, capsys, monkeypatch, edit, message):
    monkeypatch.chdir(tmp_path)
    path = write_edited(tmp_path, edit, "pjm5")
    for argv in (["simulate", "--output-dir", "out"], ["check"],
                 ["sweep", "--output-dir", "out"]):
        assert main([argv[0], path] + argv[1:]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == f"validation error: {message.format(path=path)}\n", argv
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("case", ["pjm5", "wds10", "linear_cascade-decimate-3",
                                  "linear_cascade-empty-trace"])
def test_trace_writers_match_the_csv_writer_reference(tmp_path, monkeypatch,
                                                      case):
    source = case.split("-")[0]
    args = ["--decimate", "3"] if case.endswith("decimate-3") else []
    scenario = load_scenario(source)
    if args:
        scenario = replace(scenario, trace_decimation=3)
    outcome, records = run(scenario)
    if case.endswith("empty-trace"):  # every run keeps round 1, so simulate
        # writes a zero-row trace only when it is handed one
        n, m = len(outcome.u0), len(outcome.plant.measured_nodes)
        records = Trace(rounds=[], u=np.zeros((0, n)), y=np.zeros((0, m)),
                        deficit=np.zeros((0, n)), beacons=np.zeros((0, n)),
                        messages=[])
        monkeypatch.setattr(ripplesim.cli, "run",
                            lambda _: (outcome, records))
    assert (len(records) == 0) == case.endswith("empty-trace")
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    main(["simulate", source, "--output-dir", str(out)] + args)
    reference_trace_and_effort(ref, scenario, records)
    for name in ("trace.csv", "effort.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def per_row_writer(path, header, rounds, table, messages=None):
    """The writer that formatted every cell, kept as the byte reference of
    cli._write_rows: one line per row, the repr of each entry."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        tails = ([[str(m)] for m in messages.tolist()] if messages is not None
                 else [[]] * len(rounds))
        for t, row, tail in zip(rounds.tolist(), table, tails):
            fh.write(",".join([str(t), *map(repr, row.tolist()), *tail])
                     + "\r\n")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("decimate, block", [
    ([], None), (["--decimate", "3"], None), ([], 7),
    (["--decimate", "3"], 7)],
    ids=["plain", "decimate-3", "plain-block-7", "decimate-3-block-7"])
@pytest.mark.parametrize("name", ["pjm5", "wds10", "twobus", "linear_cascade",
                                  "fails-in-round-3"])
def test_column_writer_matches_the_per_row_writer(tmp_path, monkeypatch,
                                                  name, decimate, block):
    source = write_edited(tmp_path, overflowing_in_round_3) \
        if name == "fails-in-round-3" else name
    out, ref = tmp_path / "out", tmp_path / "ref"
    with monkeypatch.context() as patched:
        if block is not None:  # trace columns joined in blocks of 7 rows
            patched.setattr(ripplesim.sim, "_BLOCK", block)
        code = main(["simulate", source, "--output-dir", str(out)]
                    + decimate)
    monkeypatch.setattr(ripplesim.cli, "_write_rows", per_row_writer)
    assert main(["simulate", source, "--output-dir", str(ref)]
                + decimate) == code
    for file in ("trace.csv", "effort.csv", "summary.json"):
        assert (out / file).read_bytes() == (ref / file).read_bytes()
    rows = (out / "trace.csv").read_text().count("\n") - 1
    assert rows > 0 and (code == 3) == (name == "fails-in-round-3")
    if name == "fails-in-round-3":  # rounds 1 and 2, or round 1 alone
        assert rows == (1 if decimate else 2)


@pytest.mark.parametrize("table", [
    [[0.0, -0.0], [-0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]],
    [[np.nan, 1.0], [np.nan, np.inf], [-np.nan, np.inf], [1.0, -np.inf],
     [1.0, -np.inf]],
    [[0.1 + 0.2, 1e-300, -5e-324, 1.7976931348623157e308]],
    np.zeros((0, 3)),
    np.zeros((4, 0)),
    np.repeat(np.random.default_rng(19).normal(size=(9, 4)), 3, axis=0),
], ids=["signed-zeros", "nan-and-infinities", "single-row", "no-rows",
        "no-columns", "runs-of-three"])
@pytest.mark.parametrize("with_messages", [False, True])
@pytest.mark.parametrize("block", [None, 2, 4])
def test_column_writer_matches_the_per_row_writer_on_edge_values(
        tmp_path, monkeypatch, table, with_messages, block):
    if block is not None:  # runs of equal entries across block edges
        monkeypatch.setattr(ripplesim.cli, "_ROW_BLOCK", block)
    table = np.asarray(table, dtype=float)
    rounds = np.arange(1, len(table) + 1)
    messages = 3 * rounds if with_messages else None
    header = ["round"] + [f"c{j}" for j in range(table.shape[1])]
    ripplesim.cli._write_rows(tmp_path / "out.csv", header, rounds, table,
                              messages)
    per_row_writer(tmp_path / "ref.csv", header, rounds, table, messages)
    assert (tmp_path / "out.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
