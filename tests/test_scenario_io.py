import json
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ripplesim import (GridPlant, Scenario, ScenarioError, WaterPlant,
                       disrupted_setup, load_scenario, run)
from ripplesim.cli import main
from ripplesim.scenario_io import bundled_scenario_path, scenario_from_dict

MINIMAL_LINEAR = {
    "schema": "ripplesim-scenario/1",
    "plant": {
        "type": "linear",
        "labels": ["a", "b"],
        "sensitivity": [[1.0, 1.0]],
        "offset": [0.0],
        "u_lower": [0.0, 0.0],
        "u_upper": [0.5, 1.0],
        "y_lower": [1.0],
        "measured": ["a"],
    },
    "comm_graph": {"edges": [["a", "b"]]},
    "gains": {"eta1": 1.0, "eta2": 0.5, "eta3": 1.0},
    "initial": {"u0": [0.0, 0.0]},
    "run": {"budget": 500},
}


def test_bundled_scenarios_load():
    for name in ("pjm5", "wds10", "twobus", "linear_cascade"):
        scenario = load_scenario(name)
        assert scenario.labels is not None
    assert bundled_scenario_path("pjm5").is_file()


def test_power_scenario_units_and_labels():
    scenario = load_scenario("pjm5")
    plant = scenario.plant
    assert isinstance(plant, GridPlant)
    assert plant.grid.generators == (0, 1)
    assert plant.grid.loads == (2, 3, 4)
    # -98.61 MVAr on a 100 MVA base
    assert_allclose(scenario.u0[2], -0.9861)
    assert_allclose(plant.u_upper[2] - plant.u_lower[2], 0.1)
    assert_allclose(plant.y_lower, [0.94, 0.94, 0.94])


def test_water_scenario_roles():
    scenario = load_scenario("wds10")
    plant = scenario.plant
    assert isinstance(plant, WaterPlant)
    assert plant.model.pressure_nodes == (0,)
    assert plant.measured_nodes == tuple(range(2, 10))
    assert_allclose(plant.y_lower, [10, 7, 10, 10, 5, 10, 10, 10])
    # inelastic consumer at node 6 (label "7")
    assert plant.u_lower[6] == plant.u_upper[6] == -200.0


def test_dict_scenario_runs():
    from ripplesim import run

    scenario = scenario_from_dict(json.loads(json.dumps(MINIMAL_LINEAR)))
    outcome, records = run(scenario)
    assert outcome.status == "converged"


def test_unknown_label_rejected():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["comm_graph"]["edges"] = [["a", "zz"]]
    with pytest.raises(ScenarioError, match="zz"):
        scenario_from_dict(doc)


def test_duplicate_linear_label_rejected():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["plant"].update(labels=["1", "1"], measured=["1"])
    doc["comm_graph"]["edges"] = [["1", "1"]]
    with pytest.raises(ScenarioError, match="plant.labels: duplicate label"):
        scenario_from_dict(doc)


def test_bad_schema_rejected():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["schema"] = "something-else"
    with pytest.raises(ScenarioError, match="schema"):
        scenario_from_dict(doc)


def test_missing_section_pinpointed():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    del doc["plant"]["u_upper"]
    with pytest.raises(ScenarioError, match="u_upper"):
        scenario_from_dict(doc)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "ripplesim-scenario/1",,}')
    with pytest.raises(ScenarioError, match=r":1:"):
        load_scenario(path)


def test_mixed_auto_gains_rejected():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["gains"] = {"eta1": 1.0, "eta2": "auto", "eta3": 1.0}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_pump_direction_survives_label_order():
    # a pump boosts from its "from" node into its "to" node: declared from
    # a later label into an earlier one (nodes in file order) and from an
    # earlier into a later one (reversed), each next to a pipe declared
    # from the later and from the earlier of its two labels
    from ripplesim import solve_network

    nodes = [
        {"label": "sink", "role": "consumer",
         "injection": {"initial": -100.0, "min": -100.0, "max": -100.0},
         "pressure_min": 0.0},
        {"label": "mid", "role": "junction"},
        {"label": "src", "role": "reservoir",
         "pressure": {"initial": 5.0, "min": 0.0, "max": 5.0}},
    ]
    for order in (nodes, nodes[::-1]):
        for pipe in (("src", "mid"), ("mid", "src")):
            doc = {
                "schema": "ripplesim-scenario/1",
                "plant": {
                    "type": "water",
                    "nodes": order,
                    "edges": [
                        {"from": pipe[0], "to": pipe[1], "kind": "pipe",
                         "coefficient": 1e-4},
                        {"from": "mid", "to": "sink", "kind": "pump",
                         "gain": 20.0},
                    ],
                },
                "comm_graph": {"edges": [["src", "mid"], ["mid", "sink"]]},
                "gains": {"eta1": 1.0, "eta2": 0.1, "eta3": 1.0},
                "run": {},
            }
            scenario = scenario_from_dict(doc)
            at = {lab: i for i, lab in enumerate(scenario.labels)}
            sol = solve_network(scenario.u0, scenario.plant.model)
            # boost from "mid" into "sink": a 20 m rise
            rise = sol.pressures[at["sink"]] - sol.pressures[at["mid"]]
            assert_allclose(rise, 20.0, atol=1e-6)


def test_repeated_measured_label_rejected():
    # two floors on one node: the round would keep only the last deficit
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["plant"].update(sensitivity=[[1.0, 0.0], [1.0, 0.0]],
                        offset=[0.0, 0.0], u_upper=[1.5, 1.0],
                        y_lower=[1.0, 0.5], measured=["a", "a"])
    with pytest.raises(ScenarioError, match="measured node is repeated"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
def test_bad_gains_rejected(bad):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["gains"]["eta2"] = bad
    with pytest.raises(ScenarioError, match="eta2"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("section, key, value", [
    ("plant", "sensitivity", [[1.0, float("nan")]]),
    ("plant", "offset", [float("inf")]),
    ("plant", "u_lower", [0.0, -float("inf")]),
    ("plant", "u_upper", [0.5, float("inf")]),
    ("plant", "u_upper", [0.5, "x"]),
    ("plant", "y_lower", [float("nan")]),
    ("initial", "u0", [float("nan"), 0.0]),
    ("initial", "u0", {"b": float("inf")}),
    # a quoted number, a bool or an integer beyond the float range is not
    # a finite JSON number, alone or as an array entry
    ("run", "eps_eq", "1e-8"),
    ("run", "budget", "5"),
    pytest.param("run", "eps_feas", 10 ** 400, id="run-eps_feas-huge-int"),
    ("gains", "eta1", "1.0"),
    ("plant", "u_upper", ["0.5", "1.0"]),
    ("plant", "sensitivity", [[1.0, "1"]]),
    ("plant", "offset", [True]),
    pytest.param("plant", "y_lower", [10 ** 400], id="plant-y_lower-huge-int"),
    ("initial", "u0", {"a": "0"}),
])
def test_non_finite_linear_numbers_rejected(section, key, value):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc[section][key] = value
    with pytest.raises(ScenarioError, match=f"{section}.{key}"):
        scenario_from_dict(doc)


def test_non_finite_offset_event_rejected():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["disruption"] = [{"kind": "parameter_change",
                          "offset": [float("nan")]}]
    with pytest.raises(ScenarioError, match=r"disruption\[0\]\.offset"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, "x",
                                   None, [3], True, False])
def test_integer_knobs_must_be_integral(value):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"]["stall_window"] = value
    with pytest.raises(ScenarioError, match="run.stall_window"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_override_gain_check_must_be_a_json_boolean(value, tmp_path):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"]["override_gain_check"] = value
    with pytest.raises(ScenarioError, match=r"run\.override_gain_check"):
        scenario_from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--output-dir",
                 str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("value", [True, False])
def test_override_gain_check_accepts_a_json_boolean(value):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"]["override_gain_check"] = value
    assert scenario_from_dict(doc).override_gain_check is value


def test_a_document_without_a_run_section_keeps_the_run_defaults():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    del doc["run"]
    scenario = scenario_from_dict(doc)
    knobs = ("budget", "eps_eq", "eps_feas", "stall_window",
             "trace_decimation", "override_gain_check", "seed")
    defaults = {f.name: f.default for f in fields(Scenario)}
    for knob in knobs:  # Scenario's own default objects, not copies
        assert getattr(scenario, knob) is defaults[knob], knob


@pytest.mark.parametrize("section", [[], "budget", 5, None])
def test_a_run_section_that_is_not_an_object_is_rejected(section):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"] = section
    with pytest.raises(ScenarioError, match="^run: expected an object$"):
        scenario_from_dict(doc)


def test_integer_knobs_accept_integral_numbers():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"].update(budget=7.0, stall_window=9, seed=2 ** 70)
    scenario = scenario_from_dict(doc)
    assert (scenario.budget, scenario.stall_window, scenario.seed) == \
        (7, 9, 2 ** 70)
    assert type(scenario.budget) is int


# each ranged run knob on both sides of the lowest value that run accepts
@pytest.mark.parametrize("knob, value", [
    (knob, value) for knob in ("budget", "stall_window", "trace_decimation")
    for value in (-1, 0, 1, 2)] + [
    (knob, value) for knob in ("eps_eq", "eps_feas")
    for value in (-1e-8, -0.0, 0.0, 5e-324, 1e-8)])
def test_the_loader_and_run_accept_the_same_run_knobs(knob, value):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"][knob] = value
    messages = []
    try:
        scenario_from_dict(doc)
    except ScenarioError as exc:
        assert str(exc).startswith(f"{knob} must be")
        messages.append(str(exc))
        loaded = False
    else:
        loaded = True
    scenario = scenario_from_dict(MINIMAL_LINEAR)
    try:
        run(replace(scenario, **{knob: value}))
    except ScenarioError as exc:
        assert str(exc).startswith(f"{knob} must be")
        messages.append(str(exc))
        ran = False
    else:
        ran = True
    assert loaded == ran == (value > 0)
    if not loaded:  # the loader and run give one message, word for word
        assert messages[0] == messages[1]


@pytest.mark.parametrize("argv", [
    ["simulate", "--output-dir", "out"], ["check"],
    ["sweep", "--output-dir", "out"]],
    ids=lambda argv: " ".join(argv[:2]).replace(" --output-dir", ""))
@pytest.mark.parametrize("knob, value", [
    ("eps_eq", 0), ("eps_eq", -1e-8), ("eps_feas", 0.0), ("eps_feas", -1),
    ("budget", 0), ("stall_window", 0), ("trace_decimation", 0)])
def test_every_command_rejects_a_run_knob_outside_runs_range(
        tmp_path, capsys, monkeypatch, argv, knob, value):
    monkeypatch.chdir(tmp_path)
    path = write_bundled(tmp_path, "pjm5",
                         lambda doc: doc["run"].update({knob: value}), "knob")
    assert main([argv[0], path] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"validation error: {knob} must be ")


@pytest.mark.parametrize("value", [-1, 0])
@pytest.mark.parametrize("knob, least", [
    ("budget", 1), ("stall_window", 1), ("trace_decimation", 1), ("seed", 0)])
def test_an_integer_knob_below_its_range_gets_one_message(
        tmp_path, capsys, knob, least, value):
    # the loader reads an integer and Scenario alone holds its range, so
    # -1 and 0 read alike
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"][knob] = value
    path = tmp_path / "knob.json"
    path.write_text(json.dumps(doc))
    if value >= least:
        assert getattr(scenario_from_dict(doc), knob) == value
        assert main(["check", str(path)]) == 0
        return
    message = f"{knob} must be an integer >= {least}, got {value}"
    with pytest.raises(ScenarioError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == message
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("section, value, message", [
    ("initial", {"u0": [0.0] * 3}, "initial control has the wrong length"),
    ("gains", {"eta1": [1.0] * 3, "eta2": [0.5] * 3, "eta3": [1.0] * 3},
     "gains have 3 entries but the plant has 2 controls"),
], ids=["u0", "gains"])
def test_a_vector_of_another_length_gets_scenarios_message(section, value,
                                                           message):
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc[section] = value
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        scenario_from_dict(doc)


def _cut_off_source(doc):
    """wds10 without its pump 1-2, which leaves nodes 2 to 10 no path to
    reservoir 1 before any disruption."""
    doc["plant"]["edges"] = [edge for edge in doc["plant"]["edges"]
                             if (edge["from"], edge["to"]) != ("1", "2")]
    return doc


@pytest.mark.parametrize("load, message", [
    (lambda tmp: load_scenario(tmp / "missing.json"),
     "cannot read scenario file: [Errno 2] No such file or directory: "
     "'{tmp}/missing.json'"),
    (lambda tmp: scenario_from_dict([]),
     "<dict>: scenario document must be an object"),
    (lambda tmp: scenario_from_dict(_cut_off_source(json.loads(
        bundled_scenario_path("wds10").read_text()))),
     "<dict>: nodes [1, 2, 3, 4, 5, 6, 7, 8, 9] cannot reach any "
     "fixed-pressure node"),
], ids=["missing-file", "not-an-object", "cut-off-network"])
def test_a_document_that_cannot_make_a_scenario_is_rejected(tmp_path, load,
                                                           message):
    with pytest.raises(ScenarioError) as err:
        load(tmp_path)
    assert str(err.value) == message.format(tmp=tmp_path)


def write_bundled(tmp_path, name, edit, stem):
    """A bundled scenario, edited, written as tmp_path/<stem>.json."""
    doc = json.loads(bundled_scenario_path(name).read_text())
    edit(doc)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_grid_susceptance_change_from_a_file_runs(tmp_path):
    # pjm5's line 2-3 made stronger, named by its ends and then by a
    # reversed edge pair: both load to the same event and run the same
    traces = []
    for stem, where in (("ends", {"from": "2", "to": "3"}),
                        ("edge", {"edge": ["3", "2"]})):
        path = write_bundled(tmp_path, "pjm5", lambda doc: doc[
            "disruption"].append({"kind": "parameter_change",
                                  "susceptance": 150.0, **where}), stem)
        scenario = load_scenario(path)
        event = scenario.disruptions[-1]
        assert event.kind == "parameter_change"
        assert sorted(event.params["edge"]) == [1, 2]
        assert event.params["susceptance"] == 150.0
        grid = disrupted_setup(scenario)[0].grid
        assert grid.susceptances[grid.graph.edges.index((1, 2))] == 150.0
        out = tmp_path / stem
        assert main(["simulate", path, "--output-dir", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_a_linear_offset_change_from_a_file_runs(tmp_path):
    path = write_bundled(tmp_path, "linear_cascade", lambda doc: doc.update(
        disruption=[{"kind": "parameter_change", "offset": [0.25]}]),
        "offset")
    scenario = load_scenario(path)
    assert scenario.disruptions[0].params == {"offset": (0.25,)}
    assert disrupted_setup(scenario)[0].offset.tolist() == [0.25]
    assert main(["simulate", path, "--output-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"]["status"] == "converged"
    assert summary["terminal_y"][0] >= 1.0 - 1e-6


@pytest.mark.parametrize("node", [2, 3], ids=["consumer", "junction"])
def test_only_reservoirs_and_tanks_fix_a_pressure(node):
    doc = json.loads(bundled_scenario_path("wds10").read_text())
    entry = doc["plant"]["nodes"][node]
    entry.pop("injection", None)
    entry["pressure"] = {"initial": 20.0}
    with pytest.raises(ScenarioError, match=rf"^plant\.nodes\[{node}\]: "
                       "only reservoirs/tanks can fix pressure$"):
        scenario_from_dict(doc)
