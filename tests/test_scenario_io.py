import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ripplesim import GridPlant, ScenarioError, WaterPlant, load_scenario
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
                                   None, [3], True, False, -1])
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


def test_integer_knobs_accept_integral_numbers():
    doc = json.loads(json.dumps(MINIMAL_LINEAR))
    doc["run"].update(budget=7.0, stall_window=9, seed=2 ** 70)
    scenario = scenario_from_dict(doc)
    assert (scenario.budget, scenario.stall_window, scenario.seed) == \
        (7, 9, 2 ** 70)
    assert type(scenario.budget) is int
