"""The comparison of tools/parity.py on hand-made digests."""
import importlib.util
from pathlib import Path

import pytest

from ripplesim import ScenarioError, load_scenario, run

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def result(status="converged", rounds=5, terminal_u=(1.0, 2.0), **parts):
    return {"parts": {"Outcome.status": "s", "Trace.u": "t", **parts},
            "status": status, "rounds": rounds,
            "terminal_u": list(terminal_u)}


def test_a_part_on_one_side_only_is_named_but_differs_in_no_run():
    lines, one_sided, differ = parity.compare(
        {"corpus/3/000": result(**{"Outcome.u": "u"})},
        {"corpus/3/000": result()}, "new", "old")
    assert (lines, one_sided, differ) == ([], {"Outcome.u": "new"}, 0)


def test_a_differing_part_names_the_run_and_its_terminal_gap():
    lines, _, differ = parity.compare(
        {"corpus/3/000": result(), "demo/a.py": {"parts": {"stdout": "x"}}},
        {"corpus/3/000": result(rounds=6, terminal_u=(1.0, 2.5),
                                **{"Trace.u": "other"}),
         "demo/b.py": {"parts": {"stdout": "x"}}}, "new", "old")
    assert differ == 3
    assert lines == [
        "corpus/3/000: Trace.u differ; status converged / converged, "
        "rounds 5 / 6, largest terminal-control gap 5.000e-01",
        "demo/a.py: only in new", "demo/b.py: only in old"]


def test_identical_digests_have_one_run_sha_each():
    ours = {"demo/a.py": {"parts": {"stdout": "x"}}}
    assert parity.compare(ours, ours, "a", "b") == ([], {}, 0)
    assert parity.run_sha(ours["demo/a.py"]) == \
        parity.run_sha({"parts": {"stdout": "x"}})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_edge_case_scenarios_cannot_start_fail_in_round_3_and_stall(
        tmp_path):
    # failure.json overflows its reading at u0 and midrun.json at the
    # control that round 2 leaves, so numpy warns
    parity.write_edge_scenarios(tmp_path)
    with pytest.raises(ScenarioError, match="^disrupted plant is not "
                       "solvable at the initial control: plant output is "
                       "not finite$"):
        run(load_scenario(tmp_path / "failure.json"))
    outcome, trace = run(load_scenario(tmp_path / "midrun.json"))
    assert (outcome.status, outcome.rounds, len(trace), outcome.detail) == \
        ("solver_failure", 3, 2, "round 3: plant output is not finite")
    assert outcome.y is None
    outcome, trace = run(load_scenario(tmp_path / "stall.json"))
    assert (outcome.status, outcome.feasible) == ("stalled", False)


def test_a_command_line_the_parser_refuses_counts_by_its_exit_code():
    # a subcommand one checkout lacks makes that run differ, not the tool
    # fail
    parts = parity._cli_parts(["no-such-command", "pjm5"])
    assert parts["exit_code"] == parity._sha(2)
    assert parts["stdout"] == parity._sha("")
    assert parts["stderr"] != parity._sha("")
