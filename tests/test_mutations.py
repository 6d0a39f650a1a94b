"""Single-field mutations of the bundled scenario documents.

Each mutation replaces one value anywhere in a document (an object member
or a list entry, at any depth) or deletes it. The loader must turn every
mutated document into a Scenario or a ScenarioError, quickly, and
`ripplesim simulate` must end with an exit code from 0 to 3, never with a
traceback.
"""
import contextlib
import copy
import io
import json
import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from ripplesim import Scenario, ScenarioError
from ripplesim.cli import main
from ripplesim.scenario_io import bundled_scenario_path, scenario_from_dict

NAMES = ("pjm5", "wds10", "twobus", "linear_cascade")
DOCS = {name: json.loads(bundled_scenario_path(name).read_text())
        for name in NAMES}
DELETE = "<delete>"
VALUES = (DELETE, None, "x", -1, [], {}, 1e308, math.nan)
LOAD_SECONDS = 0.5
SIMULATE_SECONDS = 60.0


def _paths(node, prefix=()):
    """The path of every object member and list entry below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


MUTATIONS = [(name, path, value) for name in NAMES
             for path in _paths(DOCS[name]) for value in VALUES]


def mutated(name, path, value):
    doc = copy.deepcopy(DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def test_every_mutation_loads_or_is_rejected_quickly():
    assert len(MUTATIONS) > 3000
    problems = []
    for name, path, value in MUTATIONS:
        t0 = time.perf_counter()
        try:
            loaded = scenario_from_dict(mutated(name, path, value))
        except ScenarioError:
            loaded = None
        except Exception as exc:  # any other error is the defect under test
            problems.append(f"{name} {path} = {value!r}: {exc!r}")
            continue
        assert loaded is None or isinstance(loaded, Scenario)
        if time.perf_counter() - t0 > LOAD_SECONDS:
            problems.append(f"{name} {path} = {value!r}: slow load")
    assert problems == []


@settings(derandomize=True, deadline=None, database=None)
@given(st.sampled_from(MUTATIONS))
def test_simulate_ends_with_an_exit_code_on_every_mutation(tmp_path_factory,
                                                           mutation):
    outdir = tmp_path_factory.mktemp("mutation")
    path = outdir / "scenario.json"
    path.write_text(json.dumps(mutated(*mutation)))
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--output-dir",
                     str(outdir / "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert time.perf_counter() - t0 < SIMULATE_SECONDS
