"""The raise finder and the line tracer of tools/raise_coverage.py."""
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "raise_coverage.py"
spec = importlib.util.spec_from_file_location("raise_coverage", TOOL)
raise_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(raise_coverage)

MODULE = """\
def check(x):
    if x < 0:
        raise ValueError(
            "negative")
    if x > 9:
        raise OverflowError("large")
    return x
"""


def load(tmp_path):
    path = tmp_path / "checked.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("checked", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return str(path), module


def test_a_multi_line_raise_counts_when_its_first_line_runs(tmp_path):
    path, module = load(tmp_path)
    lines = raise_coverage.raise_lines(Path(path))
    assert lines == {3, 6}

    def run():
        try:
            module.check(-1)
        except ValueError:
            return module.check(4)

    before = sys.gettrace()
    result, hit, displaced = raise_coverage.traced(run, {path: lines})
    assert (result, hit, displaced) == (4, {path: {3}}, False)
    assert sys.gettrace() is before


def test_a_tracer_replaced_during_the_run_is_reported(tmp_path):
    path, module = load(tmp_path)
    before = sys.gettrace()
    _, hit, displaced = raise_coverage.traced(
        lambda: sys.settrace(None), {path: {3, 6}})
    assert (hit, displaced) == ({path: set()}, True)
    assert sys.gettrace() is before
