"""List every `raise` in src/ripplesim that the tier-1 tests never execute.

    python tools/raise_coverage.py

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors` from
the repository root, so tests/ and perfbench/) in this process, with
src/ first on sys.path and a line tracer from the standard library
(sys.settrace, and threading.settrace for threads started later) that
records the lines executed in src/ripplesim. The raise statements come
from each module's syntax tree; a multi-line one counts as executed when
its first line runs. Work done in a subprocess, such as the CLI runs of
tests/test_parity_tool.py, is not traced. Prints each raise that no test
reached as path:line and its source, then a summary line, and exits 1
when there is one, when a test fails or when something else replaced the
tracer during the run. Expect about twice the suite's usual time.
"""
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ripplesim"


def raise_lines(path: Path) -> set:
    """The first line of every raise statement in the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise)}


def traced(run, wanted: dict):
    """Call run() under the line tracer, then put back the tracers that
    were set before. wanted maps an absolute module path to the lines to
    look for; returns (what run returned, the wanted lines executed per
    path, whether the tracer was replaced meanwhile)."""
    hit = {name: set() for name in wanted}
    by_code_file = {}  # co_filename -> (wanted lines, hit lines), or None

    def trace_lines(lines, executed):
        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                executed.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_file:
            path = os.path.abspath(name)
            by_code_file[name] = (wanted[path], hit[path]) \
                if path in wanted else None
        found = by_code_file[name]
        return None if found is None else trace_lines(*found)

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        displaced = sys.gettrace() is not trace
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, hit, displaced


def main() -> int:
    wanted = {str(path): raise_lines(path)
              for path in sorted(PACKAGE.glob("*.py"))}
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    import pytest

    status, hit, displaced = traced(
        lambda: pytest.main(["-q", "--continue-on-collection-errors"]),
        wanted)
    import ripplesim
    if Path(ripplesim.__file__).resolve().parent != PACKAGE:
        print(f"raise coverage: ripplesim was imported from "
              f"{ripplesim.__file__}, not from {PACKAGE}")
        return 1
    missed = [(name, line) for name, lines in wanted.items()
              for line in sorted(lines - hit[name])]
    for name, line in missed:
        source = Path(name).read_text().splitlines()[line - 1].strip()
        print(f"{Path(name).relative_to(ROOT)}:{line}: {source}")
    total = sum(map(len, wanted.values()))
    print(f"raise coverage: {total - len(missed)} of {total} raise "
          f"statements executed, {len(missed)} never")
    if displaced:
        print("raise coverage: the line tracer was replaced during the run")
    return int(bool(missed) or displaced or status != 0)


if __name__ == "__main__":
    sys.exit(main())
