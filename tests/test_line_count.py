"""The line classes of tools/line_count.py."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_count.py"
spec = importlib.util.spec_from_file_location("line_count", TOOL)
line_count = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_count)

MODULE = '''\
"""A module docstring.

Its blank line above is blank."""
# a comment line
import os  # a trailing comment: code


class Box:
    """One line."""

    def size(self):
        """Two
        lines."""
        text = """not a docstring,

        so code"""
        return len(text)


async def wait():
    """Async docstring."""
    value = 1
    "a later string statement is code"
    return value
'''


def test_each_line_falls_in_its_class():
    assert line_count.count(MODULE) == {
        "code": 10, "docstring": 6, "comment": 1, "blank": 7}


def test_the_table_totals_its_files(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert line_count.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", "code", "docstring", "comment", "blank"]
    assert [row[0] for row in rows[1:]] == [
        str(tmp_path / "a.py"), str(tmp_path / "b.py"), "total"]
    assert rows[-1][1:] == ["11", "6", "2", "8"]


def test_no_path_is_a_usage_error(capsys):
    assert line_count.main([]) == 2
    assert capsys.readouterr().err.startswith("usage:")
