"""Count the lines of Python files as code, docstring, comment and blank.

    python tools/line_count.py src/ripplesim

Takes files and directories (a directory stands for its *.py files, not
its subdirectories) and prints one row per file, then their total. Each
line falls in one class:

  - blank: only whitespace, inside a docstring too;
  - docstring: any other line of the leading string statement of a
    module, class or function;
  - comment: a line that holds a comment and nothing else;
  - code: every other line.

So code + docstring + comment + blank is what `wc -l` counts.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set:
    """The line numbers of the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(source: str) -> set:
    """The line numbers of the lines that hold only a comment."""
    return {token.start[0] for token in
            tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
            and not token.line[:token.start[1]].strip()}


def count(source: str) -> dict:
    """The lines of one module's source per class."""
    docs, comments = docstring_lines(source), comment_lines(source)
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv) -> int:
    if not argv:
        print("usage: python tools/line_count.py PATH...", file=sys.stderr)
        return 2
    paths = []
    for arg in map(Path, argv):
        paths.extend(sorted(arg.glob("*.py")) if arg.is_dir() else [arg])
    total = dict.fromkeys(CLASSES, 0)
    width = max(len(str(path)) for path in paths + [Path("total")])
    print(f"{'file':<{width}}" + "".join(f"{name:>10}" for name in CLASSES))
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for name in CLASSES:
            total[name] += counts[name]
        print(f"{str(path):<{width}}"
              + "".join(f"{counts[name]:>10,}" for name in CLASSES))
    print(f"{'total':<{width}}"
          + "".join(f"{total[name]:>10,}" for name in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
