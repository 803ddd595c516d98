"""Statements of the mwqkd package that no tier-1 test executes.

    python3 bench/unreached.py              # all of tier-1
    python3 bench/unreached.py -k gaussian  # extra arguments go to pytest

Runs pytest over ``tests/`` in this process under a ``sys.settrace`` line
tracer that records only frames whose code lies in ``src/mwqkd``, then
prints each statement of the package that never ran, as
``path:line: source``, and their count. A compound statement (``def``,
``if``, ``try``, ...) counts as run when a line of its head or any
statement inside it ran; docstrings and ``global``/``nonlocal`` hold no
code and are not listed.

Not traced: forked children (the ``protocol`` command's bootstrap child,
which ends in ``os._exit``) and interpreters that a test starts, such as
``python -m mwqkd`` subprocesses. A statement reached only there is
listed as not executed. The tracer slows the suite several times over;
a test that fails under it is reported by pytest as usual, and its exit
status is this script's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mwqkd"


def _head_lines(node: ast.stmt) -> range:
    """The lines of a statement outside its nested statements: all of a
    simple statement, the decorators and header of a compound one."""
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unreached(path: Path, executed: set[int]) -> list[int]:
    """First lines of the statements of the file `path` that did not run,
    given the line numbers that did."""
    missed = []

    def visit(node: ast.AST) -> bool:
        """Whether `node` or a statement inside it ran; collects the misses."""
        ran = False
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.ExceptHandler):
                    ran |= visit(child)
                elif isinstance(child, ast.stmt) and not _is_docstring(child, node):
                    if isinstance(child, (ast.Global, ast.Nonlocal)):
                        continue
                    child_ran = visit(child) or not executed.isdisjoint(_head_lines(child))
                    if not child_ran:
                        missed.append(child.lineno)
                    ran |= child_ran
        return ran

    visit(ast.parse(path.read_text()))
    return sorted(missed)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return trace_lines

    os.chdir(ROOT)  # pytest reads pyproject.toml, which puts src on the path
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv, "tests"]
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text().splitlines()
        for lineno in unreached(path, executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
            total += 1
    print(f"{total} statements of src/mwqkd not executed "
          "(forked children and subprocesses are not traced)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
