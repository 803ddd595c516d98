"""Statements of the mwqkd package that no tier-1 test executes, or with
--names its public names that no program code names.

    python3 bench/unreached.py              # all of tier-1
    python3 bench/unreached.py -k gaussian  # extra arguments go to pytest
    python3 bench/unreached.py --names      # the public-surface audit

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

``--names`` runs no test. It prints each public module-level function
and class of ``src/mwqkd``, and each name of ``mwqkd.__all__``, that no
code in ``src/``, ``bench/`` or ``perfbench/`` names outside its own
definition, as ``path:line: name``; a name of the ``gaussian`` module,
the covariance oracle the tests check the closed forms against, is
marked ``(oracle)``. A name counts as named where code reads, binds or
imports it, or holds it as a string (as the benchmark tracer's table of
bindings does). The package's ``__init__`` is not read: its export table
names every export and calls none. A name read only inside
definitions that are themselves listed is listed too.
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


def _identifiers(node: ast.AST):
    """Every name `node` reads, binds or imports, and every string in it
    that is an identifier."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


def unnamed_names() -> list[tuple[Path, int, str]]:
    """(path, line, name) of the public names that no program code names
    outside their own definitions, by path and line."""
    sys.path.insert(0, str(PACKAGE.parent))
    import mwqkd

    exported = set(mwqkd.__all__)
    # definitions: (path, name) -> line; references: name -> the
    # definitions they sit in, None for code outside every definition
    defined: dict[tuple[Path, str], int] = {}
    named: dict[str, set] = {}
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path in [*files, *sorted((ROOT / "bench").glob("*.py")),
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.parse(path.read_text()).body:
            key = None
            if path.parent == PACKAGE:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not node.name.startswith("__"):  # dunders are called implicitly
                        key = (path, node.name)
                elif isinstance(node, ast.Assign):
                    bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    if len(bound) == 1 and bound[0] in exported:
                        key = (path, bound[0])
            if key is not None:
                defined[key] = node.lineno
            for name in _identifiers(node):
                named.setdefault(name, set()).add(key)

    listed: set[tuple[Path, str]] = set()
    while True:
        more = {
            key for key in defined.keys() - listed
            if not named.get(key[1], set()) - listed - {key}
        }
        if not more:
            break
        listed |= more
    return sorted(
        (path, defined[path, name], name) for path, name in listed
        if not name.startswith("_") or name in exported
    )


def main(argv: list[str]) -> int:
    if argv == ["--names"]:
        found = unnamed_names()
        for path, lineno, name in found:
            oracle = " (oracle)" if path.name == "gaussian.py" else ""
            print(f"{path.relative_to(ROOT)}:{lineno}: {name}{oracle}")
        oracles = sum(path.name == "gaussian.py" for path, _, _ in found)
        print(f"{len(found)} public names of src/mwqkd named nowhere in src/, bench/ "
              f"or perfbench/ ({oracles} of them the gaussian oracle's)")
        return 0

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
