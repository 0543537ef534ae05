"""List the library statements that no tier-1 test executes.

Usage: ``python tests/uncovered.py [PYTEST ARGS...]`` from the repository
root.  It runs the test suite in this process under ``sys.settrace``,
records the lines executed in ``src/anycond``, and prints
``file:line statement`` for every statement none of them reached, then a
count.  Docstrings, ``def`` and ``class`` lines, imports and the body of
``if __name__ == "__main__":`` are not listed.  Code that tests run only in
a child process (``python -m anycond ...``) is not seen and is listed.  It
needs the standard library and pytest only, is not collected by pytest and
exits with pytest's status.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anycond"


def _is_docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _statements(tree: ast.Module) -> list[tuple[ast.stmt, list[ast.stmt]]]:
    """Every statement to report, with the statements nested in it: a
    compound statement ran if a line of its header or any nested one ran."""
    found = []

    def walk(body: list[ast.stmt]) -> list[ast.stmt]:
        listed = []
        for node in body:
            if _is_main_guard(node):
                continue
            nested = [child for field in ("body", "orelse", "finalbody")
                      for child in walk(getattr(node, field, []))]
            for block in [*getattr(node, "handlers", []), *getattr(node, "cases", [])]:
                nested += walk(block.body)
            if _is_docstring(node, body) or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                listed += nested
            else:
                found.append((node, nested))
                listed.append(node)
        return listed

    walk(tree.body)
    return found


def _header_lines(node: ast.stmt) -> range:
    first_nested = min((child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
                        for child in getattr(node, field, []) if hasattr(child, "lineno")),
                       default=node.end_lineno + 1)
    return range(node.lineno, min(first_nested, node.end_lineno + 1))


def uncovered(executed: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executed.get(str(path), set())
        ran = {}
        # Nested statements come before the statement holding them.
        for node, nested in _statements(ast.parse(source)):
            ran[node] = (not lines.isdisjoint(_header_lines(node))
                         or any(ran.get(child, False) for child in nested))
            if not ran[node]:
                out.append((path, node.lineno, source.splitlines()[node.lineno - 1].strip()))
    return sorted(out, key=lambda item: (item[0], item[1]))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing starts, so only the tests' own work is traced

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}
    wanted: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            wanted[code] = code.co_filename.startswith(prefix)
        if wanted[code]:
            executed.setdefault(code.co_filename, set()).add(frame.f_lineno)
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = uncovered(executed)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line} {text}")
    print(f"{len(missed)} statements in src/anycond not executed by the tests")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
