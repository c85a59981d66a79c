"""List every statement in ``src/edgeplan`` that the test suite never executes.

Usage, from the root of a checkout::

    python tools/line_trace.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line tracer (standard
library only) and prints each statement no test executed as
``path:line: source``, then a count.  A statement counts as executed when
any line it owns that holds bytecode ran; a compound statement owns only
its header, so a loop whose body never runs shows as its body alone.
Module-level imports are not listed: they run whenever their module is
imported, and a module no test imports in this process (``__main__.py``,
which the suite runs in a subprocess) still shows its other statements.
Exits with pytest's status.  The whole suite takes about twice as long as
it does untraced.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgeplan"


def code_lines(code) -> set:
    """Every line that holds bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, filename: str):
    """``(first line, lines it owns that hold bytecode)`` for each listed statement."""
    tree = ast.parse(source, filename)
    executable = code_lines(compile(source, filename, "exec"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if node in tree.body and isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        nested = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = min(nested) - 1 if nested else node.end_lineno
        owned = executable.intersection(range(first, last + 1))
        if owned:
            yield node.lineno, owned


def main(argv) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = hits.get(str(path), set())
        lines = source.splitlines()
        for lineno, owned in sorted(statements(source, str(path))):
            if not owned & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} statements in {PACKAGE.relative_to(ROOT)} not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
