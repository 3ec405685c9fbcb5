"""List the statements of ``src/celltiler`` that no Tier-1 test executes.

Run from the repository root, with pytest's own arguments if wanted:

    PYTHONPATH=src python tools/statement_trace.py [-x tests/test_cli.py ...]

The tracer is installed before the package is imported, so module-level
statements count too. It sees only this process, not the subprocesses a test
starts. A statement counts as executed when a line event reports any of its
lines (a compound statement: any line of its header); ``try`` headers and
docstrings compile to no event and are skipped. Prints one
``module:line: source`` row per statement never executed, then their number.
The trace is a measurement, not a test: it runs the suite about 3x slower.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "celltiler"


def statements(source: str) -> dict[int, range]:
    """First line of each statement -> the lines a line event may report
    for it: the whole statement, or a compound statement's header."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring compiles to nothing
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(first, max(first, last) + 1)
    return found


def main(args: list[str]) -> int:
    hits: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name.startswith(str(PKG)):
            hits.setdefault(name, set())
            return local
        return None

    sys.settrace(on_call)
    try:
        pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = hits.get(str(path), set())
        for line, span in sorted(statements(source).items()):
            if seen.isdisjoint(span):
                missed += 1
                print(f"{path.name}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} statements never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
