"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "celltiler"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """Names bound by ``import``/``from ... import`` that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Hashable, Iterable\n"
        "x: Hashable = json.dumps(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 4: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
