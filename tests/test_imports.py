"""Every name a module of the package or a test file imports is used in that
file, every function parameter of the package or a test file is read in its
function, every top-level name, every method and every annotated class field
the package defines is read somewhere, importing the package loads no numpy,
only the CLI touches the garbage collector, and ``lsx`` imports only
``circuit`` and ``lattice`` from the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__ only re-exports
MODULES = sorted(p for p in (ROOT / "src" / "celltiler").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the benchmark harness is read, never checked
READERS = sorted((ROOT / "src" / "celltiler").glob("*.py")) + TESTS + sorted((ROOT / "perfbench").glob("**/*.py"))


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


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter its function never reads;
    ``self``, ``cls`` and names starting with ``_`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for a in params:
            if a.arg not in read and a.arg not in ("self", "cls") and not a.arg.startswith("_"):
                found.append(f"{node.name}.{a.arg}")
    return found


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Hashable, Iterable\n"
        "x: Hashable = json.dumps(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 4: Iterable"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_parameter_checker_flags_unread_and_accepts_read():
    source = (
        "def f(a, b, *rest, c=0, _d=1, **kw):\n"
        "    b = 2\n"
        "    return a + c\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        def inner():\n"
        "            return x\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def k(cls, y):\n"
        "        pass\n"
    )
    assert unused_parameters(source) == ["f.b", "f.rest", "f.kw", "k.y"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def top_level_names(source: str) -> list[str]:
    """Names a module binds by ``def``, ``class`` or assignment at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def members(source: str) -> list[tuple[str, str]]:
    """``(class, name)`` for each ``def`` and each annotated field in the body
    of a top-level class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((node.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.append((node.name, item.target.id))
    return found


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each top-level name of a package module that is
    read neither in its own module, nor through a by-name import from it, nor
    as ``module.name`` in a reader; and ``module.Class.member`` for each
    method or annotated field that no module or reader reads as an attribute
    ``x.member``. Dunders are exempt."""
    read = set()
    attrs = set()
    for source in [*readers, *modules.values()]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("celltiler."):
                read.update((node.module.split(".")[-1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    read.add((node.value.id, node.attr))
                if isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
    found = []
    for module, source in modules.items():
        loads = {
            n.id for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name in top_level_names(source):
            if not _dunder(name) and name not in loads and (module, name) not in read:
                found.append(f"{module}.{name}")
        found += [f"{module}.{cls}.{m}" for cls, m in members(source) if not _dunder(m) and m not in attrs]
    return found


def test_definition_checker_flags_unread_and_accepts_read():
    modules = {
        "m": "A = 1\nB, C = 2, 3\nD: int = A\n__all__ = []\ndef f(): pass\nclass K: pass\n",
        "n": (
            "def g(): pass\n"
            "class J:\n"
            "    kept: int\n"
            "    dropped: str = ''\n"
            "    def __len__(self): pass\n"
            "    def used(self): pass\n"
            "    def stored(self): pass\n"
            "    def unread(self): pass\n"
            "    def own(self): return self.used(), self.kept\n"
            "J.stored = None\n"
        ),
    }
    readers = ["from celltiler.m import B\n", "from celltiler import m\nm.f()\n", "import n\nn.J().own\n"]
    assert unread_definitions(modules, readers) == ["m.C", "m.D", "m.K", "n.g", "n.J.dropped", "n.J.stored", "n.J.unread"]


def test_every_definition_is_read():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unread_definitions(modules, [p.read_text() for p in READERS]) == []


def test_importing_the_package_loads_no_numpy():
    # numpy is a test dependency only; the tests import it themselves, so a
    # fresh interpreter has to check that the package does not
    code = "import sys, celltiler, celltiler.cli; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "False"


def imported_modules(source: str, depth: int = 1) -> set[str]:
    """Names of the modules a source file imports, cut to their first
    ``depth`` dotted parts."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(".".join(alias.name.split(".")[:depth]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(".".join(node.module.split(".")[:depth]))
    return found


def test_module_checker_finds_both_import_forms():
    assert imported_modules("import gc\nfrom os.path import join\nfrom . import x\n") == {"gc", "os"}


def test_only_the_cli_imports_gc():
    # cli.main pauses the collector for one command; library callers of
    # lower_schedule and extract_ls keep Python's default collector
    assert [p.name for p in MODULES if "gc" in imported_modules(p.read_text())] == ["cli.py"]


def test_lsx_reads_only_the_circuit_and_the_lattice():
    # extraction needs the lowered circuit and where its wires sit, not a
    # layout; "from celltiler import x" shows up as a bare "celltiler"
    source = (ROOT / "src" / "celltiler" / "lsx.py").read_text()
    ours = {m for m in imported_modules(source, depth=2) if m.split(".")[0] == "celltiler"}
    assert ours == {"celltiler.circuit", "celltiler.lattice"}
