"""Every name a `src/qwlab` module imports is used in that module, and
every module-level `_private` name is referenced somewhere in `src/qwlab`.

No linter ships with the lab's toolchain, so these are the unused-import
and dead-helper checks.  `__init__.py` is skipped by the first: its imports
are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qwlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`; `import a as b` and `from a import b` bind `b`.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Sequence, List\nx: List = []\n") == [
        (1, "os"), (2, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) for each module-level `_name` (not a dunder) that is
    defined in one of `sources` and read nowhere in any of them: not as a
    name, an attribute or an imported name."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_finds_an_unreferenced_private_name():
    sources = {"a.py": "_used = 1\n_dead = 2\ndef _helper(): return _used\n",
               "b.py": "from .a import _helper\n__all__ = []\n"}
    assert unreferenced_private_names(sources) == [("a.py", "_dead")]


def test_every_private_name_is_referenced():
    assert unreferenced_private_names(SOURCES) == []
