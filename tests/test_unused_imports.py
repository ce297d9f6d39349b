"""Every name a ``datachan`` module or bench script imports is used (a stand-in for a linter)."""

import ast
from pathlib import Path

import pytest

import datachan

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = sorted(Path(datachan.__file__).parent.glob("*.py")) + sorted(BENCH.glob("*.py"))


def _unused(tree: ast.Module) -> dict[str, int]:
    """Imported name -> line of its import, for names the module never reads.

    ``from __future__`` imports are not names.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """A package ``__init__`` may import a name only to list it in ``__all__``."""
    tree = ast.parse(path.read_text())
    unused = _unused(tree)
    if path.name == "__init__.py":
        unused = {n: line for n, line in unused.items() if n not in _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os.path\nfrom math import floor, pi as PI\nprint(PI)\n")
    assert set(_unused(tree)) == {"os", "floor"}
