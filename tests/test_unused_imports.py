"""Stand-ins for a linter: every name a ``datachan`` module or bench script
imports is used, every public function, class, method or property of the
package has a caller outside the tests, every private one (and every private
module constant) is read in the package or the stage bench, and only
``logic`` reads a trace's histories."""

import ast
import re
from pathlib import Path

import pytest

import datachan

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(Path(datachan.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "bench").glob("*.py"))
# code that may call the package's public API: the package, the stage bench
# and perfbench, which also names its patch targets in strings
CALLERS = PACKAGE + [path for tree in ("bench", "perfbench")
                     for path in sorted((ROOT / tree).rglob("*.py"))]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def _named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that ``tree`` reads, as a name, an attribute or a dotted string.

    The subtree ``skip`` (a definition, so that recursion is no caller) is left out.
    """
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _definitions(tree: ast.Module, constants: bool = False):
    """(node, name) of the top-level functions and classes, the methods and
    properties of the classes, and with ``constants`` the names assigned at
    the top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f, f.name) for f in node.body if isinstance(f, ast.FunctionDef))
        if constants and isinstance(node, ast.Assign):
            yield from ((node, t.id) for t in node.targets if isinstance(t, ast.Name))


def _private(name: str) -> bool:
    """One leading underscore: a dunder is not private."""
    return name.startswith("_") and not name.startswith("__")


def _uncalled(paths: list[Path], callers: list[Path], private: bool = False) -> set[str]:
    """Public definitions of ``paths`` (see ``_definitions``) that ``callers`` never
    name; with ``private``, the private ones and the private module constants."""
    trees = {path: ast.parse(path.read_text()) for path in {*paths, *callers}}
    named = {path: _named(trees[path]) for path in callers}
    out = set()
    for path in paths:
        others = set().union(*(names for caller, names in named.items() if caller != path))
        for node, name in _definitions(trees[path], constants=private):
            if ((_private(name) if private else not name.startswith("_"))
                    and name not in others | _named(trees[path], node)):
                out.add(name)
    return out


def test_every_public_name_has_a_caller():
    """Public API that only the tests call moves to a ``tests/reference_*.py`` oracle
    (``mux_lines``, ``intervals``)."""
    assert not _uncalled(PACKAGE, CALLERS)


def test_every_private_name_is_read():
    """A private helper that only the tests call moves to a ``tests/reference_*.py``
    oracle, or goes."""
    readers = PACKAGE + sorted((ROOT / "bench").glob("*.py"))
    assert not _uncalled(PACKAGE, readers, private=True)


def test_the_check_finds_an_unread_private_name(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("_USED = 1\n_UNREAD = 2\n_A = _B = 3\n\n\ndef _helper():\n    _helper()\n\n\n"
                   "class _Kept:\n    def __init__(self):\n        self._spare()\n\n"
                   "    def _spare(self):\n        pass\n\n    def _dead(self):\n        pass\n\n\n"
                   "def public():\n    return _USED + _A\n")
    user.write_text("import lib\nlib._Kept()\n")
    assert _uncalled([lib], [lib, user], private=True) == {"_UNREAD", "_B", "_helper", "_dead"}


def test_the_check_finds_an_uncalled_function(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("def used():\n    pass\n\n\ndef loop():\n    loop()\n\n\n"
                   "def named():\n    pass\n\n\nclass _Private:\n    pass\n")
    user.write_text("import lib\nlib.used()\nPATCHES = [('lib', 'named')]\n")
    assert _uncalled([lib], [lib, user]) == {"loop"}


def test_the_check_finds_an_uncalled_method(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("class Trace:\n    def used(self):\n        return self.size\n\n"
                   "    @property\n    def size(self):\n        return 0\n\n"
                   "    @property\n    def unread(self):\n        return 1\n\n"
                   "    def spare(self):\n        return self.spare()\n\n"
                   "    def _hidden(self):\n        pass\n")
    user.write_text("import lib\nlib.Trace().used()\n")
    assert _uncalled([lib], [lib, user]) == {"unread", "spare"}


def _history_reads(tree: ast.Module) -> list[int]:
    """Lines that read a trace's ``columns`` or ``events`` mapping: ``x.events[...]``,
    ``x.columns.items()``, ``x.events.values()`` and the like."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) or (
                isinstance(node, ast.Attribute) and node.attr in ("items", "values")):
            if (isinstance(node.value, ast.Attribute)
                    and node.value.attr in ("columns", "events")):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_logic_reads_histories():
    """Other modules ask ``SignalTraces`` (``arrays``, ``edges``, ``last_change``, ...)."""
    reads = {path.name: _history_reads(ast.parse(path.read_text()))
             for path in PACKAGE if path.name != "logic.py"}
    assert not {name: lines for name, lines in reads.items() if lines}


def test_the_check_finds_a_history_read():
    tree = ast.parse("a = tr.events['N']\nrun(net, stim.events, 5)\n"
                     "for net, h in tr.events.items():\n    pass\nb = tr.events.values()\n"
                     "c = tr.columns['N']\nd = tr.columns.values()\n")
    assert _history_reads(tree) == [1, 3, 5, 6, 7]
