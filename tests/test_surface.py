"""Every function, class and method in src/copoly2d is reached by the package.

A definition is reached when src/ code outside its own body refers to it
by name, when copoly2d.__all__ exports it, or when the benchmark's tracer
wraps it (test_trace_hooks.HOOKS).  Dunder methods are called by the
language.  A helper that only tests or demos call fails this test: a
test builds what it needs from the names that stay.

Two boundaries are checked too.  The by-parts guard and the drift tower
have one owner, byparts, and only characterize's checkers read them, so
no other module imports byparts, at module level or inside a function.
And the package's import graph, function-level imports included, has no
cycle: a format two modules know lives behind one of them.
"""
from __future__ import annotations

import ast
import graphlib
from collections import Counter
from pathlib import Path

from test_trace_hooks import HOOKS

import copoly2d

SRC = Path(copoly2d.__file__).parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(qualified name, node) of each top-level function or class and each method."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS):
                    yield f"{node.name}.{item.name}", item


def _names(node) -> Counter:
    """How often each identifier is read inside node, as a name or an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def unreached(src: Path = SRC) -> list:
    """The qualified names (module.name) that nothing in the rule reaches, sorted."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    hooked = {name if isinstance(owner, type(copoly2d)) else f"{owner.__name__}.{name}"
              for owner, name, _ in HOOKS}
    out = []
    for module, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qual in copoly2d.__all__ or qual in hooked:
                continue
            if read[name] > _names(node)[name]:
                continue
            out.append(f"{module}.{qual}")
    return sorted(out)


def test_every_definition_is_reached():
    got = unreached()
    assert not got, f"nothing in src/, __all__ or the tracer reaches {got}"


def test_the_walk_flags_a_name_that_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
        "    def spare(self):\n        return self.spare\n")
    assert unreached(tmp_path) == ["a.Box", "a.Box.spare", "a.recursive"]


def _imported_modules(tree) -> set:
    """The package modules that tree imports anywhere, function-level imports included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[-1] for alias in node.names
                       if alias.name.startswith("copoly2d."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "copoly2d":
                continue
            if module in ("", "copoly2d"):  # from . import byparts
                out.update(alias.name for alias in node.names)
            else:
                out.add(module.split(".")[-1])
    return out


def importers(module: str, src: Path = SRC) -> list:
    """The src/ modules that import module, sorted."""
    return sorted(path.stem for path in src.glob("*.py")
                  if module in _imported_modules(ast.parse(path.read_text())))


def test_only_characterize_imports_byparts():
    assert importers("byparts") == ["characterize"]


def test_the_import_walk_sees_every_form(tmp_path):
    forms = {"a": "def f():\n    from .byparts import _by_parts\n",
             "b": "from . import byparts\n", "c": "import copoly2d.byparts\n",
             "d": "from copoly2d.byparts import _t_block\n", "e": "from copoly2d import byparts\n",
             "f": "from .orthosys import OrthoSystem\nimport byparts\n"}
    for stem, text in forms.items():
        (tmp_path / f"{stem}.py").write_text(text)
    assert importers("byparts", tmp_path) == ["a", "b", "c", "d", "e"]


def test_the_import_graph_is_acyclic():
    graph = {path.stem: _imported_modules(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    graphlib.TopologicalSorter(graph).prepare()  # CycleError names a cycle
