"""Every name a module lists in ``__all__`` must resolve: a definition moved
to another module but left in the old ``__all__`` breaks ``import *``.  And
every module-level definition must be named somewhere else in the package."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import ckgraph

MODULES = ["ckgraph"] + [f"ckgraph.{info.name}"
                         for info in pkgutil.iter_modules(ckgraph.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _names(node):
    """Every identifier ``node`` reads: names, attributes, imported names
    and the strings of an ``__all__`` list."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets)):
            yield from (c.value for c in ast.walk(sub.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))


def test_every_definition_is_named_elsewhere():
    # a module-level function or class that no code of the package names
    # outside its own definition is dead
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(ckgraph.__file__).parent.glob("*.py"))]
    named = Counter(name for tree in trees for name in _names(tree))
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and named[node.name] == Counter(_names(node))[node.name]]
    assert dead == []
