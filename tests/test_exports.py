"""Every name a module lists in ``__all__`` must resolve: a definition moved
to another module but left in the old ``__all__`` breaks ``import *``.  And
every module-level definition must be named somewhere else in the package,
and every method or property somewhere else in the package or its tests."""

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


def _trees(folder):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(folder).glob("*.py"))]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_is_named_elsewhere():
    # a module-level function or class that no code of the package names
    # outside its own definition is dead; so is a method or property
    # (dunders aside) that neither the package nor the tests name outside it
    trees = _trees(Path(ckgraph.__file__).parent)
    named = Counter(name for tree in trees for name in _names(tree))
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, _DEFINITIONS)
            and named[node.name] == Counter(_names(node))[node.name]]
    named += Counter(name for tree in _trees(Path(__file__).parent)
                     for name in _names(tree))
    dead += [f"{cls.name}.{node.name}" for tree in trees for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, _DEFINITIONS) and not node.name.startswith("__")
             and named[node.name] == Counter(_names(node))[node.name]]
    assert dead == []


def test_every_import_is_read():
    # a name a module imports at module level is read in that module or
    # listed in its ``__all__``; the package's ``__init__`` only re-exports
    unread = []
    for path in sorted(Path(ckgraph.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).partition(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"ckgraph.{path.stem}"), "__all__", []))
        unread += [f"{path.stem}: {name}" for name in imported
                   if name not in read | exported]
    assert unread == []
