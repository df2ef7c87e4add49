"""Every name a module lists in ``__all__`` must resolve: a definition moved
to another module but left in the old ``__all__`` breaks ``import *``."""

import importlib
import pkgutil

import pytest

import ckgraph

MODULES = ["ckgraph"] + [f"ckgraph.{info.name}"
                         for info in pkgutil.iter_modules(ckgraph.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
