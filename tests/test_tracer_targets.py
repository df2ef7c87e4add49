"""The benchmark tracer wraps functions at the names their callers use
(``perfbench/tracer.py``).  A renamed or moved binding makes the tracer
report that layer as not measured, so every binding it lists must resolve."""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import ckgraph as ck

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    # executed from source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def _bindings():
    return [(name, target) for name, targets in _tracer().TARGETS.items()
            for target in targets]


def _resolve(target):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name, target", _bindings(),
                         ids=[t for _, t in _bindings()])
def test_tracer_target_resolves(name, target):
    assert callable(_resolve(target)), f"{name}: {target}"


def test_tracer_bindings_include_the_solve_entry_points():
    targets = {t for _, t in _bindings()}
    assert {"ckgraph.cli:continuation_solve", "ckgraph.solver:newton_solve",
            "ckgraph.solver:linear_solve"} <= targets


@pytest.mark.parametrize("name, method", sorted(_tracer().ASSEMBLY_METHODS.items()))
def test_tracer_assembly_method_resolves(name, method):
    # the tracer wraps these on the type of what Problem.assembly() returns
    owner = _resolve("ckgraph.operator:Problem")
    amb = ck.preset_ambient("killing_flat")
    problem = owner.create(amb, ck.disk_mesh(0.4, 0.2, amb), 1.0, -np.sqrt(0.84))
    assert callable(getattr(type(problem.assembly()), method, None)), name
