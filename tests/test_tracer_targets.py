"""The benchmark tracer wraps functions at the names their callers use
(``perfbench/tracer.py``).  A renamed or moved binding makes the tracer
report that layer as not measured, so every binding it lists must resolve."""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ckgraph as ck
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize("ambient, domain", [
    ("killing_flat", {"preset": "disk", "params": {"radius": 0.4}}),
    ("euclidean_radial", {"preset": "cap", "params": {"theta0": 1.0}}),
], ids=["disk", "cap"])
def test_tracer_records_the_preset_mesh_build(tmp_path, ambient, domain):
    # the layer metric mesh.build_s comes from the builder names that
    # problemfile calls; a build that bypassed them would read as not measured
    doc = {"ambient": {"preset": ambient}, "domain": domain, "resolution": 0.2,
           "H": {"constant": 0.0}, "phi": {"constant": -0.1}}
    (tmp_path / "problem.json").write_text(json.dumps(doc), encoding="utf-8")
    subprocess.run([sys.executable, str(TRACER), "spans.json", "0.check", "check",
                    "problem.json"], cwd=tmp_path, env=child_env(), capture_output=True,
                   timeout=120, check=False)
    record = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert record["exit"] == 0
    assert "mesh.build" not in record["missing"]
    builds = [span for span in record["spans"] if span["name"] == "mesh.build"]
    assert len(builds) == 1 and builds[0]["ok"]


def test_tracer_records_the_solve_layers(tmp_path):
    # a traced solve binds every layer, and times the linear solves (with
    # the factorization each Jacobian makes on its first solve) inside the
    # Newton solves
    doc = {"ambient": {"preset": "killing_flat"},
           "domain": {"preset": "disk", "params": {"radius": 0.4}}, "resolution": 0.1,
           "H": {"constant": 1.0}, "phi": {"constant": -float(np.sqrt(0.84))}}
    (tmp_path / "problem.json").write_text(json.dumps(doc), encoding="utf-8")
    subprocess.run([sys.executable, str(TRACER), "spans.json", "0.solve", "solve",
                    "problem.json", "--out", "out"], cwd=tmp_path, env=child_env(),
                   capture_output=True, timeout=120, check=False)
    record = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert record["exit"] == 0 and record["missing"] == []
    spans = record["spans"]
    newton = [k for k, span in enumerate(spans) if span["name"] == "solver.newton"]
    solves = [span for span in spans if span["name"] == "solver.linear_solve"]
    assert newton and all(spans[k]["ok"] for k in newton)
    assert solves and all(span["ok"] for span in solves)
    assert any(span["parent"] in newton for span in solves)
