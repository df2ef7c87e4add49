"""Run one ``ckg`` command with spans around each layer's entry points.

Usage: python perfbench/tracer.py SPANS_JSON COMMAND_ID CKG_ARGS...

Wrappers are installed from here, at the name binding each caller uses; the
program itself is not changed.  Spans stay in memory and are written to
SPANS_JSON when the command exits.  A target that no longer exists is listed
under ``missing`` and its layer is reported as not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> wrapped call sites, each "module:attribute.path"
TARGETS = {
    "problemfile.load": ["ckgraph.cli:load_problem"],
    "mesh.build": ["ckgraph.problemfile:disk_mesh", "ckgraph.problemfile:cap_mesh",
                   "ckgraph.problemfile:mesh_from_json"],
    "analysis.hypotheses": ["ckgraph.cli:check_hypotheses"],
    "cylinder.inf_hk": ["ckgraph.analysis:inf_boundary_cylinder_curvature"],
    "solver.continuation": ["ckgraph.cli:continuation_solve"],
    "solver.newton": ["ckgraph.solver:newton_solve"],
    "solver.linear_solve": ["ckgraph.solver:linear_solve"],
    "operator.curvature_recovery": ["ckgraph.cli:mean_curvature_of_graph"],
    "operator.recovery": ["ckgraph.operator:recover_gradient_hessian",
                          "ckgraph.analysis:recover_gradient_hessian"],
    "analysis.height_search": ["ckgraph.cli:search_height_barrier"],
    "analysis.boundary_search": ["ckgraph.cli:search_boundary_barrier"],
    "analysis.barrier": ["ckgraph.analysis:height_barrier",
                         "ckgraph.analysis:boundary_barrier",
                         "ckgraph.analysis:upper_barrier_check"],
    "fields.csv_write": ["ckgraph.fields:ScalarField.to_csv"],
    "fields.csv_read": ["ckgraph.fields:ScalarField.from_csv"],
}

# span name -> method of the object ``Problem.assembly()`` returns
ASSEMBLY_METHODS = {"operator.jacobian": "system", "operator.residual": "residual"}

# span name -> how a returned value says the call did useful work
OUTCOMES = {"analysis.barrier": lambda result: bool(result[1].valid)}


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans = []
        self.stack = []
        self.missing = set()
        self.patched_assembly = False

    def wrap(self, name, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "cmd": self.command_id, "ok": False,
                    "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["ok"] = True
                if outcome is not None:
                    span["valid"] = outcome(result)
                return result
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def install(self):
        for name, targets in TARGETS.items():
            for target in targets:
                if not self._patch(name, target):
                    self.missing.add(name)
        owner = _resolve("ckgraph.operator:Problem")
        if owner is None or not callable(getattr(owner, "assembly", None)):
            self.missing.update(ASSEMBLY_METHODS)
            return
        assembly = owner.assembly

        @functools.wraps(assembly)
        def traced_assembly(problem):
            asm = assembly(problem)
            if not self.patched_assembly:
                self.patched_assembly = True
                for name, method in ASSEMBLY_METHODS.items():
                    fn = getattr(type(asm), method, None)
                    if callable(fn):
                        setattr(type(asm), method, self.wrap(name, fn))
                    else:
                        self.missing.add(name)
            return asm
        owner.assembly = traced_assembly

    def _patch(self, name, target) -> bool:
        module, _, attr = target.partition(":")
        owner_path, _, leaf = attr.rpartition(".")
        owner = _resolve(f"{module}:{owner_path}")
        if owner is None:
            return False
        raw = vars(owner).get(leaf) if isinstance(owner, type) \
            else getattr(owner, leaf, None)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, leaf, type(raw)(self.wrap(name, raw.__func__)))
        elif callable(raw):
            setattr(owner, leaf, self.wrap(name, raw))
        else:
            return False
        return True


def _resolve(target):
    """The object at "module:attribute.path", or None if it does not exist."""
    module, _, attr = target.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part, None)
    return obj


def main(argv) -> int:
    spans_path, command_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(command_id)
    start = time.perf_counter()
    cli = importlib.import_module("ckgraph.cli")
    tracer.spans.append({"name": "cli.import", "cmd": command_id, "ok": True,
                         "parent": None, "start": start,
                         "end": time.perf_counter()})
    tracer.install()
    code = 1
    try:
        code = tracer.wrap("cli.command", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": sorted(tracer.missing),
                       "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
