"""Problem-file ingestion: schema validation and assembly of a Problem."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional

import numpy as np

from .ambient import (AmbientSpace, PRESET_NAMES, expression_ambient, flat_metric,
                      preset_ambient, round_sphere_metric)
from .errors import MeshError, ParameterError, SchemaError, prefixed, read_input
from .expressions import compile_expression
from .fields import ScalarField
from .mesh import PolarDomain, annulus_mesh, cap_mesh, disk_mesh, mesh_from_json
from .operator import Problem
from .solver import SolverOptions

__all__ = ["PROBLEM_SCHEMA", "COARSE_RATIO", "LoadedProblem", "load_problem",
           "validate_document"]

# Mesh size of the companion problem relative to ``resolution`` (see
# ``LoadedProblem.companion``); a fixed rule of the program, not an option.
# At 4 the companion has about 1/16 of the target's vertices, and its whole
# continuation costs less than the Newton solve on the target; a ratio of 2
# saved less on the radial oracle at 4921 vertices.
COARSE_RATIO = 4

_FIELD_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "minProperties": 1,
    "maxProperties": 1,
    "properties": {
        "constant": {"type": "number"},
        "expression": {"type": "string"},
        "csv": {"type": "string"},
    },
}

PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["ambient", "domain", "H", "phi"],
    "properties": {
        "ambient": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": list(PRESET_NAMES)},
                "custom": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["lam"],
                    "properties": {
                        "lam": {"type": "string"},
                        "interval_end": {"anyOf": [{"type": "number"},
                                                   {"const": "inf"}]},
                        "gamma": {"type": "string"},
                        "base_metric": {"enum": ["flat", "round_sphere"]},
                    },
                },
            },
        },
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["disk", "annulus", "cap"]},
                "params": {"type": "object", "additionalProperties": False,
                           "properties": {
                               "radius": {"type": "number", "exclusiveMinimum": 0},
                               "theta0": {"type": "number", "exclusiveMinimum": 0,
                                          "exclusiveMaximum": math.pi},
                               "r_in": {"type": "number", "exclusiveMinimum": 0},
                               "r_out": {"type": "number", "exclusiveMinimum": 0},
                           }},
                "mesh": {"type": "string"},
            },
        },
        "resolution": {"type": "number", "exclusiveMinimum": 0},
        "H": _FIELD_SPEC,
        "phi": _FIELD_SPEC,
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # a tau step of 0 re-solves the same tau forever, a damping
                # factor outside (0, 1) does not shrink the step, and one
                # near 1 would shrink it through almost endless cuts
                "newton_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_newton_iters": {"type": "integer", "exclusiveMinimum": 0},
                "initial_tau_step": {"type": "number", "exclusiveMinimum": 0},
                "min_tau_step": {"type": "number", "exclusiveMinimum": 0},
                "damping_factor": {"type": "number", "exclusiveMinimum": 0,
                                   "exclusiveMaximum": 1},
                "max_damping_halvings": {"type": "integer", "exclusiveMinimum": -1,
                                         "exclusiveMaximum": 101},
                "clamp_margin": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "checks": {
            "type": "array",
            "items": {"enum": ["hypotheses", "monotonicity", "max_principle"]},
        },
        "verify_tolerance": {"type": "number", "exclusiveMinimum": 0},
    },
}


class LoadedProblem:
    def __init__(self, problem: Problem, options: SolverOptions, checks: List[str],
                 verify_tolerance: float, document: dict):
        self.problem, self.options, self.checks = problem, options, checks
        self.verify_tolerance, self.document = verify_tolerance, document

    def companion(self) -> Optional[Problem]:
        """The same document built at ``COARSE_RATIO`` times the resolution,
        for the sequenced solve of ``continuation_solve``.  None for a
        ``mesh`` domain or ``csv`` data, which have no coarser counterpart;
        when the companion keeps more than 1/``COARSE_RATIO`` of the
        target's vertices (a target of few rings: the generators never make
        fewer than two); and when its data, or a custom ``gamma``, are not
        admissible at its own points."""
        doc = self.document
        if "mesh" in doc["domain"] or "csv" in doc["H"] or "csv" in doc["phi"]:
            return None
        try:
            coarse = _build_problem(doc, self.problem.ambient, Path("."),
                                    COARSE_RATIO * float(doc["resolution"]))
        except (MeshError, ParameterError):
            return None
        if COARSE_RATIO * coarse.mesh.n_vertices > self.problem.mesh.n_vertices:
            return None
        return coarse


# the parameters each preset domain takes
_PRESET_PARAMS = {"disk": ("radius",), "cap": ("theta0",),
                  "annulus": ("r_in", "r_out")}


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:       # an int beyond the float range
        return False


# JSON Schema 2020-12 types as they appear in json.load output: a bool is
# not a number, and a float with no fractional part is an integer.  A number
# must also be finite as a float: json.load reads NaN and Infinity, which
# are not JSON, and an infinite or NaN tau step never lets a solve end
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                        and _finite(v),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _equal(a, b):
    """JSON equality: ``true`` is not ``1``."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _type(value, name, schema, path):
    if not _TYPES[name](value):
        yield path, f"{value!r} is not of type {name!r}"


def _enum(value, options, schema, path):
    if not any(_equal(value, option) for option in options):
        yield path, f"{value!r} is not one of {options!r}"


def _const(value, const, schema, path):
    if not _equal(value, const):
        yield path, f"{const!r} was expected"


def _any_of(value, subschemas, schema, path):
    if all(any(_schema_errors(value, sub, path)) for sub in subschemas):
        yield path, f"{value!r} is not valid under any of the given schemas"


def _properties(value, properties, schema, path):
    if isinstance(value, dict):
        for key, sub in properties.items():
            if key in value:
                yield from _schema_errors(value[key], sub, f"{path}.{key}")


def _required(value, keys, schema, path):
    if isinstance(value, dict):
        for key in keys:
            if key not in value:
                yield path, f"{key!r} is a required property"


def _additional_properties(value, allowed, schema, path):
    # only ``false`` is interpreted: no key outside ``properties``
    if isinstance(value, dict) and allowed is False:
        extras = sorted(set(value) - set(schema.get("properties", ())))
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(repr(key) for key in extras)
            yield path, ("Additional properties are not allowed "
                         f"({names} {verb} unexpected)")


def _min_properties(value, least, schema, path):
    if isinstance(value, dict) and len(value) < least:
        yield path, (f"{value!r} should be non-empty" if least == 1
                     else f"{value!r} does not have enough properties")


def _max_properties(value, most, schema, path):
    if isinstance(value, dict) and len(value) > most:
        yield path, f"{value!r} has too many properties"


def _exclusive_minimum(value, bound, schema, path):
    if _TYPES["number"](value) and value <= bound:
        yield path, f"{value!r} is less than or equal to the minimum of {bound!r}"


def _exclusive_maximum(value, bound, schema, path):
    if _TYPES["number"](value) and value >= bound:
        yield path, f"{value!r} is greater than or equal to the maximum of {bound!r}"


def _items(value, sub, schema, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _schema_errors(item, sub, f"{path}[{i}]")


# keyword -> check yielding (path, message) pairs; these are all the
# keywords PROBLEM_SCHEMA may use
_KEYWORDS = {
    "type": _type, "enum": _enum, "const": _const, "anyOf": _any_of,
    "properties": _properties, "required": _required,
    "additionalProperties": _additional_properties,
    "minProperties": _min_properties, "maxProperties": _max_properties,
    "exclusiveMinimum": _exclusive_minimum, "exclusiveMaximum": _exclusive_maximum,
    "items": _items,
}


def _schema_errors(value, schema, path="$"):
    """Every ``(path, message)`` by which ``value`` fails ``schema``, with
    JSON Schema 2020-12 semantics for the keywords in ``_KEYWORDS``."""
    for keyword, arg in schema.items():
        yield from _KEYWORDS[keyword](value, arg, schema, path)


def validate_document(doc):
    errors = sorted(_schema_errors(doc, PROBLEM_SCHEMA), key=lambda e: e[0])
    if errors:
        lines = [f"{path}: {message}" for path, message in errors]
        raise SchemaError("problem file rejected:\n  " + "\n  ".join(lines))
    amb = doc["ambient"]
    if ("preset" in amb) == ("custom" in amb):
        raise SchemaError("$.ambient: exactly one of 'preset' or 'custom' required")
    dom = doc["domain"]
    if ("preset" in dom) == ("mesh" in dom):
        raise SchemaError("$.domain: exactly one of 'preset' or 'mesh' required")
    if "mesh" in dom:
        if "params" in dom:
            raise SchemaError("$.domain.params: not used with a mesh domain")
        if "resolution" in doc:
            raise SchemaError("$.resolution: not used with a mesh domain")
        return
    if "resolution" not in doc:
        raise SchemaError("$.resolution: required with a preset domain")
    params = dom.get("params", {})
    wanted = _PRESET_PARAMS[dom["preset"]]
    for key in sorted(set(wanted) | set(params)):
        if key not in params:
            raise SchemaError(f"$.domain.params.{key}: required for the "
                              f"'{dom['preset']}' preset")
        if key not in wanted:
            raise SchemaError(f"$.domain.params.{key}: not used by the "
                              f"'{dom['preset']}' preset")


def _build_ambient(doc) -> AmbientSpace:
    """The document's ambient (``expression_ambient``); an error names its
    key, as in ``$.ambient.custom.lam``."""
    spec = doc["ambient"]
    if "preset" in spec:
        return preset_ambient(spec["preset"])
    cu = spec["custom"]
    end = cu.get("interval_end", "inf")
    metric = round_sphere_metric if cu.get("base_metric") == "round_sphere" else flat_metric
    with prefixed("$.ambient.custom.", ParameterError):
        return expression_ambient("custom", cu["lam"], math.inf if end == "inf" else float(end),
                                  cu.get("gamma"), metric)


def _check_gamma(doc, ambient: AmbientSpace, mesh):
    """A custom ``gamma`` must be positive and finite, with a finite
    gradient, at every vertex, element centroid and edge midpoint: the
    points the operator reads.  ParameterError names the first chart point
    that fails, in that order."""
    if "gamma" not in doc["ambient"].get("custom", {}):
        return
    corners = mesh.vertices[mesh.triangles]
    edges = mesh.edge_table()[0]
    pts = np.concatenate([mesh.vertices, corners.mean(axis=1),
                          0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])
    with np.errstate(all="ignore"):
        g, grad = ambient.gamma(pts)
    bad = np.flatnonzero(~(np.isfinite(g) & (g > 0)))
    what = "value {} is not positive and finite"
    if not len(bad):
        g, what = grad, "gradient {} is not finite"
        bad = np.flatnonzero(~np.isfinite(g).all(axis=1))
    if len(bad):
        k = bad[0]
        x, y = pts[k]
        raise ParameterError(f"$.ambient.custom.gamma: {what.format(g[k].tolist())} "
                             f"at chart point ({x:.6g}, {y:.6g})")


def _build_mesh(doc, ambient, base_dir: Path, h: Optional[float] = None):
    """The document's mesh; a preset domain is meshed at ``h``, by default
    the document's resolution."""
    dom = doc["domain"]
    if "mesh" in dom:
        where = base_dir / dom["mesh"]
        mesh = mesh_from_json(where, ambient)
        if not len(mesh.interior_vertices):
            raise MeshError(f"{where}: no interior vertex, so the Dirichlet "
                            "problem has no unknown")
        return mesh
    h = float(doc["resolution"]) if h is None else h
    names = _PRESET_PARAMS[dom["preset"]]
    radii = [dom["params"][key] for key in names]
    # the outer radius, or r_in >= r_out: the last parameter is at fault
    with prefixed(f"$.domain.params.{names[-1]}: ", ParameterError):
        PolarDomain(*([0.0] + radii)[-2:], ambient.base_metric)
    # the module's builder names, read at each call
    build = {"disk": disk_mesh, "cap": cap_mesh, "annulus": annulus_mesh}[dom["preset"]]
    # the radii are in range: the builder refuses the mesh size alone
    with prefixed("$.resolution: ", ParameterError):
        return build(*radii, h, ambient)


def _build_field(doc, key: str, mesh, base_dir: Path) -> ScalarField:
    """The field ``doc[key]``; an error names its JSON path, e.g.
    ``$.H.expression``."""
    (kind, value), = doc[key].items()
    with prefixed(f"$.{key}.{kind}: ", MeshError, ParameterError):
        if kind == "constant":
            return ScalarField.constant(mesh, value)
        if kind == "expression":
            fn = compile_expression(value)
            with np.errstate(all="ignore"):
                return ScalarField(mesh, fn(mesh.vertices))
        return ScalarField.from_csv(mesh, base_dir / value)


def _build_problem(doc, ambient, base_dir: Path, h: Optional[float] = None) -> Problem:
    """The document's problem, its preset domain meshed at ``h`` (by
    default the document's resolution): the mesh, the check of a custom
    ``gamma`` at its points, and the fields ``H`` and ``phi``."""
    mesh = _build_mesh(doc, ambient, base_dir, h)
    _check_gamma(doc, ambient, mesh)
    H = _build_field(doc, "H", mesh, base_dir)
    phi = _build_field(doc, "phi", mesh, base_dir)
    with prefixed("$.phi: ", ParameterError):
        return Problem(ambient, mesh, H, phi.values)


def load_problem(path) -> LoadedProblem:
    path = Path(path)
    doc = read_input(path, SchemaError, "problem file ", json.loads)
    return load_problem_document(doc, base_dir=path.parent)


def load_problem_document(doc, base_dir=".") -> LoadedProblem:
    validate_document(doc)
    problem = _build_problem(doc, _build_ambient(doc), Path(base_dir))
    # JSON Schema counts 30.0 as an integer; the solver needs an int
    spec = PROBLEM_SCHEMA["properties"]["solver"]["properties"]
    options = SolverOptions(**{k: int(v) if spec[k]["type"] == "integer" else v
                               for k, v in doc.get("solver", {}).items()})
    checks = doc.get("checks", ["hypotheses"])
    return LoadedProblem(problem, options, checks,
                         float(doc.get("verify_tolerance", 0.05)),
                         doc)
