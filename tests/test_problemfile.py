import json
import math

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.errors import SchemaError
from ckgraph.fields import ScalarField
from ckgraph.mesh import PolarDomain
from ckgraph.problemfile import (PROBLEM_SCHEMA, _KEYWORDS, load_problem,
                                 load_problem_document, validate_document)


def _base_doc():
    return {
        "ambient": {"preset": "killing_flat"},
        "domain": {"preset": "disk", "params": {"radius": 0.4}},
        "resolution": 0.1,
        "H": {"constant": 1.0},
        "phi": {"constant": -0.5},
    }


def test_minimal_document():
    loaded = load_problem_document(_base_doc())
    assert loaded.problem.mesh.n_vertices > 10
    assert np.all(loaded.problem.H.values == 1.0)
    assert loaded.checks == ["hypotheses"]


def test_unknown_key_rejected_with_path():
    doc = _base_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match=r"\$"):
        validate_document(doc)
    doc = _base_doc()
    doc["solver"] = {"not_an_option": 3}
    with pytest.raises(SchemaError, match="solver"):
        validate_document(doc)


def test_every_schema_error_one_line_sorted_by_path():
    doc = _base_doc()
    doc["zzz"] = 1
    del doc["H"]
    doc["domain"]["params"]["radius"] = -1
    doc["resolution"] = True
    doc["solver"] = {"max_newton_iters": 2.5}
    with pytest.raises(SchemaError) as info:
        validate_document(doc)
    assert str(info.value).splitlines() == [
        "problem file rejected:",
        "  $: Additional properties are not allowed ('zzz' was unexpected)",
        "  $: 'H' is a required property",
        "  $.domain.params.radius: -1 is less than or equal to the minimum of 0",
        "  $.resolution: True is not of type 'number'",
        "  $.solver.max_newton_iters: 2.5 is not of type 'integer'",
    ]


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for key, arg in schema.items():
        children = (arg.values() if key == "properties" else arg if key == "anyOf"
                    else [arg] if key == "items" else ())
        for child in children:
            yield from _subschemas(child)


def test_schema_uses_only_interpreted_keywords():
    # a keyword the validator does not interpret would be silently ignored,
    # and one the schema does not use is code that nothing exercises
    used = set()
    for schema in _subschemas(PROBLEM_SCHEMA):
        used |= set(schema)
        assert schema.get("additionalProperties", False) is False
    assert used <= set(_KEYWORDS), sorted(used - set(_KEYWORDS))
    assert set(_KEYWORDS) <= used, sorted(set(_KEYWORDS) - used)


def test_ambient_exclusive_choice():
    doc = _base_doc()
    doc["ambient"] = {"preset": "killing_flat",
                      "custom": {"lam": "exp(t)"}}
    with pytest.raises(SchemaError, match="ambient"):
        validate_document(doc)
    doc["ambient"] = {}
    with pytest.raises(SchemaError, match="ambient"):
        validate_document(doc)


def test_domain_requires_resolution():
    doc = _base_doc()
    del doc["resolution"]
    with pytest.raises(SchemaError, match="resolution"):
        validate_document(doc)


def test_expression_fields():
    doc = _base_doc()
    doc["H"] = {"expression": "1 + 0*x"}
    doc["phi"] = {"expression": "-(x**2 + y**2)"}
    loaded = load_problem_document(doc)
    mesh = loaded.problem.mesh
    r2 = np.einsum("vi,vi->v", mesh.vertices, mesh.vertices)
    assert np.allclose(loaded.problem.phi, -r2, atol=1e-14)


def test_t_dependent_H_rejected():
    doc = _base_doc()
    doc["H"] = {"expression": "exp(t)"}
    with pytest.raises(Exception, match="chart coordinates"):
        load_problem_document(doc)


def test_csv_field_and_mesh_file(tmp_path):
    base = load_problem_document(_base_doc())
    mesh = base.problem.mesh
    field = ScalarField(mesh, np.linspace(-1.0, -0.1, mesh.n_vertices))
    field.to_csv(tmp_path / "phi.csv")
    (tmp_path / "mesh.json").write_text(
        json.dumps(ck.mesh_to_json(mesh)), encoding="utf-8")
    doc = _base_doc()
    doc["domain"] = {"mesh": "mesh.json"}
    del doc["resolution"]
    doc["phi"] = {"csv": "phi.csv"}
    (tmp_path / "prob.json").write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_problem(tmp_path / "prob.json")
    assert np.allclose(loaded.problem.phi, field.values)


def test_custom_ambient_with_derivatives():
    # lam alone: its flow-time derivatives come from the expression's jets
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)"}}
    loaded = load_problem_document(doc)
    amb = loaded.problem.ambient
    assert float(np.asarray(amb.lam(0.5))) == pytest.approx(math.exp(0.5))
    assert amb.lam_t(0.5) == amb.lam_tt(0.5) == amb.lam(0.5)
    assert math.isinf(amb.interval_end)


@pytest.mark.parametrize("key", ["lam_t", "lam_tt"])
def test_lambda_derivative_keys_rejected(key):
    # the program computes both from lam, so a given one could only repeat
    # or contradict it
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)", key: "exp(t)"}}
    with pytest.raises(SchemaError) as info:
        validate_document(doc)
    assert str(info.value).splitlines()[1:] == [
        "  $.ambient.custom: Additional properties are not allowed "
        f"('{key}' was unexpected)"]


@pytest.mark.parametrize("end", ["abc", "Infinity", None])
def test_custom_interval_end_number_or_inf(end):
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)", "interval_end": end}}
    with pytest.raises(SchemaError, match=r"\$\.ambient\.custom\.interval_end"):
        validate_document(doc)
    for ok in ("inf", 2.5):
        doc["ambient"]["custom"]["interval_end"] = ok
        validate_document(doc)


def test_curvature_key_rejected():
    # the leaf curvature comes from base_metric, so a declared one could only
    # repeat or contradict it: kappa0 = 5 on the flat disk used to pass
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)", "curvature": {
        "kind": "constant_curvature", "kappa0": 5.0}}}
    with pytest.raises(SchemaError) as info:
        validate_document(doc)
    assert str(info.value).splitlines()[1:] == [
        "  $.ambient.custom: Additional properties are not allowed "
        "('curvature' was unexpected)"]


# key -> (values out of range, values in range)
_SOLVER_BOUNDS = {
    "newton_tol": ([0, -1e-10], [1e-14]),
    "max_newton_iters": ([0, -3], [1]),
    "initial_tau_step": ([0, -0.25], [1e-3, 2.0]),
    "min_tau_step": ([0, -1e-4], [1e-12]),
    "damping_factor": ([0, 1, 1.5, -0.5], [1e-3, 0.999]),
    "max_damping_halvings": ([-1, 101, 10**6], [0, 100]),
    "clamp_margin": ([0, -1e-6], [1e-12]),
}


@pytest.mark.parametrize("key", sorted(_SOLVER_BOUNDS))
def test_solver_option_ranges(key):
    # a zero tau step re-solves the same tau forever; every bound is checked
    # before anything is built
    bad, good = _SOLVER_BOUNDS[key]
    doc = _base_doc()
    for value in bad:
        doc["solver"] = {key: value}
        with pytest.raises(SchemaError, match=rf"\$\.solver\.{key}: "):
            validate_document(doc)
    for value in good:
        doc["solver"] = {key: value}
        validate_document(doc)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "int_beyond_float"])
def test_non_finite_number_rejected(tmp_path, text):
    # json.load reads NaN and Infinity, which are not JSON, and ints beyond
    # the float range; an infinite or NaN tau step would never let a solve end
    body = json.dumps(_base_doc())[:-1] + f', "solver": {{"initial_tau_step": {text}}}}}'
    (tmp_path / "p.json").write_text(body, encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_problem(tmp_path / "p.json")
    line, = str(info.value).splitlines()[1:]
    assert line.startswith("  $.solver.initial_tau_step: ")
    assert line.endswith(" is not of type 'number'")


def test_solver_overrides():
    doc = _base_doc()
    doc["solver"] = {"initial_tau_step": 0.5, "max_newton_iters": 30}
    loaded = load_problem_document(doc)
    assert loaded.options.initial_tau_step == 0.5
    assert loaded.options.max_newton_iters == 30
    assert loaded.options.newton_tol == 1e-10     # untouched default


def test_integral_float_for_integer_option():
    doc = _base_doc()
    doc["solver"] = {"max_newton_iters": 30.0, "max_damping_halvings": 12.0}
    options = load_problem_document(doc).options
    assert type(options.max_newton_iters) is int and options.max_newton_iters == 30
    assert type(options.max_damping_halvings) is int


def test_barriers_check_is_a_schema_error():
    doc = _base_doc()
    doc["checks"] = ["hypotheses", "barriers"]
    with pytest.raises(SchemaError, match=r"\$\.checks"):
        validate_document(doc)


def test_companion_only_where_admissible():
    doc = dict(_base_doc(), resolution=0.04)
    companion = load_problem_document(doc).companion()
    assert companion.mesh.polar == PolarDomain(0.0, 0.4, ck.flat_metric)
    assert 4 * companion.mesh.n_vertices <= 331 and companion.phi.max() == -0.5
    # boundary data that pass at the target's boundary vertices but exceed
    # the interval end (1 for example_b) at a boundary vertex only the
    # companion has, (0.4 cos 10deg, 0.4 sin 10deg): no companion, no error
    doc["ambient"] = {"preset": "example_b"}
    doc["phi"] = {"expression":
                  "0.5 + 0.6*exp(-((x - 0.393923)**2 + (y - 0.069459)**2)/0.0001)"}
    loaded = load_problem_document(doc)
    assert loaded.problem.phi[loaded.problem.mesh.boundary_vertices].max() < 1.0
    assert loaded.companion() is None
