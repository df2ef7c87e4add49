import json
import math

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.errors import SchemaError
from ckgraph.fields import ScalarField
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
                    else [arg] if key in ("items", "if", "then") else ())
        for child in children:
            yield from _subschemas(child)


def test_schema_uses_only_interpreted_keywords():
    # a keyword the validator does not interpret would be silently ignored
    for schema in _subschemas(PROBLEM_SCHEMA):
        assert set(schema) <= set(_KEYWORDS), sorted(set(schema) - set(_KEYWORDS))
        assert schema.get("additionalProperties", False) is False


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
    doc = _base_doc()
    doc["ambient"] = {"custom": {
        "lam": "exp(t)", "lam_t": "exp(t)", "lam_tt": "exp(t)",
        "curvature": {"kind": "flat"},
    }}
    loaded = load_problem_document(doc)
    amb = loaded.problem.ambient
    assert float(np.asarray(amb.lam(0.5))) == pytest.approx(math.exp(0.5))
    assert math.isinf(amb.interval_end)
    assert amb.fd_derivatives is False


def test_custom_ambient_fd_fallback():
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)"}}
    amb = load_problem_document(doc).problem.ambient
    assert float(np.asarray(amb.lam_t(0.2))) == pytest.approx(math.exp(0.2), rel=1e-8)
    assert amb.fd_derivatives is True
    # one missing derivative is enough to flag the ambient
    doc["ambient"] = {"custom": {"lam": "exp(t)", "lam_t": "exp(t)"}}
    assert load_problem_document(doc).problem.ambient.fd_derivatives is True


@pytest.mark.parametrize("end", ["abc", "Infinity", None])
def test_custom_interval_end_number_or_inf(end):
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)", "interval_end": end}}
    with pytest.raises(SchemaError, match=r"\$\.ambient\.custom\.interval_end"):
        validate_document(doc)
    for ok in ("inf", 2.5):
        doc["ambient"]["custom"]["interval_end"] = ok
        validate_document(doc)


def test_constant_curvature_needs_kappa0():
    doc = _base_doc()
    doc["ambient"] = {"custom": {"lam": "exp(t)",
                                 "curvature": {"kind": "constant_curvature"}}}
    with pytest.raises(SchemaError,
                       match=r"\$\.ambient\.custom\.curvature: 'kappa0'"):
        validate_document(doc)
    doc["ambient"]["custom"]["curvature"]["kappa0"] = 1.0
    model = load_problem_document(doc).problem.ambient.curvature_model
    assert model.kind == "constant_curvature" and model.kappa0 == 1.0
    doc["ambient"]["custom"]["curvature"] = {"kind": "flat"}
    validate_document(doc)


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
