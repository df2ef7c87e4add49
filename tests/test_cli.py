import ast
import json
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from importlib import metadata

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ckgraph as ck
from ckgraph.cli import main
from ckgraph.fields import ScalarField
from ckgraph.mesh import _write_mesh_json
from ckgraph.analysis import search_boundary_barrier
from ckgraph.problemfile import PROBLEM_SCHEMA, _schema_errors, load_problem
from ckgraph.solver import CHORD_CONTRACTION
from conftest import child_env


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def _cap_doc(h=0.04, H=1.0, phi=-math.sqrt(0.84)):
    return {
        "ambient": {"preset": "killing_flat"},
        "domain": {"preset": "disk", "params": {"radius": 0.4}},
        "resolution": h,
        "H": {"constant": H},
        "phi": {"constant": phi},
        "checks": ["hypotheses", "monotonicity"],
    }


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    prob = _write(tmp, "cap.json", _cap_doc(h=0.02))
    out = tmp / "run"
    code = main(["solve", prob, "--out", str(out), "--strict"])
    assert code == 0
    return tmp, prob, out


def test_solve_oracle_accuracy(solved_run):
    tmp, prob, out = solved_run
    assert (out / "report.json").exists()
    assert (out / "mesh.json").exists()
    assert (out / "log.jsonl").exists()
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.mesh_from_json(json.loads((out / "mesh.json").read_text()), amb)
    z = ScalarField.from_csv(mesh, out / "solution.csv")
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(z.values + np.sqrt(1 - r**2)).max() < 1e-3


def test_report_content(solved_run):
    _, _, out = solved_run
    rep = json.loads((out / "report.json").read_text())
    assert rep["status"] == "converged"
    assert rep["tau_reached"] == 1.0
    assert rep["hypotheses"]["passed"]
    assert rep["monotonicity"]["monotone"]
    assert "fd_derivatives" not in rep
    assert "timestamp" in rep


@pytest.mark.parametrize("preset, domain", [
    ("example_a", {"preset": "disk", "params": {"radius": 0.4}}),
    ("euclidean_radial", {"preset": "cap", "params": {"theta0": 1.0}}),
], ids=["flat_disk", "round_cap"])
def test_custom_exp_ambient_checks_as_its_preset(tmp_path, capsys, preset, domain):
    # lam = exp(t) with no derivative keys: the jets give the preset's
    # closed forms, and the hypothesis report is the same
    doc = _cap_doc(h=0.1, H=0.5, phi=-0.3)
    doc["domain"] = domain
    reports = []
    for ambient in ({"preset": preset},
                    {"custom": {"lam": "exp(t)", "base_metric":
                                "round_sphere" if preset == "euclidean_radial" else "flat"}}):
        doc["ambient"] = ambient
        capsys.readouterr()
        main(["check", _write(tmp_path, "problem.json", doc)])
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_log_jsonl_fields(solved_run):
    _, _, out = solved_run
    lines = (out / "log.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"tau", "iter", "residual_norm", "step_norm",
                            "damping_halvings"}


def test_report_byte_stable(tmp_path):
    prob = _write(tmp_path, "cap.json", _cap_doc(h=0.08))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", prob, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        del doc["timestamp"]
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_solve_checks_hypotheses_once(tmp_path, monkeypatch):
    # the report of the check before the solve is the one report.json keeps
    import ckgraph.cli as cli
    calls, check = [], cli.check_hypotheses
    monkeypatch.setattr(cli, "check_hypotheses",
                        lambda *args: calls.append(1) or check(*args))
    prob = _write(tmp_path, "cap.json", _cap_doc(h=0.1))
    assert main(["solve", prob, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["hypotheses"]["passed"]


@pytest.mark.parametrize("checks, strict, runs", [
    ([], False, False), (["hypotheses"], False, True), ([], True, True),
    (["max_principle"], False, False)])
def test_hypotheses_check_follows_checks(tmp_path, monkeypatch, capsys,
                                         checks, strict, runs):
    # phi > 0 fails phi_nonpos: a run of the check warns, --strict refuses
    import ckgraph.cli as cli
    calls, check = [], cli.check_hypotheses
    monkeypatch.setattr(cli, "check_hypotheses",
                        lambda *args: calls.append(1) or check(*args))
    doc = dict(_cap_doc(h=0.1, phi=0.2), checks=checks)
    out = tmp_path / "out"
    code = main(["solve", _write(tmp_path, "cap.json", doc), "--out", str(out)]
                + ["--strict"] * strict)
    report = json.loads((out / "report.json").read_text())
    assert len(calls) == runs and ("hypotheses" in report) == runs
    assert ("phi_nonpos" in capsys.readouterr().err) == runs
    if strict:
        assert code == 1 and report["status"] == "hypotheses_failed"
    else:
        assert code == 0 and report["status"] == "converged"
    assert ("max_principle" in report) == ("max_principle" in checks)


def test_report_records_the_solve_path(tmp_path, solved_run):
    _, _, out = solved_run
    rep = json.loads((out / "report.json").read_text())
    # cap at h = 0.02: the march on the h = 0.08 companion, then Newton
    assert rep["path"]["kind"] == "sequenced"
    assert rep["path"]["companion"]["vertices"] == 91
    assert rep["path"]["companion"]["tau_path"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert rep["tau_path"] == [0.0, 1.0]
    log = [json.loads(line) for line in
           (out / "log.jsonl").read_text().splitlines()]
    assert len(log) == rep["newton_iterations"]
    # one full Newton step from the companion's solution, then chord steps
    # on its factorization, each cutting the residual by the contraction
    # factor or more (test_solver counts the one factorization)
    assert all(rec["damping_halvings"] == 0 for rec in log)
    assert all(b["residual_norm"] <= CHORD_CONTRACTION * a["residual_norm"]
               for a, b in zip(log, log[1:]))
    assert log[-1]["residual_norm"] <= 1e-10
    # a mesh file has no companion
    amb = ck.preset_ambient("killing_flat")
    _write(tmp_path, "mesh.json", ck.mesh_to_json(ck.disk_mesh(0.4, 0.05, amb)))
    prob = _write(tmp_path, "problem.json", _mesh_file_doc())
    assert main(["solve", prob, "--out", str(tmp_path / "m")]) == 0
    rep = json.loads((tmp_path / "m" / "report.json").read_text())
    assert rep["path"] == {"kind": "continuation"}
    assert rep["tau_path"] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_failed_solve_exit_code_with_companion(tmp_path):
    # the companion's march stalls too; the march on the target mesh then
    # decides the status and exit code, as it does without a companion
    from ckgraph.cli import _STATUS_EXIT
    from ckgraph.problemfile import load_problem
    doc = {"ambient": {"preset": "example_b"},
           "domain": {"preset": "disk", "params": {"radius": 0.3}},
           "resolution": 0.05, "H": {"constant": -20.0},
           "phi": {"constant": 0.9}, "solver": {"min_tau_step": 1e-3}}
    prob = _write(tmp_path, "fail.json", doc)
    loaded = load_problem(prob)
    plain = ck.continuation_solve(loaded.problem, loaded.options)
    assert plain.status in ("stalled", "left_interval")
    out = tmp_path / "out"
    assert main(["solve", prob, "--out", str(out)]) == _STATUS_EXIT[plain.status]
    rep = json.loads((out / "report.json").read_text())
    assert rep["path"]["kind"] == "continuation"
    assert rep["path"]["fallback"].startswith("companion continuation ")
    assert rep["tau_path"] == plain.tau_path


def test_trivial_problem(tmp_path):
    doc = _cap_doc(h=0.1, H=0.0, phi=0.0)
    prob = _write(tmp_path, "trivial.json", doc)
    out = tmp_path / "run"
    assert main(["solve", prob, "--out", str(out)]) == 0
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.mesh_from_json(json.loads((out / "mesh.json").read_text()), amb)
    z = ScalarField.from_csv(mesh, out / "solution.csv")
    assert np.abs(z.values).max() == 0.0


def test_strict_rejects_positive_phi(tmp_path, capsys):
    doc = _cap_doc(h=0.1, phi=0.2)
    prob = _write(tmp_path, "bad.json", doc)
    out = tmp_path / "run"
    code = main(["solve", prob, "--out", str(out), "--strict"])
    assert code == 1
    err = capsys.readouterr().err
    assert "phi_nonpos" in err
    rep = json.loads((out / "report.json").read_text())
    assert rep["status"] == "hypotheses_failed"


def test_invalid_file_exit_1(tmp_path):
    doc = _cap_doc()
    doc["unknown_key"] = 1
    prob = _write(tmp_path, "bad.json", doc)
    out = tmp_path / "run"
    assert main(["solve", prob, "--out", str(out)]) == 1
    assert (out / "report.json").exists()    # partial report still written


def test_check_command(tmp_path, capsys):
    prob = _write(tmp_path, "cap.json", _cap_doc(h=0.1))
    assert main(["check", prob]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    bad = _write(tmp_path, "bad.json", _cap_doc(h=0.1, H=1.3))
    assert main(["check", bad]) == 1
    doc = json.loads(capsys.readouterr().out)
    names = {c["name"]: c for c in doc["conditions"]}
    assert not names["H_below_inf_HK"]["passed"]
    assert names["H_below_inf_HK"]["margin"] < 0


def test_certify_roundtrip(solved_run, capsys):
    tmp, prob, out = solved_run
    code = main(["certify", prob, str(out / "solution.csv")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for kind in ("height", "boundary_lower", "boundary_upper"):
        assert doc["certificates"][kind]["valid"]
        assert doc["certificates"][kind]["min_margin"] > 0


def test_certify_detects_corruption(solved_run, tmp_path, capsys):
    tmp, prob, out = solved_run
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.mesh_from_json(json.loads((out / "mesh.json").read_text()), amb)
    z = ScalarField.from_csv(mesh, out / "solution.csv")
    rng = np.random.default_rng(0)
    z.values[mesh.interior_vertices] += 0.5 * rng.standard_normal(
        len(mesh.interior_vertices))
    bad = tmp_path / "corrupt.csv"
    z.to_csv(bad)
    assert main(["certify", prob, str(bad)]) != 0


def test_certify_height_search_exhausted(solved_run, tmp_path, capsys):
    # lifted by 0.5 at vertex 0, the solution rises above the boundary sup,
    # so no height barrier brackets it; from D = 256 on exp(D B) overflows
    _, prob, out = solved_run
    z = ScalarField.from_csv(load_problem(prob).problem.mesh, out / "solution.csv")
    z.values[0] += 0.5
    lifted = tmp_path / "lifted.csv"
    z.to_csv(lifted)
    capsys.readouterr()
    assert main(["certify", prob, str(lifted)]) == 1
    assert capsys.readouterr().err == (
        "error: height barrier search exhausted after 21 candidates: solution "
        "not ordered with the barrier [8 candidates, D = 1 .. D = 128]; "
        "exp(D*B) overflows: D*B > 200 [13 candidates, D = 256 .. "
        "D = 1.04858e+06]; largest min_margin 0.569326\n")


def test_boundary_search_exhausted(solved_run):
    # boundary values lowered by 0.1 put the solution below the lower
    # barrier, which equals the data on the boundary
    _, prob, out = solved_run
    problem = load_problem(prob).problem
    z = ScalarField.from_csv(problem.mesh, out / "solution.csv")
    z.values[problem.mesh.boundary_vertices] -= 0.1
    with pytest.raises(ck.ParameterError) as info:
        search_boundary_barrier(problem, z, eps=0.12)
    assert str(info.value).endswith(
        "boundary barrier search exhausted after 35 candidates: min_margin <= 0 "
        "[3 candidates, mu = 1, c = 0.25 .. mu = 1e+06, c = 0.25]; solution not "
        "ordered with the barrier [32 candidates, mu = 1, c = 1 .. mu = 1e+06, "
        "c = 4]; largest min_margin 3.01873")


def test_certify_bad_B(solved_run):
    tmp, prob, out = solved_run
    code = main(["certify", prob, str(out / "solution.csv"),
                 "--D", "2", "--B", "0.1"])
    assert code == 1


@pytest.mark.parametrize("options", [["--D", "2"], ["--B", "1"]], ids=["D", "B"])
def test_certify_D_and_B_together_exit_1(solved_run, capsys, options):
    _, prob, out = solved_run
    _assert_clean_exit_1(["certify", prob, str(out / "solution.csv"), *options],
                         capsys, "--D and --B must be given together")


@pytest.mark.parametrize("options, name", [
    (["--D", "nan", "--B", "1"], "--D"),
    (["--D", "1", "--B", "nan"], "--B"),
    (["--D", "inf", "--B", "1"], "--D"),
    (["--D", "1", "--B=-inf"], "--B"),
    (["--eps", "nan"], "--eps"),
    (["--eps", "inf"], "--eps"),
])
def test_certify_non_finite_option_exit_1(solved_run, capsys, options, name):
    _, prob, out = solved_run
    _assert_clean_exit_1(["certify", prob, str(out / "solution.csv"), *options],
                         capsys, f"{name} must be a finite number")


@pytest.mark.parametrize("value, fragment", [
    ("nan", "must be a finite number"), ("inf", "must be a finite number"),
    ("-1", "must not be negative"),
])
def test_verify_bad_tolerance_exit_1(solved_run, capsys, value, fragment):
    _, prob, out = solved_run
    _assert_clean_exit_1(["verify", prob, str(out / "solution.csv"), "--tol", value],
                         capsys, f"--tol {fragment}")


def test_suspect_flags_built_only_by_certify(tmp_path, monkeypatch, former_suspects):
    from ckgraph import mesh as mesh_module
    built = []
    former = mesh_module._suspect_elements
    monkeypatch.setattr(mesh_module, "_suspect_elements",
                        lambda mesh, amb: built.append((mesh, amb)) or former(mesh, amb))
    prob = _write(tmp_path, "cap.json", _cap_doc())
    out = tmp_path / "run"
    assert main(["solve", prob, "--out", str(out)]) == 0
    assert main(["verify", prob, str(out / "solution.csv")]) == 0
    assert built == []
    main(["certify", prob, str(out / "solution.csv")])
    assert len(built) == 1
    mesh, amb = built[0]
    assert np.array_equal(mesh.suspect_elements, former_suspects(mesh, amb))


def test_verify_roundtrip(solved_run, capsys):
    tmp, prob, out = solved_run
    assert main(["verify", prob, str(out / "solution.csv")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert doc["mean_discrepancy"] < 0.05


def test_verify_wrong_H(solved_run, tmp_path):
    tmp, prob, out = solved_run
    doc = _cap_doc(h=0.02, H=1.1)
    bad = _write(tmp_path, "wrong.json", doc)
    assert main(["verify", bad, str(out / "solution.csv")]) != 0


def _with_cell(lines, row, col, text):
    cells = lines[row].split(",")
    cells[col] = text
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


# name -> (edit of the solution.csv lines, expected message after the path)
_CSV_CORRUPTIONS = {
    "missing_column": (lambda L: ["vertex,x,y,val"] + L[1:],
                       ":1: missing column 'value'"),
    "vertex_not_integer": (lambda L: _with_cell(L, 3, 0, "two"),
                           ":4: vertex 'two' is not an integer"),
    "vertex_out_of_range": (lambda L: _with_cell(L, 3, 0, str(len(L) - 1)),
                            ":4: vertex"),
    "vertex_duplicated": (lambda L: L[:3] + [L[2]] + L[4:],
                          ":4: vertex 1 appears twice"),
    "value_not_numeric": (lambda L: _with_cell(L, 5, 3, "abc"),
                          ":6: value 'abc' is not a finite number"),
    "xy_other_mesh": (lambda L: _with_cell(L, 5, 1, "0.123"), ":6: x,y"),
    "missing_rows": (lambda L: L[:7] + L[9:], ": no row for vertex 6"),
    "header_only": (lambda L: L[:1], ": no row for vertex 0"),
    "empty": (lambda L: [], ":1: missing column"),
}


def _assert_clean_exit_1(argv, capsys, fragment):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert fragment in err
    return err


@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize("corruption", sorted(_CSV_CORRUPTIONS))
def test_malformed_solution_csv_exit_1(solved_run, tmp_path, capsys,
                                       command, corruption):
    _, prob, out = solved_run
    edit, fragment = _CSV_CORRUPTIONS[corruption]
    lines = (out / "solution.csv").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    _assert_clean_exit_1([command, prob, str(bad)], capsys, f"{bad}{fragment}")


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_unreadable_solution_exit_1(solved_run, tmp_path, capsys, command):
    _, prob, _ = solved_run
    missing = tmp_path / "missing.csv"
    err = _assert_clean_exit_1([command, prob, str(missing)], capsys,
                               f"cannot read {missing}: No such file or directory")
    assert err.count(str(missing)) == 1
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"vertex,x,y,value\n\xff\xfe\n")
    err = _assert_clean_exit_1([command, prob, str(binary)], capsys,
                               f"cannot read {binary}")
    assert err.count(str(binary)) == 1


def _mesh_file_doc():
    return {"ambient": {"preset": "killing_flat"},
            "domain": {"mesh": "mesh.json"},
            "H": {"constant": 1.0}, "phi": {"constant": -math.sqrt(0.84)}}


def _set(keys, value):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


# name -> (edit of the mesh document, or the raw file text; expected message)
_MESH_CORRUPTIONS = {
    "missing_file": (None, "cannot read"),
    "not_json": ("{not json", "cannot read"),
    "not_an_object": ("[1, 2]", "not a JSON object"),
    "no_vertices": (lambda d: d.pop("vertices"), "missing key 'vertices'"),
    "no_triangles": (lambda d: d.pop("triangles"), "missing key 'triangles'"),
    "no_boundary": (lambda d: d.pop("boundary"), "missing key 'boundary'"),
    "ragged_rows": (_set(["triangles", 3], [0, 1]), "rows of different lengths"),
    "non_numeric_row": (_set(["vertices", 2], ["a", "b"]), "vertices must be rows"),
    "non_integer_index": (_set(["triangles", 0, 1], 1.5), "must be integers"),
    "index_out_of_range": (_set(["boundary", 0, 2], 999), "out of range"),
    "index_beyond_int64": (_set(["triangles", 0, 1], 10**30), "out of range"),
    "bool_index": (_set(["triangles", 0, 1], True), "must be integers"),
    "bool_loop_entry": (_set(["boundary", 0, 2], False), "must be integers"),
    "bool_coordinate": (_set(["vertices", 2, 0], True), "vertices must be rows"),
    "nan_coordinate": (_set(["vertices", 2, 0], math.nan), "rows of two finite numbers"),
    "four_index_rows": (lambda d: [t.append(t[0]) for t in d["triangles"]],
                        "triangles must be rows of three vertex indices"),
    "clockwise_triangle": (lambda d: d["triangles"][0].reverse(),
                           "triangles must be positively oriented"),
    "edge_in_three_elements": (lambda d: d["triangles"].append(list(d["triangles"][0])),
                               "an edge is shared by more than 2 elements"),
}


@pytest.mark.parametrize("corruption", sorted(_MESH_CORRUPTIONS))
def test_malformed_mesh_file_exit_1(tmp_path, capsys, corruption):
    edit, fragment = _MESH_CORRUPTIONS[corruption]
    prob = _write(tmp_path, "problem.json", _mesh_file_doc())
    mesh_path = tmp_path / "mesh.json"
    if isinstance(edit, str):
        mesh_path.write_text(edit, encoding="utf-8")
    elif edit is not None:
        amb = ck.preset_ambient("killing_flat")
        doc = ck.mesh_to_json(ck.disk_mesh(0.4, 0.2, amb))
        edit(doc)
        _write(tmp_path, "mesh.json", doc)
    err = _assert_clean_exit_1(["check", prob], capsys, str(mesh_path))
    assert err.count(str(mesh_path)) == 1
    _assert_clean_exit_1(["check", prob], capsys, fragment)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_mesh_without_interior_vertex_exit_1(tmp_path, capsys, command):
    # one triangle, all three vertices on the boundary: nothing to solve for
    prob = _write(tmp_path, "problem.json", _mesh_file_doc())
    mesh_path = _write(tmp_path, "mesh.json", {
        "vertices": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]],
        "triangles": [[0, 1, 2]], "boundary": [[0, 1, 2]]})
    argv = [command, prob] + (["--out", str(tmp_path / "out")] if command == "solve" else [])
    _assert_clean_exit_1(argv, capsys, f"{mesh_path}: no interior vertex")


def _square(half, loop):
    """A five-vertex square of half-side ``half`` around its centre vertex."""
    return {"vertices": [[-half, -half], [half, -half], [half, half], [-half, half], [0, 0]],
            "triangles": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]], "boundary": [loop]}


def test_boundary_loop_winding_twice_exit_1(tmp_path, capsys):
    # every loop edge is one-sided and covered, but the loop lists each
    # boundary vertex twice
    prob = _write(tmp_path, "problem.json", _mesh_file_doc())
    mesh_path = _write(tmp_path, "mesh.json", _square(0.3, [0, 1, 2, 3, 0, 1, 2, 3]))
    _assert_clean_exit_1(["solve", prob, "--out", str(tmp_path / "out")], capsys,
                         f"{mesh_path}: boundary loops list vertex 0 twice")


def test_verify_without_confident_vertex_exit_1(tmp_path, capsys):
    # every 2-ring of the five-vertex square holds the other 4 vertices,
    # too few to determine a quadratic
    prob = _write(tmp_path, "problem.json", _mesh_file_doc())
    _write(tmp_path, "mesh.json", _square(0.3, [0, 1, 2, 3]))
    out = tmp_path / "out"
    assert main(["solve", prob, "--out", str(out)]) == 0
    _assert_clean_exit_1(["verify", prob, str(out / "solution.csv")], capsys,
                         "no vertex with confident recovery")


def test_mesh_beyond_the_round_chart_exit_1(tmp_path, capsys):
    # the corners of a square of half-side 3 lie at chart radius 3 sqrt 2 > pi,
    # where geodesic polar coordinates of the unit sphere are no chart
    doc = dict(_mesh_file_doc(), ambient={"preset": "euclidean_radial"})
    prob = _write(tmp_path, "problem.json", doc)
    mesh_path = _write(tmp_path, "mesh.json", _square(3.0, [0, 1, 2, 3]))
    _assert_clean_exit_1(["solve", prob, "--out", str(tmp_path / "out")], capsys,
                         f"{mesh_path}: vertex 0 at chart radius {math.sqrt(18)!r} "
                         "reaches the antipode")
    # the same square at half-side 2, inside the chart, loads
    ck.mesh_from_json(_square(2.0, [0, 1, 2, 3]), ck.preset_ambient("euclidean_radial"))


@pytest.mark.parametrize("half, fragment", [
    (1e150, "length 2e+150"), (1e308, "length nan"), (1e-150, "length 2e-150")])
def test_mesh_out_of_scale_exit_1(tmp_path, capsys, half, fragment):
    # fourth powers of these lengths overflow or underflow a double: the
    # load refuses each square, naming the edge, before anything forms them
    doc = dict(_mesh_file_doc(), H={"constant": 0.0}, phi={"constant": -0.1})
    prob = _write(tmp_path, "problem.json", doc)
    mesh_path = _write(tmp_path, "mesh.json", _square(half, [0, 1, 2, 3]))
    err = _assert_clean_exit_1(["solve", prob, "--out", str(tmp_path / "out")], capsys,
                               f"{mesh_path}: edge (0, 1) has leaf-metric {fragment}, "
                               "outside [1e-30, 1e+30]")
    assert err.count("\n") == 1
    # squares well inside the range load
    for half in (1e-12, 1e12):
        ck.mesh_from_json(_square(half, [0, 1, 2, 3]), ck.preset_ambient("killing_flat"))


def _jittered_disk():
    """A generic mesh: disk_mesh(0.4, 0.05) with every interior vertex moved
    by up to a fifth of the ring spacing, so coordinates take all 17 digits."""
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.05, amb)
    verts = mesh.vertices.copy()
    inner = mesh.interior_vertices
    verts[inner] += np.random.default_rng(3).uniform(-0.01, 0.01, (len(inner), 2))
    return ck.mesh_from_arrays(verts, mesh.triangles, mesh.boundary_loops, amb)


@pytest.mark.parametrize("build", [
    lambda: ck.disk_mesh(0.4, 0.05, ck.preset_ambient("killing_flat")),
    lambda: ck.cap_mesh(1.0, 0.1, ck.preset_ambient("euclidean_radial")),
    lambda: ck.annulus_mesh(0.2, 0.6, 0.05, ck.preset_ambient("killing_flat")),
    _jittered_disk,
], ids=["disk", "round_cap", "annulus", "generic"])
def test_mesh_json_bytes(tmp_path, build):
    # the chunked writer gives the bytes of the one-string encoding
    mesh = build()
    path = tmp_path / "mesh.json"
    _write_mesh_json(mesh, path)
    ref = json.dumps(ck.mesh_to_json(mesh), sort_keys=True) + "\n"
    assert path.read_bytes() == ref.encode("utf-8")


def test_mesh_json_written_in_chunks(tmp_path, traced_peak):
    # the writer holds one chunk of rows, not the document's lists and text
    # (json.dumps of mesh_to_json peaked at about 8 times the file)
    mesh = ck.disk_mesh(0.4, 0.005, ck.preset_ambient("killing_flat"))
    path = tmp_path / "mesh.json"
    _, peak = traced_peak(_write_mesh_json, mesh, path)
    assert peak < path.stat().st_size / 10


def test_solve_out_is_a_file_exit_1(tmp_path, capsys):
    prob = _write(tmp_path, "problem.json", _cap_doc(h=0.1))
    _assert_clean_exit_1(["solve", prob, "--out", prob], capsys,
                         f"cannot create the output directory {prob}")


def test_certify_out_in_missing_directory_exit_1(solved_run, tmp_path, capsys):
    _, prob, out = solved_run
    cert = tmp_path / "nodir" / "x" / "cert.json"
    _assert_clean_exit_1(["certify", prob, str(out / "solution.csv"), "--out", str(cert)],
                         capsys, f"cannot write {cert}")
    assert not cert.parent.exists()


def _preset_domain(preset, **params):
    return _set(["domain"], {"preset": preset, "params": params})


def _custom_curvature(**curvature):
    return _set(["ambient"], {"custom": {"lam": "exp(t)", "curvature": curvature}})


def _on_round_leaf(ambient, edit):
    """``edit``, on an ambient whose leaf metric is the round sphere's."""
    def both(doc):
        doc["ambient"] = ambient
        edit(doc)
    return both


_RADIAL = {"preset": "euclidean_radial"}


# name -> (edit of a valid preset document; the JSON path the error names)
_BAD_PARAMETERS = {
    "disk_radius_negative": (_preset_domain("disk", radius=-0.4),
                             "$.domain.params.radius"),
    "disk_radius_zero": (_preset_domain("disk", radius=0.0), "$.domain.params.radius"),
    "cap_theta0_zero": (_preset_domain("cap", theta0=0.0), "$.domain.params.theta0"),
    "cap_theta0_pi": (_preset_domain("cap", theta0=math.pi), "$.domain.params.theta0"),
    "cap_theta0_above_pi": (_preset_domain("cap", theta0=4.0),
                            "$.domain.params.theta0"),
    "annulus_r_in_negative": (_preset_domain("annulus", r_in=-0.1, r_out=0.5),
                              "$.domain.params.r_in"),
    "annulus_r_out_zero": (_preset_domain("annulus", r_in=0.2, r_out=0.0),
                           "$.domain.params.r_out"),
    "annulus_reversed": (_preset_domain("annulus", r_in=0.5, r_out=0.3),
                         "$.domain.params.r_out"),
    "annulus_empty": (_preset_domain("annulus", r_in=0.3, r_out=0.3),
                      "$.domain.params.r_out"),
    "annulus_no_r_out": (_preset_domain("annulus", r_in=0.3), "$.domain.params.r_out"),
    # polar domains on the round metric end below the antipode r = pi
    "disk_radius_antipode": (_on_round_leaf(_RADIAL, _preset_domain("disk", radius=3.3)),
                             "$.domain.params.radius"),
    "disk_radius_pi_custom": (_on_round_leaf(
        {"custom": {"lam": "exp(t)", "base_metric": "round_sphere"}},
        _preset_domain("disk", radius=math.pi)), "$.domain.params.radius"),
    "annulus_r_out_antipode": (_on_round_leaf(
        _RADIAL, _preset_domain("annulus", r_in=0.3, r_out=3.2)), "$.domain.params.r_out"),
    "disk_with_theta0": (_preset_domain("disk", radius=0.4, theta0=1.0),
                         "$.domain.params.theta0"),
    "cap_with_r_in": (_preset_domain("cap", theta0=1.0, r_in=0.2),
                      "$.domain.params.r_in"),
    "mesh_with_params": (_set(["domain"], {"mesh": "mesh.json",
                                           "params": {"radius": 0.4}}),
                         "$.domain.params"),
    "mesh_with_resolution": (_set(["domain"], {"mesh": "mesh.json"}), "$.resolution"),
    # the leaf curvature comes from base_metric; no key declares it
    "kappa0_without_kind": (_custom_curvature(kappa0=2.0), "$.ambient.custom"),
    "kappa0_with_flat": (_custom_curvature(kind="flat", kappa0=2.0),
                         "$.ambient.custom"),
    # nothing read the shift parameters of example_c
    "ambient_params": (_set(["ambient"], {"preset": "example_c",
                                          "params": {"b": 1.0, "c": 2.0}}),
                       "$.ambient"),
    "H_expression_arity": (_set(["H"], {"expression": "exp(x, y)"}), "$.H.expression"),
    "phi_not_finite": (_set(["phi"], {"expression": "log(x)"}), "$.phi.expression"),
    "H_overflow": (_set(["H"], {"expression": "10**400"}), "$.H.expression"),
    "custom_lam_arity": (_set(["ambient"], {"custom": {"lam": "exp(t, t)"}}),
                         "$.ambient.custom.lam"),
    # construction errors of a custom ambient name their key
    "custom_interval_end_negative": (
        _set(["ambient"], {"custom": {"lam": "exp(t)", "interval_end": -1}}),
        "$.ambient.custom.interval_end"),
    "custom_lam_not_normalized": (_set(["ambient"], {"custom": {"lam": "2*exp(t)"}}),
                                  "$.ambient.custom.lam"),
    # NaN below t = -1, with no warning on stderr
    "custom_lam_not_positive": (_set(["ambient"], {"custom": {"lam": "sqrt(1 + t)",
                                                              "interval_end": 1}}),
                                "$.ambient.custom.lam"),
    # a damping factor near 1 would otherwise cut the step almost endlessly
    "halvings_above_maximum": (_set(["solver"], {"max_damping_halvings": 101}),
                               "$.solver.max_damping_halvings"),
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("case", sorted(_BAD_PARAMETERS))
def test_bad_parameter_exit_1_with_path(tmp_path, capsys, command, case):
    edit, path = _BAD_PARAMETERS[case]
    doc = _cap_doc(h=0.2)
    edit(doc)
    prob = _write(tmp_path, "problem.json", doc)
    argv = [command, prob] + (["--out", str(tmp_path / "run")]
                              if command == "solve" else [])
    _assert_clean_exit_1(argv, capsys, path + ":")


# gamma -> what the error says of the first chart point that fails
_BAD_GAMMA = {
    "x": "value 0.0 is not positive and finite at chart point (0, 0)",
    "0*x": "value 0.0 is not positive and finite at chart point (0, 0)",
    "x + 0.3": "is not positive and finite at chart point (-0.34641, 0.2)",
    "1 + sqrt(x*x + y*y)": "gradient [nan, nan] is not finite at chart point (0, 0)",
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("gamma", sorted(_BAD_GAMMA))
def test_custom_gamma_not_positive_exit_1(tmp_path, capsys, command, gamma):
    # checked at the points the operator reads when the problem loads: no
    # NaN reaches the solve, and no warning reaches stderr
    doc = _cap_doc(h=0.2)
    doc["ambient"] = {"custom": {"lam": "exp(t)", "gamma": gamma}}
    prob = _write(tmp_path, "problem.json", doc)
    argv = [command, prob] + (["--out", str(tmp_path / "run")]
                              if command == "solve" else [])
    err = _assert_clean_exit_1(argv, capsys, "error: $.ambient.custom.gamma: ")
    assert err.endswith(_BAD_GAMMA[gamma] + "\n") and err.count("\n") == 1


# a zero tau step re-solves the same tau forever; the schema refuses it (all
# bounds: test_problemfile), checked here without solving
@pytest.mark.parametrize("key", ["initial_tau_step", "min_tau_step"])
def test_zero_tau_step_exit_1(tmp_path, capsys, key):
    doc = _cap_doc(h=0.2)
    doc["solver"] = {key: 0}
    prob = _write(tmp_path, "problem.json", doc)
    _assert_clean_exit_1(["check", prob], capsys,
                         f"$.solver.{key}: 0 is less than or equal to the minimum of 0")


@pytest.mark.filterwarnings("error")      # log(0) warns nothing
def test_field_not_finite_names_the_vertex(tmp_path, capsys):
    doc = _cap_doc(h=0.2)
    doc["phi"] = {"expression": "log(x)"}
    _assert_clean_exit_1(["check", _write(tmp_path, "problem.json", doc)], capsys,
                         "$.phi.expression: value -inf at vertex 0 is not finite")


@pytest.mark.parametrize("command", ["check", "solve", "certify", "verify"])
def test_problem_file_not_utf8_exit_1(tmp_path, capsys, command):
    prob = tmp_path / "problem.json"
    text = json.dumps(_cap_doc(h=0.2)).encode("utf-8")
    prob.write_bytes(text.replace(b"disk", b"d\xffsk"))
    argv = {"check": ["check", str(prob)],
            "solve": ["solve", str(prob), "--out", str(tmp_path / "run")],
            "certify": ["certify", str(prob), str(tmp_path / "solution.csv")],
            "verify": ["verify", str(prob), str(tmp_path / "solution.csv")]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read problem file {prob}: 'utf-8' codec")
    assert "Traceback" not in err and err.count(str(prob)) == 1


def test_disk_and_cap_agree_on_the_round_leaf(tmp_path, capsys):
    # the same chart disk under two names: the closed forms come from the
    # leaf metric (cot r), so every report agrees
    outputs = {}
    for kind, param in (("disk", "radius"), ("cap", "theta0")):
        doc = {"ambient": {"preset": "euclidean_radial"},
               "domain": {"preset": kind, "params": {param: 0.8}},
               "resolution": 0.04, "H": {"constant": 0.55}, "phi": {"constant": 0.0}}
        prob = _write(tmp_path, f"{kind}.json", doc)
        out = tmp_path / kind
        main(["solve", prob, "--out", str(out)])
        capsys.readouterr()
        main(["check", prob])
        check = json.loads(capsys.readouterr().out)
        assert main(["certify", prob, str(out / "solution.csv")]) == 0
        certify = json.loads(capsys.readouterr().out)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for record in (certify, report):
            record.pop("timestamp")
        outputs[kind] = (check, certify, report,
                         (out / "solution.csv").read_text(encoding="utf-8"))
    assert outputs["disk"] == outputs["cap"]
    check = outputs["disk"][0]
    assert check["inf_HK"] == pytest.approx(0.5 / math.tan(0.8), rel=1e-12)


def test_certify_generic_disk(tmp_path, capsys):
    # h 0.04 is the benchmark's mesh-file disk, certified at the default eps
    amb = ck.preset_ambient("killing_flat")
    for h, eps in ((0.06, ["--eps", "0.12"]), (0.04, [])):
        _write(tmp_path, "mesh.json", ck.mesh_to_json(ck.disk_mesh(0.4, h, amb)))
        prob = _write(tmp_path, "problem.json", _mesh_file_doc())
        out = tmp_path / f"run{h}"
        assert main(["solve", prob, "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["certify", prob, str(out / "solution.csv"), *eps])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        for kind in ("height", "boundary_lower", "boundary_upper"):
            assert doc["certificates"][kind]["valid"]


def test_monotonicity_probe_generic_disk(tmp_path):
    # the benchmark's mesh-file disk, relabelled: the probe reads the level
    # curves at 2h and 4h, and the one at 6h, 0.012 from the centre, is
    # not resolved
    amb = ck.preset_ambient("killing_flat")
    disk = ck.disk_mesh(0.4, 0.04, amb)
    rng = np.random.default_rng(3)
    perm = rng.permutation(disk.n_vertices)          # old label -> new label
    verts = np.empty_like(disk.vertices)
    verts[perm] = disk.vertices
    _write(tmp_path, "mesh.json", {
        "vertices": verts.tolist(),
        "triangles": perm[disk.triangles][rng.permutation(disk.n_triangles)].tolist(),
        "boundary": [perm[loop].tolist() for loop in disk.boundary_loops]})
    doc = dict(_mesh_file_doc(), checks=["hypotheses", "monotonicity"])
    prob = _write(tmp_path, "problem.json", doc)
    assert main(["solve", prob, "--out", str(tmp_path / "run")]) == 0
    rep = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    probe = rep["monotonicity"]
    assert probe["monotone"] is True
    for row in probe["rows"][:2]:
        assert row["H_K"] == pytest.approx(1.0 / (2.0 * (0.4 - row["eps"])), rel=0.15)
    assert probe["rows"][2]["skipped"]
    assert probe["rows"][2]["reason"].startswith("no point of the level set at depth")


def _ckgraph_installed():
    try:
        metadata.distribution("ckgraph")
    except metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _ckgraph_installed(),
    reason="no ckgraph distribution is installed; the ckg console script "
           "exists only after `pip install` of ckgraph")
def test_console_script_installed():
    dist = metadata.distribution("ckgraph")
    scripts = [ep for ep in dist.entry_points
               if ep.group == "console_scripts" and ep.name == "ckg"]
    assert [ep.value for ep in scripts] == ["ckgraph.cli:main"]
    # An installed but non-activated venv keeps its scripts off PATH.
    ckg = shutil.which("ckg") or shutil.which(
        "ckg", path=sysconfig.get_path("scripts"))
    assert ckg is not None, "ckg is not on PATH nor in the scripts directory"
    proc = subprocess.run([ckg, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "solve" in proc.stdout


@pytest.mark.parametrize("command", ["check", "certify", "verify"])
def test_closed_stdout_exits_cleanly(solved_run, command):
    # the read end of the child's stdout is closed before it writes, as
    # when `ckg certify ... | head -1` stops reading
    _, prob, out = solved_run
    argv = [sys.executable, "-m", "ckgraph.cli", command, prob]
    if command != "check":
        argv.append(str(out / "solution.csv"))
    env = child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def test_thread_cap_env(tmp_path):
    # No inherited *_NUM_THREADS, so only CKG_THREADS can set the cap;
    # PYTHONPATH points the child at the package this test imported, and
    # the children write no bytecode beside it.
    env = child_env({"PATH": "/usr/bin:/bin:/usr/local/bin",
                     "PYTHONDONTWRITEBYTECODE": "1"})
    prob = _write(tmp_path, "cap.json", _cap_doc(h=0.1))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "ckgraph.cli", "solve", prob, "--out", str(out)],
        capture_output=True, text=True, env={**env, "CKG_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr

    def derived(extra):
        code = ("import os, ckgraph; "
                f"print(','.join(os.environ.get(k, '-') for k in {_THREAD_VARS!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().split(",")

    assert derived({"CKG_THREADS": "3"}) == ["3"] * 4
    # the cap only fills in variables that are not already set
    assert derived({"CKG_THREADS": "3", "OMP_NUM_THREADS": "2"}) == ["2", "3", "3", "3"]
    assert derived({}) == ["-"] * 4


# prints the scipy, jsonschema and numpy.ma modules a child has loaded, after
# running ``main`` on the arguments when it is given any
_MODULE_PROBE = (
    "import io, sys, contextlib; from ckgraph.cli import main\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = main(sys.argv[1:])\n"
    "    print(code)\n"
    "print(sorted(m for m in sys.modules\n"
    "             if m.split('.')[0] == 'scipy' or m.startswith('jsonschema')\n"
    "             or m == 'numpy.ma'))\n")


def _probed_modules_after(argv):
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_cli_import_leaves_unused_scipy_out():
    # Every command imports ckgraph.cli; the package imports neither scipy
    # nor jsonschema (see test_numpy_is_the_only_runtime_dependency), and
    # integer keys are made unique by sorting, so numpy.ma stays out too.
    assert _probed_modules_after([]) == ["[]"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
             for dep in project["dependencies"]]
    assert names == ["numpy"]
    # no module imports a test-only package, at module level or inside a
    # function
    package = os.path.dirname(os.path.abspath(ck.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("scipy", "jsonschema"), \
                    f"{name}:{node.lineno} imports {module}"


def test_check_loads_problem_without_jsonschema(solved_run):
    # check runs load_problem on a valid document, as every command does
    _, prob, _ = solved_run
    assert _probed_modules_after(["check", prob]) == ["0", "[]"]


@pytest.fixture(scope="module")
def solved_mesh_file_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mesh_file")
    amb = ck.preset_ambient("killing_flat")
    # fine enough for the default strip width to hold checkable vertices
    _write(tmp, "mesh.json", ck.mesh_to_json(ck.disk_mesh(0.4, 0.02, amb)))
    prob = _write(tmp, "problem.json", _mesh_file_doc())
    out = tmp / "run"
    assert main(["solve", prob, "--out", str(out)]) == 0
    return prob, str(out / "solution.csv")


@pytest.mark.parametrize("run", ["preset", "mesh_file"])
@pytest.mark.parametrize("command", ["certify", "verify"])
def test_certify_and_verify_run_without_scipy(solved_run, solved_mesh_file_run,
                                              run, command):
    if run == "preset":
        _, prob, out = solved_run
        solution = str(out / "solution.csv")
    else:
        prob, solution = solved_mesh_file_run
    code, modules = _probed_modules_after([command, prob, solution])
    assert code == "0"
    assert modules == "[]"


@pytest.mark.parametrize("run", ["preset", "mesh_file"])
def test_solve_runs_without_scipy(solved_run, solved_mesh_file_run, tmp_path, run):
    # the Newton systems are factored by ckgraph.frontal, on NumPy alone
    prob = solved_run[1] if run == "preset" else solved_mesh_file_run[0]
    code, modules = _probed_modules_after(["solve", prob, "--out", str(tmp_path / "out")])
    assert code == "0"
    assert modules == "[]"


# a child that runs ``main`` on its arguments as many times as it is told,
# with ``gc.freeze`` counting its calls; it prints the freeze count after
# the commands, and an atexit hook registered before them prints the calls
# and whether anything is frozen when it runs
_EXIT_PROBE = (
    "import atexit, contextlib, gc, io, sys\n"
    "freeze = gc.freeze\n"
    "def counted():\n"
    "    counted.calls += 1\n"
    "    freeze()\n"
    "counted.calls = 0\n"
    "gc.freeze = counted\n"
    "atexit.register(lambda: print('at exit', counted.calls, gc.get_freeze_count() > 0))\n"
    "from ckgraph.cli import main\n"
    "for _ in range(int(sys.argv[1])):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        main(sys.argv[2:])\n"
    "print('frozen', gc.get_freeze_count())\n")


def _exit_probe(calls, argv):
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, str(calls), *argv],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_a_command_freezes_the_collector_at_exit(solved_run):
    # the collector's passes at exit skip what is frozen; importing the cli
    # alone freezes nothing, and a hook registered before the command still
    # runs, after the freeze
    _, prob, _ = solved_run
    assert _exit_probe(0, []) == ["frozen 0", "at exit 0 False"]
    assert _exit_probe(1, ["check", prob]) == ["frozen 0", "at exit 1 True"]


def test_in_process_commands_register_one_exit_freeze(solved_run):
    # two commands in one process freeze once, at exit, and nothing before
    _, prob, _ = solved_run
    assert _exit_probe(2, ["check", prob]) == ["frozen 0", "at exit 1 True"]


# -- malformed problem documents (property test) ------------------------------

# Valid documents that together reach every key of the schema.
_VALID_DOCS = [
    {"ambient": {"preset": "killing_flat"},
     "domain": {"preset": "disk", "params": {"radius": 0.4}},
     "resolution": 0.2, "H": {"constant": 1.0}, "phi": {"constant": -0.9},
     "solver": {"newton_tol": 1e-10, "max_newton_iters": 30,
                "initial_tau_step": 0.25, "min_tau_step": 1e-4,
                "damping_factor": 0.5, "max_damping_halvings": 12,
                "clamp_margin": 1e-6},
     "checks": ["hypotheses", "max_principle"], "verify_tolerance": 0.05},
    {"ambient": {"preset": "euclidean_radial"},
     "domain": {"preset": "cap", "params": {"theta0": 1.0}},
     "resolution": 0.3, "H": {"expression": "0*x"},
     "phi": {"expression": "x**2 + y**2"}, "checks": ["monotonicity"]},
    {"ambient": {"custom": {"lam": "exp(t)",
                            "interval_end": "inf", "gamma": "1 + 0*x",
                            "base_metric": "flat"}},
     "domain": {"preset": "annulus", "params": {"r_in": 0.2, "r_out": 0.5}},
     "resolution": 0.15, "H": {"constant": 0.0}, "phi": {"csv": "phi.csv"}},
    {"ambient": {"preset": "example_c"},
     "domain": {"mesh": "mesh.json"}, "H": {"csv": "H.csv"},
     "phi": {"constant": -0.1}},
    {"ambient": {"custom": {"lam": "1/(1 - t)", "interval_end": 1.0,
                            "base_metric": "round_sphere"}},
     "domain": {"preset": "cap", "params": {"theta0": 0.8}},
     "resolution": 0.3, "H": {"constant": 0.0}, "phi": {"constant": -0.2}},
]

_SAMPLE_VALUES = {"null": None, "boolean": True, "integer": 3, "number": 2.5,
                  "string": "x", "array": [], "object": {}}


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _schema_at(path):
    node = PROBLEM_SCHEMA
    for key in path:
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    return node


def _allowed_types(schema):
    if "type" in schema:
        return {"number": {"number", "integer"}}.get(schema["type"], {schema["type"]})
    if "anyOf" in schema:
        return {t for s in schema["anyOf"] for t in _allowed_types(s)}
    values = schema["enum"] if "enum" in schema else [schema["const"]]
    return {_json_type(v) for v in values}


def _nodes(doc, path=()):
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _required(path, node, doc):
    """Keys of the object ``node`` at ``path`` that a valid document needs."""
    need = set(_schema_at(path).get("required", ()))
    if path == () and "preset" in doc["domain"]:
        need.add("resolution")
    if path in (("ambient",), ("domain",)):
        need |= {"preset", "custom", "mesh"}          # the one choice made
    if path == ("domain",):
        need.add("params")
    if path in (("domain", "params"), ("H",), ("phi",)):
        need |= set(node)
    return sorted(need & set(node))


@st.composite
def _mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_DOCS))))
    nodes = list(_nodes(doc))
    kind = draw(st.sampled_from(["wrong_type", "unknown_key", "missing_key"]))
    if kind == "wrong_type":
        path, value = draw(st.sampled_from(nodes[1:]))
        wrong = sorted(set(_SAMPLE_VALUES) - set(_allowed_types(_schema_at(path))))
        new = _SAMPLE_VALUES[draw(st.sampled_from(wrong))]
    else:
        objects = [(p, n) for p, n in nodes if isinstance(n, dict)]
        if kind == "missing_key":
            objects = [(p, n) for p, n in objects if _required(p, n, doc)]
        parent, node = draw(st.sampled_from(objects))
        if kind == "unknown_key":
            known = set(_schema_at(parent).get("properties", ()))
            key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in known))
            node[key] = draw(st.sampled_from(list(_SAMPLE_VALUES.values())))
            return kind, doc
        del node[draw(st.sampled_from(_required(parent, node, doc)))]
        return kind, doc
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return kind, doc


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    """Directory holding the mesh and CSV files that the valid documents name."""
    tmp = tmp_path_factory.mktemp("mutations")
    amb = ck.preset_ambient("killing_flat")
    disk = ck.disk_mesh(0.3, 0.15, amb)
    _write(tmp, "mesh.json", ck.mesh_to_json(disk))
    ScalarField.constant(disk, 0.5).to_csv(tmp / "H.csv")
    annulus = ck.annulus_mesh(0.2, 0.5, 0.15, amb)
    ScalarField.constant(annulus, -0.3).to_csv(tmp / "phi.csv")
    return tmp


@pytest.mark.parametrize("index", range(len(_VALID_DOCS)))
def test_mutation_base_documents_are_valid(mutation_dir, index):
    path = _write(mutation_dir, f"valid{index}.json", _VALID_DOCS[index])
    ck.load_problem(path)


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_schema_errors_match_jsonschema(mutation):
    # the in-package interpreter of PROBLEM_SCHEMA against the reference
    # implementation: the same decision and the same error paths
    jsonschema = pytest.importorskip("jsonschema")
    _, doc = mutation
    validator = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
    expected = {e.json_path for e in validator.iter_errors(doc)}
    found = {path for path, _ in _schema_errors(doc, PROBLEM_SCHEMA)}
    assert bool(found) == (not validator.is_valid(doc))
    assert found == expected, doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_documents())
def test_malformed_problem_document_exit_1(mutation_dir, capsys, mutation):
    kind, doc = mutation
    prob = _write(mutation_dir, "mutated.json", doc)
    for argv in (["check", prob], ["solve", prob, "--out", str(mutation_dir / "run")]):
        capsys.readouterr()
        assert main(argv) == 1, (kind, doc)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert re.search(r"\$[.:\[]", err), (kind, err)


@pytest.mark.parametrize("ambient, phi, lam", [
    ({"custom": {"lam": "1 + t/10"}}, -11.0, "-0.10000000000000009"),
    ({"preset": "euclidean_radial"}, -800.0, "0.0"),
], ids=["negative", "underflow"])
def test_boundary_data_where_lambda_is_not_positive_exit_1(tmp_path, capsys,
                                                            ambient, phi, lam):
    # lambda = 1 + t/10 is negative at t = -11 (the solve converged there),
    # and e^t underflows to 0 at t = -800 (the solve stalled on 0/0 rates)
    doc = _cap_doc(h=0.1, phi=phi)
    doc["ambient"] = ambient
    prob = _write(tmp_path, "problem.json", doc)
    for command in (["check", prob], ["solve", prob, "--out", str(tmp_path / "run")]):
        capsys.readouterr()
        assert main(command) == 1
        assert capsys.readouterr().err == (
            "error: $.phi: lambda is not positive at boundary vertex 37: "
            f"phi = {phi!r}, lambda = {lam}\n")


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_solution_beyond_interval_end_exit_1(tmp_path, capsys, command):
    # example_b's flow interval ends at t = 1, where lambda = 1/(1 - t) blows up
    doc = _cap_doc(h=0.1, H=0.5, phi=-0.5)
    doc["ambient"] = {"preset": "example_b"}
    prob = _write(tmp_path, "b.json", doc)
    out = tmp_path / "run"
    assert main(["solve", prob, "--out", str(out)]) == 0
    lines = (out / "solution.csv").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "beyond.csv"
    bad.write_text("\n".join(_with_cell(lines, 1, 3, "2.0")) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([command, prob, str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: vertex 0 value 2.0 reaches the interval end 1.0\n")
