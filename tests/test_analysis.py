import json
import math
from dataclasses import replace

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.analysis import (RHO_T_ROUNDING, _distance_geometry, boundary_barrier,
                              boundary_normal_slope, check_hypotheses,
                              cylinder_mean_curvature,
                              cylinder_monotonicity_probe, flow_time_range,
                              height_barrier, level_curves,
                              max_principle_conditions, search_boundary_barrier,
                              search_height_barrier, sigma_diameter,
                              upper_barrier_check)
from ckgraph.errors import ParameterError
from ckgraph.expressions import compile_flow_derivatives
from ckgraph.fields import ScalarField
from ckgraph.problemfile import load_problem_document


# -- hypothesis checker -----------------------------------------------------


def test_cmc_cap_all_pass(cmc_problem):
    rep = check_hypotheses(cmc_problem)
    assert rep.passed
    assert rep.inf_HK == pytest.approx(1.25, abs=1e-6)
    assert rep.get("H_below_inf_HK").margin == pytest.approx(0.25, abs=1e-6)
    assert rep.get("ricci_simple").margin == pytest.approx(3.125, abs=1e-9)
    json.dumps(rep.to_json())     # serializable


def test_excess_curvature_fails():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.08, amb)
    prob = ck.Problem.create(amb, mesh, 1.3, -0.5)
    rep = check_hypotheses(prob)
    cond = rep.get("H_below_inf_HK")
    assert not cond.passed
    assert cond.margin == pytest.approx(-0.05, abs=1e-6)
    assert not rep.passed


def test_positive_phi_fails():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.08, amb)
    phi = np.zeros(mesh.n_vertices)
    phi[mesh.boundary_vertices] = 0.2
    prob = ck.Problem.create(amb, mesh, 0.5, phi)
    rep = check_hypotheses(prob)
    cond = rep.get("phi_nonpos")
    assert not cond.passed
    assert cond.margin == pytest.approx(-0.2, abs=1e-14)


def test_example_a_rate_margins():
    amb = ck.preset_ambient("example_a")
    mesh = ck.disk_mesh(0.4, 0.08, amb)
    prob = ck.Problem.create(amb, mesh, 0.1, -0.3)
    rep = check_hypotheses(prob)
    # lambda = e^t: the rate margin is the smallest sampled e^t > 0
    assert rep.get("lambda_t_nonneg").margin > 0
    assert rep.get("rho_t_nonneg").margin == pytest.approx(0.0, abs=1e-12)
    assert rep.get("rho_t_nonneg").passed


def test_example_b_rho_t_margin():
    amb = ck.preset_ambient("example_b")
    mesh = ck.disk_mesh(0.3, 0.08, amb)
    prob = ck.Problem.create(amb, mesh, 0.0, -0.5)
    rep = check_hypotheses(prob)
    m = rep.get("rho_t_nonneg").margin
    # min over the sampled range of 1/(1-t)^2, reached at the lowest t
    assert m > 0
    assert m == pytest.approx(1.0 / (1.0 - (-1.5)) ** 2, rel=1e-3)


def test_ricci_agreement_constant_curvature(radial_problem, cmc_problem):
    # constant gamma + constant base curvature: the refined check and the
    # leaf-based check coincide
    for prob in (cmc_problem, radial_problem):
        rep = check_hypotheses(prob)
        a = rep.get("ricci_refined")
        b = rep.get("ricci_corollary3")
        assert a.evaluable and b.evaluable
        assert a.passed == b.passed
        assert a.margin == pytest.approx(b.margin, abs=1e-10)


_RICCI = ("ricci_simple", "ricci_refined", "ricci_corollary3")


def test_custom_ambient_takes_leaf_curvature_from_metric(radial_problem):
    # exp(t) on the round leaf is euclidean_radial, and no key declares the
    # leaf curvature: the Ricci entries agree
    doc = {"ambient": {"custom": {"lam": "exp(t)", "base_metric": "round_sphere"}},
           "domain": {"preset": "cap", "params": {"theta0": 1.0}},
           "resolution": 0.1, "H": {"constant": 0.0}, "phi": {"constant": 0.0}}
    custom = check_hypotheses(load_problem_document(doc).problem)
    preset = check_hypotheses(radial_problem)
    assert custom.get("ricci_corollary3").note == "Ric_leaf_rad=1.0"
    for name in _RICCI:
        a, b = custom.get(name), preset.get(name)
        assert a.evaluable and b.evaluable
        assert a.margin == pytest.approx(b.margin, rel=0, abs=1e-12)
        assert a.passed == b.passed


def test_monotone_in_H():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.08, amb)
    margins = []
    for hval in (0.5, 1.0, 1.2, 1.3, 2.0):
        prob = ck.Problem.create(amb, mesh, hval, -0.5)
        margins.append(check_hypotheses(prob).get("H_below_inf_HK").margin)
    assert all(b <= a for a, b in zip(margins, margins[1:]))


# -- height barrier ---------------------------------------------------------


def test_height_barrier_boundary_value(cmc_problem):
    barrier, cert = height_barrier(cmc_problem, 2.0, 0.81)
    bv = cmc_problem.mesh.boundary_vertices
    phi_inf = cmc_problem.phi[bv].min()
    assert np.abs(barrier.values[bv] - phi_inf).max() == 0.0   # f(0) = 0
    # strictly decreasing in the distance
    order = np.argsort(cmc_problem.mesh.dist_to_boundary)
    d_sorted = cmc_problem.mesh.dist_to_boundary[order]
    b_sorted = barrier.values[order]
    inc = np.diff(d_sorted) > 1e-12
    assert np.all(np.diff(b_sorted)[inc] < 0)


def test_height_barrier_requires_large_B(cmc_problem):
    with pytest.raises(ParameterError):
        height_barrier(cmc_problem, 2.0, 0.5)    # below the diameter 0.8


def test_height_barrier_search_and_ordering(cmc_problem, cmc_solution):
    barrier, cert = search_height_barrier(cmc_problem, cmc_solution.solution)
    assert cert.valid
    assert cert.min_margin > 0
    assert cert.ordering_ok
    tol = 10 * cmc_problem.mesh.h**2
    assert np.all(cmc_solution.solution.values >= barrier.values - tol)
    json.dumps(cert.to_json())


def test_height_barrier_overflow_guarded(cmc_problem):
    with pytest.raises(ParameterError):
        height_barrier(cmc_problem, 2.0**20, 0.81)


# -- boundary barriers ------------------------------------------------------


def test_boundary_barrier_boundary_value(cmc_problem):
    barrier, cert = boundary_barrier(cmc_problem, 10.0, 1.0, 0.05)
    bv = cmc_problem.mesh.boundary_vertices
    assert np.abs(barrier.values[bv] - cmc_problem.phi[bv]).max() < 1e-14


def test_boundary_slope_diverges_with_mu():
    # |f'(0)| = c mu / ln(1 + mu) grows without bound
    slopes = [1.0 * mu / math.log1p(mu) for mu in (10.0**j for j in range(7))]
    assert all(b > a for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] > 1e4


def test_boundary_barrier_certificates(cmc_problem, cmc_solution):
    z = cmc_solution.solution
    lower, cl = search_boundary_barrier(cmc_problem, z, eps=0.05)
    upper, cu = search_boundary_barrier(cmc_problem, z, eps=0.05, upper=True)
    assert cl.valid and cu.valid
    assert cl.min_margin > 0 and cu.min_margin > 0
    assert cl.gradient_bound > 0
    # the solved boundary slope lies in the two-sided bracket
    slopes = boundary_normal_slope(cmc_problem, z)
    assert np.abs(slopes).max() <= cl.gradient_bound + 1.0


def test_upper_barrier_traps_zero():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.05, amb)
    prob = ck.Problem.create(amb, mesh, 0.0, 0.0)
    z = ScalarField.constant(mesh, 0.0)
    _, cl = boundary_barrier(prob, 10.0, 1.0, 0.05, z)
    _, cu = upper_barrier_check(prob, 10.0, 1.0, 0.05, z)
    assert cl.valid and cu.valid


def test_empty_strip_rejected(cmc_problem):
    with pytest.raises(ParameterError):
        boundary_barrier(cmc_problem, 10.0, 1.0, 1e-9)


# -- comparison -------------------------------------------------------------


def test_comparison_shifted_data(cmc_problem, cmc_solution):
    amb, mesh = cmc_problem.ambient, cmc_problem.mesh
    prob2 = ck.Problem.create(amb, mesh, 1.0, cmc_problem.phi + 0.05)
    rep2 = ck.continuation_solve(prob2)
    assert rep2.status == "converged"
    # higher boundary data, higher solution, up to the discretization
    diff = rep2.solution.values - cmc_solution.solution.values
    assert diff.min() >= -10 * mesh.h**2


# -- monotonicity probe -----------------------------------------------------


def test_probe_flat_disk_closed_form(cmc_problem):
    out = cylinder_monotonicity_probe(cmc_problem, [0.05, 0.1, 0.15])
    assert out["monotone"]
    for row, eps in zip(out["rows"], (0.05, 0.1, 0.15)):
        assert not row["skipped"]
        assert row["H_K"] == pytest.approx(1.0 / (2.0 * (0.4 - eps)), abs=1e-6)
    vals = [r["H_K"] for r in out["rows"]]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_probe_annulus():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.annulus_mesh(0.3, 0.7, 0.07, amb)
    prob = ck.Problem.create(amb, mesh, 0.0, -0.1)
    out = cylinder_monotonicity_probe(prob, [0.05, 0.1])
    assert out["monotone"]
    for row, eps in zip(out["rows"], (0.05, 0.1)):
        assert row["H_K"] == pytest.approx(-1.0 / (2.0 * (0.3 + eps)), abs=1e-6)


def test_probe_cap_constant_curvature(radial_problem):
    out = cylinder_monotonicity_probe(radial_problem, [0.1, 0.2])
    assert out["monotone"]
    for row, eps in zip(out["rows"], (0.1, 0.2)):
        assert row["H_K"] == pytest.approx(0.5 / math.tan(1.0 - eps), abs=1e-6)


def test_probe_preset_includes_flow_curvature():
    # with gamma = 1 + 0.8 x the flow contributes kappa to H_K: as the depth
    # goes to 0 the probe tends to the boundary infimum, which includes it
    amb = replace(
        ck.preset_ambient("killing_flat"),
        gamma=lambda u: 1.0 + 0.8 * np.asarray(u, dtype=float)[..., 0],
        grad_gamma=lambda u: np.stack(
            [np.full(np.asarray(u).shape[:-1], 0.8),
             np.zeros(np.asarray(u).shape[:-1])], axis=-1))
    prob = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.02, amb), 0.5, -0.5)
    depths = [1e-2, 1e-3, 1e-4, 1e-6]
    out = cylinder_monotonicity_probe(prob, depths)
    inf_hk = out["inf_HK_boundary"]
    gaps = [abs(row["H_K"] - inf_hk) for row in out["rows"]]
    assert all(g <= 5.0 * eps for g, eps in zip(gaps, depths))
    assert gaps[-1] < 1e-5
    # kappa = eta(log sqrt(gamma)) is negative where gamma grows outward
    assert inf_hk < 1.0 / (2.0 * 0.4)


def test_probe_skips_excessive_depth(cmc_problem):
    out = cylinder_monotonicity_probe(cmc_problem, [0.1, 0.9])
    assert not out["rows"][0]["skipped"]
    assert out["rows"][1]["skipped"]


# -- generic meshes -----------------------------------------------------------


def _generic(mesh, amb):
    return ck.mesh_from_arrays(mesh.vertices, mesh.triangles,
                               mesh.boundary_loops, amb)


@pytest.fixture(scope="module")
def generic_disk():
    """The cap problem on a generic copy of disk_mesh(0.4, 0.04), solved."""
    amb = ck.preset_ambient("killing_flat")
    mesh = _generic(ck.disk_mesh(0.4, 0.04, amb), amb)
    prob = ck.Problem.create(amb, mesh, 1.0, -math.sqrt(0.84))
    report = ck.continuation_solve(prob)
    assert report.status == "converged"
    return prob, report.solution


def test_probe_generic_disk(generic_disk):
    prob, _ = generic_disk
    depths = [0.08, 0.16]                         # 2h and 4h at h = 0.04
    out = cylinder_monotonicity_probe(prob, depths)
    assert out["monotone"]
    for row, eps in zip(out["rows"], depths):
        assert not row["skipped"]
        assert len(row["components"]) == 1
        assert row["H_K"] == pytest.approx(1.0 / (2.0 * (0.4 - eps)), rel=0.1)


def test_probe_generic_annulus():
    amb = ck.preset_ambient("killing_flat")
    mesh = _generic(ck.annulus_mesh(0.3, 0.7, 0.05, amb), amb)
    prob = ck.Problem.create(amb, mesh, 0.0, -0.1)
    row = cylinder_monotonicity_probe(prob, [0.1])["rows"][0]
    inner, outer = sorted(row["components"])
    assert inner < 0
    assert outer == pytest.approx(1.0 / (2.0 * (0.7 - 0.1)), rel=0.1)
    assert row["H_K"] == inner


def test_height_barrier_search_generic(generic_disk):
    prob, z = generic_disk
    barrier, cert = search_height_barrier(prob, z)
    assert cert.valid and cert.ordering_ok
    assert cert.min_margin > 0
    # the recovered distance derivatives are computed once per problem
    assert prob.distance_recovery() is prob.distance_recovery()


def test_search_error_names_each_reason_once(cmc_problem):
    with pytest.raises(ParameterError) as info:
        search_boundary_barrier(cmc_problem, eps=1e-6)
    msg = str(info.value)
    assert msg.count("tubular strip is empty") == 1
    assert "at eps = 1e-06" in msg


def test_empty_strip_stops_before_any_candidate(generic_disk, monkeypatch):
    # the strip does not depend on (mu, c): it is built before the first one
    import ckgraph.analysis as analysis
    prob, z = generic_disk
    calls, lower = [], analysis.boundary_barrier
    monkeypatch.setattr(analysis, "boundary_barrier",
                        lambda *args: calls.append(args) or lower(*args))
    with pytest.raises(ParameterError) as info:
        search_boundary_barrier(prob, z, eps=1e-6)
    assert str(info.value) == "tubular strip is empty at eps = 1e-06"
    assert calls == []


# problems whose boundary strip at eps = 0.05 lies in the boundary 1-ring:
# (ambient, mesh, H, phi)
def _disk_xy():
    # non-constant data: the recovered derivatives of its extension count
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.04, amb)
    x, y = mesh.vertices.T
    return amb, mesh, 1.0, -0.9 + 0.2 * x * y


def _generic_annulus():
    amb = ck.preset_ambient("killing_flat")
    return amb, _generic(ck.annulus_mesh(0.3, 0.7, 0.05, amb), amb), 0.0, -0.1


def _generic_cap():
    # the radial graph's exact data; the preset cap's lower margin is 0.192
    amb = ck.preset_ambient("euclidean_radial")
    mesh = _generic(ck.cap_mesh(1.0, 0.05, amb), amb)
    r = np.hypot(*mesh.vertices.T)
    return amb, mesh, 0.0, -np.log(np.cos(r)) + math.log(math.cos(1.0))


@pytest.mark.parametrize("build", [_disk_xy, _generic_annulus, _generic_cap],
                         ids=["disk_xy", "generic_annulus", "generic_cap"])
def test_boundary_certificates_at_the_default_eps(build):
    prob = ck.Problem.create(*build())
    report = ck.continuation_solve(prob)
    assert report.status == "converged"
    # min margins, lower / upper: 0.0569 / 2.13, 0.747 / 0.747 and 0.181 / 2.42
    for upper in (False, True):
        _, cert = search_boundary_barrier(prob, report.solution, eps=0.05, upper=upper)
        assert cert.valid and cert.ordering_ok


def test_candidate_independent_work_done_once(monkeypatch):
    import ckgraph.analysis as analysis
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.04, amb)
    x, y = mesh.vertices.T
    prob = ck.Problem.create(amb, mesh, 1.0, -0.9 + 0.2 * x * y)
    recoveries, candidates = [], []
    recover = analysis.recover_gradient_hessian
    monkeypatch.setattr(analysis, "recover_gradient_hessian",
                        lambda *args: recoveries.append(1) or recover(*args))
    for name in ("boundary_barrier", "upper_barrier_check"):
        monkeypatch.setattr(analysis, name, lambda *args, fn=getattr(analysis, name):
                            candidates.append(1) or fn(*args))
    # a large z span makes the first candidates too weak
    z = ScalarField(mesh, -0.9 + 2.0 * (0.16 - x**2 - y**2))
    for upper in (False, True):
        try:
            search_boundary_barrier(prob, z, eps=0.12, upper=upper)
        except ParameterError:
            pass
    assert len(candidates) > 2
    assert len(recoveries) == 1          # phi_ext's derivatives, once
    assert prob.boundary_extension() is prob.boundary_extension()


def test_max_principle_conditions():
    amb = ck.preset_ambient("example_b")
    mesh = ck.disk_mesh(0.3, 0.1, amb)
    prob = ck.Problem.create(amb, mesh, 0.5, -1.0)
    rep = max_principle_conditions(prob)
    assert rep.passed
    assert rep.rho_t_margin > 0
    # the flow times and rho_t values of the hypothesis check
    assert rep.t_range == (-2.0, 0.01) == flow_time_range(prob)
    assert rep.rho_t_margin == check_hypotheses(prob).get("rho_t_nonneg").margin
    neg = max_principle_conditions(ck.Problem.create(amb, mesh, -0.5, -1.0))
    assert not neg.passed


# -- preset closed forms against the generic estimates ------------------------


_POLAR_BUILDS = {"disk": lambda h, a: ck.disk_mesh(0.8, h, a),
                 "cap": lambda h, a: ck.cap_mesh(0.8, h, a),
                 "annulus": lambda h, a: ck.annulus_mesh(0.3, 0.9, h, a)}


@pytest.mark.parametrize("ambient", ["killing_flat", "euclidean_radial"])
@pytest.mark.parametrize("kind", sorted(_POLAR_BUILDS))
def test_preset_closed_forms_match_generic_estimates(kind, ambient):
    amb = ck.preset_ambient(ambient)
    h = 0.02
    mesh = _POLAR_BUILDS[kind](h, amb)
    generic = _generic(mesh, amb)
    # boundary circles: closed form against the polyline's geodesic curvature
    closed = level_curves(mesh, amb, 0.0)
    estimate = level_curves(generic, amb, 0.0)
    for (pts, _, hg), (pts_g, _, hg_g) in zip(closed, estimate, strict=True):
        assert np.array_equal(pts, pts_g)
        assert np.abs(hg - hg_g).max() <= 1e-3
    # parallel circle at depth 4h, a ring of the spider web, against the
    # discrete level curve (10-12% off on the annulus, whose inner circle
    # is concave; the flat and round closed forms of the disk differ by 22%)
    def inf_hk(curves):
        return min(float(np.min(cylinder_mean_curvature(amb, *curve))) for curve in curves)
    assert inf_hk(level_curves(generic, amb, 4 * h)) == pytest.approx(
        inf_hk(level_curves(mesh, amb, 4 * h)), rel=0.15)
    # distance derivatives in the strip d < 8h the barriers use, 3h or more
    # from the cut locus, where the recovery is confident: about 6% of the
    # Hessian's size on the disk and 9% on the annulus
    grad, hess, usable = _distance_geometry(ck.Problem.create(amb, mesh, 0.0, 0.0), False)
    grad_g, hess_g, conf = _distance_geometry(ck.Problem.create(amb, generic, 0.0, 0.0),
                                              False)
    r = np.linalg.norm(mesh.vertices, axis=1)
    cut = np.abs(r - 0.6) if kind == "annulus" else r
    sel = usable & conf & (cut > 3 * h) & (mesh.dist_to_boundary < 8 * h)
    assert np.count_nonzero(sel) > 1000
    assert np.abs(grad - grad_g)[sel].max() <= 1e-2
    assert np.abs(hess - hess_g)[sel].max() <= 0.15 * np.abs(hess[sel]).max()


# -- helpers ----------------------------------------------------------------


def test_sigma_diameter_presets(cmc_problem, radial_problem):
    assert sigma_diameter(cmc_problem.mesh, cmc_problem.ambient) == 0.8
    assert sigma_diameter(radial_problem.mesh, radial_problem.ambient) == 2.0


# -- report records -------------------------------------------------------------


def test_record_json_keys(cmc_problem, cmc_solution):
    # the keys of every record's to_json are a contract of the reports
    rep = check_hypotheses(cmc_problem).to_json()
    assert set(rep) == {"conditions", "inf_HK", "inf_HGamma", "passed"}
    for cond in rep["conditions"]:
        assert set(cond) == {"name", "inequality", "margin", "passed",
                             "evaluable", "note"}
    cert_keys = {"kind", "params", "min_margin", "margin_location", "ordering_ok",
                 "worst_ordering_violation", "skipped", "valid", "gradient_bound",
                 "note"}
    z = cmc_solution.solution
    _, height = search_height_barrier(cmc_problem, z)
    _, lower = search_boundary_barrier(cmc_problem, z, eps=0.05)
    for cert in (height, lower):
        assert set(cert.to_json()) == cert_keys
    assert set(height.to_json()["params"]) == {"D", "B"}
    assert set(lower.to_json()["params"]) == {"mu", "mu_tilde", "c", "eps"}
    mp = max_principle_conditions(cmc_problem)
    assert set(mp.to_json()) == {"rho_t_margin", "lambda_t_H_margin", "t_range",
                                 "samples", "passed"}
    assert set(cmc_solution.newton_history[0].to_json()) == {
        "tau", "iter", "residual_norm", "step_norm", "damping_halvings"}
    json.dumps([rep, height.to_json(), lower.to_json(), mp.to_json()])


# -- non-finite margins -----------------------------------------------------------


def test_nonfinite_margin_rejected_with_its_own_reason(recwarn):
    # lambda = e^t underflows under a steep height barrier on the cap; the
    # jets of log(1*exp(t)), which no rewrite simplifies, are 0/0 there: the
    # candidate is rejected for that, not for the ordering, which holds
    rho, rho_t = compile_flow_derivatives("log(1*exp(t))")
    amb = replace(ck.preset_ambient("euclidean_radial"), rho=rho, rho_t=rho_t)
    mesh = ck.cap_mesh(1.0, 0.05, amb)
    r = np.linalg.norm(mesh.vertices, axis=1)
    zex = -np.log(np.cos(r)) + np.log(np.cos(1.0))
    prob = ck.Problem.create(amb, mesh, 0.0, zex)
    B = 1.01 * sigma_diameter(mesh, amb)
    _, cert = height_barrier(prob, 8.0, B, ScalarField(mesh, zex))
    assert not cert.valid and cert.ordering_ok
    assert math.isnan(cert.min_margin)
    checked = mesh.triangles.shape[0] - cert.skipped
    assert cert.note == f"margin not finite at {checked} of {checked} checked points"
    assert len(recwarn) == 0


@pytest.mark.parametrize("D", [4.0, 8.0])
def test_preset_rho_keeps_steep_height_margins_finite(D):
    # the same cap on the preset, whose rho = lambda_t/lambda is 1 in closed
    # form: lambda's underflow no longer makes the margin 0/0
    amb = ck.preset_ambient("euclidean_radial")
    mesh = ck.cap_mesh(1.0, 0.05, amb)
    r = np.linalg.norm(mesh.vertices, axis=1)
    zex = -np.log(np.cos(r)) + np.log(np.cos(1.0))
    prob = ck.Problem.create(amb, mesh, 0.0, zex)
    B = 1.01 * sigma_diameter(mesh, amb)
    _, cert = height_barrier(prob, D, B, ScalarField(mesh, zex))
    assert math.isfinite(cert.min_margin) and cert.note == ""
    assert cert.valid and cert.ordering_ok


def _annulus_height_search_message(lam):
    from ckgraph.problemfile import load_problem_document
    doc = {"ambient": {"custom": {"lam": lam, "gamma": "1 + 0.2*x*x"}},
           "domain": {"preset": "annulus", "params": {"r_in": 0.2, "r_out": 0.5}},
           "resolution": 0.03, "H": {"constant": 0.3},
           "phi": {"expression": "-0.5 + 0.1*x"}}
    prob = load_problem_document(doc).problem
    with pytest.raises(ParameterError) as info:
        search_height_barrier(prob)
    return str(info.value)


def test_exhausted_search_leaves_nonfinite_margins_out(recwarn):
    # lambda = 1*exp(t) underflows under the steep candidates, where the
    # jets of log lambda are 0/0
    msg = _annulus_height_search_message("1*exp(t)")
    assert "min_margin <= 0 [4 candidates, D = 1 .. D = 8]; margin not finite at " in msg
    assert "checked points [4 candidates, D = 16 .. D = 128]; exp(D*B)" in msg
    # the largest finite margin, D = 8's, whatever the order of the candidates
    assert msg.endswith("; largest min_margin -4.77339")
    assert len(recwarn) == 0


def test_custom_exp_keeps_steep_height_margins_finite(recwarn):
    # lambda = exp(t): rho is the jet of log(exp(t)) = t, finite where
    # lambda underflows, so every candidate up to D = 128 has a margin
    msg = _annulus_height_search_message("exp(t)")
    assert "min_margin <= 0 [8 candidates, D = 1 .. D = 128]; exp(D*B)" in msg
    assert "not finite" not in msg
    assert msg.endswith("; largest min_margin -4.77272")
    assert len(recwarn) == 0


# -- lambda derivatives from the expression's jets ----------------------------------


@pytest.mark.parametrize("lam, passes", [("exp(t)", True), ("exp(t - t**2/2)", False)],
                         ids=["exp(t)-True-exact", "exp(t - t**2/2)-False-exact"])
def test_rho_t_checks_with_and_without_derivatives(lam, passes):
    # rho_t is 0 for exp(t) and -1 for exp(t - t^2/2); with lam alone the
    # exact derivatives come from its jets, and neither check fails the
    # first or passes the second
    from ckgraph.problemfile import load_problem_document
    doc = {"ambient": {"custom": {"lam": lam}},
           "domain": {"preset": "disk", "params": {"radius": 0.4}},
           "resolution": 0.08, "H": {"constant": 1.0}, "phi": {"constant": -0.5}}
    prob = load_problem_document(doc).problem
    cond = check_hypotheses(prob).get("rho_t_nonneg")
    assert cond.passed is passes
    if passes:
        assert abs(cond.margin) <= RHO_T_ROUNDING
    assert cond.note == ""
    report = max_principle_conditions(prob)
    assert report.passed is passes


def test_both_rho_t_checks_share_the_rounding_allowance():
    # rho_t, the jet of log(exp(t)*exp(2*t)), is 9 - 9 with rounding:
    # -5.3e-15 at some flow times, which both checks pass, on the same margin
    from ckgraph.problemfile import load_problem_document
    doc = {"ambient": {"custom": {"lam": "exp(t)*exp(2*t)"}},
           "domain": {"preset": "disk", "params": {"radius": 0.4}},
           "resolution": 0.05, "H": {"constant": 1.0}, "phi": {"constant": -0.5}}
    prob = load_problem_document(doc).problem
    cond = check_hypotheses(prob).get("rho_t_nonneg")
    report = max_principle_conditions(prob)
    assert -RHO_T_ROUNDING <= cond.margin < 0
    assert report.rho_t_margin == cond.margin
    assert cond.passed and report.passed
