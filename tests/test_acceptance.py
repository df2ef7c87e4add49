"""Acceptance gate: one test per top-level criterion, each printing a
single PASS/FAIL line."""

import math
import time

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.analysis import (check_hypotheses, cylinder_monotonicity_probe,
                              search_boundary_barrier, search_height_barrier)
from ckgraph.solver import newton_solve


def _verdict(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def _solve_sequence(make_problem, exact_of, levels):
    errors, hs, times, reports = [], [], [], []
    for h in levels:
        t0 = time.time()
        prob = make_problem(h)
        rep = ck.continuation_solve(prob)
        times.append(time.time() - t0)
        assert rep.status == "converged"
        errors.append(float(np.abs(rep.solution.values
                                   - exact_of(prob.mesh)).max()))
        hs.append(prob.mesh.h)
        reports.append((prob, rep))
    return errors, hs, times, reports


def _cap_problem(h):
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, h, amb)
    return ck.Problem.create(amb, mesh, 1.0, -math.sqrt(0.84))


def _cap_exact(mesh):
    r = np.linalg.norm(mesh.vertices, axis=1)
    return -np.sqrt(1.0 - r**2)


def _radial_problem(h):
    amb = ck.preset_ambient("euclidean_radial")
    mesh = ck.cap_mesh(1.0, h, amb)
    return ck.Problem.create(amb, mesh, 0.0, _radial_exact(mesh))


def _radial_exact(mesh):
    r = np.linalg.norm(mesh.vertices, axis=1)
    return -np.log(np.cos(r)) + math.log(math.cos(1.0))


@pytest.fixture(scope="module")
def cap_sequence():
    return _solve_sequence(_cap_problem, _cap_exact, (0.08, 0.04, 0.02))


@pytest.fixture(scope="module")
def radial_sequence():
    return _solve_sequence(_radial_problem, _radial_exact, (0.2, 0.1, 0.05))


def test_criterion_1_cmc_cap_oracle(cap_sequence):
    errors, hs, times, _ = cap_sequence
    order = math.log2(errors[0] / errors[2]) / 2.0
    ok = errors[2] <= 5e-3 and order >= 1.9 and max(times) <= 60.0
    _verdict(1, ok, f"max error {errors[2]:.2e} (bar 5e-3), observed order "
                    f"{order:.2f} (bar 1.9), worst level {max(times):.1f}s")


def test_criterion_2_radial_minimal_oracle(radial_sequence):
    errors, hs, times, _ = radial_sequence
    order = math.log2(errors[0] / errors[2]) / 2.0
    ok = errors[2] <= 5e-3 and order >= 1.9 and max(times) <= 60.0
    _verdict(2, ok, f"max error {errors[2]:.2e} (bar 5e-3), observed order "
                    f"{order:.2f} (bar 1.9), worst level {max(times):.1f}s")


def test_criterion_3_continuation_fidelity(cap_sequence, radial_sequence):
    path_ok = True
    for _, _, _, reports in (cap_sequence, radial_sequence):
        for prob, rep in reports:
            path_ok &= rep.tau_path[-1] == 1.0
            _, records, _, _, _ = newton_solve(prob, 0.0,
                                               np.zeros(prob.mesh.n_vertices))
            path_ok &= len(records) <= 1
    # Jacobian against directional finite differences on random states
    rng = np.random.default_rng(42)
    worst = 0.0
    for prob in (_cap_problem(0.08), _radial_problem(0.2)):
        asm = prob.assembly()
        ii = asm.interior
        for _ in range(10):
            z = 0.3 * rng.standard_normal(prob.mesh.n_vertices)
            tau = rng.uniform(0.0, 1.0)
            J, _ = asm.system(asm.residual(z, tau)[1])
            d = rng.standard_normal(prob.mesh.n_vertices)
            d[prob.mesh.boundary_vertices] = 0.0
            eps = 1e-6
            fd = (asm.residual(z + eps * d, tau)[0]
                  - asm.residual(z - eps * d, tau)[0]) / (2 * eps)
            jd = J @ d[ii]
            worst = max(worst, float(np.abs(fd - jd).max()
                                     / max(np.abs(jd).max(), 1e-12)))
    ok = path_ok and worst < 1e-6
    _verdict(3, ok, f"tau paths reach 1, trivial stage needs no iteration, "
                    f"Jacobian-vs-FD relative error {worst:.2e} (bar 1e-6)")


def test_criterion_4_height_estimate_shadow(radial_sequence):
    errors, hs, times, reports = radial_sequence
    viol = []
    for prob, rep in reports:
        sup_phi = float(prob.phi[prob.mesh.boundary_vertices].max())
        viol.append(float(max(0.0, (rep.solution.values - sup_phi).max())))
    C = max(viol[0] / reports[0][0].mesh.h**2, 1.0)    # calibrated, then fixed
    ok = all(v <= C * p.mesh.h**2 for v, (p, _) in zip(viol, reports))
    _verdict(4, ok, f"z <= sup phi + C h^2 with C = {C:.2f}; worst excess "
                    f"{max(viol):.2e}")


def test_criterion_5_comparison_shadow(cap_sequence):
    _, _, _, reports = cap_sequence
    prob, rep = reports[1]                              # the h = 0.04 level
    amb, mesh = prob.ambient, prob.mesh
    prob2 = ck.Problem.create(amb, mesh, 1.0, prob.phi + 0.05)
    rep2 = ck.continuation_solve(prob2)
    # higher data, higher solution: z1 <= z2 up to the discretization
    worst = float(min((rep2.solution.values - rep.solution.values).min(), 0.0))
    ordered = worst >= -10.0 * mesh.h**2
    barrier, _ = search_height_barrier(prob)
    za, *_ = newton_solve(prob, 1.0, prob.phi.copy())
    zb, *_ = newton_solve(prob, 1.0, barrier.values.copy())
    agree = float(np.abs(za - zb).max())
    ok = ordered and agree <= 1e-8
    _verdict(5, ok, f"shifted data ordered (z1 <= z2 + 10 h^2, worst violation "
                    f"{worst:.1e}); two initializations agree "
                    f"to {agree:.1e} (bar 1e-8)")


def test_criterion_6_barrier_certificates(cap_sequence):
    _, _, _, reports = cap_sequence
    prob, rep = reports[1]
    z = rep.solution
    _, ch = search_height_barrier(prob, z)
    _, cl = search_boundary_barrier(prob, z, eps=0.05)
    _, cu = search_boundary_barrier(prob, z, eps=0.05, upper=True)
    ok = all(c.valid and c.min_margin > 0 and c.ordering_ok
             for c in (ch, cl, cu))
    _verdict(6, ok, "height and two-sided boundary certificates valid with "
                    f"margins {ch.min_margin:.2e}, {cl.min_margin:.2e}, "
                    f"{cu.min_margin:.2e} and orderings within tolerance")


def test_criterion_7_hypothesis_ground_truth():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.08, amb)
    rep1 = check_hypotheses(ck.Problem.create(amb, mesh, 1.0, -0.5))
    rep2 = check_hypotheses(ck.Problem.create(amb, mesh, 1.3, -0.5))
    ambb = ck.preset_ambient("example_b")
    meshb = ck.disk_mesh(0.3, 0.1, ambb)
    repb = check_hypotheses(ck.Problem.create(ambb, meshb, 0.0, -0.5))
    ok = (abs(rep1.inf_HK - 1.25) <= 1e-6 and rep1.passed
          and abs(rep2.get("H_below_inf_HK").margin + 0.05) <= 1e-6
          and not rep2.get("H_below_inf_HK").passed
          and repb.get("rho_t_nonneg").margin > 0)
    _verdict(7, ok, f"inf H_K = {rep1.inf_HK} (want 1.25 +- 1e-6), excess-H "
                    f"margin {rep2.get('H_below_inf_HK').margin:.6f} "
                    f"(want -0.05 +- 1e-6), finite-interval rate margin "
                    f"{repb.get('rho_t_nonneg').margin:.4f} > 0")


def test_criterion_8_geometry_identities(cap_sequence, boundary_flux):
    _, _, _, reports = cap_sequence
    prob, rep = reports[1]
    mesh, z = prob.mesh, rep.solution
    ok, notes = True, []

    # normalization of the conformal factor at the base leaf
    ok &= all(abs(float(np.asarray(ck.preset_ambient(n).lam(0.0))) - 1.0) <= 1e-12
              for n in ck.PRESET_NAMES)

    # two-path agreement for the leaf-curvature rate: finite differences of
    # k(t) against the identity tying it to the conformal rate
    worst_kt = 0.0
    for name in ("example_a", "example_b", "example_c"):
        a = ck.preset_ambient(name)
        for t in np.linspace(-1.0, 0.4, 7):
            lam = float(np.asarray(a.lam(t)))
            k = lambda s: -float(np.asarray(a.rho(s))) / float(np.asarray(a.lam(s)))
            fd = (k(t + 1e-6) - k(t - 1e-6)) / 2e-6
            rho_t = float(np.asarray(a.rho_t(t)))
            ident = lam * k(t)**2 - rho_t / lam
            worst_kt = max(worst_kt, abs(fd - ident) / max(1.0, abs(ident)))
    ok &= worst_kt < 1e-6
    notes.append(f"rate identity {worst_kt:.1e}")

    # flux balance: partition-of-unity zero and dual-route boundary flux
    fr = prob.assembly().flux_residual_full(z.values)
    pou = abs(float(fr.sum()))
    dual = abs(boundary_flux(prob, z) + float(fr[mesh.boundary_vertices].sum()))
    ok &= pou < 1e-13 and dual < 1e-10
    notes.append(f"flux balance {pou:.1e}/{dual:.1e}")

    _verdict(8, bool(ok), "; ".join(notes))


def test_criterion_9_monotonicity_probe():
    prob = _cap_problem(0.08)
    out = cylinder_monotonicity_probe(prob, [0.05, 0.1, 0.15])
    worst = max(abs(row["H_K"] - 1.0 / (2.0 * (0.4 - row["eps"])))
                for row in out["rows"])
    ok = worst <= 1e-6 and out["monotone"]
    _verdict(9, ok, f"flat-disk probe matches the parallel-circle closed form "
                    f"to {worst:.1e} (bar 1e-6) and is monotone")
