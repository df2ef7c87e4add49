import math
from dataclasses import replace

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.analysis import (cylinder_kappa, cylinder_mean_curvature,
                              _boundary_curves, inf_boundary_cylinder_curvature)
from ckgraph.mesh import closed_polyline_geometry, mesh_from_arrays

FLAT = ck.preset_ambient("killing_flat")
ROUND = ck.preset_ambient("euclidean_radial")


def test_disk_inf_HK_closed_form():
    mesh = ck.disk_mesh(0.4, 0.05, FLAT)
    inf_hk, inf_hg = inf_boundary_cylinder_curvature(mesh, FLAT)
    assert inf_hk == pytest.approx(1.25, abs=1e-12)
    assert inf_hg == pytest.approx(2.5, abs=1e-12)


def test_cap_inf_HK_closed_form():
    mesh = ck.cap_mesh(1.0, 0.1, ROUND)
    inf_hk, inf_hg = inf_boundary_cylinder_curvature(mesh, ROUND)
    assert inf_hg == pytest.approx(1.0 / math.tan(1.0), abs=1e-12)
    assert inf_hk == pytest.approx(0.5 / math.tan(1.0), abs=1e-12)


def test_annulus_signs():
    mesh = ck.annulus_mesh(0.3, 0.7, 0.07, FLAT)
    inf_hk, inf_hg = inf_boundary_cylinder_curvature(mesh, FLAT)
    # the inner boundary has negative inward curvature
    assert inf_hg == pytest.approx(-1.0 / 0.3, abs=1e-12)
    assert inf_hk == pytest.approx(-0.5 / 0.3, abs=1e-12)


def test_kappa_vanishes_for_constant_gamma():
    u = np.array([0.2, 0.1])
    eta = np.array([1.0, 0.0])
    assert float(np.asarray(cylinder_kappa(FLAT, u, eta))) == 0.0


def test_kappa_directional_derivative():
    # gamma = 1 + x: eta(log sqrt(gamma)) = eta_x / (2(1+x))
    amb = replace(
        ck.preset_ambient("killing_flat"),
        gamma=lambda u: 1.0 + np.asarray(u, dtype=float)[..., 0],
        grad_gamma=lambda u: np.stack(
            [np.ones(np.asarray(u).shape[:-1]),
             np.zeros(np.asarray(u).shape[:-1])], axis=-1))
    u = np.array([0.5, 0.0])
    eta = np.array([1.0, 0.0])
    val = float(np.asarray(cylinder_kappa(amb, u, eta)))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_cylinder_mean_curvature_combination():
    # H_K = (kappa + (n-1) H_Gamma) / n at the base leaf, whatever lambda
    # does elsewhere; kappa = 1/3 for gamma = 1 + x at x = 0.5
    amb = replace(
        ck.preset_ambient("example_a"),     # lambda = e^t
        gamma=lambda u: 1.0 + np.asarray(u, dtype=float)[..., 0],
        grad_gamma=lambda u: np.stack(
            [np.ones(np.asarray(u).shape[:-1]),
             np.zeros(np.asarray(u).shape[:-1])], axis=-1))
    u = np.array([0.5, 0.0])
    eta = np.array([1.0, 0.0])
    hk = float(np.asarray(cylinder_mean_curvature(amb, u, eta, 2.5)))
    assert hk == pytest.approx((1.0 / 3.0 + 2.5) / 2.0, abs=1e-12)


def test_generic_polyline_estimate():
    mesh = ck.disk_mesh(0.3, 0.03, FLAT)
    generic = mesh_from_arrays(mesh.vertices, mesh.triangles,
                               mesh.boundary_loops, FLAT)
    [(pts, normal, vals)] = _boundary_curves(generic, FLAT)
    loop = generic.boundary_loops[0]
    assert np.array_equal(pts, generic.vertices[loop])
    assert np.array_equal(normal, generic.boundary_normal[loop])
    assert np.abs(vals - 1.0 / 0.3).max() < 0.2


def _metric_derivatives(ambient, p):
    """``[d_0 S, d_1 S]`` of the leaf metric at one chart point, exact:
    zero on the flat metric; on the round one ``S = s I + q u u^T`` with
    ``s = (sin r / r)^2`` and ``q = (1 - s) / r^2``, differentiated in r."""
    if ambient.base_metric is not ck.round_sphere_metric:
        return [np.zeros((2, 2)), np.zeros((2, 2))]
    r = math.hypot(*p)
    s = (math.sin(r) / r) ** 2
    ds = 2.0 * (math.sin(r) / r) * (r * math.cos(r) - math.sin(r)) / r**2
    q = (1.0 - s) / r**2
    dq = (-ds * r**2 - 2.0 * r * (1.0 - s)) / r**4
    return [ds * p[l] / r * np.eye(2) + dq * p[l] / r * np.outer(p, p)
            + q * (np.outer(e, p) + np.outer(p, e)) for l, e in enumerate(np.eye(2))]


def _turning_angle_reference(points, ambient, k):
    """Scalar geodesic curvature and inward normal at point k: the turning
    angle plus ``<Gamma(v, v), N> / |v|^2``, ``v = p2 - p0``, with the
    Christoffel symbols from the exact derivatives of the metric, one index
    at a time."""
    p0, p1, p2 = points[k - 1], points[k], points[(k + 1) % len(points)]
    S = np.asarray(ambient.base_metric(p1))
    e1, e2 = p1 - p0, p2 - p1
    l1, l2 = math.sqrt(e1 @ S @ e1), math.sqrt(e2 @ S @ e2)
    beta = math.acos(float(np.clip((e1 @ S @ e2) / (l1 * l2), -1.0, 1.0)))
    sign = 1.0 if (e1[0] * e2[1] - e1[1] * e2[0]) >= 0 else -1.0
    tang = p2 - p0
    raw = np.array([-tang[1], tang[0]])
    normal = raw / math.sqrt(raw @ S @ raw)
    Sinv = np.linalg.inv(S)
    dS = _metric_derivatives(ambient, p1)
    gvv = np.zeros(2)
    for c in range(2):
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    gvv[c] += 0.5 * Sinv[c, l] * (dS[i][l, j] + dS[j][l, i]
                                                  - dS[l][i, j]) * tang[i] * tang[j]
    turning = sign * beta / (0.5 * (l1 + l2))
    return turning + (gvv @ S @ normal) / (tang @ S @ tang), normal


@pytest.mark.parametrize("amb", [FLAT, ROUND], ids=["flat", "round"])
def test_closed_polyline_matches_scalar_reference(amb):
    rng = np.random.default_rng(1)
    ang = np.sort(rng.uniform(0, 2 * math.pi, 40))
    rad = 0.6 + 0.1 * rng.standard_normal(40)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    normal, curvature = closed_polyline_geometry(pts, amb)
    for k in range(len(pts)):
        ref, ref_normal = _turning_angle_reference(pts, amb, k)
        assert curvature[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert np.allclose(normal[k], ref_normal, rtol=0, atol=1e-14)
