"""Curvature of flow cylinders over the domain boundary.

The cylinder over a boundary curve is ruled by flow lines; its principal
curvature along the flow direction and its inward mean curvature are the
quantities entering the solvability condition (the boundary cylinder must
curve at least as strongly as the prescribed field).
"""

from __future__ import annotations

import math

import numpy as np

from .ambient import AmbientSpace, n
from .mesh import DomainMesh, closed_polyline_geometry

__all__ = [
    "cylinder_kappa",
    "cylinder_mean_curvature",
    "inf_boundary_cylinder_curvature",
]


def cylinder_kappa(ambient: AmbientSpace, t, u, eta):
    """Principal curvature of the cylinder along the flow direction.

    ``kappa = (1/lambda) * eta(log sqrt(gamma))`` where ``eta`` is the inward
    unit normal of the boundary in the leaf metric.
    """
    t = ambient.check_t(t)
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g = np.asarray(ambient.gamma(u))
    dg = np.asarray(ambient.grad_gamma(u))
    directional = np.einsum("...i,...i->...", dg, eta) / (2.0 * g)
    return directional / np.asarray(ambient.lam(t))


def cylinder_mean_curvature(ambient: AmbientSpace, t, u, eta, H_Gamma):
    """Inward mean curvature of the cylinder over the boundary:
    ``H_K = (kappa + (n-1) H_Gamma / lambda) / n``."""
    kap = cylinder_kappa(ambient, t, u, eta)
    return (kap + (n - 1) * np.asarray(H_Gamma) / np.asarray(ambient.lam(t))) / n


def _loop_curvatures(mesh: DomainMesh, ambient: AmbientSpace):
    """Mean (geodesic) curvature of the boundary, inward normal, at every
    loop vertex, in loop order: the vertices, the values and the confidence
    flags.  Preset domains use the classical closed forms; generic meshes
    use the turning angle of the boundary polyline measured in the leaf
    metric, with a low-confidence flag on degenerate stencils."""
    verts = np.concatenate([np.asarray(l) for l in mesh.boundary_loops])
    preset = mesh.preset or {}
    kind = preset.get("kind")
    if kind in ("disk", "cap", "annulus"):
        if kind == "disk":
            vals = np.full(len(verts), 1.0 / preset["radius"])
        elif kind == "cap":
            vals = np.full(len(verts), 1.0 / math.tan(preset["theta0"]))
        else:
            r = np.linalg.norm(mesh.vertices[verts], axis=1)
            mid = 0.5 * (preset["r_in"] + preset["r_out"])
            vals = np.where(r > mid, 1.0 / preset["r_out"], -1.0 / preset["r_in"])
        return verts, vals, np.ones(len(verts), dtype=bool)
    parts = [closed_polyline_geometry(mesh.vertices[l], ambient)[1:]
             for l in mesh.boundary_loops]
    return (verts, np.concatenate([c for c, _ in parts]),
            np.concatenate([ok for _, ok in parts]))


def inf_boundary_cylinder_curvature(mesh: DomainMesh, ambient: AmbientSpace, t: float = 0.0):
    """Infimum over boundary vertices of the inward cylinder curvature at the
    given flow time; also returns the infimum of the boundary curvature."""
    verts, hg, _ = _loop_curvatures(mesh, ambient)
    hk = cylinder_mean_curvature(ambient, t, mesh.vertices[verts],
                                 mesh.boundary_normal[verts], hg)
    return float(np.min(hk)), float(np.min(hg))
