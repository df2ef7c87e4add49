"""Curvature of flow cylinders over curves in the base leaf.

The cylinder over a boundary curve is ruled by flow lines; its principal
curvature along the flow direction and its inward mean curvature are the
quantities entering the solvability condition (the boundary cylinder must
curve at least as strongly as the prescribed field).  Both are given at the
base leaf ``t = 0``, where ``lambda = 1``; at the leaf ``t`` each is the
base value divided by ``lambda(t)``.
"""

from __future__ import annotations

import numpy as np

from .ambient import AmbientSpace, n

__all__ = ["cylinder_kappa", "cylinder_mean_curvature"]


def cylinder_kappa(ambient: AmbientSpace, u, eta):
    """Principal curvature of the cylinder along the flow direction at the
    base leaf, ``kappa = eta(log sqrt(gamma))``, where ``eta`` is the inward
    unit normal of the curve in the leaf metric; ``kappa / lambda(t)`` at
    the leaf ``t``.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g = np.asarray(ambient.gamma(u))
    dg = np.asarray(ambient.grad_gamma(u))
    return np.einsum("...i,...i->...", dg, eta) / (2.0 * g)


def cylinder_mean_curvature(ambient: AmbientSpace, u, eta, H_Gamma):
    """Inward mean curvature of the cylinder over a curve of geodesic
    curvature ``H_Gamma`` at the base leaf, ``H_K = (kappa + (n-1) H_Gamma)
    / n``; ``H_K / lambda(t)`` at the leaf ``t``."""
    return (cylinder_kappa(ambient, u, eta) + (n - 1) * np.asarray(H_Gamma)) / n
