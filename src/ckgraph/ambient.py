"""Ambient conformal structure.

An :class:`AmbientSpace` bundles the conformal factor ``lambda(t)`` on the
flow interval, the field strength function ``gamma(u) = 1/|Y|^2`` on the base
leaf, and the leaf metric ``sigma``.  Every curvature coefficient used by the
operator and the analysis layers derives from these callables.

Sign and normalization conventions:

* ``lambda(0) = 1`` is enforced at construction (the leaf labelled ``t = 0``
  is the reference leaf).
* The flow interval is ``(-inf, interval_end)``; ``interval_end`` may be
  ``+inf``.
* Leaf mean curvature ``k = -rho * sqrt(gamma) / lambda`` is taken with
  respect to the unit normal ``Y/|Y|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError

__all__ = [
    "AmbientSpace",
    "n",
    "leaf_mean_curvature",
    "preset_ambient",
    "PRESET_NAMES",
    "LeafMetric",
    "LEAF_METRICS",
    "flat_metric",
    "round_sphere_metric",
]

_SQRT2M1 = math.sqrt(2.0) - 1.0

# dimension of the base leaf: every mesh is a 2-D chart
n = 2


def _as_t(t):
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class AmbientSpace:
    """Conformal data of the ambient space.

    ``lam`` is the conformal factor, ``rho`` its log-derivative
    ``lambda_t / lambda = (log lambda)_t`` and ``rho_t`` the flow derivative
    of that, all vectorized callables of the flow time.  The program reads
    the factor through these three alone (``lambda_t = lambda rho``), so
    ``rho`` and ``rho_t`` stay finite where ``lambda`` underflows.
    ``gamma``/``grad_gamma`` are callables of chart points with shape
    ``(..., 2)``, and ``base_metric`` returns SPD matrices with shape
    ``(..., 2, 2)``; it must be one of the leaf metrics of ``LEAF_METRICS``,
    whose closed forms (``leaf``) the curvature checks and the derivative
    recovery read.  A ``dataclasses.replace`` of ``lam`` should pass ``rho``
    and ``rho_t`` as well.

    A construction error names the field at fault first, as in
    ``interval_end: must be positive, got -1.0``.
    """

    name: str
    lam: Callable
    rho: Callable
    rho_t: Callable
    interval_end: float
    gamma: Callable
    grad_gamma: Callable
    base_metric: Callable

    def __post_init__(self):
        if self.base_metric not in LEAF_METRICS:
            raise ParameterError("base_metric: neither the flat nor the round sphere metric")
        if not self.interval_end > 0:
            raise ParameterError(f"interval_end: must be positive, got {self.interval_end!r}")
        hi = self.interval_end if math.isfinite(self.interval_end) else 4.0
        sample = np.linspace(hi - 8.0, hi - 1e-9 * max(1.0, abs(hi)), 17)
        with np.errstate(all="ignore"):     # a NaN is reported below
            lam0 = float(np.asarray(self.lam(0.0)))
            vals = np.broadcast_to(self.lam(sample), sample.shape)
        if not abs(lam0 - 1.0) <= 1e-12:
            raise ParameterError(
                f"lam: the conformal factor must satisfy lambda(0) = 1, got {lam0!r}"
            )
        bad = np.flatnonzero(~(vals > 0))
        if len(bad):
            raise ParameterError("lam: the conformal factor must be positive on the "
                                 f"interval, got {float(vals[bad[0]])!r} at t = {float(sample[bad[0]])!r}")

    @property
    def leaf(self) -> "LeafMetric":
        """The closed forms of the leaf metric."""
        return LEAF_METRICS[self.base_metric]


def leaf_mean_curvature(ambient: AmbientSpace, u):
    """Mean curvature of the base leaf, normal ``Y/|Y|``:
    ``k = -rho(0) sqrt(gamma)``; ``-rho sqrt(gamma) / lambda`` at the leaf
    ``t``.
    """
    u = np.asarray(u, dtype=float)
    return -np.asarray(ambient.rho(0.0)) * np.sqrt(np.asarray(ambient.gamma(u)))


# -- leaf metrics -----------------------------------------------------------


def flat_metric(u):
    """Euclidean metric in chart coordinates."""
    u = np.asarray(u, dtype=float)
    shape = u.shape[:-1] + (2, 2)
    return np.broadcast_to(np.eye(2), shape).copy()


def round_sphere_metric(u):
    """Round metric of the unit sphere in the geodesic polar chart.

    The chart maps ``(x, y)`` to colatitude ``theta = |(x, y)|`` and azimuth
    ``atan2(y, x)``; the metric is ``s I + (1 - s) u u^T / r^2`` with
    ``s = (sin r / r)^2``.  Radial directions are unit, so chart radii are
    geodesic distances from the pole.
    """
    u = np.asarray(u, dtype=float)
    r2 = np.einsum("...i,...i->...", u, u)
    r = np.sqrt(r2)
    s = np.sinc(r / np.pi) ** 2
    # (1 - s)/r^2 degenerates at the pole; switch to the series there.
    small = r < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        tcoef = np.where(small, 1.0 / 3.0 - 2.0 * r2 / 45.0, (1.0 - s) / np.where(r2 == 0, 1.0, r2))
    eye = np.broadcast_to(np.eye(2), u.shape[:-1] + (2, 2))
    outer = np.einsum("...i,...j->...ij", u, u)
    return s[..., None, None] * eye + tcoef[..., None, None] * outer


def _round_christoffel(u):
    """Christoffel symbols ``Gamma^k_ij`` ``(..., k, i, j)`` of
    ``round_sphere_metric``.  With the unit radial vector ``r_hat = u / r``
    and ``t_hat`` its +90 degree rotation,
    ``Gamma(v, w) = A (v.t)(w.t) r_hat + B ((v.r)(w.t) + (v.t)(w.r)) t_hat``
    where ``A = (2r - sin 2r) / (2 r^2)`` and ``B = cot r - 1/r``; below
    ``r = 1e-4`` the series ``2r/3`` and ``-r/3`` replace the cancelling
    quotients, so both are 0 at the pole."""
    u = np.asarray(u, dtype=float)
    r = np.sqrt(np.einsum("...i,...i->...", u, u))
    small = r < 1e-4
    safe = np.where(small, 1.0, r)
    A = np.where(small, 2.0 * r / 3.0, (2.0 * safe - np.sin(2.0 * safe)) / (2.0 * safe**2))
    B = np.where(small, -r / 3.0, 1.0 / np.tan(safe) - 1.0 / safe)
    rhat = u / np.where(r == 0, 1.0, r)[..., None]
    that = np.stack([-rhat[..., 1], rhat[..., 0]], axis=-1)
    tt = np.einsum("...i,...j->...ij", that, that)
    rt = np.einsum("...i,...j->...ij", rhat, that)
    return (A[..., None, None, None] * rhat[..., :, None, None] * tt[..., None, :, :]
            + B[..., None, None, None] * that[..., :, None, None]
            * (rt + np.swapaxes(rt, -1, -2))[..., None, :, :])


class LeafMetric:
    """What is known of a leaf metric in closed form: its ``matrix``
    (chart points ``(..., 2)`` to ``(..., 2, 2)``), its Christoffel symbols
    ``christoffel`` (``(..., k, i, j)``; None where they are all zero), its
    constant Gaussian ``curvature``, and ``circle_radius``, the radius of
    curvature ``1/k(r)`` of the chart circle ``|u| = r``."""

    def __init__(self, matrix: Callable, christoffel: Optional[Callable],
                 curvature: float, circle_radius: Callable):
        self.matrix, self.christoffel = matrix, christoffel
        self.curvature, self.circle_radius = curvature, circle_radius


# the two leaf metrics of the program, by their matrix function; an
# AmbientSpace refuses any other
LEAF_METRICS = {leaf.matrix: leaf for leaf in (
    LeafMetric(flat_metric, None, 0.0, lambda r: r),
    LeafMetric(round_sphere_metric, _round_christoffel, 1.0, np.tan),
)}


def _ones_field(u):
    u = np.asarray(u, dtype=float)
    return np.ones(u.shape[:-1])


def _zero_grad(u):
    u = np.asarray(u, dtype=float)
    return np.zeros(u.shape)


# -- presets ----------------------------------------------------------------


def _exp(t):
    return np.exp(_as_t(t))


# example_c: lambda(t) = sinh(2 artanh(s)) with s = (sqrt(2)-1) e^t; the flow
# coordinate is shifted so that lambda(0) = 1, which fixes the interval end
# at log(1 + sqrt(2)) = arcsinh(1).
def _s(t):
    return _SQRT2M1 * np.exp(_as_t(t))


def _sinh_lam(t):
    s = _s(t)
    return 2.0 * s / (1.0 - s**2)


def _sinh_rho(t):
    s = _s(t)
    return (1.0 + s**2) / (1.0 - s**2)


def _sinh_rho_t(t):
    s = _s(t)
    return 4.0 * s**2 / (1.0 - s**2) ** 2


# example_b: lambda(t) = 1/(1 - t), which is also its rho
def _recip(t):
    return 1.0 / (1.0 - _as_t(t))


def _recip_sq(t):
    return _recip(t) ** 2


def _ones(t):
    return np.ones_like(_as_t(t))


def _zeros(t):
    return np.zeros_like(_as_t(t))


# name -> (lam, rho, rho_t, interval_end, base_metric), rho = (log lam)_t
# in closed form; every preset has gamma == 1
_PRESETS = {
    "example_a": (_exp, _ones, _zeros, math.inf, flat_metric),
    "example_b": (_recip, _recip, _recip_sq, 1.0, flat_metric),
    "example_c": (_sinh_lam, _sinh_rho, _sinh_rho_t, math.asinh(1.0), flat_metric),
    "killing_flat": (_ones, _zeros, _zeros, math.inf, flat_metric),
    "euclidean_radial": (_exp, _ones, _zeros, math.inf, round_sphere_metric),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_ambient(name: str) -> AmbientSpace:
    """Build one of the documented ambient presets (``gamma == 1``); other
    fields can be swapped with ``dataclasses.replace``."""
    if name not in _PRESETS:
        raise ParameterError(f"unknown ambient preset {name!r}")
    lam, rho, rho_t, end, metric = _PRESETS[name]
    return AmbientSpace(name, lam, rho, rho_t, end, _ones_field, _zero_grad, metric)
