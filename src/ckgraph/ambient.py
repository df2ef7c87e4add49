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
* Leaf mean curvature ``k = -lambda_t * sqrt(gamma) / lambda**2`` is taken
  with respect to the unit normal ``Y/|Y|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "AmbientSpace",
    "n",
    "rho",
    "rho_t",
    "leaf_mean_curvature",
    "preset_ambient",
    "PRESET_NAMES",
    "fd_rho_t_tolerance",
    "flat_metric",
    "round_sphere_metric",
    "central_gradient",
]

_SQRT2M1 = math.sqrt(2.0) - 1.0

# dimension of the base leaf: every mesh is a 2-D chart
n = 2


def _as_t(t):
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class AmbientSpace:
    """Conformal data of the ambient space.

    ``lam``, ``lam_t``, ``lam_tt`` are vectorized callables of the flow time,
    ``gamma``/``grad_gamma`` of chart points with shape ``(..., 2)``, and
    ``base_metric`` returns SPD matrices with shape ``(..., 2, 2)``.  ``rho``,
    when given, is ``lambda_t / lambda`` in closed form, a callable of the
    flow time that stays finite where ``lambda`` underflows; without it the
    quotient is taken (see ``rho``).  A ``dataclasses.replace`` of ``lam``
    should pass ``rho`` as well.
    """

    name: str
    lam: Callable
    lam_t: Callable
    lam_tt: Callable
    interval_end: float
    gamma: Callable
    grad_gamma: Callable
    base_metric: Callable
    fd_derivatives: bool = False
    rho: Optional[Callable] = None

    def __post_init__(self):
        if not self.interval_end > 0:
            raise ParameterError("interval_end must be positive")
        lam0 = float(np.asarray(self.lam(0.0)))
        if abs(lam0 - 1.0) > 1e-12:
            raise ParameterError(
                f"conformal factor must satisfy lambda(0) = 1, got {lam0!r}"
            )
        hi = self.interval_end if math.isfinite(self.interval_end) else 4.0
        sample = np.linspace(hi - 8.0, hi - 1e-9 * max(1.0, abs(hi)), 17)
        vals = np.asarray(self.lam(sample))
        if not np.all(vals > 0):
            raise ParameterError("conformal factor must be positive on the interval")

    # -- interval handling -------------------------------------------------

    def check_t(self, t):
        t = _as_t(t)
        if not np.all(t < self.interval_end):
            bad = float(np.max(t))
            raise DomainError(
                f"flow time {bad} outside the interval (-inf, {self.interval_end})"
            )
        return t


def rho(ambient: AmbientSpace, t):
    """``lambda_t / lambda`` at the flow times ``t``: the ambient's closed
    form when it has one, else the quotient, which is 0/0 once ``lambda``
    underflows."""
    if ambient.rho is not None:
        return np.asarray(ambient.rho(t))
    return np.asarray(ambient.lam_t(t)) / np.asarray(ambient.lam(t))


def rho_t(ambient: AmbientSpace, t):
    """Derivative of ``lambda_t / lambda``; enters the maximum principle check."""
    t = ambient.check_t(t)
    lam = np.asarray(ambient.lam(t))
    lam_t = np.asarray(ambient.lam_t(t))
    lam_tt = np.asarray(ambient.lam_tt(t))
    return lam_tt / lam - (lam_t / lam) ** 2


def leaf_mean_curvature(ambient: AmbientSpace, u):
    """Mean curvature of the base leaf, normal ``Y/|Y|``:
    ``k = -lambda_t(0) sqrt(gamma)``; ``-lambda_t sqrt(gamma) / lambda**2``
    at the leaf ``t``.
    """
    u = np.asarray(u, dtype=float)
    return -np.asarray(ambient.lam_t(0.0)) * np.sqrt(np.asarray(ambient.gamma(u)))


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


# Gaussian curvature of each leaf metric; a metric outside this table has no
# known curvature, and the Ricci checks report it as not evaluable
_LEAF_CURVATURE = {flat_metric: 0.0, round_sphere_metric: 1.0}


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


def _sinh_lam_t(t):
    s = _s(t)
    return 2.0 * s * (1.0 + s**2) / (1.0 - s**2) ** 2


def _sinh_lam_tt(t):
    s = _s(t)
    return 2.0 * s * (1.0 + 6.0 * s**2 + s**4) / (1.0 - s**2) ** 3


# example_b: lambda(t) = 1/(1 - t), which is also its rho
def _recip(t):
    return 1.0 / (1.0 - _as_t(t))


def _sinh_rho(t):
    s = _s(t)
    return (1.0 + s**2) / (1.0 - s**2)


def _ones(t):
    return np.ones_like(_as_t(t))


def _zeros(t):
    return np.zeros_like(_as_t(t))


# name -> (lam, lam_t, lam_tt, interval_end, base_metric,
# rho = lam_t / lam in closed form); every preset has gamma == 1
_PRESETS = {
    "example_a": (_exp, _exp, _exp, math.inf, flat_metric, _ones),
    "example_b": (_recip, lambda t: 1.0 / (1.0 - _as_t(t)) ** 2,
                  lambda t: 2.0 / (1.0 - _as_t(t)) ** 3,
                  1.0, flat_metric, _recip),
    "example_c": (_sinh_lam, _sinh_lam_t, _sinh_lam_tt, math.asinh(1.0),
                  flat_metric, _sinh_rho),
    "killing_flat": (_ones, _zeros, _zeros, math.inf, flat_metric, _zeros),
    "euclidean_radial": (_exp, _exp, _exp, math.inf, round_sphere_metric, _ones),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_ambient(name: str) -> AmbientSpace:
    """Build one of the documented ambient presets (``gamma == 1``); other
    fields can be swapped with ``dataclasses.replace``."""
    if name not in _PRESETS:
        raise ParameterError(f"unknown ambient preset {name!r}")
    lam, lam_t, lam_tt, end, metric, closed_rho = _PRESETS[name]
    return AmbientSpace(name, lam, lam_t, lam_tt, end, _ones_field, _zero_grad,
                        metric, rho=closed_rho)


# Steps of the finite-difference fallbacks.  A central difference with step
# s loses about u/s (first derivative) or 4u/s^2 (second) to rounding,
# relative to lambda (u = 2.2e-16), and gains s^2/6 or s^2/12 times a higher
# derivative from truncation.  1e-4 balances the two for the second
# difference; a step of 1e-6 there gives rounding errors up to 4e-4.
_FD_STEP_T = 1e-6
_FD_STEP_TT = 1e-4

# Error bound of rho_t = lambda_tt/lambda - (lambda_t/lambda)^2 from the
# fallbacks, relative to the largest |lambda_tt/lambda| + (lambda_t/lambda)^2
# over the sampled flow times (rho_t is the difference of those two terms).
# On t in [-12, 0.01] the largest errors measured are 1/13 of the bound or
# less for exp(t), cosh(t), 1/(1 - t), exp(t - t^2/2) and 1 + t + t^2.
FD_RHO_T_ERROR = 1e-6


def fd_ambient_derivatives(lam):
    """Finite-difference fallbacks for missing lambda derivatives.

    Central differences with the steps ``_FD_STEP_T`` and ``_FD_STEP_TT``;
    ambients built this way carry ``fd_derivatives=True`` so reports can flag
    them and the ``rho_t`` checks allow for ``fd_rho_t_tolerance``.
    """
    def lam_t(t):
        t = _as_t(t)
        return (np.asarray(lam(t + _FD_STEP_T)) - np.asarray(lam(t - _FD_STEP_T))) \
            / (2.0 * _FD_STEP_T)

    def lam_tt(t):
        t = _as_t(t)
        return (np.asarray(lam(t + _FD_STEP_TT)) - 2.0 * np.asarray(lam(t))
                + np.asarray(lam(t - _FD_STEP_TT))) / _FD_STEP_TT**2

    return lam_t, lam_tt


def fd_rho_t_tolerance(ambient: AmbientSpace, t) -> float:
    """How far below 0 ``rho_t`` may fall on the flow times ``t`` and still
    pass: ``FD_RHO_T_ERROR`` times the largest ``|lambda_tt/lambda| +
    (lambda_t/lambda)^2`` when the derivatives come from finite differences,
    0 when they are exact."""
    if not ambient.fd_derivatives:
        return 0.0
    lam = np.asarray(ambient.lam(t))
    scale = np.abs(np.asarray(ambient.lam_tt(t)) / lam) \
        + (np.asarray(ambient.lam_t(t)) / lam) ** 2
    return FD_RHO_T_ERROR * float(scale.max())


def central_gradient(f, pts, step):
    """Chart gradient of ``f`` (points ``(..., 2)`` to values ``(..., *s)``)
    by central differences, shape ``(..., 2, *s)``."""
    pts = np.asarray(pts, dtype=float)
    parts = []
    for i in range(pts.shape[-1]):
        e = np.zeros(pts.shape[-1])
        e[i] = step
        parts.append((np.asarray(f(pts + e)) - np.asarray(f(pts - e))) / (2 * step))
    return np.stack(parts, axis=pts.ndim - 1)
