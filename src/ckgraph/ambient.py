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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, prefixed
from .expressions import compile_flow_derivatives, compile_gradient, compile_univariate

__all__ = [
    "AmbientSpace",
    "expression_ambient",
    "lambda_fault",
    "n",
    "leaf_mean_curvature",
    "preset_ambient",
    "PRESET_NAMES",
    "LeafMetric",
    "LEAF_METRICS",
    "flat_metric",
    "round_sphere_metric",
]

# dimension of the base leaf: every mesh is a 2-D chart
n = 2


@dataclass(frozen=True)
class AmbientSpace:
    """Conformal data of the ambient space, one callable per variable.

    ``flow(t)`` gives the conformal factor ``lambda``, its log-derivative
    ``rho = lambda_t / lambda`` and ``rho_t`` at flow times ``t``: the
    program reads the factor through these alone, finite where ``lambda``
    underflows.  ``gamma(u)`` gives ``gamma`` ``(...)`` and its gradient
    ``(..., 2)`` at chart points ``(..., 2)``, so a ``dataclasses.replace``
    swaps a value with its derivatives.  Every ambient of the program comes
    from ``expression_ambient``.  ``base_metric`` returns SPD matrices
    ``(..., 2, 2)``; it must be one of ``LEAF_METRICS``, whose closed forms
    (``leaf``) the curvature checks and the derivative recovery read.

    A construction error names the field at fault first, as in
    ``interval_end: must be positive, got -1.0``.
    """

    name: str
    flow: Callable
    interval_end: float
    gamma: Callable
    base_metric: Callable

    def __post_init__(self):
        if self.base_metric not in LEAF_METRICS:
            raise ParameterError("base_metric: neither the flat nor the round sphere metric")
        if not self.interval_end > 0:
            raise ParameterError(f"interval_end: must be positive, got {self.interval_end!r}")
        hi = self.interval_end if math.isfinite(self.interval_end) else 4.0
        sample = np.linspace(hi - 8.0, hi - 1e-9 * max(1.0, abs(hi)), 17)
        with np.errstate(all="ignore"):     # a NaN is reported below
            lam0 = float(np.asarray(self.flow(0.0)[0]))
        if not abs(lam0 - 1.0) <= 1e-12:
            raise ParameterError(
                f"lam: the conformal factor must satisfy lambda(0) = 1, got {lam0!r}"
            )
        fault = lambda_fault(self, sample, admit_zero=False)
        if fault is not None:
            raise ParameterError("lam: the conformal factor must be positive on the "
                                 f"interval, got {fault[1]!r} at t = {float(sample[fault[0]])!r}")

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
    return -np.asarray(ambient.flow(0.0)[1]) * np.sqrt(np.asarray(ambient.gamma(u)[0]))


def lambda_fault(ambient: AmbientSpace, t, admit_zero=True):
    """The first of the flow times ``t`` ``(m,)`` where ``lambda`` is
    negative or NaN, or 0 unless ``admit_zero`` (as where ``e^t``
    underflows), as ``(index, lambda)``; None where there is none."""
    with np.errstate(all="ignore"):     # a NaN is refused
        lam = np.broadcast_to(ambient.flow(t)[0], np.shape(t))
    bad = np.flatnonzero(~(lam >= 0 if admit_zero else lam > 0))
    return (int(bad[0]), float(lam[bad[0]])) if len(bad) else None


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


def _unit_field(u):
    u = np.asarray(u, dtype=float)
    return np.ones(u.shape[:-1]), np.zeros(u.shape)


# -- ambients from expressions ---------------------------------------------


def expression_ambient(name: str, lam: str, interval_end: float = math.inf,
                       gamma: Optional[str] = None,
                       base_metric: Callable = flat_metric) -> AmbientSpace:
    """The ambient of the expression ``lam`` in the flow time ``t`` and, if
    given, ``gamma`` in the chart coordinates (1 otherwise): ``lambda`` is
    a plain pass of ``lam``, ``rho`` and ``rho_t`` one jet pass of
    ``log(lam)``.  An error names its field first, as in ``lam: unknown
    name 'x' in expression``."""
    with prefixed("lam: ", ParameterError):
        lam_fn = compile_univariate(lam)
        # the newline ends a comment in the text before the closing parenthesis
        rates = compile_flow_derivatives(f"log({lam}\n)")
    gfun = _unit_field
    if gamma is not None:
        with prefixed("gamma: ", ParameterError):
            gfun = compile_gradient(gamma)
    return AmbientSpace(name, lambda t: (lam_fn(t), *rates(t)), interval_end, gfun,
                        base_metric)


# example_c: lambda(t) = sinh(2 artanh(s)) with s = (sqrt(2)-1) e^t; the flow
# coordinate is shifted so that lambda(0) = 1, which fixes the interval end
# at log(1 + sqrt(2)) = arcsinh(1).
_S = f"({math.sqrt(2.0) - 1.0!r}*exp(t))"

# name -> (lam as an expression in t, interval_end, base_metric); every
# preset has gamma == 1
_PRESETS = {
    "example_a": ("exp(t)", math.inf, flat_metric),
    "example_b": ("1/(1 - t)", 1.0, flat_metric),
    "example_c": (f"2*{_S}/(1 - {_S}**2)", math.asinh(1.0), flat_metric),
    "killing_flat": ("1", math.inf, flat_metric),
    "euclidean_radial": ("exp(t)", math.inf, round_sphere_metric),
}
PRESET_NAMES = tuple(_PRESETS)


@functools.cache
def preset_ambient(name: str) -> AmbientSpace:
    """One of the documented ambient presets (``gamma == 1``), built once,
    so two of one name are the same object; other fields can be swapped
    with ``dataclasses.replace``."""
    if name not in _PRESETS:
        raise ParameterError(f"unknown ambient preset {name!r}")
    lam, end, metric = _PRESETS[name]
    return expression_ambient(name, lam, end, base_metric=metric)
