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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "CurvatureModel",
    "AmbientSpace",
    "rho",
    "rho_t",
    "leaf_mean_curvature",
    "r_of_t",
    "t_of_r",
    "preset_ambient",
    "PRESET_NAMES",
    "flat_metric",
    "round_sphere_metric",
    "central_gradient",
]

_SQRT2M1 = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class CurvatureModel:
    """How the Ricci curvature of the base leaf can be evaluated.

    kind is one of ``flat``, ``constant_curvature``, ``ricci`` (user-supplied
    evaluator) or ``unavailable``.
    """

    kind: str
    kappa0: Optional[float] = None
    evaluator: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("flat", "constant_curvature", "ricci", "unavailable"):
            raise ParameterError(f"unknown curvature model kind {self.kind!r}")
        if self.kind == "constant_curvature" and self.kappa0 is None:
            raise ParameterError("constant_curvature model needs kappa0")


def _as_t(t):
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class AmbientSpace:
    """Conformal data of the ambient space.

    ``lam``, ``lam_t``, ``lam_tt`` are vectorized callables of the flow time,
    ``gamma``/``grad_gamma`` of chart points with shape ``(..., 2)``, and
    ``base_metric`` returns SPD matrices with shape ``(..., 2, 2)``.
    """

    name: str
    lam: Callable
    lam_t: Callable
    lam_tt: Callable
    interval_end: float
    gamma: Callable
    grad_gamma: Callable
    base_metric: Callable
    base_dim: int = 2
    curvature_model: CurvatureModel = field(default_factory=lambda: CurvatureModel("flat"))
    r_closed: Optional[Callable] = None
    t_closed: Optional[Callable] = None
    fd_derivatives: bool = False

    def __post_init__(self):
        if self.base_dim < 1:
            raise ParameterError("base_dim must be >= 1")
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

    def contains(self, t) -> bool:
        return bool(np.all(_as_t(t) < self.interval_end))


def rho(ambient: AmbientSpace, t):
    """Conformal rate ``lambda_t / lambda`` at flow time ``t``."""
    t = ambient.check_t(t)
    return np.asarray(ambient.lam_t(t)) / np.asarray(ambient.lam(t))


def rho_t(ambient: AmbientSpace, t):
    """Derivative of ``lambda_t / lambda``; enters the maximum principle check."""
    t = ambient.check_t(t)
    lam = np.asarray(ambient.lam(t))
    lam_t = np.asarray(ambient.lam_t(t))
    lam_tt = np.asarray(ambient.lam_tt(t))
    return lam_tt / lam - (lam_t / lam) ** 2


def leaf_mean_curvature(ambient: AmbientSpace, t, u):
    """Mean curvature of the leaf at flow time ``t``, normal ``Y/|Y|``.

    ``k = -lambda_t sqrt(gamma) / lambda**2``.
    """
    t = ambient.check_t(t)
    u = np.asarray(u, dtype=float)
    g = np.asarray(ambient.gamma(u))
    lam = np.asarray(ambient.lam(t))
    return -np.asarray(ambient.lam_t(t)) * np.sqrt(g) / lam**2


# -- change of variable r(t) = int_0^t lambda -------------------------------


def r_of_t(ambient: AmbientSpace, t):
    """Arc-length reparametrization of the flow, ``r(t) = int_0^t lambda``."""
    t = ambient.check_t(t)
    if ambient.r_closed is not None:
        return np.asarray(ambient.r_closed(t))
    from scipy import integrate   # imported here: no ckg command needs it
    scal = np.isscalar(t) or np.asarray(t).ndim == 0
    ts = np.atleast_1d(t)
    out = np.empty_like(ts, dtype=float)
    for i, ti in enumerate(ts):
        val, _ = integrate.quad(lambda s: float(ambient.lam(s)), 0.0, float(ti),
                                epsabs=1e-13, epsrel=1e-13, limit=200)
        out[i] = val
    return float(out[0]) if scal else out


def t_of_r(ambient: AmbientSpace, r):
    """Inverse of :func:`r_of_t` by monotone root finding."""
    if ambient.t_closed is not None:
        out = np.asarray(ambient.t_closed(np.asarray(r, dtype=float)))
        ambient.check_t(out)
        return out if out.ndim else float(out)
    scal = np.isscalar(r) or np.asarray(r).ndim == 0
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(rs)
    for i, ri in enumerate(rs):
        out[i] = _invert_r(ambient, float(ri))
    return float(out[0]) if scal else out


def _invert_r(ambient: AmbientSpace, r: float) -> float:
    from scipy import optimize
    if r == 0.0:
        return 0.0
    f = lambda t: float(r_of_t(ambient, t)) - r
    if r > 0:
        lo = 0.0
        hi = 1.0 if not math.isfinite(ambient.interval_end) else ambient.interval_end / 2.0
        for _ in range(200):
            if not ambient.contains(hi):
                hi = 0.5 * (hi + ambient.interval_end)
            if f(hi) >= 0:
                break
            if math.isfinite(ambient.interval_end):
                hi = 0.5 * (hi + ambient.interval_end)
                if ambient.interval_end - hi < 1e-14 * max(1.0, abs(ambient.interval_end)):
                    raise DomainError(f"r = {r} outside the range of r(t)")
            else:
                hi *= 2.0
        else:
            raise DomainError(f"r = {r} outside the range of r(t)")
        return optimize.brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    lo = -1.0
    for _ in range(200):
        if f(lo) <= 0:
            break
        lo *= 2.0
    else:
        raise DomainError(f"r = {r} outside the range of r(t)")
    return optimize.brentq(f, lo, 0.0, xtol=1e-14, rtol=8.9e-16)


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


def _ones_field(u):
    u = np.asarray(u, dtype=float)
    return np.ones(u.shape[:-1])


def _zero_grad(u):
    u = np.asarray(u, dtype=float)
    return np.zeros(u.shape)


# -- presets ----------------------------------------------------------------

PRESET_NAMES = ("example_a", "example_b", "example_c", "killing_flat", "euclidean_radial")


def preset_ambient(name: str, *, gamma=None, grad_gamma=None, base_metric=None,
                   curvature_model: Optional[CurvatureModel] = None,
                   params: Optional[dict] = None) -> AmbientSpace:
    """Build one of the documented ambient presets.

    ``gamma``/``grad_gamma``/``base_metric`` override the default trivial
    choices (``gamma == 1``, flat leaf).  ``params`` carries preset-specific
    parameters (currently only ``example_c`` accepts ``b`` and ``c``; they
    amount to a shift of the flow coordinate and are absorbed by the
    ``lambda(0) = 1`` normalization).
    """
    params = dict(params or {})
    if gamma is None:
        gamma = _ones_field
        if grad_gamma is None:
            grad_gamma = _zero_grad
    elif grad_gamma is None:
        raise ParameterError("custom gamma requires a grad_gamma evaluator")

    if name == "killing_flat":
        return AmbientSpace(
            name=name,
            lam=lambda t: np.ones_like(_as_t(t)),
            lam_t=lambda t: np.zeros_like(_as_t(t)),
            lam_tt=lambda t: np.zeros_like(_as_t(t)),
            interval_end=math.inf,
            gamma=gamma, grad_gamma=grad_gamma,
            base_metric=base_metric or flat_metric,
            curvature_model=curvature_model or CurvatureModel("flat"),
            r_closed=lambda t: _as_t(t).copy(),
            t_closed=lambda r: _as_t(r).copy(),
        )
    if name in ("example_a", "euclidean_radial"):
        if name == "euclidean_radial":
            base_metric = base_metric or round_sphere_metric
            curvature_model = curvature_model or CurvatureModel("constant_curvature", kappa0=1.0)
        return AmbientSpace(
            name=name,
            lam=lambda t: np.exp(_as_t(t)),
            lam_t=lambda t: np.exp(_as_t(t)),
            lam_tt=lambda t: np.exp(_as_t(t)),
            interval_end=math.inf,
            gamma=gamma, grad_gamma=grad_gamma,
            base_metric=base_metric or flat_metric,
            curvature_model=curvature_model or CurvatureModel("flat"),
            r_closed=lambda t: np.exp(_as_t(t)) - 1.0,
            t_closed=lambda r: np.log1p(_as_t(r)),
        )
    if name == "example_b":
        return AmbientSpace(
            name=name,
            lam=lambda t: 1.0 / (1.0 - _as_t(t)),
            lam_t=lambda t: 1.0 / (1.0 - _as_t(t)) ** 2,
            lam_tt=lambda t: 2.0 / (1.0 - _as_t(t)) ** 3,
            interval_end=1.0,
            gamma=gamma, grad_gamma=grad_gamma,
            base_metric=base_metric or flat_metric,
            curvature_model=curvature_model or CurvatureModel("flat"),
            r_closed=lambda t: -np.log1p(-_as_t(t)),
            t_closed=lambda r: -np.expm1(-_as_t(r)),
        )
    if name == "example_c":
        # lambda(t) = sinh(2 artanh(s)) with s = (sqrt(2)-1) e^t; the flow
        # coordinate is shifted so that lambda(0) = 1, which fixes the
        # interval end at log(1 + sqrt(2)) = arcsinh(1) independently of the
        # (b, c) shift parameters.
        def _s(t):
            return _SQRT2M1 * np.exp(_as_t(t))

        def lam(t):
            s = _s(t)
            return 2.0 * s / (1.0 - s**2)

        def lam_t(t):
            s = _s(t)
            return 2.0 * s * (1.0 + s**2) / (1.0 - s**2) ** 2

        def lam_tt(t):
            s = _s(t)
            return 2.0 * s * (1.0 + 6.0 * s**2 + s**4) / (1.0 - s**2) ** 3

        arcsinh1 = math.asinh(1.0)
        return AmbientSpace(
            name=name,
            lam=lam, lam_t=lam_t, lam_tt=lam_tt,
            interval_end=arcsinh1,
            gamma=gamma, grad_gamma=grad_gamma,
            base_metric=base_metric or flat_metric,
            curvature_model=curvature_model or CurvatureModel("flat"),
            r_closed=lambda t: 2.0 * np.arctanh(_s(t)) - arcsinh1,
            t_closed=lambda r: np.log(np.tanh((_as_t(r) + arcsinh1) / 2.0) / _SQRT2M1),
        )
    raise ParameterError(f"unknown ambient preset {name!r}")


def fd_ambient_derivatives(lam, step=1e-6):
    """Finite-difference fallbacks for missing lambda derivatives.

    Uses a central difference with the documented step; ambients built this
    way carry ``fd_derivatives=True`` so reports can flag them.
    """
    def lam_t(t):
        t = _as_t(t)
        return (np.asarray(lam(t + step)) - np.asarray(lam(t - step))) / (2.0 * step)

    def lam_tt(t):
        t = _as_t(t)
        return (np.asarray(lam(t + step)) - 2.0 * np.asarray(lam(t))
                + np.asarray(lam(t - step))) / step**2

    return lam_t, lam_tt


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
