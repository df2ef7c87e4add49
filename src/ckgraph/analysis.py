"""Solvability checks and barrier certificates.

Two layers: a hypothesis checker that evaluates the inequalities under which
the Dirichlet problem is solvable (monotonicity of the conformal factor,
sign conditions on the data, the boundary cylinder condition, and the radial
Ricci bounds), and explicit sub/supersolution constructions whose defining
inequalities are verified pointwise on the mesh, yielding machine-checkable
certificates.

The hypotheses are checked at the base leaf ``t = 0``.  The conditions on
the conformal factor, here and in ``max_principle_conditions``, read one
sampling of ``lambda`` per problem; the boundary cylinder condition reads
the boundary loops, and the monotonicity probe the inner distance level sets
of ``level_curves``.

The cylinder over a curve in the leaf is ruled by flow lines; its principal
curvature along the flow direction (``cylinder_kappa``) and its inward mean
curvature (``cylinder_mean_curvature``) enter the solvability condition, as
the boundary cylinder must curve at least as strongly as the prescribed
field.  Both are given at the base leaf ``t = 0``, where ``lambda = 1``; at
the leaf ``t`` each is the base value divided by ``lambda(t)``.

One rule, ``_certificate``, decides every barrier certificate: the
strong-form operator margin must be finite and positive at every checked
point, and a given solution must lie in order with the barrier within
``10 h^2``.  Both parameter searches run through one loop, ``_search``,
which returns the first valid candidate or names why each one failed.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .ambient import AmbientSpace, lambda_fault, leaf_mean_curvature, n
from .errors import ParameterError
from .fields import ScalarField
from .mesh import DomainMesh, _hat_gradients, closed_polyline_geometry, locate_points
from .operator import Problem, _projected_trace, recover_gradient_hessian, strong_form_Q

__all__ = [
    "ConditionEntry", "HypothesisReport", "MaxPrincipleReport", "BarrierCertificate",
    "check_hypotheses", "max_principle_conditions", "FLOW_TIME_SAMPLES",
    "RHO_T_ROUNDING", "NEGATIVE_LAMBDA",
    "strong_form_Q", "flow_time_range", "level_curves",
    "cylinder_kappa", "cylinder_mean_curvature", "inf_boundary_cylinder_curvature",
    "height_barrier", "search_height_barrier",
    "boundary_barrier", "upper_barrier_check", "search_boundary_barrier",
    "cylinder_monotonicity_probe", "boundary_normal_slope",
    "sigma_diameter",
]


# -- hypothesis checks ------------------------------------------------------


class ConditionEntry:
    def __init__(self, name: str, inequality: str, margin: float, passed: bool,
                 evaluable: bool = True, note: str = ""):
        self.name, self.inequality, self.margin = name, inequality, margin
        self.passed, self.evaluable, self.note = passed, evaluable, note

    def to_json(self):
        return dict(vars(self))


class HypothesisReport:
    def __init__(self, conditions: List[ConditionEntry], inf_HK: float,
                 inf_HGamma: float):
        self.conditions, self.inf_HK, self.inf_HGamma = conditions, inf_HK, inf_HGamma

    def get(self, name: str) -> ConditionEntry:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions if c.evaluable)

    def failing(self):
        return [c.name for c in self.conditions if c.evaluable and not c.passed]

    def to_json(self):
        return {"conditions": [c.to_json() for c in self.conditions],
                "inf_HK": self.inf_HK, "inf_HGamma": self.inf_HGamma,
                "passed": self.passed}


class MaxPrincipleReport:
    def __init__(self, rho_t_margin: float, lambda_t_H_margin: float,
                 t_range: tuple, samples: int, passed: bool):
        self.rho_t_margin, self.lambda_t_H_margin = rho_t_margin, lambda_t_H_margin
        self.t_range, self.samples, self.passed = t_range, samples, passed

    def to_json(self):
        return dict(vars(self))


# one reason for every such barrier candidate, which ``_search`` groups
NEGATIVE_LAMBDA = "barrier reaches a flow time where lambda is negative or NaN"

# flow times at which the conditions on lambda are sampled
FLOW_TIME_SAMPLES = 512

# how far below 0 rho_t may fall and still pass both rho_t >= 0 checks: a
# rounding allowance, since a custom ambient's rho_t, the jet of log lambda,
# is a difference of equal terms on a sum such as exp(t)*exp(2*t) + 0
# (-5.3e-15 on its flow times; a product alone is split into exact terms)
RHO_T_ROUNDING = 1e-12


def flow_time_range(problem: Problem):
    """Flow times on which the conformal-factor conditions are sampled: from
    one below the lowest boundary value (or 0) to just above the base leaf."""
    phi_min = float(problem.phi[problem.mesh.boundary_vertices].min())
    lo = min(phi_min, 0.0) - 1.0
    hi = 0.01
    if math.isfinite(problem.ambient.interval_end):
        hi = min(hi, 0.5 * problem.ambient.interval_end)
    return lo, hi


def _lambda_samples(problem: Problem):
    """The ``FLOW_TIME_SAMPLES`` flow times spanning ``flow_time_range``
    with ``lambda_t = lambda rho`` and ``rho_t`` there; sampled once per
    problem, read by both conformal-factor checks."""
    def build():
        ts = np.linspace(*flow_time_range(problem), FLOW_TIME_SAMPLES)
        lam, rho, rho_t = map(np.asarray, problem.ambient.flow(ts))
        return ts, lam * rho, rho_t
    return problem.derived("lambda_samples", build)


def check_hypotheses(problem: Problem) -> HypothesisReport:
    """Evaluate the solvability conditions; everything is a report entry,
    nothing raises."""
    amb, mesh = problem.ambient, problem.mesh
    phi_b = problem.phi[mesh.boundary_vertices]
    _, lam_t, rt = _lambda_samples(problem)

    inf_hk, inf_hg = inf_boundary_cylinder_curvature(mesh, amb)
    sup_h = float(problem.H.values.max())
    min_h = float(problem.H.values.min())
    serrin = inf_hk - sup_h

    conds = [
        ConditionEntry("lambda_t_nonneg", "lambda_t >= 0",
                       float(lam_t.min()), bool(lam_t.min() >= 0)),
        ConditionEntry("rho_t_nonneg", "(lambda_t/lambda)_t >= 0",
                       float(rt.min()), bool(rt.min() >= -RHO_T_ROUNDING)),
        ConditionEntry("phi_nonpos", "phi <= 0 on the boundary",
                       float(-phi_b.max()), bool(phi_b.max() <= 0)),
        ConditionEntry("H_nonneg", "H >= 0", min_h, bool(min_h >= 0)),
        ConditionEntry("H_below_inf_HK", "sup H < inf H_K at t = 0",
                       float(serrin), bool(serrin > 0),
                       note=f"inf_HK={inf_hk!r}; non-strict pass: {serrin >= 0}"),
    ]
    conds.extend(_ricci_conditions(problem, inf_hk, inf_hg))
    return HypothesisReport(conds, inf_hk, inf_hg)


def max_principle_conditions(problem: Problem) -> MaxPrincipleReport:
    """Check ``rho_t >= 0``, down to ``-RHO_T_ROUNDING`` as in
    ``check_hypotheses``, and ``lambda_t * H >= 0`` at its flow times."""
    ts, lam_t, rt = _lambda_samples(problem)
    rt_min = float(rt.min())
    hmin, hmax = float(problem.H.values.min()), float(problem.H.values.max())
    prod = float(np.minimum(lam_t * hmin, lam_t * hmax).min())
    return MaxPrincipleReport(rt_min, prod, (float(ts[0]), float(ts[-1])),
                              FLOW_TIME_SAMPLES, rt_min >= -RHO_T_ROUNDING and prod >= 0)


def _ricci_conditions(problem: Problem, inf_hk: float, inf_hg: float):
    """The three radial Ricci branches.

    The ambient radial Ricci along a leaf is tied to the leaf Ricci by
    ``Ric_amb = Ric_leaf - (n k^2 - sqrt(gamma) k_t)`` (constant gamma),
    with the leaf curvature ``k = -rho sqrt(gamma)/lambda`` and
    ``sqrt(gamma) k_t = k^2 - gamma rho_t`` at the base leaf.  The leaf Ricci
    is ``(n - 1)`` times the Gaussian curvature of the leaf metric.
    """
    amb, mesh = problem.ambient, problem.mesh
    gam = np.asarray(amb.gamma(mesh.vertices)[0])
    gconst = float(gam.max() - gam.min()) <= 1e-10 * max(1.0, float(np.abs(gam).max()))
    ric_leaf = (n - 1) * amb.leaf.curvature

    rho_t0 = float(np.asarray(amb.flow(0.0)[2]))
    k0 = float(leaf_mean_curvature(amb, mesh.vertices[0]))
    x_term = n * k0**2 - (k0**2 - float(gam[0]) * rho_t0)
    ric_amb = ric_leaf - x_term

    # why the ambient margins are not evaluable; None where they are
    no_amb = None if gconst else "non-constant gamma: radial direction field not computable"

    def entry(name, inequality, margin, why, note):
        if why is not None:
            return ConditionEntry(name, inequality, math.nan, False,
                                  evaluable=False, note=why)
        return ConditionEntry(name, inequality, margin, bool(margin >= 0), note=note)

    return [
        entry("ricci_simple", "Ric_amb_rad >= -n (inf H_K)^2",
              ric_amb + n * inf_hk**2, no_amb, f"Ric_amb_rad={ric_amb!r}"),
        entry("ricci_refined",
              "Ric_amb_rad + (n k^2 - sqrt(gamma) k_t) >= -n (inf H_K)^2",
              ric_amb + x_term + n * inf_hk**2, no_amb, ""),
        entry("ricci_corollary3", "n Ric_leaf_rad >= -(n-1)^2 (inf H_Gamma)^2",
              ric_leaf + (n - 1) ** 2 / n * inf_hg**2, None,
              f"Ric_leaf_rad={ric_leaf!r}"),
    ]


def _distance_geometry(problem: Problem, elements: bool = False, points=None):
    """Gradient covector and covariant Hessian of the boundary distance at
    the element centroids (``elements``), at the vertices, or at chart
    points ``points`` ``(m, 2)``.  Presets use closed forms; generic meshes
    the recovered vertex derivatives, averaged over each element or
    interpolated linearly in the element holding each point (one
    ``locate_points`` call), usable where all three vertices are confident
    (and the point lies inside the mesh).

    Returns (grad (m,2), hess (m,2,2), usable (m,)), and at ``points`` the
    distance (m,): the closed form, or the interpolated vertex distances."""
    mesh = problem.mesh
    if mesh.polar is not None:
        if points is not None:
            return (*mesh.polar.distance_derivatives(points, mesh.h),
                    mesh.polar.distance(points))
        pts = mesh.vertices[mesh.triangles].mean(axis=1) if elements else mesh.vertices
        return mesh.polar.distance_derivatives(pts, mesh.h)
    grad, hess, conf = problem.distance_recovery()
    tri = mesh.triangles
    if points is not None:
        element, bary = locate_points(mesh, points)
        tri = tri[element]
        return (np.einsum("ma,mai->mi", bary, grad[tri]),
                np.einsum("ma,maij->mij", bary, hess[tri]),
                (bary.min(axis=1) >= -1e-12) & conf[tri].all(axis=1),
                np.einsum("ma,ma->m", bary, mesh.dist_to_boundary[tri]))
    if not elements:
        return grad, hess, conf
    return grad[tri].mean(axis=1), hess[tri].mean(axis=1), conf[tri].all(axis=1)


# -- barrier certificates ---------------------------------------------------


class BarrierCertificate:
    def __init__(self, kind: str, params: dict, min_margin: float,
                 margin_location: int, ordering_ok: Optional[bool],
                 worst_ordering_violation: float, skipped: int, valid: bool,
                 gradient_bound: Optional[float] = None, note: str = ""):
        self.kind = kind                      # height | boundary_lower | boundary_upper
        self.params, self.min_margin = params, min_margin
        self.margin_location = margin_location    # element (height) or vertex (boundary)
        self.ordering_ok = ordering_ok
        self.worst_ordering_violation = worst_ordering_violation
        self.skipped, self.valid = skipped, valid
        self.gradient_bound, self.note = gradient_bound, note

    @classmethod
    def failed(cls, kind: str, note: str) -> "BarrierCertificate":
        """The entry of a search that found no certificate, ``note`` its
        reason: not valid, and None for each value it has not got."""
        return cls(kind, None, None, None, None, None, None, False, note=note)

    def to_json(self):
        params = None if self.params is None else dict(self.params)
        return {**vars(self), "params": params}


def _certificate(problem: Problem, kind: str, params: dict, where, jet, gap,
                 skipped: int, gradient_bound) -> BarrierCertificate:
    """The acceptance rule of every barrier certificate.

    ``jet`` holds the barrier's chart points, values, gradients, covariant
    Hessians and the prescribed ``H`` at the checked points ``where``
    (element or vertex indices).  The margin is the strong-form operator
    value there, negated for the upper barrier, which needs ``Q < 0``.
    ``gap`` is the ordering slack of the solution against the barrier,
    ``>= 0`` where they are in order, or None without a solution.  The
    certificate is valid iff every margin is finite, the least one is
    positive and the gap stays above ``-10 h^2``; a rejected one gives the
    reason in its ``note``.
    """
    mesh = problem.mesh
    sign = -1.0 if kind == "boundary_upper" else 1.0
    # lambda underflows under a steep barrier, where a custom ambient's rho,
    # the jet of log lambda, can be 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = sign * strong_form_Q(problem.ambient, *jet)
    min_margin = float(margin.min())
    ordering_ok, worst = None, 0.0
    if gap is not None:
        worst = float(min(gap.min(), 0.0))
        ordering_ok = bool(worst >= -10.0 * mesh.h**2)
    note = ""
    nonfinite = int(np.count_nonzero(~np.isfinite(margin)))
    if nonfinite:
        note = f"margin not finite at {nonfinite} of {len(margin)} checked points"
    elif not min_margin > 0:
        note = "min_margin <= 0"
    elif ordering_ok is False:
        note = "solution not ordered with the barrier"
    return BarrierCertificate(kind, params, min_margin, int(where[np.argmin(margin)]),
                              ordering_ok, worst, skipped, not note,
                              gradient_bound, note)


def _search(what: str, candidates, build):
    """The first valid certificate among ``candidates``, parameter dicts
    passed to ``build``, which returns ``(barrier, certificate)``.

    A candidate is rejected by the ParameterError it raises or by its
    certificate's note.  An exhausted search raises one ParameterError that
    names each distinct reason once, with the candidates it rejected, and
    the largest finite margin seen."""
    failures, margins = [], []          # (label, reason); finite margins
    for params in candidates:
        label = ", ".join(f"{key} = {value:g}" for key, value in params.items())
        try:
            barrier, cert = build(**params)
        except ParameterError as exc:
            failures.append((label, str(exc)))
            continue
        if cert.valid:
            cert.note = f"search: {len(failures)} rejected candidates"
            return barrier, cert
        failures.append((label, cert.note))
        if math.isfinite(cert.min_margin):
            margins.append(cert.min_margin)
    reasons = {}
    for label, reason in failures:
        reasons.setdefault(reason, []).append(label)
    parts = [f"{reason} [{len(labels)} candidates, {labels[0]}"
             + (f" .. {labels[-1]}]" if len(labels) > 1 else "]")
             for reason, labels in reasons.items()]
    if margins:
        parts.append(f"largest min_margin {max(margins):.6g}")
    raise ParameterError(f"{what} search exhausted after {len(failures)} "
                         "candidates: " + "; ".join(parts))


def sigma_diameter(mesh: DomainMesh, ambient: AmbientSpace) -> float:
    """Chart-segment estimate of the diameter in the leaf metric over at
    most 64 boundary vertices; twice the outer radius on a preset domain."""
    if mesh.polar is not None:
        return mesh.polar.diameter
    bv = mesh.boundary_vertices
    if len(bv) > 64:
        bv = bv[np.linspace(0, len(bv) - 1, 64).astype(int)]
    pts = mesh.vertices[bv]
    best = 0.0
    qs = np.linspace(0.0, 1.0, 9)
    for i in range(len(pts)):
        seg = pts[i][None, None, :] + (pts - pts[i])[:, None, :] * qs[None, :, None]
        S = np.asarray(ambient.base_metric(seg))
        dv = (pts - pts[i])[:, None, :] / 8.0
        speed = np.sqrt(np.einsum("pqi,pqij,pqj->pq", np.broadcast_to(dv, seg.shape),
                                  S, np.broadcast_to(dv, seg.shape)))
        # trapezoid along each segment
        lengths = speed[:, :-1].sum(axis=1) + 0.5 * (speed[:, -1] - speed[:, 0])
        best = max(best, float(lengths.max()))
    return best


def _diameter(problem: Problem) -> float:
    """``sigma_diameter`` of the problem's domain, computed once."""
    return problem.derived("sigma_diameter",
                           lambda: sigma_diameter(problem.mesh, problem.ambient))


def height_barrier(problem: Problem, D: float, B: float,
                   z: Optional[ScalarField] = None):
    """Exponential-in-distance lower barrier under the whole domain.

    ``phi_bar = inf phi + (e^(DB)/D)(e^(-Dd) - 1)``; the certificate holds
    iff the strong-form operator value is positive at every checked element
    centroid and, given ``z``, the solution lies between the barrier and the
    boundary sup.  Returns ``(ScalarField, BarrierCertificate)``.
    """
    amb, mesh = problem.ambient, problem.mesh
    diam = _diameter(problem)
    if B <= diam:
        raise ParameterError(f"B = {B} must exceed the domain diameter {diam:.6g}")
    if D <= 0:
        raise ParameterError("D must be positive")
    if D * B > 200:      # keep U^3 = (gamma + f'^2)^(3/2) representable
        raise ParameterError("exp(D*B) overflows: D*B > 200")
    phi_b = problem.phi[mesh.boundary_vertices]
    phi_inf = float(phi_b.min())
    d = mesh.dist_to_boundary

    def f(dd):
        return (math.exp(D * B) / D) * (np.exp(-D * dd) - 1.0)

    barrier = ScalarField(mesh, phi_inf + f(d))
    if lambda_fault(amb, barrier.values) is not None:
        raise ParameterError(NEGATIVE_LAMBDA)

    gd, hd, usable = _distance_geometry(problem, elements=True)
    keep = usable.copy()
    keep[mesh.suspect_elements] = False
    where = np.nonzero(keep)[0]
    if len(where) == 0:
        raise ParameterError("no usable elements for the height barrier")
    tri = mesh.triangles[where]
    d_c = d[tri].mean(axis=1)
    gd, hd = gd[where], hd[where]
    fp = -np.exp(D * (B - d_c))
    hess = (-D * fp)[:, None, None] * np.einsum("mi,mj->mij", gd, gd) \
        + fp[:, None, None] * hd
    jet = (mesh.vertices[tri].mean(axis=1), phi_inf + f(d_c), fp[:, None] * gd, hess,
           problem.H.values[tri].mean(axis=1))
    # two-sided height bound: above the barrier, below the boundary sup
    gap = None if z is None else np.minimum(z.values - barrier.values,
                                            float(phi_b.max()) - z.values)
    return barrier, _certificate(problem, "height", {"D": D, "B": B}, where, jet, gap,
                                 len(keep) - len(where), None)


def search_height_barrier(problem: Problem, z: Optional[ScalarField] = None):
    """Doubling search over the exponent rate ``D = 1 .. 2^20`` at ``B``
    1.01 times the diameter; the first valid certificate wins."""
    B = 1.01 * _diameter(problem)
    return _search("height barrier", ({"D": 2.0**j} for j in range(21)),
                   lambda D: height_barrier(problem, D, B, z))


class _BoundaryStrip:
    """What a boundary-barrier check needs that does not depend on the
    candidate ``(mu, c)``: the strip ``d <= eps``, the extended boundary
    data ``phi``, the checkable strip vertices ``idx`` with the distance
    gradient, its square and Hessian and the derivatives of ``phi`` there,
    and the two strip boundary components of the ordering check."""

    def __init__(self, strip, phi, idx, gd, gd2, hd, gphi, hphi, comps):
        self.strip, self.phi, self.idx = strip, phi, idx
        self.gd, self.gd2, self.hd = gd, gd2, hd
        self.gphi, self.hphi, self.comps = gphi, hphi, comps


def _boundary_strip(problem: Problem, eps: float) -> _BoundaryStrip:
    """The candidate-independent part of both boundary barriers, built once
    per problem and strip width.  The data extends as ``problem.phi``, or
    as one value with derivatives 0 where it is constant on the boundary.
    The checked vertices are the interior strip vertices where the
    recovered derivatives are confident, off the suspect elements; a
    ParameterError names why there are none."""
    def build():
        mesh = problem.mesh
        if eps <= 0:
            raise ParameterError("eps must be positive")
        d = mesh.dist_to_boundary
        strip = d <= eps + 1e-12
        inner = strip & ~mesh.is_boundary
        if not np.any(inner):
            raise ParameterError(f"tubular strip is empty at eps = {eps}")
        gd, hd, usable = _distance_geometry(problem, elements=False)
        check = inner & usable
        check[mesh.triangles[mesh.suspect_elements].ravel()] = False
        phi_b = problem.phi[mesh.boundary_vertices]
        if float(np.ptp(phi_b)) < 1e-14:
            phi, gphi, hphi = float(phi_b[0]), 0.0, 0.0
        else:
            phi = problem.phi
            gphi, hphi, conf_phi = recover_gradient_hessian(mesh, problem.ambient, phi)
            check &= conf_phi
            gphi, hphi = gphi[check], hphi[check]
        if not np.any(check):
            raise ParameterError(f"no checkable strip vertices at eps = {eps}; "
                                 "increase eps or decrease h")
        idx = np.nonzero(check)[0]
        comps = mesh.is_boundary | (strip & (d >= eps - 1.5 * mesh.h))
        return _BoundaryStrip(strip, phi, idx, gd[idx],
                              np.einsum("mi,mj->mij", gd[idx], gd[idx]), hd[idx],
                              gphi, hphi, comps)
    return problem.derived(("boundary_strip", eps), build)


def _boundary_barrier_cert(problem: Problem, mu, c, eps, z, sign):
    """Shared machinery for the lower (sign=+1) and upper (sign=-1) strips."""
    amb, mesh = problem.ambient, problem.mesh
    if mu <= 0 or c <= 0:
        raise ParameterError("mu and c must be positive")
    s = _boundary_strip(problem, eps)
    d = mesh.dist_to_boundary
    mut = c / math.log1p(mu)
    values = s.phi + sign * (-mut * np.log1p(mu * d))
    if np.any(values[s.strip] >= amb.interval_end):
        raise ParameterError("barrier leaves the flow interval on the strip")
    if lambda_fault(amb, values[s.strip]) is not None:
        raise ParameterError(NEGATIVE_LAMBDA)
    barrier = ScalarField(mesh, values)

    idx, di = s.idx, d[s.idx]
    wp = sign * (-mut * mu / (1.0 + mu * di))
    wpp = sign * (mut * mu**2 / (1.0 + mu * di) ** 2)
    jet = (mesh.vertices[idx], values[idx], wp[:, None] * s.gd + s.gphi,
           wpp[:, None, None] * s.gd2 + wp[:, None, None] * s.hd + s.hphi,
           problem.H.values[idx])
    # the barrier below the solution (lower) or above it (upper) on both
    # strip boundary components
    gap = None if z is None else (sign * (z.values - values))[s.comps]
    return barrier, _certificate(
        problem, "boundary_lower" if sign > 0 else "boundary_upper",
        {"mu": mu, "mu_tilde": mut, "c": c, "eps": eps}, idx, jet, gap,
        int(np.count_nonzero(s.strip) - len(idx)), c * mu / math.log1p(mu))


def boundary_barrier(problem: Problem, mu: float, c: float, eps: float,
                     z: Optional[ScalarField] = None):
    """Logarithmic lower barrier on the boundary strip: ``w + phi`` with
    ``w = -(c/ln(1+mu)) ln(1+mu d)``, extended boundary data ``phi``.

    The certificate requires a positive strong-form operator value at every
    checkable strip vertex and ``w + phi <= z`` on both strip boundary
    components; it carries the implied slope bound ``|w'(0)| = c mu/ln(1+mu)``.
    """
    return _boundary_barrier_cert(problem, mu, c, eps, z, +1)


def upper_barrier_check(problem: Problem, mu: float, c: float, eps: float,
                        z: Optional[ScalarField] = None):
    """Mirror construction ``-w + phi`` with the reversed inequalities."""
    return _boundary_barrier_cert(problem, mu, c, eps, z, -1)


def search_boundary_barrier(problem: Problem, z: Optional[ScalarField] = None,
                            eps: float = 0.05, upper: bool = False):
    """Logarithmic grid search over (mu, c); first valid certificate wins.
    The strip is built before the first candidate, so one that no (mu, c)
    can pass (empty, or without a checkable vertex) raises its reason."""
    _boundary_strip(problem, eps)
    span = float(np.ptp(problem.phi[problem.mesh.boundary_vertices]))
    if z is not None:
        span = max(span, float(np.ptp(z.values)))
    scale = max(1.0, 2.0 * span)
    fn = upper_barrier_check if upper else boundary_barrier
    grid = ({"mu": 10.0**j, "c": cf * scale}
            for j in range(7) for cf in (0.25, 0.5, 1.0, 2.0, 4.0))
    return _search("boundary barrier", grid,
                   lambda mu, c: fn(problem, mu, c, eps, z))


# -- level curves of the boundary distance and probes ----------------------


def _boundary_curves(mesh: DomainMesh, ambient: AmbientSpace):
    """The boundary loops as curves ``(points, inward unit normals,
    geodesic curvature toward the normals)``: the ``PolarDomain``'s closed
    forms on presets, the geodesic curvature of the boundary polylines on
    generic meshes."""
    if mesh.polar is not None:
        return [(mesh.vertices[loop], mesh.boundary_normal[loop],
                 mesh.polar.circle_curvature(np.linalg.norm(mesh.vertices[loop], axis=1)))
                for loop in mesh.boundary_loops]
    return [(mesh.vertices[loop], *closed_polyline_geometry(mesh.vertices[loop], ambient))
            for loop in mesh.boundary_loops]


def level_curves(problem: Problem, depths):
    """The level sets ``d = depth`` of the boundary distance at positive
    finite depths, one list of components ``(points, inward unit normals,
    geodesic curvature toward the normals)`` per depth.

    Every boundary vertex moves inward by ``depth`` along its normal, and
    the level set there is read from the distance derivatives at those
    points (one ``_distance_geometry`` call for all depths): the normal
    ``nu = grad d / |grad d|`` and the curvature
    ``-(tr(S^-1 Hess d) - Hess d(nu, nu)) / |grad d|`` (Gilbarg & Trudinger,
    Lemma 14.17).  A point counts where the derivatives are usable, the
    distance there is within ``h`` of the depth and the curve is resolved,
    ``|curvature| h <= 1``.  Each boundary loop with a point that counts
    gives one component, so a depth where no point counts has none."""
    mesh = problem.mesh
    depths = [float(eps) for eps in depths]
    for eps in depths:
        if not (math.isfinite(eps) and eps > 0):
            raise ParameterError(f"level set depth must be a positive finite number, "
                                 f"got {eps!r}")
    loops = mesh.boundary_loops
    base = np.concatenate([mesh.vertices[loop] for loop in loops])
    normal = np.concatenate([mesh.boundary_normal[loop] for loop in loops])
    pts = (base + np.multiply.outer(depths, normal)).reshape(-1, 2)
    grad, hess, usable, dist = _distance_geometry(problem, points=pts)
    # |grad d| is 0 where the recovered distance is flat (the disk centre)
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py, norm, trace = _projected_trace(problem.ambient.base_metric(pts), grad, hess)
        nu = np.stack([px, py], axis=1) / norm[:, None]
        curvature = -trace / norm
        count = (usable & (np.abs(dist - np.repeat(depths, len(base))) <= mesh.h)
                 & (np.abs(curvature) * mesh.h <= 1.0))
    # one piece per boundary loop and depth, the depths in turn
    ends = np.cumsum([len(loop) for loop in loops] * len(depths))[:-1]
    pieces = [(p[k], n[k], c[k]) for p, n, c, k in
              zip(*(np.split(a, ends) for a in (pts, nu, curvature, count)))]
    return [[c for c in pieces[j:j + len(loops)] if len(c[0])]
            for j in range(0, len(depths) * len(loops), len(loops))]


def cylinder_kappa(ambient: AmbientSpace, u, eta):
    """Principal curvature of the cylinder along the flow direction at the
    base leaf, ``kappa = eta(log sqrt(gamma))``, where ``eta`` is the inward
    unit normal of the curve in the leaf metric; ``kappa / lambda(t)`` at
    the leaf ``t``.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g, dg = map(np.asarray, ambient.gamma(u))
    return np.einsum("...i,...i->...", dg, eta) / (2.0 * g)


def cylinder_mean_curvature(ambient: AmbientSpace, u, eta, H_Gamma):
    """Inward mean curvature of the cylinder over a curve of geodesic
    curvature ``H_Gamma`` at the base leaf, ``H_K = (kappa + (n-1) H_Gamma)
    / n``; ``H_K / lambda(t)`` at the leaf ``t``."""
    return (cylinder_kappa(ambient, u, eta) + (n - 1) * np.asarray(H_Gamma)) / n


def inf_boundary_cylinder_curvature(mesh: DomainMesh, ambient: AmbientSpace):
    """Infimum over the boundary vertices of the inward cylinder curvature
    ``H_K`` at the base leaf (``H_K / lambda(t)`` at the leaf ``t``), and of
    the boundary curvature."""
    curves = _boundary_curves(mesh, ambient)
    hk = np.concatenate([cylinder_mean_curvature(ambient, *curve) for curve in curves])
    return float(np.min(hk)), float(np.min(np.concatenate([hg for *_, hg in curves])))


def cylinder_monotonicity_probe(problem: Problem, depths):
    """Curvature of the flow cylinders over inner distance level sets
    (``level_curves``, which refuses a depth that is not a positive finite
    number).

    Returns a dict with per-depth entries and whether the probed curvatures
    stay above the boundary value (the expected monotone behaviour), None
    when every depth is skipped; on a generic mesh each entry also lists
    the infimum on each component, one per boundary loop that keeps a
    point."""
    amb, mesh = problem.ambient, problem.mesh
    depths = [float(eps) for eps in depths]
    inf_hk, _ = inf_boundary_cylinder_curvature(mesh, amb)
    rows = []
    for eps, curves in zip(depths, level_curves(problem, depths)):
        row = {"eps": eps, "skipped": not curves, "H_K": None}
        if curves:
            hks = [float(np.min(cylinder_mean_curvature(amb, *curve))) for curve in curves]
            if mesh.polar is None:
                row["components"] = hks
            row["H_K"] = min(hks)
        else:
            row["reason"] = (f"no point of the level set at depth {eps:g} has "
                             "usable distance derivatives, a distance within h of the "
                             "depth and |curvature| h <= 1")
        rows.append(row)
    vals = [r["H_K"] for r in rows if not r["skipped"]]
    monotone = bool(min(vals) >= inf_hk - 1e-9) if vals else None
    return {"rows": rows, "inf_HK_boundary": inf_hk, "monotone": monotone}


def boundary_normal_slope(problem: Problem, z: ScalarField) -> np.ndarray:
    """Inward normal derivative of a field at each boundary vertex, from
    adjacent element gradients."""
    mesh = problem.mesh
    G, A = _hat_gradients(mesh.vertices, mesh.triangles)
    gz = np.einsum("eai,ea->ei", G, z.values[mesh.triangles])
    # area-weighted gradients and areas, summed into 3 v + column corner by
    # corner, the order of ``_Assembly._scatter``
    corner = np.tile(np.column_stack([gz * A[:, None], A]), (3, 1))
    keys = 3 * mesh.triangles.T.reshape(-1, 1) + np.arange(3)
    sums = np.bincount(keys.ravel(), weights=corner.ravel(),
                       minlength=3 * mesh.n_vertices).reshape(-1, 3)
    grad = sums[:, :2] / sums[:, 2:]
    bv = mesh.boundary_vertices
    return np.einsum("bi,bi->b", grad[bv], mesh.boundary_normal[bv])
