"""Solvability checks and barrier certificates.

Two layers: a hypothesis checker that evaluates the inequalities under which
the Dirichlet problem is solvable (monotonicity of the conformal factor,
sign conditions on the data, the boundary cylinder condition, and the radial
Ricci bounds), and explicit sub/supersolution constructions whose defining
inequalities are verified pointwise on the mesh, yielding machine-checkable
certificates.

The hypotheses are checked at the base leaf ``t = 0``.  The conditions on
the conformal factor, here and in ``max_principle_conditions``, read one
sampling of ``lambda`` per problem; the boundary cylinder condition and the
monotonicity probe read the level curves of ``level_curves``.

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

from .ambient import AmbientSpace, leaf_mean_curvature, n
from .errors import ParameterError
from .fields import ScalarField
from .mesh import DomainMesh, closed_polyline_geometry
from .operator import (Problem, recover_gradient_hessian, strong_form_Q,
                       _hat_gradients)

__all__ = [
    "ConditionEntry", "HypothesisReport", "MaxPrincipleReport", "BarrierCertificate",
    "check_hypotheses", "max_principle_conditions", "FLOW_TIME_SAMPLES",
    "RHO_T_ROUNDING",
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
        return {"name": self.name, "inequality": self.inequality,
                "margin": self.margin, "passed": self.passed,
                "evaluable": self.evaluable, "note": self.note}


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
        return {"rho_t_margin": self.rho_t_margin,
                "lambda_t_H_margin": self.lambda_t_H_margin,
                "t_range": self.t_range, "samples": self.samples,
                "passed": self.passed}


# flow times at which the conditions on lambda are sampled
FLOW_TIME_SAMPLES = 512

# how far below 0 rho_t may fall and still pass both rho_t >= 0 checks: a
# rounding allowance, since a custom ambient's rho_t, the jet of log lambda,
# is a difference of equal terms on a product such as exp(t)*exp(2*t)
# (-5.3e-15 on its flow times)
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
        amb = problem.ambient
        ts = np.linspace(*flow_time_range(problem), FLOW_TIME_SAMPLES)
        lam_t = np.asarray(amb.lam(ts)) * np.asarray(amb.rho(ts))
        return ts, lam_t, np.asarray(amb.rho_t(ts))
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
    gam = np.asarray(amb.gamma(mesh.vertices))
    gconst = float(gam.max() - gam.min()) <= 1e-10 * max(1.0, float(np.abs(gam).max()))
    ric_leaf = (n - 1) * amb.leaf.curvature

    rho_t0 = float(np.asarray(amb.rho_t(0.0)))
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


def _distance_geometry(problem: Problem, elements: bool):
    """Gradient covector and covariant Hessian of the boundary distance at
    the element centroids (``elements``) or at the vertices.  Presets use
    closed forms; generic meshes the recovered vertex derivatives, averaged
    over each element and usable where all three vertices are confident.

    Returns (grad (m,2), hess (m,2,2), usable (m,))."""
    mesh = problem.mesh
    if mesh.polar is not None:
        pts = mesh.vertices[mesh.triangles].mean(axis=1) if elements else mesh.vertices
        return mesh.polar.distance_derivatives(pts, mesh.h)
    grad, hess, conf = problem.distance_recovery()
    if not elements:
        return grad, hess, conf
    tri = mesh.triangles
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

    def to_json(self):
        return {"kind": self.kind, "params": dict(self.params),
                "min_margin": self.min_margin,
                "margin_location": self.margin_location,
                "ordering_ok": self.ordering_ok,
                "worst_ordering_violation": self.worst_ordering_violation,
                "skipped": self.skipped, "valid": self.valid,
                "gradient_bound": self.gradient_bound, "note": self.note}


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


def height_barrier(problem: Problem, D: float, B: float,
                   z: Optional[ScalarField] = None):
    """Exponential-in-distance lower barrier under the whole domain.

    ``phi_bar = inf phi + (e^(DB)/D)(e^(-Dd) - 1)``; the certificate holds
    iff the strong-form operator value is positive at every checked element
    centroid and, given ``z``, the solution lies between the barrier and the
    boundary sup.  Returns ``(ScalarField, BarrierCertificate)``.
    """
    amb, mesh = problem.ambient, problem.mesh
    diam = sigma_diameter(mesh, amb)
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
    B = 1.01 * sigma_diameter(problem.mesh, problem.ambient)
    return _search("height barrier", ({"D": 2.0**j} for j in range(21)),
                   lambda D: height_barrier(problem, D, B, z))


class _BoundaryStrip:
    """What a boundary-barrier check needs that does not depend on the
    candidate ``(mu, c)``: the strip ``d <= eps``, the extended boundary
    data, the checkable strip vertices ``idx`` with the distance gradient,
    its square and Hessian and the recovered derivatives of the extended
    data there, and the two strip boundary components of the ordering
    check."""

    def __init__(self, strip, phi_ext, idx, gd, gd2, hd, gphi, hphi, comps):
        self.strip, self.phi_ext, self.idx = strip, phi_ext, idx
        self.gd, self.gd2, self.hd = gd, gd2, hd
        self.gphi, self.hphi, self.comps = gphi, hphi, comps


def _boundary_strip(problem: Problem, eps: float) -> _BoundaryStrip:
    """The candidate-independent part of both boundary barriers, built once
    per problem and strip width.  The checked vertices are the interior
    strip vertices where the recovered derivatives are confident, off the
    suspect elements; a ParameterError names why there are none."""
    def build():
        mesh = problem.mesh
        if eps <= 0:
            raise ParameterError("eps must be positive")
        d = mesh.dist_to_boundary
        strip = d <= eps + 1e-12
        inner = strip & ~mesh.is_boundary
        if not np.any(inner):
            raise ParameterError(f"tubular strip is empty at eps = {eps}")
        phi_ext = problem.boundary_extension()
        gd, hd, usable = _distance_geometry(problem, elements=False)
        const_phi = float(np.ptp(problem.phi[mesh.boundary_vertices])) < 1e-14
        if const_phi:
            gphi = np.zeros((mesh.n_vertices, 2))
            hphi = np.zeros((mesh.n_vertices, 2, 2))
            conf_phi = np.ones(mesh.n_vertices, dtype=bool)
        else:
            gphi, hphi, conf_phi = recover_gradient_hessian(mesh, problem.ambient,
                                                            phi_ext)
        check = inner & usable & conf_phi
        check[mesh.triangles[mesh.suspect_elements].ravel()] = False
        if not np.any(check):
            raise ParameterError(f"no checkable strip vertices at eps = {eps}; "
                                 "increase eps or decrease h")
        idx = np.nonzero(check)[0]
        comps = mesh.is_boundary | (strip & (d >= eps - 1.5 * mesh.h))
        return _BoundaryStrip(strip, phi_ext, idx, gd[idx],
                              np.einsum("mi,mj->mij", gd[idx], gd[idx]), hd[idx],
                              gphi[idx], hphi[idx], comps)
    return problem.derived(("boundary_strip", eps), build)


def _boundary_barrier_cert(problem: Problem, mu, c, eps, z, sign):
    """Shared machinery for the lower (sign=+1) and upper (sign=-1) strips."""
    amb, mesh = problem.ambient, problem.mesh
    if mu <= 0 or c <= 0:
        raise ParameterError("mu and c must be positive")
    s = _boundary_strip(problem, eps)
    d = mesh.dist_to_boundary
    mut = c / math.log1p(mu)
    values = s.phi_ext + sign * (-mut * np.log1p(mu * d))
    if math.isfinite(amb.interval_end) and np.any(
            values[s.strip] >= amb.interval_end):
        raise ParameterError("barrier leaves the flow interval on the strip")
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


def level_curves(mesh: DomainMesh, ambient: AmbientSpace, depth: float):
    """The level set ``d = depth`` of the boundary distance as closed
    curves, one ``(points, inward unit normals, geodesic curvature toward
    the normals)`` per component; depth 0 gives the boundary loops.

    A preset domain moves each boundary loop inward by ``depth`` along its
    normals (a concentric circle) and takes the closed-form curvature
    there.  A generic mesh takes the geodesic curvature of the boundary
    polylines, or of the discrete level curves (``_level_polylines``)."""
    if mesh.polar is not None:
        if depth >= mesh.polar.inradius:
            raise ParameterError(f"depth reaches the inradius {mesh.polar.inradius:g}")
        curves = []
        for loop in mesh.boundary_loops:
            normal = mesh.boundary_normal[loop]
            r = np.linalg.norm(mesh.vertices[loop], axis=1)
            curves.append((mesh.vertices[loop] + depth * normal, normal,
                           mesh.polar.circle_curvature(r, depth)))
        return curves
    polylines = ([mesh.vertices[loop] for loop in mesh.boundary_loops] if depth == 0
                 else _level_polylines(mesh, depth))
    return [(pts, *closed_polyline_geometry(pts, ambient)) for pts in polylines]


def _level_polylines(mesh: DomainMesh, depth: float):
    """The components of the level set ``d = depth > 0`` of a generic mesh
    as closed chart polylines.

    The level set crosses every edge whose ends lie on different sides of
    ``d > depth``.  In each cut element the crossing on the edge that
    leaves that region is followed by the one on the edge that enters it,
    which keeps the region on the left (elements are positively oriented).
    Crossings closer than h/4 in the chart are merged, and components left
    with fewer than three points are dropped.
    """
    d = mesh.dist_to_boundary
    edges, inverse, _ = mesh.edge_table()
    inside = d > depth
    cut = inside[edges[:, 0]] != inside[edges[:, 1]]
    if np.count_nonzero(cut) < 8:
        raise ParameterError(f"level set extraction failed at depth {depth}")
    i, j = edges[cut, 0], edges[cut, 1]
    s = ((d[i] - depth) / (d[i] - d[j]))[:, None]
    cross = np.zeros((len(edges), 2))
    cross[cut] = mesh.vertices[i] + s * (mesh.vertices[j] - mesh.vertices[i])
    ins = inside[mesh.triangles]
    ahead = np.roll(ins, -1, axis=1)              # far end of local edge k
    nxt = np.full(len(edges), -1)
    nxt[inverse[ins & ~ahead]] = inverse[~ins & ahead]
    nxt = nxt.tolist()
    seen = ~cut
    polylines = []
    for start in np.nonzero(cut)[0].tolist():
        if seen[start]:
            continue
        loop, k = [], start
        while not seen[k]:
            seen[k] = True
            loop.append(k)
            k = nxt[k]      # defined: no cut edge is a boundary edge (d = 0 there)
        pts = _merge_close(cross[loop], 0.25 * mesh.h)
        if len(pts) >= 3:
            polylines.append(pts)
    if not polylines:
        raise ParameterError(f"level set extraction failed at depth {depth}")
    return polylines


def _merge_close(pts, tol):
    """Drop the points of a closed chart polyline that lie within ``tol`` of
    the last point kept (the first point is always kept)."""
    keep = [0]
    for k in range(1, len(pts)):
        if math.dist(pts[k], pts[keep[-1]]) >= tol:
            keep.append(k)
    if len(keep) > 1 and math.dist(pts[keep[-1]], pts[0]) < tol:
        keep.pop()
    return pts[keep]


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


def inf_boundary_cylinder_curvature(mesh: DomainMesh, ambient: AmbientSpace):
    """Infimum over the boundary vertices of the inward cylinder curvature
    ``H_K`` at the base leaf (``H_K / lambda(t)`` at the leaf ``t``), and of
    the boundary curvature."""
    curves = level_curves(mesh, ambient, 0.0)
    hk = np.concatenate([cylinder_mean_curvature(ambient, *curve) for curve in curves])
    return float(np.min(hk)), float(np.min(np.concatenate([hg for *_, hg in curves])))


def cylinder_monotonicity_probe(problem: Problem, depths):
    """Curvature of the flow cylinders over inner distance level sets.

    Returns a dict with per-depth entries and whether the probed curvatures
    stay above the boundary value (the expected monotone behaviour); on a
    generic mesh each entry also lists the infimum on each component.
    """
    amb, mesh = problem.ambient, problem.mesh
    inf_hk, _ = inf_boundary_cylinder_curvature(mesh, amb)
    rows = []
    for eps in depths:
        row = {"eps": float(eps), "skipped": False, "H_K": None}
        try:
            hks = [float(np.min(cylinder_mean_curvature(amb, *curve)))
                   for curve in level_curves(mesh, amb, float(eps))]
            if mesh.polar is None:
                row["components"] = hks
            row["H_K"] = min(hks)
        except ParameterError as exc:
            row["skipped"] = True
            row["reason"] = str(exc)
        rows.append(row)
    vals = [r["H_K"] for r in rows if not r["skipped"]]
    monotone = bool(vals and min(vals) >= inf_hk - 1e-9)
    return {"rows": rows, "inf_HK_boundary": inf_hk, "monotone": monotone}


def boundary_normal_slope(problem: Problem, z: ScalarField) -> np.ndarray:
    """Inward normal derivative of a field at each boundary vertex, from
    adjacent element gradients."""
    mesh = problem.mesh
    G, A = _hat_gradients(mesh.vertices, mesh.triangles)
    gz = np.einsum("eai,ea->ei", G, z.values[mesh.triangles])
    acc = np.zeros((mesh.n_vertices, 2))
    wsum = np.zeros(mesh.n_vertices)
    for a in range(3):
        np.add.at(acc, mesh.triangles[:, a], gz * A[:, None])
        np.add.at(wsum, mesh.triangles[:, a], A)
    grad = acc / wsum[:, None]
    bv = mesh.boundary_vertices
    return np.einsum("bi,bi->b", grad[bv], mesh.boundary_normal[bv])
