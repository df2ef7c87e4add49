"""Solvability checks and barrier certificates.

Two layers: a hypothesis checker that evaluates the inequalities under which
the Dirichlet problem is solvable (monotonicity of the conformal factor,
sign conditions on the data, the boundary cylinder condition, and the radial
Ricci bounds), and explicit sub/supersolution constructions whose defining
inequalities are verified pointwise on the mesh, yielding machine-checkable
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .ambient import AmbientSpace, leaf_mean_curvature, n, rho_t
from .cylinder import cylinder_mean_curvature, inf_boundary_cylinder_curvature
from .errors import ParameterError
from .fields import ScalarField
from .mesh import DomainMesh, closed_polyline_geometry
from .operator import (Problem, recover_gradient_hessian, strong_form_Q,
                       _hat_gradients)

__all__ = [
    "ConditionEntry", "HypothesisReport", "BarrierCertificate",
    "check_hypotheses", "strong_form_Q", "flow_time_range",
    "height_barrier", "search_height_barrier",
    "boundary_barrier", "upper_barrier_check", "search_boundary_barrier",
    "cylinder_monotonicity_probe", "boundary_normal_slope",
    "sigma_diameter",
]


# -- hypothesis checks ------------------------------------------------------


@dataclass
class ConditionEntry:
    name: str
    inequality: str
    margin: float
    passed: bool
    evaluable: bool = True
    note: str = ""

    def to_json(self):
        return {
            "name": self.name,
            "inequality": self.inequality,
            "margin": self.margin,
            "passed": self.passed,
            "evaluable": self.evaluable,
            "note": self.note,
        }


@dataclass
class HypothesisReport:
    conditions: List[ConditionEntry]
    inf_HK: float
    inf_HGamma: float

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
        return {
            "conditions": [c.to_json() for c in self.conditions],
            "inf_HK": self.inf_HK,
            "inf_HGamma": self.inf_HGamma,
            "passed": self.passed,
        }


def flow_time_range(problem: Problem):
    """Flow times on which the conformal-factor conditions are sampled: from
    one below the lowest boundary value (or 0) to just above the base leaf."""
    phi_min = float(problem.phi[problem.mesh.boundary_vertices].min())
    lo = min(phi_min, 0.0) - 1.0
    hi = 0.01
    if math.isfinite(problem.ambient.interval_end):
        hi = min(hi, 0.5 * problem.ambient.interval_end)
    return lo, hi


def check_hypotheses(problem: Problem, samples: int = 512) -> HypothesisReport:
    """Evaluate the solvability conditions; everything is a report entry,
    nothing raises."""
    amb, mesh = problem.ambient, problem.mesh
    phi_b = problem.phi[mesh.boundary_vertices]
    ts = np.linspace(*flow_time_range(problem), samples)
    lam_t = np.asarray(amb.lam_t(ts))
    rt = rho_t(amb, ts)

    inf_hk, inf_hg = inf_boundary_cylinder_curvature(mesh, amb, t=0.0)
    sup_h = float(problem.H.values.max())
    min_h = float(problem.H.values.min())
    serrin = inf_hk - sup_h

    conds = [
        ConditionEntry("lambda_t_nonneg", "lambda_t >= 0",
                       float(lam_t.min()), bool(lam_t.min() >= 0)),
        ConditionEntry("rho_t_nonneg", "(lambda_t/lambda)_t >= 0",
                       float(rt.min()), bool(rt.min() >= -1e-12)),
        ConditionEntry("phi_nonpos", "phi <= 0 on the boundary",
                       float(-phi_b.max()), bool(phi_b.max() <= 0)),
        ConditionEntry("H_nonneg", "H >= 0", min_h, bool(min_h >= 0)),
        ConditionEntry("H_below_inf_HK", "sup H < inf H_K at t = 0",
                       float(serrin), bool(serrin > 0),
                       note=f"inf_HK={inf_hk!r}; non-strict pass: {serrin >= 0}"),
    ]
    conds.extend(_ricci_conditions(problem, inf_hk, inf_hg))
    return HypothesisReport(conds, inf_hk, inf_hg)


def _ricci_conditions(problem: Problem, inf_hk: float, inf_hg: float):
    """The three radial Ricci branches.

    The ambient radial Ricci along a leaf is tied to the leaf Ricci by
    ``Ric_amb = Ric_leaf - (n k^2 - sqrt(gamma) k_t)`` (constant gamma),
    with the leaf curvature ``k = -lambda_t sqrt(gamma)/lambda^2`` and
    ``sqrt(gamma) k_t = k^2 - gamma rho_t`` at the base leaf.  Only constant
    base curvature gives a direction-independent radial Ricci; anything else
    is reported as not evaluable rather than guessed.
    """
    amb, mesh = problem.ambient, problem.mesh
    model = amb.curvature_model
    entries = []
    gam = np.asarray(amb.gamma(mesh.vertices))
    gconst = float(gam.max() - gam.min()) <= 1e-10 * max(1.0, float(np.abs(gam).max()))
    known = model.kind in ("flat", "constant_curvature")
    ric_leaf = (n - 1) * model.kappa0 \
        if model.kind == "constant_curvature" else 0.0

    rho_t0 = float(rho_t(amb, 0.0))
    k0 = float(leaf_mean_curvature(amb, 0.0, mesh.vertices[0]))
    x_term = n * k0**2 - (k0**2 - float(gam[0]) * rho_t0)

    if known and gconst:
        ric_amb = ric_leaf - x_term
        entries.append(ConditionEntry(
            "ricci_simple", "Ric_amb_rad >= -n (inf H_K)^2",
            ric_amb + n * inf_hk**2, bool(ric_amb + n * inf_hk**2 >= 0),
            note=f"Ric_amb_rad={ric_amb!r}"))
        m_ref = ric_amb + x_term + n * inf_hk**2
        entries.append(ConditionEntry(
            "ricci_refined",
            "Ric_amb_rad + (n k^2 - sqrt(gamma) k_t) >= -n (inf H_K)^2",
            m_ref, bool(m_ref >= 0)))
    else:
        why = ("non-constant gamma: radial direction field not computable"
               if known else f"curvature model '{model.kind}' has no radial Ricci")
        entries.append(ConditionEntry(
            "ricci_simple", "Ric_amb_rad >= -n (inf H_K)^2",
            math.nan, False, evaluable=False, note=why))
        entries.append(ConditionEntry(
            "ricci_refined",
            "Ric_amb_rad + (n k^2 - sqrt(gamma) k_t) >= -n (inf H_K)^2",
            math.nan, False, evaluable=False, note=why))
    if known:
        m_c3 = ric_leaf + (n - 1) ** 2 / n * inf_hg**2
        entries.append(ConditionEntry(
            "ricci_corollary3", "n Ric_leaf_rad >= -(n-1)^2 (inf H_Gamma)^2",
            m_c3, bool(m_c3 >= 0), note=f"Ric_leaf_rad={ric_leaf!r}"))
    else:
        entries.append(ConditionEntry(
            "ricci_corollary3", "n Ric_leaf_rad >= -(n-1)^2 (inf H_Gamma)^2",
            math.nan, False, evaluable=False,
            note=f"curvature model '{model.kind}' has no radial Ricci"))
    return entries


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


@dataclass
class BarrierCertificate:
    kind: str                      # height | boundary_lower | boundary_upper
    params: dict
    min_margin: float
    margin_location: int           # element (height) or vertex (boundary)
    ordering_ok: Optional[bool]
    worst_ordering_violation: float
    skipped: int
    valid: bool
    gradient_bound: Optional[float] = None
    note: str = ""

    def to_json(self):
        return {
            "kind": self.kind,
            "params": self.params,
            "min_margin": self.min_margin,
            "margin_location": self.margin_location,
            "ordering_ok": self.ordering_ok,
            "worst_ordering_violation": self.worst_ordering_violation,
            "skipped": self.skipped,
            "valid": self.valid,
            "gradient_bound": self.gradient_bound,
            "note": self.note,
        }


def sigma_diameter(mesh: DomainMesh, ambient: AmbientSpace, max_samples=64) -> float:
    """Chart-segment estimate of the diameter in the leaf metric; twice the
    outer radius on a preset domain."""
    if mesh.polar is not None:
        return mesh.polar.diameter
    bv = mesh.boundary_vertices
    if len(bv) > max_samples:
        bv = bv[np.linspace(0, len(bv) - 1, max_samples).astype(int)]
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
    centroid.  Returns ``(ScalarField, BarrierCertificate)``.
    """
    amb, mesh = problem.ambient, problem.mesh
    diam = sigma_diameter(mesh, amb)
    if B <= diam:
        raise ParameterError(f"B = {B} must exceed the domain diameter {diam:.6g}")
    if D <= 0:
        raise ParameterError("D must be positive")
    if D * B > 200:      # keep U^3 = (gamma + f'^2)^(3/2) representable
        raise ParameterError("exp(D*B) overflows: D*B > 200")
    phi_inf = float(problem.phi[mesh.boundary_vertices].min())
    d = mesh.dist_to_boundary

    def f(dd):
        return (math.exp(D * B) / D) * (np.exp(-D * dd) - 1.0)

    def fp(dd):
        return -np.exp(D * (B - dd))

    barrier = ScalarField(mesh, phi_inf + f(d))

    tri = mesh.triangles
    cent = mesh.vertices[tri].mean(axis=1)
    d_c = d[tri].mean(axis=1)
    gd, hd, usable = _distance_geometry(problem, elements=True)
    keep = usable.copy()
    keep[mesh.suspect_elements] = False
    vals = phi_inf + f(d_c)
    fpv = fp(d_c)
    grads = fpv[:, None] * gd
    hess = (-D * fpv)[:, None, None] * np.einsum("mi,mj->mij", gd, gd) \
        + fpv[:, None, None] * hd
    H_c = problem.H.values[tri].mean(axis=1)
    Q = strong_form_Q(amb, cent, vals, grads, hess, H_c)
    Qk = Q[keep]
    if len(Qk) == 0:
        raise ParameterError("no usable elements for the height barrier")
    loc_local = int(np.argmin(Qk))
    loc = int(np.nonzero(keep)[0][loc_local])
    min_margin = float(Qk.min())

    ordering_ok, worst = None, 0.0
    if z is not None:
        # two-sided height bound: above the barrier, below the boundary sup
        phi_sup = float(problem.phi[mesh.boundary_vertices].max())
        diff = np.minimum(z.values - barrier.values, phi_sup - z.values)
        worst = float(min(diff.min(), 0.0))
        tol = 10.0 * mesh.h**2
        ordering_ok = bool(diff.min() >= -tol)
    valid = min_margin > 0 and (ordering_ok is not False)
    cert = BarrierCertificate(
        "height", {"D": D, "B": B}, min_margin, loc, ordering_ok, worst,
        int((~keep).sum()), valid)
    return barrier, cert


def search_height_barrier(problem: Problem, z: Optional[ScalarField] = None,
                          B: Optional[float] = None):
    """Doubling search over the exponent rate; first valid certificate wins."""
    amb, mesh = problem.ambient, problem.mesh
    if B is None:
        B = 1.01 * sigma_diameter(mesh, amb)
    failures = []
    for j in range(21):
        D = float(2**j)
        try:
            barrier, cert = height_barrier(problem, D, B, z)
        except ParameterError as exc:
            failures.append((f"D = {D:g}", str(exc), None))
            continue
        if cert.valid:
            cert.note = f"search: {len(failures)} rejected candidates"
            return barrier, cert
        failures.append((f"D = {D:g}", _rejection(cert), cert.min_margin))
    raise _exhausted("height barrier", failures)


def _rejection(cert: BarrierCertificate) -> str:
    if cert.min_margin <= 0:
        return "min_margin <= 0"
    return "solution not ordered with the barrier"


def _exhausted(what: str, failures) -> ParameterError:
    """The search error: each distinct rejection reason once, with the
    candidates it rejected, and the largest operator margin seen."""
    reasons = {}
    for label, reason, _ in failures:
        reasons.setdefault(reason, []).append(label)
    parts = [f"{reason} [{len(labels)} candidates, {labels[0]}"
             + (f" .. {labels[-1]}]" if len(labels) > 1 else "]")
             for reason, labels in reasons.items()]
    margins = [m for _, _, m in failures if m is not None]
    if margins:
        parts.append(f"largest min_margin {max(margins):.6g}")
    return ParameterError(f"{what} search exhausted after {len(failures)} "
                          f"candidates: " + "; ".join(parts))


class _StripRejected(ParameterError):
    """A boundary-strip rejection that does not depend on ``(mu, c)``."""


@dataclass
class _BoundaryStrip:
    """What a boundary-barrier check needs that does not depend on the
    candidate ``(mu, c)``: the strip ``d <= eps``, the extended boundary
    data, the checkable strip vertices ``idx`` with the distance gradient,
    its square and Hessian and the recovered derivatives of the extended
    data there, and the two strip boundary components of the ordering
    check."""

    strip: np.ndarray
    phi_ext: np.ndarray
    idx: np.ndarray
    gd: np.ndarray
    gd2: np.ndarray
    hd: np.ndarray
    gphi: np.ndarray
    hphi: np.ndarray
    comps: np.ndarray


def _boundary_strip(problem: Problem, eps: float) -> _BoundaryStrip:
    """The candidate-independent part of both boundary barriers, built once
    per problem and strip width; _StripRejected if no candidate can pass."""
    def build():
        mesh = problem.mesh
        if eps <= 0:
            raise _StripRejected("eps must be positive")
        d = mesh.dist_to_boundary
        strip = d <= eps + 1e-12
        if not np.any(strip & ~mesh.is_boundary):
            raise _StripRejected(f"tubular strip is empty at eps = {eps}")
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
        check = strip & ~mesh.is_boundary & usable & conf_phi & (d > 1e-12)
        check[mesh.triangles[mesh.suspect_elements].ravel()] = False
        if not np.any(check):
            raise _StripRejected(
                "no checkable strip vertices; increase eps or decrease h")
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
    grads = wp[:, None] * s.gd + s.gphi
    hess = wpp[:, None, None] * s.gd2 + wp[:, None, None] * s.hd + s.hphi
    Q = strong_form_Q(amb, mesh.vertices[idx], values[idx], grads, hess,
                      problem.H.values[idx])
    Qs = sign * Q                       # lower barrier needs Q > 0, upper Q < 0
    loc = int(idx[np.argmin(Qs)])
    min_margin = float(Qs.min())

    ordering_ok, worst = None, 0.0
    if z is not None:
        diff = sign * (z.values - values)   # must be >= 0 on both components
        worst = float(min(diff[s.comps].min(), 0.0))
        ordering_ok = bool(worst >= -10.0 * mesh.h**2)
    grad_bound = c * mu / math.log1p(mu)
    valid = min_margin > 0 and (ordering_ok is not False)
    name = "boundary_lower" if sign > 0 else "boundary_upper"
    cert = BarrierCertificate(
        name, {"mu": mu, "mu_tilde": mut, "c": c, "eps": eps},
        min_margin, loc, ordering_ok, worst,
        int(np.count_nonzero(s.strip) - len(idx)), valid,
        gradient_bound=grad_bound)
    return barrier, cert


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
    A strip that no candidate can pass (empty, or without a checkable
    vertex) ends the search at the first candidate."""
    span = float(np.ptp(problem.phi[problem.mesh.boundary_vertices]))
    if z is not None:
        span = max(span, float(np.ptp(z.values)))
    scale = max(1.0, 2.0 * span)
    fn = upper_barrier_check if upper else boundary_barrier
    failures = []
    for mu in (10.0**j for j in range(7)):
        for cf in (0.25, 0.5, 1.0, 2.0, 4.0):
            c = cf * scale
            label = f"mu = {mu:g}, c = {c:g}"
            try:
                barrier, cert = fn(problem, mu, c, eps, z)
            except _StripRejected as exc:
                raise ParameterError(
                    f"boundary barrier search stopped at its first candidate "
                    f"({label}): {exc}; this does not depend on (mu, c)") from None
            except ParameterError as exc:
                failures.append((label, str(exc), None))
                continue
            if cert.valid:
                cert.note = f"search: {len(failures)} rejected candidates"
                return barrier, cert
            failures.append((label, _rejection(cert), cert.min_margin))
    raise _exhausted("boundary barrier", failures)


# -- probes -----------------------------------------------------------------


def _level_curve_hk(mesh: DomainMesh, ambient: AmbientSpace, eps: float):
    """Infimum of the cylinder curvature over each component of the distance
    level set ``d = eps`` on a generic mesh, one value per closed loop.

    The level set crosses every edge whose ends lie on different sides of
    ``d > eps``.  In each cut element the crossing on the edge that leaves
    that region is followed by the one on the edge that enters it, which
    keeps the region on the left (elements are positively oriented).
    Crossings closer than h/4 in the chart are merged.
    """
    d = mesh.dist_to_boundary
    edges, inverse, _ = mesh.edge_table()
    inside = d > eps
    cut = inside[edges[:, 0]] != inside[edges[:, 1]]
    if np.count_nonzero(cut) < 8:
        raise ParameterError(f"level set extraction failed at depth {eps}")
    i, j = edges[cut, 0], edges[cut, 1]
    s = ((d[i] - eps) / (d[i] - d[j]))[:, None]
    cross = np.zeros((len(edges), 2))
    cross[cut] = mesh.vertices[i] + s * (mesh.vertices[j] - mesh.vertices[i])
    ins = inside[mesh.triangles]
    ahead = np.roll(ins, -1, axis=1)              # far end of local edge k
    nxt = np.full(len(edges), -1)
    nxt[inverse[ins & ~ahead]] = inverse[~ins & ahead]
    nxt = nxt.tolist()
    seen = ~cut
    hks = []
    for start in np.nonzero(cut)[0].tolist():
        if seen[start]:
            continue
        loop, k = [], start
        while not seen[k]:
            seen[k] = True
            loop.append(k)
            k = nxt[k]      # defined: no cut edge is a boundary edge (d = 0 there)
        pts = _merge_close(cross[loop], 0.25 * mesh.h)
        if len(pts) < 3:
            continue
        normal, hg, _ = closed_polyline_geometry(pts, ambient)
        hks.append(float(np.min(cylinder_mean_curvature(ambient, 0.0, pts, normal, hg))))
    if not hks:
        raise ParameterError(f"level set extraction failed at depth {eps}")
    return hks


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


def _parallel_curve_hk(mesh: DomainMesh, ambient: AmbientSpace, eps: float):
    """Infimum of the cylinder curvature over the level set ``d = eps`` of a
    preset domain: the boundary vertices moved inward by ``eps`` along their
    normals (a concentric circle), with the closed-form curvature there."""
    if eps >= mesh.polar.inradius:
        raise ParameterError(f"depth reaches the inradius {mesh.polar.inradius:g}")
    verts = mesh.boundary_vertices
    normal = mesh.boundary_normal[verts]
    pts = mesh.vertices[verts] + eps * normal
    hg = mesh.polar.circle_curvature(np.linalg.norm(mesh.vertices[verts], axis=1), eps)
    return float(np.min(cylinder_mean_curvature(ambient, 0.0, pts, normal, hg)))


def cylinder_monotonicity_probe(problem: Problem, depths):
    """Curvature of the flow cylinders over inner distance level sets.

    Returns a dict with per-depth entries and whether the probed curvatures
    stay above the boundary value (the expected monotone behaviour).
    """
    amb, mesh = problem.ambient, problem.mesh
    inf_hk, _ = inf_boundary_cylinder_curvature(mesh, amb, t=0.0)
    rows = []
    for eps in depths:
        row = {"eps": float(eps), "skipped": False, "H_K": None}
        try:
            if mesh.polar is not None:
                hk = _parallel_curve_hk(mesh, amb, float(eps))
            else:
                row["components"] = _level_curve_hk(mesh, amb, float(eps))
                hk = min(row["components"])
            row["H_K"] = float(hk)
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
