"""Weak-form mean curvature operator of flow graphs and its linearization.

The operator in divergence form reads

    Q[z] = div(grad z / sqrt(gamma + |grad z|^2))
           - (1/sqrt(gamma + |grad z|^2)) (<grad gamma, grad z>/(2 gamma)
                                           + n gamma rho(z))
           - n lambda(z) H,

with all differential operators taken in the leaf metric.  The continuation
family scales the rate term and the curvature term by ``tau`` and the
boundary data by ``tau`` as well.

Discretization: piecewise-linear conforming elements; the divergence term is
integrated by parts with one-point (centroid) quadrature, the lower-order
terms use three-point edge-midpoint quadrature; ``lambda`` and ``rho`` are
evaluated at the element-midpoint value of ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ambient import AmbientSpace, n, rho_t
from .errors import DomainError, MeshError, ParameterError
from .fields import ScalarField
from .mesh import (DomainMesh, _hat_gradients, _nearest, _spd_inverse,
                   christoffel_symbols)

__all__ = [
    "Problem", "SparseSystem", "strong_form_Q", "mean_curvature_of_graph",
    "max_principle_conditions", "MaxPrincipleReport",
    "recover_gradient_hessian", "christoffel_symbols",
]


@dataclass
class Problem:
    """A Dirichlet problem: ambient + mesh + prescribed curvature + data."""

    ambient: AmbientSpace
    mesh: DomainMesh
    H: ScalarField
    phi: np.ndarray          # (nv,) array; meaningful on boundary vertices
    _assembly: Optional["_Assembly"] = field(default=None, repr=False)
    _derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.H.mesh is not self.mesh:
            raise MeshError("H field bound to a different mesh")
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (self.mesh.n_vertices,):
            raise MeshError("phi must be a per-vertex array (used on the boundary)")
        bvals = self.phi[self.mesh.boundary_vertices]
        if not np.all(np.isfinite(bvals)):
            raise ParameterError("boundary data must be finite")
        if not np.all(bvals < self.ambient.interval_end):
            raise ParameterError("boundary data must stay below the interval end")

    @classmethod
    def create(cls, ambient, mesh, H, phi) -> "Problem":
        if np.isscalar(H):
            H = ScalarField.constant(mesh, float(H))
        if np.isscalar(phi):
            phi = np.full(mesh.n_vertices, float(phi))
        return cls(ambient, mesh, H, np.asarray(phi, dtype=float))

    def assembly(self) -> "_Assembly":
        if self._assembly is None:
            self._assembly = _Assembly(self)
        return self._assembly

    def derived(self, key, build):
        """Data that depends on the problem alone, built once per ``key``:
        ``build()`` on the first call, the same object afterwards."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def distance_recovery(self):
        """Recovered gradient, covariant Hessian and confidence of the
        boundary distance field (see ``recover_gradient_hessian``)."""
        return self.derived("distance_recovery", lambda: recover_gradient_hessian(
            self.mesh, self.ambient, self.mesh.dist_to_boundary))

    def boundary_extension(self) -> np.ndarray:
        """Boundary data extended into the domain, constant along the
        distance direction: each vertex takes the value of the closest
        boundary vertex in the chart."""
        def build():
            bv = self.mesh.boundary_vertices
            return self.phi[bv][_nearest(self.mesh.vertices, self.mesh.vertices[bv])]
        return self.derived("boundary_extension", build)


@dataclass
class SparseSystem:
    """Interior residual and Jacobian of the weak operator."""

    residual: np.ndarray       # (ni,)
    jacobian: "FrontMatrix"    # (ni, ni), from ckgraph.frontal
    interior: np.ndarray       # interior vertex indices
    # (ni,) tau-derivative of the residual along the continuation path
    # (interior held, boundary at tau * phi); only from system(tangent=True)
    path_rate: Optional[np.ndarray] = None


# -- assembly ---------------------------------------------------------------

# hat function values at the three edge-midpoint quadrature points;
# point q is the midpoint of the edge opposite local vertex q
_HATS = 0.5 * (1.0 - np.eye(3))


def _rows(a):
    """Per-element data ``(nt, 3, ...)`` as contiguous rows ``(3, nt, ...)``,
    one row per local vertex or quadrature point."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(a), 1, 0))


@dataclass
class _Evaluation:
    """The residual pass of the element kernel at one ``(z, tau)``: the
    element residual ``val`` and the intermediates its Jacobian reuses.
    Arrays are ``(nt,)`` per element or ``(3, nt)`` per local vertex or
    quadrature point."""

    tau: float
    zmid: np.ndarray
    lam_m: np.ndarray
    lamt_m: np.ndarray
    rho_m: np.ndarray
    U_c: np.ndarray
    Pc: np.ndarray             # G Sinv_c grad z
    qx: np.ndarray             # Sinv_q grad z, by component
    qy: np.ndarray
    U_q: np.ndarray
    P_q: np.ndarray
    val: np.ndarray


class _Assembly:
    """Element kernel of the weak operator.  Per-element data is stored
    component by component, each component a contiguous row over the
    elements, so every 2x2 metric contraction is a few vector operations."""

    def __init__(self, problem: Problem):
        from .frontal import FrontTree   # here: of the ckg commands only solve needs it
        amb, mesh = problem.ambient, problem.mesh
        self.problem = problem
        self.tri = mesh.triangles
        self._triT = _rows(self.tri)                     # (3, nt)
        self.n = n
        self.G, self.A = _hat_gradients(mesh.vertices, mesh.triangles)
        self.Gx, self.Gy = _rows(self.G[..., 0]), _rows(self.G[..., 1])
        p = mesh.vertices[self.tri]
        cent = p.mean(axis=1)
        self.Sc, det_c = _spd_inverse(amb.base_metric(cent))
        self.gam_c = np.asarray(amb.gamma(cent))
        qp = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])  # midpoint opposite 0,1,2
        self.Sq, det_q = _spd_inverse(_rows(amb.base_metric(qp)))
        self.gam_q = _rows(np.broadcast_to(amb.gamma(qp), qp.shape[:-1]))
        dgam_q = _rows(np.broadcast_to(amb.grad_gamma(qp), qp.shape))
        Hv = problem.H.values[self._triT]                # (3, nt)
        self.H_q = _HATS @ Hv
        # quadrature weights and the z-independent contractions
        self.w_c = self.A * np.sqrt(det_c)
        self.w_q = (self.A / 3.0) * np.sqrt(det_q)
        c11, c12, c22 = self.Sc
        self.GSx = self.Gx * c11 + self.Gy * c12         # rows of G Sinv_c
        self.GSy = self.Gx * c12 + self.Gy * c22
        q11, q12, q22 = self.Sq
        self.dgSx = dgam_q[..., 0] * q11 + dgam_q[..., 1] * q12   # grad gamma Sinv_q
        self.dgSy = dgam_q[..., 0] * q12 + dgam_q[..., 1] * q22
        # interior numbering and the CSC pattern of the interior block
        self.interior = mesh.interior_vertices
        ni = len(self.interior)
        pos = np.full(mesh.n_vertices, -1)
        pos[self.interior] = np.arange(ni)
        # entry (a, b, e) couples the element's vertex a (row) to b (column);
        # keys col ni + row sort in CSC order
        local_pos = pos[self._triT]
        shape = (3, 3, len(self.tri))
        rows = np.broadcast_to(local_pos[:, None], shape).ravel()
        cols = np.broadcast_to(local_pos[None], shape).ravel()
        keep = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique(cols[keep] * ni + rows[keep], return_inverse=True)
        self._nnz = len(keys)
        self._slot = np.full(rows.size, self._nnz)      # boundary entries: spare slot
        self._slot[keep] = slot
        index = np.int32 if max(ni, self._nnz) < 2**31 else np.int64
        # the pattern and its elimination tree hold for every Jacobian
        self.tree = FrontTree(np.searchsorted(keys, np.arange(ni + 1) * ni).astype(index),
                              (keys % ni).astype(index), mesh.vertices[self.interior])
        # boundary data per element, zero at interior vertices
        phi_b = np.zeros(mesh.n_vertices)
        phi_b[mesh.boundary_vertices] = problem.phi[mesh.boundary_vertices]
        self._phi_b = phi_b[self._triT]

    # -- pointwise data -----------------------------------------------------

    def _check_interval(self, z):
        amb = self.problem.ambient
        bad = np.nonzero(z >= amb.interval_end)[0]
        if len(bad):
            raise DomainError(
                f"graph value {z[bad[0]]} at vertex {int(bad[0])} reached the "
                f"interval end {amb.interval_end}"
            )

    def _element_state(self, z):
        """Chart gradient ``(gx, gy)`` and mean value of ``z`` per element."""
        zt = z[self._triT]
        return (self.Gx * zt).sum(axis=0), (self.Gy * zt).sum(axis=0), zt.mean(axis=0)

    def _sharp(self, gx, gy):
        """``Sinv_c grad z`` by components and ``|grad z|^2`` at centroids."""
        c11, c12, c22 = self.Sc
        sx = c11 * gx + c12 * gy
        sy = c12 * gx + c22 * gy
        return sx, sy, gx * sx + gy * sy

    def grad_sup(self, z) -> float:
        gx, gy, _ = self._element_state(z)
        return float(np.sqrt(self._sharp(gx, gy)[2].max()))

    def _scatter(self, val):
        return np.bincount(self._triT.ravel(), weights=val.ravel(),
                           minlength=self.problem.mesh.n_vertices)

    # -- element kernel ------------------------------------------------------

    def _divergence(self, gx, gy):
        """Centroid divergence term: ``U_c``, ``G Sinv_c grad z`` and its
        weak values against the three hats."""
        sx, sy, w2c = self._sharp(gx, gy)
        U_c = np.sqrt(self.gam_c + w2c)
        Pc = self.Gx * sx + self.Gy * sy
        return U_c, Pc, Pc * (-self.w_c / U_c)

    def _evaluate(self, z, tau: float) -> _Evaluation:
        """Residual pass: the per-element weak residual ``(3, nt)`` with the
        intermediates that ``_local`` reuses."""
        self._check_interval(z)
        amb = self.problem.ambient
        n = self.n
        gx, gy, zmid = self._element_state(z)
        lam_m = np.asarray(amb.lam(zmid))
        lamt_m = np.asarray(amb.lam_t(zmid))
        rho_m = lamt_m / lam_m
        U_c, Pc, val = self._divergence(gx, gy)

        q11, q12, q22 = self.Sq
        qx = q11 * gx + q12 * gy
        qy = q12 * gx + q22 * gy
        U_q = np.sqrt(self.gam_q + qx * gx + qy * gy)
        P_q = (self.dgSx * gx + self.dgSy * gy) / (2.0 * self.gam_q) \
            + tau * n * self.gam_q * rho_m
        L_q = P_q / U_q + tau * n * lam_m * self.H_q
        val -= _HATS @ (self.w_q * L_q)
        return _Evaluation(tau, zmid, lam_m, lamt_m, rho_m, U_c, Pc, qx, qy,
                           U_q, P_q, val)

    def _local(self, ev: _Evaluation):
        """Exact derivatives of the element residual of ``ev`` with respect
        to the element values, ``local[a, b, e]`` for row vertex ``a`` and
        column vertex ``b`` (3, 3, nt), and to ``tau`` (3, nt).

        Each term is a sum of outer products over the local vertices: the
        centroid flux gives ``G Sinv_c G^T`` and ``Pc Pc^T``; the midpoint
        terms, whose ``z`` dependence enters through ``grad z`` (rows of
        ``G``) and ``zmid`` (1/3 at every vertex), give rows times ``Gx``,
        ``Gy`` and a constant."""
        amb = self.problem.ambient
        n, tau = self.n, ev.tau
        rhot_m = rho_t(amb, ev.zmid)
        k = self.w_c / ev.U_c
        a1 = self.w_q / (2.0 * self.gam_q * ev.U_q)
        a2 = self.w_q * ev.P_q / ev.U_q**3
        X = _HATS @ (a1 * self.dgSx - a2 * ev.qx) + k * self.GSx
        Y = _HATS @ (a1 * self.dgSy - a2 * ev.qy) + k * self.GSy
        C = _HATS @ (self.w_q * (tau * n / 3.0)
                     * (self.gam_q * rhot_m / ev.U_q + ev.lamt_m * self.H_q))
        Pk = ev.Pc * (k / ev.U_c**2)
        local = Pk[:, None] * ev.Pc[None]
        local -= X[:, None] * self.Gx[None]
        local -= Y[:, None] * self.Gy[None]
        local -= C[:, None]
        # L_q is affine in tau, so this rate is exact
        L_tau = n * (self.gam_q * ev.rho_m / ev.U_q + ev.lam_m * self.H_q)
        return local, -(_HATS @ (self.w_q * L_tau))

    # -- residual and Jacobian ---------------------------------------------

    def residual_full(self, z, tau: float):
        """Weak residual tested against every hat function (boundary ones
        included); the interior slice is the Newton residual."""
        return self._scatter(self._evaluate(z, tau).val)

    def flux_residual_full(self, z):
        """Only the integrated-by-parts divergence term (for flux balance)."""
        self._check_interval(z)
        gx, gy, _ = self._element_state(z)
        return self._scatter(self._divergence(gx, gy)[2])

    def residual(self, z, tau: float, keep=False):
        """Interior Newton residual; with ``keep`` also its element pass, for
        ``system`` at the same ``(z, tau)``."""
        ev = self._evaluate(z, tau)
        r = self._scatter(ev.val)[self.interior]
        return (r, ev) if keep else r

    def system(self, z, tau: float, tangent=False,
               evaluation: Optional[_Evaluation] = None) -> SparseSystem:
        """Interior residual and Jacobian; with ``tangent`` also the path
        rate ``dR_i/dtau + J_ib phi_b`` from the same element pass.  An
        ``evaluation`` from ``residual(z, tau, keep=True)`` spares the
        residual pass."""
        from .frontal import FrontMatrix
        ev = evaluation if evaluation is not None else self._evaluate(z, tau)
        local, rate = self._local(ev)
        J = FrontMatrix(self.tree, np.bincount(self._slot, weights=local.ravel(),
                                               minlength=self._nnz + 1)[:-1])
        path_rate = None
        if tangent:
            rate += np.einsum("abe,be->ae", local, self._phi_b)
            path_rate = self._scatter(rate)[self.interior]
        return SparseSystem(self._scatter(ev.val)[self.interior], J, self.interior,
                            path_rate)


# -- derivative recovery ----------------------------------------------------


def recover_gradient_hessian(mesh: DomainMesh, ambient: AmbientSpace, values):
    """Least-squares quadratic fit over the vertex 2-ring.

    Returns (gradient (nv,2), covariant Hessian (nv,2,2), confident (nv,)).
    The Hessian is corrected by the Christoffel symbols of the leaf metric.
    Vertices with deficient stencils or touching the boundary 1-ring are
    flagged as low confidence.

    Every vertex is fitted at once: the stencils are padded with zero rows
    to the largest 2-ring, which leaves each least-squares problem as it
    is, and their columns are scaled to unit norm.  A stencil of at least 5
    points is solved by its normal equations, all of them in one batched
    solve; the scaled stencils are well conditioned (condition numbers up
    to about 13 on the preset meshes), so this agrees with the SVD to
    rounding.  Smaller stencils, never confident, get the minimum-norm
    solution with the singular-value cutoff of ``np.linalg.lstsq``, as do
    all stencils if one normal matrix is exactly singular.
    """
    values = np.asarray(values, dtype=float)
    ptr, nbr = mesh.vertex_rings(depth=2)
    count = np.diff(ptr)
    slot = np.arange(count.max())
    used = slot < count[:, None]                              # (nv, k)
    idx = nbr[np.minimum(ptr[:-1, None] + slot, len(nbr) - 1)]
    vx, vy = mesh.vertices.T
    x = np.where(used, vx[idx] - vx[:, None], 0.0)
    y = np.where(used, vy[idx] - vy[:, None], 0.0)
    rhs = np.where(used, values[idx] - values[:, None], 0.0)
    M = np.stack([x, y, 0.5 * x**2, x * y, 0.5 * y**2], axis=2)
    Mt = M.transpose(0, 2, 1)
    N, b = Mt @ M, (Mt @ rhs[..., None])[..., 0]
    # scale columns to unit norm for conditioning
    scale = np.sqrt(np.diagonal(N, axis1=1, axis2=2))
    scale[scale == 0] = 1.0
    coef = np.empty((len(count), 5))
    full = count >= 5
    try:
        coef[full] = np.linalg.solve(
            N[full] / (scale[full, :, None] * scale[full, None, :]),
            (b[full] / scale[full])[..., None])[..., 0]
    except np.linalg.LinAlgError:
        full[:] = False
    few = ~full
    rtol = np.finfo(float).eps * np.maximum(count[few], 5)
    coef[few] = (np.linalg.pinv(M[few] / scale[few, None], rtol=rtol)
                 @ rhs[few, :, None])[..., 0]
    coef /= scale
    grad = coef[:, :2]
    Hc = coef[:, [2, 3, 3, 4]].reshape(-1, 2, 2)
    Gam = christoffel_symbols(ambient, mesh.vertices)
    hess = Hc - np.einsum("vkij,vk->vij", Gam, grad)
    # a boundary vertex or one of its 1-ring neighbours
    edges = mesh.edge_table()[0]
    is_b = mesh.is_boundary
    near_b = is_b.copy()
    near_b[edges[is_b[edges[:, 0]], 1]] = True
    near_b[edges[is_b[edges[:, 1]], 0]] = True
    return grad, hess, (count >= 5) & ~near_b


# -- strong form ------------------------------------------------------------


def strong_form_Q(ambient: AmbientSpace, pts, vals, grads, hess, H):
    """Strong-form operator value from pointwise derivatives, vectorized.

    ``hess`` must be the covariant Hessian in the leaf metric.
    """
    pts = np.asarray(pts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    grads = np.asarray(grads, dtype=float)
    hess = np.asarray(hess, dtype=float)
    H = np.asarray(H, dtype=float)
    g = np.asarray(ambient.gamma(pts))
    dg = np.asarray(ambient.grad_gamma(pts))
    (i11, i12, i22), _ = _spd_inverse(ambient.base_metric(pts))
    gx, gy = grads[..., 0], grads[..., 1]
    px, py = i11 * gx + i12 * gy, i12 * gx + i22 * gy      # z^i
    U = np.sqrt(g + gx * px + gy * py)    # U = lambda W
    # (sigma^{ij} - z^i z^j / U^2) z_{j;i} / U - gamma_i z^i / (2 U^3)
    #   - (gamma_i z^i / (2 gamma) + n gamma rho) / U - n lambda H
    h11, h12, h22 = hess[..., 0, 0], hess[..., 0, 1] + hess[..., 1, 0], hess[..., 1, 1]
    tr1 = i11 * h11 + i12 * h12 + i22 * h22 \
        - (px * px * h11 + px * py * h12 + py * py * h22) / U**2
    gz = dg[..., 0] * px + dg[..., 1] * py
    lam = np.asarray(ambient.lam(vals))
    rr = np.asarray(ambient.lam_t(vals)) / lam
    return tr1 / U - gz / (2 * U**3) - (gz / (2 * g) + n * g * rr) / U \
        - n * lam * H


def mean_curvature_of_graph(problem: Problem, z: ScalarField):
    """Mean curvature recovered from the trace formula, ``strong_form_Q`` at
    ``H = 0`` divided by ``n lambda``; for verification.

    Returns (ScalarField, confidence flags)."""
    amb, mesh = problem.ambient, problem.mesh
    grad, hess, conf = recover_gradient_hessian(mesh, amb, z.values)
    nlamH = strong_form_Q(amb, mesh.vertices, z.values, grad, hess, 0.0)
    H = nlamH / (n * np.asarray(amb.lam(z.values)))
    return ScalarField(mesh, H), conf


# -- maximum principle ------------------------------------------------------


@dataclass
class MaxPrincipleReport:
    rho_t_margin: float
    lambda_t_H_margin: float
    t_range: tuple
    samples: int

    @property
    def passed(self) -> bool:
        return self.rho_t_margin >= 0 and self.lambda_t_H_margin >= 0

    def to_json(self):
        return {
            "rho_t_margin": self.rho_t_margin,
            "lambda_t_H_margin": self.lambda_t_H_margin,
            "t_range": list(self.t_range),
            "samples": self.samples,
            "passed": self.passed,
        }


def max_principle_conditions(ambient: AmbientSpace, H: ScalarField,
                             t_range, samples: int = 512) -> MaxPrincipleReport:
    """Check ``rho_t >= 0`` and ``lambda_t * H >= 0`` on a flow-time grid."""
    lo, hi = t_range
    hi = min(hi, ambient.interval_end - 1e-9 * max(1.0, abs(ambient.interval_end))
             if math.isfinite(ambient.interval_end) else hi)
    ts = np.linspace(lo, hi, samples)
    lam_t = np.asarray(ambient.lam_t(ts))
    rt = rho_t(ambient, ts)
    hmin, hmax = float(H.values.min()), float(H.values.max())
    prod = np.minimum(lam_t * hmin, lam_t * hmax)
    return MaxPrincipleReport(float(rt.min()), float(prod.min()),
                              (float(ts[0]), float(ts[-1])), samples)
