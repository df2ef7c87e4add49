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

import numpy as np

from .ambient import AmbientSpace, n
from .errors import DomainError, MeshError, ParameterError
from .fields import ScalarField
from .mesh import DomainMesh, _hat_gradients, _ring_rows, _spd_inverse

__all__ = [
    "Problem", "strong_form_Q", "mean_curvature_of_graph",
    "recover_gradient_hessian",
]


class Problem:
    """A Dirichlet problem: ambient + mesh + prescribed curvature + data."""

    def __init__(self, ambient: AmbientSpace, mesh: DomainMesh, H: ScalarField,
                 phi: np.ndarray):
        self.ambient, self.mesh, self.H = ambient, mesh, H
        if self.H.mesh is not self.mesh:
            raise MeshError("H field bound to a different mesh")
        # (nv,) data at every vertex; the solve reads the boundary values
        self.phi = np.asarray(phi, dtype=float)
        if self.phi.shape != (self.mesh.n_vertices,):
            raise MeshError("phi must be a per-vertex array")
        bvals = self.phi[self.mesh.boundary_vertices]
        if not np.all(np.isfinite(bvals)):
            raise ParameterError("boundary data must be finite")
        if not np.all(bvals < self.ambient.interval_end):
            raise ParameterError("boundary data must stay below the interval end")
        with np.errstate(all="ignore"):     # a NaN is reported below
            lam_b = np.broadcast_to(self.ambient.lam(bvals), bvals.shape)
        bad = np.flatnonzero(~(lam_b > 0))
        if len(bad):
            k = bad[0]
            raise ParameterError(
                f"$.phi: lambda is not positive at boundary vertex "
                f"{int(self.mesh.boundary_vertices[k])}: phi = {float(bvals[k])!r}, "
                f"lambda = {float(lam_b[k])!r}")
        self._derived = {}

    @classmethod
    def create(cls, ambient, mesh, H, phi) -> "Problem":
        if np.isscalar(H):
            H = ScalarField.constant(mesh, float(H))
        if np.isscalar(phi):
            phi = np.full(mesh.n_vertices, float(phi))
        return cls(ambient, mesh, H, np.asarray(phi, dtype=float))

    def assembly(self) -> "_Assembly":
        return self.derived("assembly", lambda: _Assembly(self))

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


# -- assembly ---------------------------------------------------------------

# hat function values at the three edge-midpoint quadrature points;
# point q is the midpoint of the edge opposite local vertex q
_HATS = 0.5 * (1.0 - np.eye(3))


def _rows(a):
    """Per-element data ``(nt, 3, ...)`` as contiguous rows ``(3, nt, ...)``,
    one row per local vertex or quadrature point."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(a), 1, 0))


def _constant(a):
    """``a`` as one 0-d value when all its entries have the same bits, else
    ``a`` itself.  NumPy broadcasts the value wherever ``a`` was read, with
    the same result to the bit: each entry goes through the same operations."""
    flat = np.asarray(a).reshape(-1)
    if flat.size and flat.dtype == np.float64:
        bits = flat.view(np.int64)
        if np.all(bits == bits[0]):
            return np.array(flat[0])
    return a


def _shared_row(a):
    """Rows ``a`` ``(3, nt)`` as a read-only broadcast of one row when the
    three have the same bits, else ``a`` itself; like ``_constant``, each
    entry read goes through the same operations."""
    bits = a.view(np.int64)
    if np.all(bits == bits[0]):
        return np.broadcast_to(a[0].copy(), a.shape)
    return a


class _Evaluation:
    """The residual pass of the element kernel at one ``(z, tau)``: the
    element residual ``val`` and the intermediates its Jacobian reuses.
    Arrays are ``(nt,)`` per element or ``(3, nt)`` per local vertex or
    quadrature point; a quadrature value is ``(nt,)`` when the assembly's
    data behind it is one constant value.  ``Pc`` is ``G Sinv_c grad z`` and
    ``(qx, qy)`` is ``Sinv_q grad z``, by component."""

    def __init__(self, tau: float, zmid, lam_m, rho_m, U_c, Pc, qx, qy,
                 U_q, P_q, val):
        self.tau, self.zmid, self.lam_m, self.rho_m = tau, zmid, lam_m, rho_m
        self.U_c, self.Pc, self.qx, self.qy = U_c, Pc, qx, qy
        self.U_q, self.P_q, self.val = U_q, P_q, val


class _Assembly:
    """Element kernel of the weak operator.  Per-element data is stored
    component by component, each component a contiguous row over the
    elements, so every 2x2 metric contraction is a few vector operations.
    A component that is the same everywhere is one 0-d value (``_constant``):
    ``gamma`` and its gradient term on every preset, ``H`` when it is
    constant, the inverse metric on a flat leaf.
    It keeps what it reads of the problem, not the problem, which holds it:
    without that cycle a problem is freed by its reference count."""

    def __init__(self, problem: Problem):
        from .frontal import FrontTree   # here: of the ckg commands only solve needs it
        mesh = self.mesh = problem.mesh
        self.ambient, self.phi = problem.ambient, problem.phi
        self._triT = _rows(mesh.triangles).astype(np.int32)  # (3, nt)
        self.n = n
        self._element_data(problem.H.values)
        self.interior = mesh.interior_vertices
        # the pattern and its elimination tree hold for every Jacobian; the
        # set-up temporaries are gone before the tree is built
        indptr, indices = self._pattern()
        self.tree = FrontTree(indptr, indices, mesh.vertices[self.interior])
        # the constant fields become one value each once the set-up is done
        for name in ("gam_c", "gam_q", "dgSx", "dgSy", "H_q"):
            setattr(self, name, _constant(getattr(self, name)))
        self.Sc, self.Sq = (tuple(map(_constant, S)) for S in (self.Sc, self.Sq))

    def _element_data(self, H):
        """Per-element metric data, quadrature weights and the
        z-independent contractions of the kernel; ``H`` is the prescribed
        curvature at the vertices."""
        amb, mesh = self.ambient, self.mesh
        G, A = _hat_gradients(mesh.vertices, mesh.triangles)
        self.Gx, self.Gy = _rows(G[..., 0]), _rows(G[..., 1])
        p = mesh.vertices[mesh.triangles]
        cent = p.mean(axis=1)
        self.Sc, det_c = _spd_inverse(amb.base_metric(cent))
        self.gam_c = np.asarray(amb.gamma(cent))
        qp = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])  # midpoint opposite 0,1,2
        self.Sq, det_q = _spd_inverse(_rows(amb.base_metric(qp)))
        self.gam_q = _rows(np.broadcast_to(amb.gamma(qp), qp.shape[:-1]))
        dgam_q = _rows(np.broadcast_to(amb.grad_gamma(qp), qp.shape))
        Hv = H.take(self._triT)                          # (3, nt)
        self.H_q = _HATS @ Hv
        # quadrature weights and the z-independent contractions
        self.w_c = A * np.sqrt(det_c)
        # one row on a flat leaf, where det_q is 1
        self.w_q = _shared_row((A / 3.0) * np.sqrt(det_q))
        q11, q12, q22 = self.Sq
        self.dgSx = dgam_q[..., 0] * q11 + dgam_q[..., 1] * q12   # grad gamma Sinv_q
        self.dgSy = dgam_q[..., 0] * q12 + dgam_q[..., 1] * q22

    def _pattern(self):
        """CSC ``(indptr, indices)`` of the interior block, with the slot of
        every element entry in it kept for ``system``."""
        ni = len(self.interior)
        pos = np.full(self.mesh.n_vertices, -1)
        pos[self.interior] = np.arange(ni)
        local_pos = pos.take(self._triT)
        nt = local_pos.shape[1]
        # entry (a, b, e) couples the element's vertex a (row) to b (column)
        # under the key col ni + row, which sorts in CSC order; an entry with
        # a boundary vertex gets the key ni^2, after every interior one
        keys = np.empty((3, 3, nt), dtype=np.int64)
        for a in range(3):
            for b in range(3):
                key = keys[a, b]
                np.multiply(local_pos[b], ni, out=key)
                key += local_pos[a]
                key[(local_pos[a] < 0) | (local_pos[b] < 0)] = ni * ni
        keys = keys.ravel()
        order = np.argsort(keys, kind="stable")   # faster than quicksort here
        keys = keys[order]
        new = np.empty(len(keys), dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        keys = keys[new]
        # an entry's slot is the rank of its key: the boundary entries share
        # the spare slot nnz
        self._nnz = len(keys) - int(keys[-1] == ni * ni)
        index = np.int32 if max(ni, self._nnz) < 2**31 else np.int64
        self._slot = np.empty(len(order), dtype=index)
        self._slot[order] = np.cumsum(new, dtype=index) - 1
        keys = keys[:self._nnz]
        return (np.searchsorted(keys, np.arange(ni + 1) * ni).astype(index),
                (keys % ni).astype(index))

    # -- pointwise data -----------------------------------------------------

    def _check_interval(self, z):
        amb = self.ambient
        bad = np.nonzero(z >= amb.interval_end)[0]
        if len(bad):
            raise DomainError(
                f"graph value {z[bad[0]]} at vertex {int(bad[0])} reached the "
                f"interval end {amb.interval_end}"
            )

    def _element_state(self, z):
        """Chart gradient ``(gx, gy)`` and mean value of ``z`` per element."""
        zt = z.take(self._triT)
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
                           minlength=self.mesh.n_vertices)

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
        amb = self.ambient
        n = self.n
        gx, gy, zmid = self._element_state(z)
        lam_m = np.asarray(amb.lam(zmid))
        rho_m = np.asarray(amb.rho(zmid))
        U_c, Pc, val = self._divergence(gx, gy)

        q11, q12, q22 = self.Sq
        qx = q11 * gx + q12 * gy
        qy = q12 * gx + q22 * gy
        U_q = np.sqrt(self.gam_q + qx * gx + qy * gy)
        P_q = (self.dgSx * gx + self.dgSy * gy) / (2.0 * self.gam_q) \
            + tau * n * self.gam_q * rho_m
        L_q = P_q / U_q + tau * n * lam_m * self.H_q
        val -= _HATS @ (self.w_q * L_q)
        return _Evaluation(tau, zmid, lam_m, rho_m, U_c, Pc, qx, qy, U_q, P_q, val)

    def _local(self, ev: _Evaluation):
        """Exact derivatives of the element residual of ``ev`` with respect
        to the element values, ``local[a, b, e]`` for row vertex ``a`` and
        column vertex ``b`` (3, 3, nt).

        Each term is a sum of outer products over the local vertices: the
        centroid flux gives ``G Sinv_c G^T`` and ``Pc Pc^T``; the midpoint
        terms, whose ``z`` dependence enters through ``grad z`` (rows of
        ``G``) and ``zmid`` (1/3 at every vertex), give rows times ``Gx``,
        ``Gy`` and a constant."""
        n, tau = self.n, ev.tau
        rhot_m = np.asarray(self.ambient.rho_t(ev.zmid))
        k = self.w_c / ev.U_c
        a1 = self.w_q / (2.0 * self.gam_q * ev.U_q)
        a2 = self.w_q * ev.P_q / ev.U_q**3
        c11, c12, c22 = self.Sc
        X = _HATS @ (a1 * self.dgSx - a2 * ev.qx) + k * (self.Gx * c11 + self.Gy * c12)
        Y = _HATS @ (a1 * self.dgSy - a2 * ev.qy) + k * (self.Gx * c12 + self.Gy * c22)
        C = _HATS @ (self.w_q * (tau * n / 3.0)
                     * (self.gam_q * rhot_m / ev.U_q + ev.lam_m * ev.rho_m * self.H_q))
        Pk = ev.Pc * (k / ev.U_c**2)
        local = Pk[:, None] * ev.Pc[None]
        local -= X[:, None] * self.Gx[None]
        local -= Y[:, None] * self.Gy[None]
        local -= C[:, None]
        return local

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

    def residual(self, z, tau: float):
        """Interior Newton residual at ``(z, tau)`` and its element pass,
        from which ``system`` builds the Newton system."""
        ev = self._evaluate(z, tau)
        return self._scatter(ev.val)[self.interior], ev

    def system(self, ev: _Evaluation, tangent=False):
        """Interior Jacobian ``FrontMatrix`` of the element pass ``ev`` and,
        with ``tangent``, the path rate ``dR_i/dtau + J_ib phi_b`` (None
        without): the tau-derivative of the residual along the continuation
        path, interior held and boundary at ``tau * phi``."""
        from .frontal import FrontMatrix
        local = self._local(ev)
        J = FrontMatrix(self.tree, np.bincount(self._slot, weights=local.ravel(),
                                               minlength=self._nnz + 1)[:-1])
        if not tangent:
            return J, None
        # L_q is affine in tau, so this rate is exact
        L_tau = self.n * (self.gam_q * ev.rho_m / ev.U_q + ev.lam_m * self.H_q)
        rate = -(_HATS @ (self.w_q * L_tau))
        # boundary data per element, zero at interior vertices
        mesh = self.mesh
        phi_b = np.zeros(mesh.n_vertices)
        phi_b[mesh.boundary_vertices] = self.phi[mesh.boundary_vertices]
        rate += np.einsum("abe,be->ae", local, phi_b.take(self._triT))
        return J, self._scatter(rate)[self.interior]


# -- derivative recovery ----------------------------------------------------


def recover_gradient_hessian(mesh: DomainMesh, ambient: AmbientSpace, values):
    """Least-squares quadratic fit over the vertex 2-ring.

    Returns (gradient (nv,2), covariant Hessian (nv,2,2), confident (nv,)).
    The Hessian is corrected by the closed-form Christoffel symbols of the
    leaf metric; on the flat metric they are zero and nothing is evaluated.
    A vertex is confident iff its 2-ring determines a quadratic: the fit's
    normal matrix, scaled to unit diagonal, has a determinant (in [0, 1])
    above 1e-6.  It is at least 0.1 inside and 0.008 at the boundary on the
    preset and generic meshes, and below 1e-16 on stencils of fewer than 5
    points or on two lines.  The flag reads the mesh only, and callers take
    it as it is; gradient and Hessian are 0 where it is False.

    The vertices are fitted in blocks of 512, each block's 2-rings expanded
    from the mesh's 1-ring (``_ring_rows``), so the work arrays do not grow
    with the mesh.  The stencils are padded with zero rows to the largest
    2-ring of the mesh (``DomainMesh.largest_ring``, kept with the mesh),
    which leaves each least-squares problem as it is.  A block's confident
    stencils are solved by their scaled normal equations in one batched
    solve, which agrees with the SVD to rounding: the condition numbers
    reach about 25 inside and 160 at the boundary.
    """
    values = np.asarray(values, dtype=float)
    nv = mesh.n_vertices
    one_ring = mesh.vertex_rings(1)
    blocks = [(start, min(start + 512, nv)) for start in range(0, nv, 512)]
    # the rounding of the batched products depends on the padded length:
    # every block pads to the largest 2-ring of the mesh, so no fit depends
    # on the block it falls in
    width = mesh.largest_ring(2)
    christoffel = ambient.leaf.christoffel
    grad, hess = np.empty((nv, 2)), np.empty((nv, 2, 2))
    confident = np.empty(nv, dtype=bool)
    for start, stop in blocks:
        ptr, nbr = _ring_rows(one_ring, start, stop, 2)
        coef, confident[start:stop] = _quadratic_fits(mesh.vertices, values, start,
                                                       ptr, nbr, width)
        grad[start:stop] = coef[:, :2]
        hess[start:stop] = coef[:, [2, 3, 3, 4]].reshape(-1, 2, 2)
        if christoffel is not None:
            hess[start:stop] -= np.einsum("vkij,vk->vij",
                                          christoffel(mesh.vertices[start:stop]), coef[:, :2])
    return grad, hess, confident


def _quadratic_fits(vertices, values, start, ptr, nbr, width):
    """Coefficients ``(k, 5)`` of ``x, y, x^2/2, x y, y^2/2`` fitted to
    ``values`` over the CSR stencils ``(ptr, nbr)`` of the vertices from
    ``start`` on, relative to each vertex, each stencil padded to ``width``
    points, and the confidence flags ``(k,)``; the coefficients are 0 where
    the flag is False (see ``recover_gradient_hessian``)."""
    count = np.diff(ptr)
    centre = slice(start, start + len(count))
    slot = np.arange(width)
    used = slot < count[:, None]                              # (k, width)
    idx = nbr[np.minimum(ptr[:-1, None] + slot, len(nbr) - 1)]
    vx, vy = vertices.T
    x = np.where(used, vx[idx] - vx[centre, None], 0.0)
    y = np.where(used, vy[idx] - vy[centre, None], 0.0)
    rhs = np.where(used, values[idx] - values[centre, None], 0.0)
    M = np.stack([x, y, 0.5 * x**2, x * y, 0.5 * y**2], axis=2)
    Mt = M.transpose(0, 2, 1)
    N, b = Mt @ M, (Mt @ rhs[..., None])[..., 0]
    # scale columns to unit norm: the scaled normal matrix has unit diagonal
    scale = np.sqrt(np.diagonal(N, axis1=1, axis2=2))
    scale[scale == 0] = 1.0
    N /= scale[:, :, None] * scale[:, None, :]
    confident = np.linalg.det(N) > 1e-6
    coef = np.zeros((len(count), 5))
    coef[confident] = np.linalg.solve(
        N[confident], (b[confident] / scale[confident])[..., None])[..., 0]
    return coef / scale, confident


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
    rr = np.asarray(ambient.rho(vals))
    return tr1 / U - gz / (2 * U**3) - (gz / (2 * g) + n * g * rr) / U \
        - n * np.asarray(ambient.lam(vals)) * H


def mean_curvature_of_graph(problem: Problem, z: ScalarField):
    """Mean curvature recovered from the trace formula, ``strong_form_Q`` at
    ``H = 0`` divided by ``n lambda``; for verification.

    Returns (ScalarField, confidence flags)."""
    amb, mesh = problem.ambient, problem.mesh
    grad, hess, conf = recover_gradient_hessian(mesh, amb, z.values)
    nlamH = strong_form_Q(amb, mesh.vertices, z.values, grad, hess, 0.0)
    H = nlamH / (n * np.asarray(amb.lam(z.values)))
    return ScalarField(mesh, H), conf
