import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ckgraph as ck
import ckgraph.frontal as frontal
from ckgraph.errors import DomainError
from ckgraph.fields import ScalarField
from ckgraph.mesh import mesh_from_arrays
from ckgraph.operator import (_Assembly, mean_curvature_of_graph,
                              recover_gradient_hessian)
from ckgraph.problemfile import load_problem_document
from conftest import central_difference


def _random_state(problem, rng, scale=0.3):
    z = scale * rng.standard_normal(problem.mesh.n_vertices)
    if math.isfinite(problem.ambient.interval_end):
        z = np.minimum(z, problem.ambient.interval_end - 0.1)
    return z


def _gamma(u):
    u = np.asarray(u, dtype=float)
    return 1.0 + 0.3 * u[..., 0] + 0.2 * u[..., 1] ** 2


def _grad_gamma(u):
    u = np.asarray(u, dtype=float)
    return np.stack([np.full(u.shape[:-1], 0.3), 0.4 * u[..., 1]], axis=-1)


@pytest.fixture(scope="module")
def problems():
    out = []
    for amb, builder in [
            (ck.preset_ambient("killing_flat"), lambda a: ck.disk_mesh(0.4, 0.1, a)),
            (ck.preset_ambient("euclidean_radial"), lambda a: ck.cap_mesh(1.0, 0.15, a)),
            (ck.preset_ambient("example_a"), lambda a: ck.disk_mesh(0.4, 0.1, a)),
            # non-constant gamma with its exact gradient on the round-sphere
            # metric: the only fixture whose grad-gamma terms are not zero
            (replace(ck.preset_ambient("euclidean_radial"), gamma=_gamma,
                     grad_gamma=_grad_gamma),
             lambda a: ck.cap_mesh(1.0, 0.15, a))]:
        mesh = builder(amb)
        out.append(ck.Problem.create(amb, mesh, 0.7, -0.3))
    return out


def test_tau_affinity(problems):
    rng = np.random.default_rng(11)
    for prob in problems:
        asm = prob.assembly()
        z = _random_state(prob, rng)
        r0 = asm.residual_full(z, 0.0)
        r1 = asm.residual_full(z, 1.0)
        for tau in (0.25, 0.6, 0.9):
            rt = asm.residual_full(z, tau)
            assert np.abs(rt - ((1 - tau) * r0 + tau * r1)).max() < 1e-13


@pytest.fixture(scope="module")
def affine_problems(cmc_problem, radial_problem):
    doc = {
        "ambient": {"custom": {"lam": "cosh(t) + 0.5*t"}},
        "domain": {"preset": "disk", "params": {"radius": 0.4}},
        "resolution": 0.1,
        "H": {"expression": "0.5 + x*y"},
        "phi": {"constant": -0.3},
    }
    return [cmc_problem, radial_problem, load_problem_document(doc).problem]


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, 2),
       coef=st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6),
       tau=st.floats(0.0, 1.0))
def test_residual_affine_in_tau_property(affine_problems, which, coef, tau):
    # the Euler predictor's exactness rests on this affinity
    prob = affine_problems[which]
    x, y = prob.mesh.vertices.T
    z = (coef[0] + coef[1] * x + coef[2] * y + coef[3] * x**2
         + coef[4] * x * y + coef[5] * y**2)
    asm = prob.assembly()
    r0 = asm.residual_full(z, 0.0)
    r1 = asm.residual_full(z, 1.0)
    rt = asm.residual_full(z, tau)
    scale = max(np.abs(r0).max(), np.abs(r1).max())
    assert np.abs(rt - ((1 - tau) * r0 + tau * r1)).max() <= 1e-12 * scale


def test_path_rate_matches_finite_differences(problems):
    # d/dtau of the interior residual with the boundary moving as tau * phi
    rng = np.random.default_rng(3)
    for prob in problems:
        asm = prob.assembly()
        bv = prob.mesh.boundary_vertices
        z = _random_state(prob, rng)
        tau, eps = rng.uniform(0.2, 0.8), 1e-6

        def res(t):
            zt = z.copy()
            zt[bv] = t * prob.phi[bv]
            return asm.residual(zt, t)[0]

        z[bv] = tau * prob.phi[bv]
        _, ev = asm.residual(z, tau)
        _, rate = asm.system(ev, tangent=True)
        fd = central_difference(res, tau, eps)
        assert np.abs(fd - rate).max() < 1e-6 * max(np.abs(rate).max(), 1.0)
        assert asm.system(ev)[1] is None


def test_interval_violation_names_vertex():
    amb = ck.preset_ambient("example_b")      # interval end at 1
    mesh = ck.disk_mesh(0.3, 0.1, amb)
    prob = ck.Problem.create(amb, mesh, 0.0, 0.0)
    z = np.zeros(mesh.n_vertices)
    z[7] = 1.5
    with pytest.raises(DomainError, match="vertex 7"):
        prob.assembly().residual_full(z, 1.0)


def test_underflowing_lambda_keeps_residual_and_jacobian_finite(recwarn):
    # e^t underflows to 0 at t = -800; the closed-form rho = 1 and rho_t = 0
    # leave no 0/0 there
    amb = ck.preset_ambient("euclidean_radial")
    mesh = ck.cap_mesh(1.0, 0.2, amb)
    prob = ck.Problem.create(amb, mesh, 1.0, -0.5)
    z = prob.phi.copy()
    z[mesh.interior_vertices] = -800.0
    asm = prob.assembly()
    r, ev = asm.residual(z, 1.0)
    J, rate = asm.system(ev, tangent=True)
    assert np.all(np.isfinite(r)) and np.all(np.isfinite(rate))
    assert np.all(np.isfinite(J.toarray()))
    assert len(recwarn) == 0


def test_overflowing_lambda_is_a_domain_error():
    # e^t overflows past t = 709.78: the residual refuses the graph, naming
    # the first such element and its mean value, as it refuses one that
    # reaches the interval end, and warns nothing
    amb = ck.preset_ambient("example_a")
    mesh = ck.disk_mesh(0.3, 0.1, amb)
    prob = ck.Problem.create(amb, mesh, 0.0, -0.1)
    z = prob.phi.copy()
    z[0] = 2400.0           # the centre: the mean over its fan is 799.93
    with pytest.raises(DomainError, match=r"^lambda is not finite at element 0, graph value "
                                          r"799\.93"):
        prob.assembly().residual(z, 1.0)


def test_jacobian_matches_finite_differences(problems):
    rng = np.random.default_rng(5)
    for prob in problems:
        asm = prob.assembly()
        ii = asm.interior
        pos = {int(v): k for k, v in enumerate(ii)}
        for _ in range(7):
            z = _random_state(prob, rng)
            tau = rng.uniform(0.0, 1.0)
            J = asm.system(asm.residual(z, tau)[1])[0].toarray()
            eps = 1e-6
            for j in rng.choice(ii, size=3, replace=False):
                d = np.zeros(prob.mesh.n_vertices)
                d[j] = 1.0
                fd = central_difference(lambda v: asm.residual(v, tau)[0], z, eps, d)
                col = J[:, pos[int(j)]]
                rel = np.abs(fd - col).max() / max(np.abs(col).max(), 1e-12)
                assert rel < 1e-6


def test_jacobian_whole_matrix_matches_element_sum():
    # every entry of the fixed CSC pattern, on a mesh with shuffled vertex
    # and triangle labels, against a dense sum of the element matrices
    amb = ck.preset_ambient("example_a")
    base = ck.disk_mesh(0.4, 0.08, amb)
    rng = np.random.default_rng(2024)
    perm = rng.permutation(base.n_vertices)          # old label -> new label
    verts = np.empty_like(base.vertices)
    verts[perm] = base.vertices
    tris = perm[base.triangles][rng.permutation(base.n_triangles)]
    roll = rng.integers(0, 3, len(tris))
    tris = np.take_along_axis(tris, (np.arange(3) + roll[:, None]) % 3, axis=1)
    mesh = mesh_from_arrays(verts, tris, [perm[l] for l in base.boundary_loops], amb)
    x, y = mesh.vertices.T
    prob = ck.Problem.create(amb, mesh, ScalarField(mesh, 0.5 + x * y), -0.2)
    asm = prob.assembly()
    z = _random_state(prob, rng)
    z[mesh.boundary_vertices] = 0.7 * prob.phi[mesh.boundary_vertices]
    _, ev = asm.residual(z, 0.7)
    local = asm._local(ev)
    dense = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for a in range(3):
        for b in range(3):
            np.add.at(dense, (mesh.triangles[:, a], mesh.triangles[:, b]), local[a, b])
    ref = dense[np.ix_(asm.interior, asm.interior)]
    J, _ = asm.system(ev)
    assert np.abs(J.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_flux_partition_of_unity(problems):
    # the flux term integrates by parts against a partition of unity
    rng = np.random.default_rng(7)
    for prob in problems:
        asm = prob.assembly()
        z = _random_state(prob, rng)
        assert abs(asm.flux_residual_full(z).sum()) < 1e-13


def test_boundary_flux_dual_route(cmc_problem, cmc_solution, boundary_flux):
    # vectorized assembly against an independent scalar loop
    asm = cmc_problem.assembly()
    z = cmc_solution.solution
    fr = asm.flux_residual_full(z.values)
    slice_flux = -fr[cmc_problem.mesh.boundary_vertices].sum()
    dual = boundary_flux(cmc_problem, z)
    assert abs(dual - slice_flux) < 1e-10


def test_weak_residual_consistency_at_exact():
    # the weak residual of the interpolated exact solution shrinks like h^2
    amb = ck.preset_ambient("killing_flat")
    norms = []
    for h in (0.08, 0.04):
        mesh = ck.disk_mesh(0.4, h, amb)
        r = np.linalg.norm(mesh.vertices, axis=1)
        prob = ck.Problem.create(amb, mesh, 1.0, -math.sqrt(0.84))
        R = prob.assembly().residual_full(-np.sqrt(1.0 - r**2), 1.0)
        norms.append((mesh.h, np.abs(R[mesh.interior_vertices]).max()))
    (h1, n1), (h2, n2) = norms
    assert n1 / h1**2 < 1.0 and n2 / h2**2 < 1.0
    assert n2 < 0.3 * n1


@pytest.fixture(scope="module")
def front_problems():
    # the non-constant-gamma ambient over each kind of mesh, one of them
    # read back from a relabelled mesh.json document
    amb = replace(ck.preset_ambient("euclidean_radial"), gamma=_gamma,
                  grad_gamma=_grad_gamma)
    disk = ck.disk_mesh(0.4, 0.05, amb)
    rng = np.random.default_rng(8)
    perm = rng.permutation(disk.n_vertices)          # old label -> new label
    verts = np.empty_like(disk.vertices)
    verts[perm] = disk.vertices
    doc = {"vertices": verts.tolist(),
           "triangles": perm[disk.triangles][rng.permutation(disk.n_triangles)].tolist(),
           "boundary": [perm[l].tolist() for l in disk.boundary_loops]}
    meshes = [disk, ck.cap_mesh(1.0, 0.08, amb), ck.annulus_mesh(0.2, 0.6, 0.05, amb),
              ck.mesh_from_json(doc, amb)]
    return [ck.Problem.create(amb, mesh, 0.7, -0.3) for mesh in meshes]


@settings(max_examples=25, deadline=None)
@given(which=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0.0, 1.0))
def test_front_solve_matches_dense_solve(front_problems, which, seed, tau):
    prob = front_problems[which]
    rng = np.random.default_rng(seed)
    asm = prob.assembly()
    J, _ = asm.system(asm.residual(_random_state(prob, rng), tau)[1])
    b = rng.standard_normal(J.shape[0])
    ref = np.linalg.solve(J.toarray(), b)
    x = J.solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mean_curvature_recovery_exact_field(cmc_problem, cmc_exact):
    z = ScalarField(cmc_problem.mesh, cmc_exact)
    Hf, conf = mean_curvature_of_graph(cmc_problem, z)
    mask = conf & ~cmc_problem.mesh.is_boundary
    err = np.abs(Hf.values[mask] - 1.0)
    assert err.mean() < 0.02
    assert err.max() < 0.2


def test_mean_curvature_recovery_constant_graph():
    # a leaf has H = k(const)/..., here the flat case: H = 0 exactly
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.1, amb)
    prob = ck.Problem.create(amb, mesh, 0.0, -0.2)
    z = ScalarField.constant(mesh, -0.2)
    Hf, conf = mean_curvature_of_graph(prob, z)
    assert np.abs(Hf.values[conf]).max() < 1e-8


def christoffel_symbols(ambient, pts):
    """The leaf metric's Christoffel symbols (..., k, i, j), zeros on the
    flat metric."""
    symbols = ambient.leaf.christoffel
    return np.zeros(pts.shape + (2, 2)) if symbols is None else symbols(pts)


def _two_rings(mesh):
    """Each vertex's 2-ring, ascending and without the vertex, built from
    the edge table alone, apart from the stencil the recovery keeps."""
    adj = [set() for _ in range(mesh.n_vertices)]
    for a, b in mesh.edge_table()[0].tolist():
        adj[a].add(b)
        adj[b].add(a)
    return [np.array(sorted(adj[v].union(*(adj[w] for w in adj[v])) - {v}))
            for v in range(mesh.n_vertices)]


def _recovery_loop(mesh, ambient, values):
    """The former per-vertex patch recovery, kept as a reference: one
    column-scaled ``lstsq`` fit over each 2-ring, kept where the squared
    singular values of the scaled stencil, the eigenvalues of its normal
    matrix, have a product above 1e-6; zeros elsewhere."""
    rings = _two_rings(mesh)
    nv = mesh.n_vertices
    grad, hess = np.zeros((nv, 2)), np.zeros((nv, 2, 2))
    confident = np.zeros(nv, dtype=bool)
    Gam = christoffel_symbols(ambient, mesh.vertices)
    for v in range(nv):
        nbrs = rings[v]
        pts = mesh.vertices[nbrs] - mesh.vertices[v]
        rhs = values[nbrs] - values[v]
        M = np.stack([pts[:, 0], pts[:, 1], 0.5 * pts[:, 0] ** 2,
                      pts[:, 0] * pts[:, 1], 0.5 * pts[:, 1] ** 2], axis=1)
        scale = np.linalg.norm(M, axis=0)
        scale[scale == 0] = 1.0
        coef, _, _, sv = np.linalg.lstsq(M / scale, rhs, rcond=None)
        confident[v] = len(sv) == 5 and np.prod(sv**2) > 1e-6
        if not confident[v]:
            continue
        coef /= scale
        grad[v] = coef[:2]
        Hc = np.array([[coef[2], coef[3]], [coef[3], coef[4]]])
        hess[v] = Hc - np.einsum("kij,k->ij", Gam[v], coef[:2])
    return grad, hess, confident


def _jittered_disk(amb):
    """A generic mesh: disk_mesh(0.4, 0.05) with every interior vertex moved
    by up to a fifth of the ring spacing."""
    mesh = ck.disk_mesh(0.4, 0.05, amb)
    verts = mesh.vertices.copy()
    inner = mesh.interior_vertices
    verts[inner] += np.random.default_rng(3).uniform(-0.01, 0.01, (len(inner), 2))
    return ck.mesh_from_arrays(verts, mesh.triangles, mesh.boundary_loops, amb)


def _two_triangles(amb):
    """Four vertices: every 2-ring has fewer than 5 points."""
    verts = np.array([[0.0, 0.0], [0.3, 0.0], [0.3, 0.2], [0.0, 0.25]])
    return ck.mesh_from_arrays(verts, [[0, 1, 2], [0, 2, 3]], [[0, 1, 2, 3]], amb)


def _strip(amb):
    """Two rows of eight vertices: every 2-ring lies on the two lines of
    the conic y (y - 0.1) = 0, so every normal matrix is singular."""
    verts = np.array([[0.1 * i, 0.1 * j] for j in range(2) for i in range(8)])
    tris = [t for i in range(7) for t in ([i, i + 1, i + 9], [i, i + 9, i + 8])]
    return ck.mesh_from_arrays(verts, tris, [list(range(8)) + list(range(15, 7, -1))], amb)


@pytest.mark.parametrize("ambient, build", [
    ("killing_flat", lambda a: ck.disk_mesh(0.4, 0.04, a)),
    ("euclidean_radial", lambda a: ck.cap_mesh(1.0, 0.05, a)),
    ("killing_flat", _jittered_disk),
    ("euclidean_radial", _two_triangles),
    ("killing_flat", _strip),
], ids=["disk", "round_cap", "generic", "deficient", "strip"])
def test_batched_recovery_matches_loop(ambient, build):
    amb = ck.preset_ambient(ambient)
    mesh = build(amb)
    x, y = mesh.vertices.T
    values = np.cos(3 * x) + y**3 - np.sqrt(1.5 - x**2 - y**2)
    grad, hess, conf = recover_gradient_hessian(mesh, amb, values)
    ref_grad, ref_hess, ref_conf = _recovery_loop(mesh, amb, values)
    assert np.array_equal(conf, ref_conf)
    for new, ref in ((grad, ref_grad), (hess, ref_hess)):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


def _recovery_whole(mesh, ambient, values):
    """The former whole-mesh patch recovery, kept as a reference: every
    2-ring padded to the largest one and all confident stencils fitted in
    one batch."""
    rings = _two_rings(mesh)
    count = np.array([len(r) for r in rings])
    ptr, nbr = np.concatenate([[0], np.cumsum(count)]), np.concatenate(rings)
    slot = np.arange(count.max())
    used = slot < count[:, None]
    idx = nbr[np.minimum(ptr[:-1, None] + slot, len(nbr) - 1)]
    vx, vy = mesh.vertices.T
    x = np.where(used, vx[idx] - vx[:, None], 0.0)
    y = np.where(used, vy[idx] - vy[:, None], 0.0)
    rhs = np.where(used, values[idx] - values[:, None], 0.0)
    M = np.stack([x, y, 0.5 * x**2, x * y, 0.5 * y**2], axis=2)
    Mt = M.transpose(0, 2, 1)
    N, b = Mt @ M, (Mt @ rhs[..., None])[..., 0]
    scale = np.sqrt(np.diagonal(N, axis1=1, axis2=2))
    scale[scale == 0] = 1.0
    N /= scale[:, :, None] * scale[:, None, :]
    conf = np.linalg.det(N) > 1e-6
    coef = np.zeros((len(count), 5))
    coef[conf] = np.linalg.solve(N[conf], (b[conf] / scale[conf])[..., None])[..., 0]
    coef /= scale
    grad = coef[:, :2]
    Hc = coef[:, [2, 3, 3, 4]].reshape(-1, 2, 2)
    Gam = christoffel_symbols(ambient, mesh.vertices)
    hess = Hc - np.einsum("vkij,vk->vij", Gam, grad)
    return grad, hess, conf


def _relabelled_disk(amb):
    """disk_mesh(0.4, 0.02) read back from a mesh.json document with
    shuffled vertex and triangle labels: a block of vertex numbers is
    scattered over the disk."""
    disk = ck.disk_mesh(0.4, 0.02, amb)
    rng = np.random.default_rng(4)
    perm = rng.permutation(disk.n_vertices)          # old label -> new label
    verts = np.empty_like(disk.vertices)
    verts[perm] = disk.vertices
    return ck.mesh_from_json({
        "vertices": verts.tolist(),
        "triangles": perm[disk.triangles][rng.permutation(disk.n_triangles)].tolist(),
        "boundary": [perm[l].tolist() for l in disk.boundary_loops]}, amb)


# vertex counts 1261, 4921, 2639 and 1261, none a multiple of the block of
# 512, and 331, less than one block
@pytest.mark.parametrize("ambient, build", [
    ("killing_flat", lambda a: ck.disk_mesh(0.4, 0.02, a)),
    ("euclidean_radial", lambda a: ck.cap_mesh(1.0, 0.025, a)),
    ("killing_flat", lambda a: ck.annulus_mesh(0.2, 0.6, 0.02, a)),
    ("killing_flat", _relabelled_disk),
    ("killing_flat", lambda a: ck.disk_mesh(0.4, 0.04, a)),
], ids=["disk", "round_cap", "annulus", "generic", "one_block"])
def test_blocked_recovery_matches_whole_mesh_fit(ambient, build):
    # every block pads its stencils to the largest 2-ring of the mesh, so
    # each fit is the one of a single batch, to the bit
    amb = ck.preset_ambient(ambient)
    mesh = build(amb)
    x, y = mesh.vertices.T
    values = np.cos(3 * x) + y**3 - np.sqrt(1.5 - x**2 - y**2)
    got = recover_gradient_hessian(mesh, amb, values)
    for new, ref in zip(got, _recovery_whole(mesh, amb, values)):
        assert np.array_equal(new, ref)


def _generic(mesh, amb):
    return mesh_from_arrays(mesh.vertices, mesh.triangles, mesh.boundary_loops, amb)


@pytest.mark.parametrize("build", [
    lambda a: ck.disk_mesh(0.4, 0.04, a),
    lambda a: _generic(ck.disk_mesh(0.4, 0.04, a), a),
    _jittered_disk,
    lambda a: _generic(ck.annulus_mesh(0.3, 0.7, 0.05, a), a),
    _relabelled_disk,
], ids=["disk", "generic_disk", "jittered", "generic_annulus", "relabelled"])
def test_confident_recovery_reaches_the_boundary_ring(build):
    # the one-sided 2-rings at and next to the boundary reproduce a
    # quadratic, so every vertex is confident, boundary vertices included
    amb = ck.preset_ambient("killing_flat")
    mesh = build(amb)
    a, b, hxx, hxy, hyy = np.random.default_rng(5).uniform(-1.0, 1.0, 5)
    x, y = mesh.vertices.T
    values = a * x + b * y + 0.5 * hxx * x**2 + hxy * x * y + 0.5 * hyy * y**2
    grad, hess, conf = recover_gradient_hessian(mesh, amb, values)
    exact_grad = np.stack([a + hxx * x + hxy * y, b + hxy * x + hyy * y], axis=1)
    exact_hess = np.array([[hxx, hxy], [hxy, hyy]])
    assert np.abs(grad[conf] - exact_grad[conf]).max() <= 1e-9 * np.abs(exact_grad).max()
    assert np.abs(hess[conf] - exact_hess).max() <= 1e-9 * np.abs(exact_hess).max()
    assert conf.all()


def _cross(amb):
    """Nine vertices on the two axes, two diamonds around the origin: every
    2-ring has 8 points on two lines, so every normal matrix is singular,
    at the five interior vertices too."""
    verts = [[0.0, 0.0]] + [[r * c, r * s] for r in (0.1, 0.2)
                            for c, s in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    tris = [[0, 1 + k, 1 + (k + 1) % 4] for k in range(4)] \
        + [t for k in range(4) for t in ([1 + k, 5 + k, 5 + (k + 1) % 4],
                                         [1 + k, 5 + (k + 1) % 4, 1 + (k + 1) % 4])]
    return ck.mesh_from_arrays(np.array(verts), tris, [[5, 6, 7, 8]], amb)


@pytest.mark.parametrize("build, vertex", [(_strip, 3), (_cross, 0)],
                         ids=["strip", "cross"])
def test_stencil_on_two_lines_is_not_confident(build, vertex):
    # enough stencil points in number, but on two lines (the strip's conic
    # y (y - 0.1) = 0, the cross's xy = 0), where a quadratic vanishes, so
    # the stencil determines none; the cross's centre is an interior vertex
    amb = ck.preset_ambient("killing_flat")
    mesh = build(amb)
    assert np.count_nonzero(mesh.two_ring[vertex] != vertex) == 8
    x, y = mesh.vertices.T
    grad, hess, conf = recover_gradient_hessian(mesh, amb, x**2 + y)
    assert not conf[vertex]
    assert not grad[vertex].any() and not hess[vertex].any()


def test_recovery_peak_does_not_grow_with_the_mesh(traced_peak):
    # vertex blocks: the work arrays above the outputs stay put from 4921 to
    # 19441 vertices (the whole-mesh fit grew with the mesh, 4-fold here)
    amb = ck.preset_ambient("euclidean_radial")
    above = []
    for h in (0.025, 0.0125):
        mesh = ck.cap_mesh(1.0, h, amb)
        mesh.two_ring                        # mesh data, cached with the mesh
        x, y = mesh.vertices.T
        out, peak = traced_peak(recover_gradient_hessian, mesh, amb,
                                np.cos(3 * x) + y**3)
        above.append(peak - sum(a.nbytes for a in out))
    assert above[1] < 1.2 * above[0]


def test_assembly_setup_peak_within_twice_kept(monkeypatch):
    # element data and the tree's pattern, through the CSC key build: the
    # pairs are broadcast views of each element's interior positions, not
    # copies, so the set-up never holds more than twice what it keeps, the
    # element data and the tree's pattern and pair slots (broadcast keys and
    # np.unique peaked at 2.25 times)
    seen = []
    build, dissect = frontal.FrontTree, frontal._dissect

    def tree(rows, cols, coords):
        seen.append(tracemalloc.get_traced_memory()[0])
        return build(rows, cols, coords)

    def dissected(coords, ei, ej):
        seen.append(tracemalloc.get_traced_memory()[1])
        return dissect(coords, ei, ej)
    monkeypatch.setattr(frontal, "FrontTree", tree)
    monkeypatch.setattr(frontal, "_dissect", dissected)
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.005, amb)
    problem = ck.Problem.create(amb, mesh, 1.0, -math.sqrt(0.84))
    mesh.interior_vertices
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t = _Assembly(problem).tree
    finally:
        tracemalloc.stop()
    kept = seen[0] - base + t.slot.nbytes + t.indptr.nbytes + t.indices.nbytes
    assert seen[1] - base <= 2 * kept


# -- constant element data as one value ----------------------------------------

# the element fields that may be kept as one 0-d value, besides the
# components of the inverse metric Sc and Sq
_COMPACTED = ("gam_c", "gam_q", "dgSx", "dgSy", "H_q")


def _kept_bytes(asm):
    """Bytes of the arrays the assembly holds of its own (the tree, the mesh
    and the problem's boundary data are not counted); an axis broadcast
    with stride 0 holds one entry."""
    total = 0
    for name, value in vars(asm).items():
        if name in ("tree", "mesh", "ambient", "phi"):
            continue
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                held = [n for n, stride in zip(a.shape, a.strides) if stride]
                total += int(np.prod(held)) * a.itemsize
    return total


def _rematerialized(asm):
    """A copy of ``asm`` with every compacted field spread to its full
    per-element shape again: per centroid or per quadrature point."""
    full = copy.copy(asm)
    for name in _COMPACTED:
        shape = asm.w_c.shape if name == "gam_c" else asm.w_q.shape
        setattr(full, name, np.broadcast_to(getattr(asm, name), shape).copy())
    full.Sc = tuple(np.broadcast_to(c, asm.w_c.shape).copy() for c in asm.Sc)
    full.Sq = tuple(np.broadcast_to(c, asm.w_q.shape).copy() for c in asm.Sq)
    full.w_q = asm.w_q.copy()
    return full


def test_flat_constant_problem_keeps_constants_as_one_value():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.05, amb)
    asm = ck.Problem.create(amb, mesh, 1.0, -0.5).assembly()
    for name in _COMPACTED:
        assert np.ndim(getattr(asm, name)) == 0, name
    for S in (asm.Sc, asm.Sq):
        assert [np.ndim(c) for c in S] == [0, 0, 0]
    assert [float(c) for c in asm.Sq] == [1.0, 0.0, 1.0]
    # the quadrature weights: one row broadcast to the three points
    assert asm.w_q.shape == (3, mesh.n_triangles) and asm.w_q.strides[0] == 0
    assert asm._triT.dtype == np.int32
    # what varies stays per element: H from an expression, the round metric
    x, y = mesh.vertices.T
    asm = ck.Problem.create(amb, mesh, ScalarField(mesh, 0.5 + x * y), -0.5).assembly()
    assert asm.H_q.shape == (3, mesh.n_triangles)
    round_amb = ck.preset_ambient("euclidean_radial")
    cap = ck.cap_mesh(1.0, 0.2, round_amb)
    asm = ck.Problem.create(round_amb, cap, 1.0, -0.5).assembly()
    assert all(c.shape == (3, cap.n_triangles) for c in asm.Sq)
    assert asm.w_q.strides[0] != 0
    assert np.ndim(asm.gam_q) == 0


def test_flat_assembly_element_arrays_within_6mb():
    # 13.2 MB when every field was stored per element, 5.53 MB with three
    # rows of quadrature weights and int64 element vertices, 4.45 MB now
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.005, amb)
    asm = ck.Problem.create(amb, mesh, 1.0, -math.sqrt(0.84)).assembly()
    assert _kept_bytes(asm) <= 6e6


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


_GAMMAS = [None, "1.5", "1 + 0.3*x + 0.2*y**2"]
_FIELDS = [{"constant": 0.7}, {"expression": "0.5 + x*y"}]


@settings(max_examples=24, deadline=None)
@given(ambient=st.sampled_from(["killing_flat", "example_a", "euclidean_radial",
                                "custom"]),
       metric=st.sampled_from(["flat", "round_sphere"]),
       gamma=st.sampled_from(_GAMMAS), H=st.sampled_from(_FIELDS),
       seed=st.integers(0, 2**16), tau=st.floats(0.0, 1.0))
def test_compacted_kernel_matches_full_fields_bitwise(ambient, metric, gamma, H,
                                                      seed, tau):
    # one kernel path: the broadcast values give the residual, the Jacobian
    # data and the path rate of the same assembly with full-shape fields
    if ambient == "custom":
        amb = {"custom": {"lam": "exp(t)", "base_metric": metric}}
        if gamma is not None:
            amb["custom"]["gamma"] = gamma
    else:
        amb = {"preset": ambient}
    round_leaf = ambient == "euclidean_radial" or (ambient == "custom"
                                                   and metric == "round_sphere")
    domain = ({"preset": "cap", "params": {"theta0": 1.0}} if round_leaf
              else {"preset": "disk", "params": {"radius": 0.4}})
    prob = load_problem_document({"ambient": amb, "domain": domain,
                                  "resolution": 0.15, "H": H,
                                  "phi": {"constant": -0.3}}).problem
    asm = prob.assembly()
    full = _rematerialized(asm)
    z = _random_state(prob, np.random.default_rng(seed))
    for a, b in ((asm.residual_full(z, tau), full.residual_full(z, tau)),
                 (asm.flux_residual_full(z), full.flux_residual_full(z))):
        assert _bits(a) == _bits(b)
    assert asm.grad_sup(z) == full.grad_sup(z)
    got = asm.system(asm.residual(z, tau)[1], tangent=True)
    ref = full.system(full.residual(z, tau)[1], tangent=True)
    assert _bits(got[0].data) == _bits(ref[0].data)
    assert _bits(got[1]) == _bits(ref[1])


def test_recovery_expands_the_padding_width_once_per_mesh(monkeypatch):
    # the padded 2-rings are kept with the mesh: the first recovery expands
    # each block's rings once, and a second one on the same mesh (certify
    # recovers the distance, then the strip data) expands none
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.02, amb)
    calls, ring_rows = [], ck.mesh._ring_rows

    def counted(*args):
        calls.append(args[1:3])
        return ring_rows(*args)
    monkeypatch.setattr(ck.mesh, "_ring_rows", counted)
    blocks = -(-mesh.n_vertices // 512)
    first = recover_gradient_hessian(mesh, amb, mesh.dist_to_boundary)
    assert len(calls) == blocks
    del calls[:]
    again = recover_gradient_hessian(mesh, amb, mesh.dist_to_boundary)
    assert not calls
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_flat_christoffel_symbols_compact_to_zero():
    # the flat leaf has no symbols to evaluate, so the recovery skips its
    # correction there; the round leaf's are not zero off the pole
    assert ck.preset_ambient("killing_flat").leaf.christoffel is None
    pts = ck.disk_mesh(0.4, 0.1, ck.preset_ambient("killing_flat")).vertices
    gam = christoffel_symbols(ck.preset_ambient("euclidean_radial"), pts)
    assert gam.shape == (len(pts), 2, 2, 2)
    assert np.all(np.abs(gam[1:]).max(axis=(1, 2, 3)) > 0)


def test_problem_refuses_a_mesh_on_another_leaf_metric():
    # a flat-leaf mesh under the round-leaf ambient has the flat mesh size
    # (0.1615, not 0.1606) and would relax its distance in the wrong metric
    radial, flat = ck.preset_ambient("euclidean_radial"), ck.preset_ambient("killing_flat")
    with pytest.raises(ck.ParameterError, match="another leaf metric"):
        ck.Problem.create(radial, ck.disk_mesh(0.8, 0.1, flat), 0.0, -0.1)
    with pytest.raises(ck.ParameterError, match="another leaf metric"):
        ck.Problem.create(flat, ck.disk_mesh(0.8, 0.1, radial), 0.0, -0.1)
    # another ambient on the same leaf metric is the same mesh
    ck.Problem.create(ck.preset_ambient("example_a"), ck.disk_mesh(0.4, 0.1, flat), 0.0, -0.1)
    ck.Problem.create(radial, ck.disk_mesh(0.8, 0.1, radial), 0.0, -0.1)
