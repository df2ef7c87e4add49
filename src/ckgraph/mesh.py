"""Triangulated chart domains.

A :class:`DomainMesh` is a conforming triangulation of a bounded domain in a
single chart of the base leaf, together with ordered boundary loops, inward
unit normals (with respect to the leaf metric), and the distance-to-boundary
field.  Preset constructors (disk, annulus, spherical cap) carry closed forms
for the distance and the boundary curvature; generic meshes fall back to
discrete estimates.

Boundary loops are ordered with the interior on the left, so rotating the
tangent by +90 degrees in the chart points inward.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ambient import AmbientSpace
from .errors import MeshError, ParameterError

__all__ = ["DomainMesh", "disk_mesh", "annulus_mesh", "cap_mesh",
           "mesh_from_arrays", "mesh_from_json", "mesh_to_json",
           "closed_polyline_geometry"]


@dataclass
class DomainMesh:
    vertices: np.ndarray          # (nv, 2) chart coordinates
    triangles: np.ndarray         # (nt, 3) positively oriented
    boundary_loops: list          # list of int arrays, interior on the left
    boundary_normal: np.ndarray   # (nv, 2); valid rows only at boundary vertices
    dist_to_boundary: np.ndarray  # (nv,) sigma-geodesic distance to the boundary
    h: float                      # mesh size (max sigma edge length)
    preset: Optional[dict] = None
    suspect_elements: np.ndarray = None  # (nt,) bool, cut-locus suspects
    _edges: Optional[tuple] = field(default=None, repr=False)
    _rings: dict = field(default_factory=dict, repr=False)
    _boundary: Optional[np.ndarray] = field(default=None, repr=False)

    # -- basic derived data -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted vertices of all boundary loops (read-only, built once)."""
        if self._boundary is None:
            self._boundary = _unique(np.concatenate(
                [np.asarray(l) for l in self.boundary_loops]))
            self._boundary.flags.writeable = False
        return self._boundary

    @property
    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.boundary_vertices] = True
        return mask

    @property
    def interior_vertices(self) -> np.ndarray:
        return np.nonzero(~self.is_boundary)[0]

    def edge_table(self):
        """Unique edges as sorted vertex pairs ``(ne, 2)``, the edge of each
        local edge ``(a, b), (b, c), (c, a)`` of every element ``(nt, 3)``,
        and the number of elements sharing each edge ``(ne,)``."""
        if self._edges is None:
            self._edges = _edge_table(self.triangles)
        return self._edges

    def vertex_rings(self, depth: int = 2):
        """Vertex neighbourhoods up to ``depth`` edge hops as CSR rows
        ``(indptr, indices)``: the neighbours of ``v``, in ascending order
        and without ``v`` itself, are ``indices[indptr[v]:indptr[v + 1]]``.
        Used by patch recovery."""
        if depth not in self._rings:
            nv = self.n_vertices
            edges = self.edge_table()[0]
            # pairs (v, w) as keys v nv + w, ascending: one hop either way,
            # then each further hop adds the one-hop rows of every w reached
            keys = _unique(np.concatenate([edges @ [nv, 1], edges @ [1, nv]]))
            ptr, one = _csr(keys, nv)
            for _ in range(depth - 1):
                v, w = np.divmod(keys, nv)
                count = ptr[w + 1] - ptr[w]
                start = np.repeat(ptr[w] - np.cumsum(count) + count, count)
                far = one[np.arange(len(start)) + start]
                keys = _unique(np.concatenate([keys, np.repeat(v, count) * nv + far]))
            v, w = np.divmod(keys, nv)
            self._rings[depth] = _csr(keys[v != w], nv)
        return self._rings[depth]


# -- validation -------------------------------------------------------------


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _chart_areas(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def _edge_table(triangles):
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    # keys i nv + j sort as the pairs (i, j) do
    nv = int(triangles.max()) + 1 if triangles.size else 1
    keys, inverse, counts = np.unique(pairs[:, 0].astype(np.int64) * nv + pairs[:, 1],
                                      return_inverse=True, return_counts=True)
    edges = np.stack(np.divmod(keys, nv), axis=1).astype(triangles.dtype, copy=False)
    return edges, inverse.reshape(-1, 3), counts


def _unique(keys):
    """Sorted distinct values of an integer array, as ``np.unique`` gives
    them, by sorting: NumPy 2.4 sends a bare ``np.unique`` down a hash-table
    path that is far slower on integer keys (11 ms against 0.3 ms for 30k
    int64 keys) and imports ``numpy.ma``."""
    keys = np.sort(np.asarray(keys), axis=None)
    new = np.empty(keys.shape, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _csr(keys, nv):
    """CSR rows ``(indptr, indices)`` of ascending pair keys ``v nv + w``."""
    v, w = np.divmod(keys, nv)
    return np.concatenate([[0], np.cumsum(np.bincount(v, minlength=nv))]), w


def _loop_edges(mesh: DomainMesh):
    """Endpoints ``i, j`` of every loop edge (each loop closed) and its index
    in the edge table, -1 where the pair is no mesh edge."""
    loops = [np.asarray(l) for l in mesh.boundary_loops]
    i = np.concatenate(loops)
    j = np.concatenate([np.roll(l, -1) for l in loops])
    edges = mesh.edge_table()[0]
    nv = mesh.n_vertices
    keys = edges[:, 0] * nv + edges[:, 1]     # ascending: edges are sorted
    want = np.minimum(i, j) * nv + np.maximum(i, j)
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return i, j, np.where(keys[pos] == want, pos, -1)


def _validate(mesh: DomainMesh):
    areas = _chart_areas(mesh.vertices, mesh.triangles)
    if not np.all(areas > 0):
        raise MeshError("triangles must be positively oriented in the chart")
    counts = mesh.edge_table()[2]
    if np.any(counts > 2):
        raise MeshError("non-conforming mesh: an edge is shared by more than 2 elements")
    _, _, ids = _loop_edges(mesh)
    if np.any(ids < 0) or np.any(counts[ids] != 1) \
            or len(_unique(ids)) != np.count_nonzero(counts == 1):
        raise MeshError("boundary loops do not cover the one-sided edges exactly")
    d = mesh.dist_to_boundary
    if np.any(d[mesh.boundary_vertices] != 0.0):
        raise MeshError("boundary vertices must have distance 0")
    if np.any(d[mesh.interior_vertices] <= 0.0):
        raise MeshError("interior vertices must have positive distance")


# -- sigma-aware helpers ----------------------------------------------------


def _sigma_edges(vertices, triangles, ambient: AmbientSpace):
    """Edge table and the leaf-metric length of each edge (metric at the
    edge midpoint)."""
    table = _edge_table(triangles)
    i, j = table[0][:, 0], table[0][:, 1]
    e = vertices[j] - vertices[i]
    S = ambient.base_metric(0.5 * (vertices[i] + vertices[j]))
    return table, np.sqrt(np.einsum("ei,eij,ej->e", e, S, e))


def _nearest(points, targets):
    """Index of the target closest to each point in the chart; a tie goes to
    the lowest index.  About 2^20 distances are held at a time."""
    rows = max(1, 2**20 // len(targets))
    out = np.empty(len(points), dtype=np.intp)
    for s in range(0, len(points), rows):
        diff = points[s:s + rows, None, :] - targets[None, :, :]
        out[s:s + rows] = np.argmin(diff[..., 0]**2 + diff[..., 1]**2, axis=1)
    return out


def closed_polyline_geometry(points, ambient: AmbientSpace):
    """Leaf-metric geometry of a closed chart polyline, point k joined to
    k + 1 and the last to the first, at every point.

    Returns the unit normal rotated +90 degrees from the chord of the two
    neighbours (it points into the region on the left; rows are not finite
    where the neighbours coincide), the turning-angle curvature
    ``sign * beta / ((l1 + l2) / 2)`` (positive where the polyline turns
    left, 0 at a zero-length edge), and a confidence flag (``beta < pi/2``).
    The metric is taken at the point itself.
    """
    p = np.asarray(points, dtype=float)
    prv, nxt = np.roll(p, 1, axis=0), np.roll(p, -1, axis=0)
    S = np.asarray(ambient.base_metric(p))

    def form(a, b):
        return (a[:, None, :] @ S @ b[:, :, None])[:, 0, 0]

    tang = nxt - prv
    raw = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
    e1, e2 = p - prv, nxt - p
    l1, l2 = np.sqrt(form(e1, e1)), np.sqrt(form(e2, e2))
    ok = (l1 > 0) & (l2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = raw / np.sqrt(form(raw, raw))[:, None]
        beta = np.arccos(np.clip(form(e1, e2) / (l1 * l2), -1.0, 1.0))
        sign = np.where(_cross2(e1, e2) >= 0, 1.0, -1.0)
        curvature = np.where(ok, sign * beta / (0.5 * (l1 + l2)), 0.0)
    return normal, curvature, ok & (beta < math.pi / 2)


def _hat_gradients(vertices, triangles):
    """Chart gradients of the P1 hat functions, shape (nt, 3, 2)."""
    p = vertices[triangles]
    areas = _chart_areas(vertices, triangles)
    g = np.empty((len(triangles), 3, 2))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        edge = p[:, c] - p[:, b]
        # rotate the opposite edge by +90deg and scale
        g[:, a, 0] = -edge[:, 1]
        g[:, a, 1] = edge[:, 0]
    g /= (2.0 * areas)[:, None, None]
    return g, areas


def _mark_suspects(mesh: DomainMesh, ambient: AmbientSpace):
    """Flag elements where the discrete |grad d|_sigma deviates from 1 by
    more than 10 h (cut-locus suspects)."""
    G, _ = _hat_gradients(mesh.vertices, mesh.triangles)
    gd = np.einsum("eai,ea->ei", G, mesh.dist_to_boundary[mesh.triangles])
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    S = ambient.base_metric(cent)
    Sinv = np.linalg.inv(S)
    norm = np.sqrt(np.einsum("ei,eij,ej->e", gd, Sinv, gd))
    mesh.suspect_elements = np.abs(norm - 1.0) > 10.0 * mesh.h


# -- structured builders ----------------------------------------------------


def _band(tris, inner_idx, inner_ang, outer_idx, outer_ang):
    """Triangulate the annular band between two concentric rings by merging
    the two angle sequences; emits p + q positively oriented triangles."""
    p, q = len(inner_idx), len(outer_idx)
    a = np.asarray(inner_ang, dtype=float)
    b = np.asarray(outer_ang, dtype=float)
    rel = (b - a[0] + math.pi) % (2 * math.pi) - math.pi
    j0 = int(np.argmin(np.abs(rel)))
    order = (j0 + np.arange(q)) % q
    b_un = (b[order] - a[0] + math.pi) % (2 * math.pi) - math.pi
    for k in range(1, q):
        while b_un[k] < b_un[k - 1]:
            b_un[k] += 2 * math.pi
    a_un = (a - a[0]) % (2 * math.pi)
    for k in range(1, p):
        while a_un[k] < a_un[k - 1]:
            a_un[k] += 2 * math.pi
    a_ext = np.append(a_un, a_un[0] + 2 * math.pi)
    b_ext = np.append(b_un, b_un[0] + 2 * math.pi)
    i = j = 0
    while i < p or j < q:
        take_inner = (j == q) or (i < p and a_ext[i + 1] <= b_ext[j + 1])
        oj = int(outer_idx[order[j % q]])
        if take_inner:
            tris.append((int(inner_idx[i % p]), oj, int(inner_idx[(i + 1) % p])))
            i += 1
        else:
            tris.append((int(inner_idx[i % p]), oj, int(outer_idx[order[(j + 1) % q]])))
            j += 1


def _polar_disk(radius: float, h: float):
    """Spider-web triangulation of a chart disk; ring i holds 6 i vertices."""
    m = max(2, int(math.ceil(radius / h)))
    verts = [(0.0, 0.0)]
    ring_idx, ring_ang = [[0]], [[0.0]]
    for i in range(1, m + 1):
        r = radius * i / m
        cnt = 6 * i
        ang = 2 * math.pi * (np.arange(cnt) + 0.5 * (i % 2)) / cnt
        idx = list(range(len(verts), len(verts) + cnt))
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        ring_idx.append(idx)
        ring_ang.append(list(ang))
    tris = []
    for j in range(6):
        tris.append((0, ring_idx[1][j], ring_idx[1][(j + 1) % 6]))
    for i in range(1, m):
        _band(tris, ring_idx[i], ring_ang[i], ring_idx[i + 1], ring_ang[i + 1])
    return (np.asarray(verts), np.asarray(tris, dtype=int),
            np.asarray(ring_idx[-1], dtype=int))


def _finalize(vertices, triangles, loops, normals, dist, preset, ambient,
              edges=None):
    """Assemble and validate a mesh; ``edges`` is ``_sigma_edges`` when the
    caller already has it."""
    table, lengths = edges or _sigma_edges(vertices, triangles, ambient)
    mesh = DomainMesh(
        vertices=vertices, triangles=triangles, boundary_loops=loops,
        boundary_normal=normals, dist_to_boundary=dist,
        h=float(lengths.max()), preset=preset, _edges=table,
    )
    _validate(mesh)
    _mark_suspects(mesh, ambient)
    return mesh


def disk_mesh(radius: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Flat chart disk of the given radius; closed-form distance r0 - |u|."""
    if radius <= 0 or h <= 0:
        raise ParameterError("disk_mesh needs positive radius and mesh size")
    verts, tris, outer = _polar_disk(radius, h)
    rr = np.linalg.norm(verts, axis=1)
    normals = np.zeros_like(verts)
    normals[outer] = -verts[outer] / rr[outer, None]
    dist = radius - rr
    dist[outer] = 0.0
    return _finalize(verts, tris, [outer], normals, dist,
                     {"kind": "disk", "radius": radius}, ambient)


def cap_mesh(theta0: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Geodesic cap of colatitude theta0 in the polar chart of the round
    sphere; chart radii are geodesic distances, so d = theta0 - |u|."""
    if not 0 < theta0 < math.pi:
        raise ParameterError("cap_mesh needs 0 < theta0 < pi")
    verts, tris, outer = _polar_disk(theta0, h)
    rr = np.linalg.norm(verts, axis=1)
    normals = np.zeros_like(verts)
    normals[outer] = -verts[outer] / rr[outer, None]  # radial is sigma-unit
    dist = theta0 - rr
    dist[outer] = 0.0
    return _finalize(verts, tris, [outer], normals, dist,
                     {"kind": "cap", "theta0": theta0}, ambient)


def annulus_mesh(r_in: float, r_out: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Flat chart annulus; distance is the closed form min(r - r_in, r_out - r)."""
    if not 0 < r_in < r_out:
        raise ParameterError("annulus_mesh needs 0 < r_in < r_out")
    m = max(2, int(math.ceil((r_out - r_in) / h)))
    verts, ring_idx, ring_ang = [], [], []
    for i in range(m + 1):
        r = r_in + (r_out - r_in) * i / m
        cnt = max(8, int(round(2 * math.pi * r / h)))
        ang = 2 * math.pi * (np.arange(cnt) + 0.5 * (i % 2)) / cnt
        idx = list(range(len(verts), len(verts) + cnt))
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        ring_idx.append(idx)
        ring_ang.append(list(ang))
    tris = []
    for i in range(m):
        _band(tris, ring_idx[i], ring_ang[i], ring_idx[i + 1], ring_ang[i + 1])
    verts = np.asarray(verts)
    tris = np.asarray(tris, dtype=int)
    inner = np.asarray(ring_idx[0], dtype=int)
    outer = np.asarray(ring_idx[-1], dtype=int)
    rr = np.linalg.norm(verts, axis=1)
    normals = np.zeros_like(verts)
    normals[outer] = -verts[outer] / rr[outer, None]
    normals[inner] = verts[inner] / rr[inner, None]
    dist = np.minimum(rr - r_in, r_out - rr)
    dist[inner] = 0.0
    dist[outer] = 0.0
    # inner loop reversed so the interior stays on the left
    loops = [outer, inner[::-1].copy()]
    return _finalize(verts, tris, loops, normals, dist,
                     {"kind": "annulus", "r_in": r_in, "r_out": r_out}, ambient)


# -- generic meshes ---------------------------------------------------------


def _corner_update(d_a, d_b, A, B, D, l_a, l_b):
    """Least travel time to a corner ``c`` across its opposite edge ``(a, b)``:
    the minimum over ``theta`` in [0, 1] of
    ``theta d_a + (1 - theta) d_b + |w - theta e|_S`` with ``e = p_a - p_b``,
    ``w = p_c - p_b``, ``A = e.S.e``, ``B = e.S.w``, ``D = A w.S.w - B^2``
    and the endpoint lengths ``l_a = |w - e|_S``, ``l_b = |w|_S``.

    The objective is convex.  With ``delta = d_a - d_b`` it is stationary
    only when ``delta^2 < A``, at ``theta = (B + s) / A`` with
    ``s = -sign(delta) sqrt(delta^2 D / (A - delta^2))``, where
    ``|w - theta e|_S^2 = D / (A - delta^2)``.  Otherwise, or when that
    ``theta`` lies outside [0, 1], the minimum is an endpoint value.
    Entries with a non-finite ``d_a`` or ``d_b`` are meaningless.
    """
    delta = d_a - d_b
    ends = np.minimum(d_a + l_a, d_b + l_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = D / (A - delta**2)
        theta = (B - delta * np.sqrt(q)) / A
        inner = d_b + theta * delta + np.sqrt(q)
        stationary = (delta**2 < A) & (theta > 0.0) & (theta < 1.0)
    return np.where(stationary, np.minimum(inner, ends), ends)


def _jacobi_min(dist, update, what: str):
    """Fixed point of ``dist <- min(dist, candidates)``, where ``update(dist)``
    returns the vertices and candidate values of one sweep, all computed
    from the previous field (Jacobi), so the result does not depend on the
    vertex or triangle order.  Values only decrease; the sweeps stop when
    one changes nothing, and MeshError is raised if ``nv`` sweeps do not get
    there."""
    for _ in range(len(dist)):
        new = dist.copy()
        np.minimum.at(new, *update(dist))
        if np.array_equal(new, dist):
            return dist
        dist = new
    raise MeshError(f"{what} did not converge in {len(dist)} sweeps")


def _edge_relaxation(pairs, lengths, dist):
    """Shortest edge paths from the finite entries of ``dist`` (Bellman-Ford
    over both directions of every edge)."""
    i, j = pairs[:, 0], pairs[:, 1]
    to, frm = np.concatenate([j, i]), np.concatenate([i, j])
    both = np.concatenate([lengths, lengths])
    return _jacobi_min(dist, lambda d: (to, d[frm] + both),
                       "shortest edge paths to the boundary")


def _eikonal_sweep(vertices, triangles, dist, ambient):
    """Lower the edge-path field ``dist`` to the fixed point of the triangle
    update (straight-segment travel across each element in its centroid
    metric, :func:`_corner_update`), updating all ``3 nt`` corners per
    sweep.  Corners with a non-finite neighbour are skipped.
    """
    S = ambient.base_metric(vertices[triangles].mean(axis=1))
    corner = np.concatenate([np.roll(triangles, -k, axis=1) for k in range(3)])
    c, a, b = corner.T
    S = np.concatenate([S] * 3)

    def form(u, v):
        return np.einsum("ni,nij,nj->n", u, S, v)

    e, w = vertices[a] - vertices[b], vertices[c] - vertices[b]
    A, B = form(e, e), form(e, w)
    D = np.linalg.det(S) * _cross2(e, w)**2     # A C - B^2 without cancellation
    l_a, l_b = np.sqrt(form(w - e, w - e)), np.sqrt(form(w, w))

    def update(dist):
        ok = np.isfinite(dist[a]) & np.isfinite(dist[b])
        cand = _corner_update(dist[a], dist[b], A, B, D, l_a, l_b)
        return c[ok], cand[ok]
    return _jacobi_min(dist, update, "distance to the boundary")


def _loop_orientation_area(vertices, loop):
    p = vertices[np.asarray(loop)]
    x, y = p[:, 0], p[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))


def _index_array(obj, what: str, n_vertices: int) -> np.ndarray:
    try:
        a = np.asarray(obj)
    except ValueError:
        raise MeshError(f"{what}: rows of different lengths") from None
    if a.size and a.dtype.kind not in "iu":
        raise MeshError(f"{what}: vertex indices must be integers")
    a = a.astype(int)
    bad = (a < 0) | (a >= n_vertices)
    if np.any(bad):
        raise MeshError(f"{what}: vertex index {a[bad][0]} out of range "
                        f"(the mesh has {n_vertices} vertices)")
    return a


def _checked_arrays(vertices, triangles, boundary_loops):
    """Vertices as finite ``(nv, 2)`` floats, triangles as ``(nt, 3)`` and
    loops as lists of at least three vertex indices in range; MeshError
    otherwise."""
    try:
        vertices = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError):
        raise MeshError("vertices must be rows of two numbers") from None
    if vertices.ndim != 2 or vertices.shape[1] != 2 or not np.all(np.isfinite(vertices)):
        raise MeshError("vertices must be rows of two finite numbers")
    nv = len(vertices)
    triangles = _index_array(triangles, "triangles", nv)
    if triangles.ndim != 2 or triangles.shape[1] != 3 or len(triangles) == 0:
        raise MeshError("triangles must be rows of three vertex indices")
    unused = np.bincount(triangles.ravel(), minlength=nv) == 0
    if np.any(unused):
        raise MeshError(f"vertex {int(np.argmax(unused))} is in no triangle")
    if isinstance(boundary_loops, np.ndarray):
        boundary_loops = list(boundary_loops)
    if not isinstance(boundary_loops, (list, tuple)) or len(boundary_loops) == 0:
        raise MeshError("mesh needs at least one boundary loop")
    loops = []
    for k, loop in enumerate(boundary_loops):
        loop = _index_array(loop, f"boundary loop {k}", nv)
        if loop.ndim != 1 or len(loop) < 3:
            raise MeshError(f"boundary loop {k} must list at least 3 vertex indices")
        loops.append(loop)
    return vertices, triangles, loops


def mesh_from_arrays(vertices, triangles, boundary_loops, ambient: AmbientSpace,
                     preset: Optional[dict] = None) -> DomainMesh:
    """Build a mesh from raw arrays, computing normals and boundary distance.

    Outer loops are re-ordered counterclockwise and inner loops clockwise so
    the interior is on the left everywhere.
    """
    vertices, triangles, loops = _checked_arrays(vertices, triangles, boundary_loops)
    areas = [_loop_orientation_area(vertices, l) for l in loops]
    outer = int(np.argmax(np.abs(areas)))
    for k, loop in enumerate(loops):
        if (areas[k] > 0) != (k == outer):
            loops[k] = loop[::-1].copy()

    normals = np.zeros_like(vertices)
    for loop in loops:
        nrm = closed_polyline_geometry(vertices[loop], ambient)[0]
        bad = ~np.all(np.isfinite(nrm), axis=1)
        if np.any(bad):
            raise MeshError(f"degenerate boundary tangent at vertex {loop[np.argmax(bad)]}")
        normals[loop] = nrm

    # shortest edge paths in the leaf metric bound the distance from above;
    # the triangle update lowers that bound to its fixed point
    edges = _sigma_edges(vertices, triangles, ambient)
    (pairs, _, _), lengths = edges
    sources = _unique(np.concatenate(loops))
    dist = np.full(len(vertices), np.inf)
    dist[sources] = 0.0
    dist = _edge_relaxation(pairs, lengths, dist)
    dist = _eikonal_sweep(vertices, triangles, dist, ambient)
    dist[sources] = 0.0
    return _finalize(vertices, triangles, loops, normals, dist, preset, ambient, edges)


# -- JSON exchange ----------------------------------------------------------


def mesh_to_json(mesh: DomainMesh) -> dict:
    """Exchange document: vertices, triangles, boundary loops."""
    return {
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary": [loop.tolist() for loop in mesh.boundary_loops],
    }


def mesh_from_json(doc, ambient: AmbientSpace) -> DomainMesh:
    """Mesh from an exchange document or from the path of a JSON file
    holding one; a malformed one raises MeshError naming the file."""
    where = "mesh document"
    if isinstance(doc, (str, os.PathLike)):
        where = str(doc)
        try:
            with open(doc, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise MeshError(f"cannot read {where}: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise MeshError("not a JSON object")
        for key in ("vertices", "triangles", "boundary"):
            if key not in doc:
                raise MeshError(f"missing key {key!r}")
        return mesh_from_arrays(doc["vertices"], doc["triangles"], doc["boundary"],
                                ambient)
    except MeshError as exc:
        raise MeshError(f"{where}: {exc}") from exc
