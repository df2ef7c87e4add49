"""Triangulated chart domains.

A :class:`DomainMesh` is a conforming triangulation of a bounded domain in a
single chart of the base leaf, together with ordered boundary loops, inward
unit normals (with respect to the leaf metric), and the distance-to-boundary
field.  The preset domains (disk, spherical cap, annulus) are one kind of
domain, a :class:`PolarDomain`: the chart points between two concentric
circles, in a chart whose radial lines are unit-speed geodesics of the leaf
metric.  It carries the closed forms of the distance, its derivatives and
the curvature of its boundary circles, taken from the leaf metric the mesh
is built with (``1/r`` on a flat metric, ``cot r`` on a round one), not from
the domain's name; a disk and a cap differ only in the name of their
parameter.  Generic meshes fall back to discrete estimates.

Boundary loops are ordered with the interior on the left, so rotating the
tangent by +90 degrees in the chart points inward.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .ambient import LEAF_METRICS, AmbientSpace, round_sphere_metric
from .errors import MeshError, ParameterError, prefixed, read_input

__all__ = ["DomainMesh", "PolarDomain", "disk_mesh", "annulus_mesh", "cap_mesh",
           "mesh_from_arrays", "mesh_from_json", "mesh_to_json",
           "closed_polyline_geometry", "locate_points"]


@dataclass(frozen=True)
class PolarDomain:
    """The chart points with ``r_in <= |u| <= r_out`` (``r_in = 0``: a disk
    or cap) on a leaf ``metric`` whose chart radial lines are unit-speed
    geodesics, so the distance to the boundary is ``r_out - r``, or
    ``min(r - r_in, r_out - r)`` on an annulus.  A point's side ``s`` is +1
    where the outer circle is the nearer boundary, -1 where the inner is.
    ``metric`` is one of ``ambient.LEAF_METRICS``, whose ``circle_radius``
    gives the circles' curvature."""

    r_in: float
    r_out: float
    metric: Callable

    def __post_init__(self):
        if not 0 <= self.r_in < self.r_out:
            raise ParameterError(f"chart radii need 0 <= r_in < r_out, got "
                                 f"{self.r_in!r} and {self.r_out!r}")
        if self.metric is round_sphere_metric and self.r_out >= math.pi:
            raise ParameterError(f"radius {self.r_out!r} reaches the antipode (pi) "
                                 "of the round sphere metric")

    @property
    def diameter(self) -> float:
        return 2.0 * self.r_out

    def _outer(self, r):
        return (self.r_in == 0) | (r > 0.5 * (self.r_in + self.r_out))

    def distance(self, pts):
        """Distance to the boundary at chart points ``(m, 2)``."""
        r = np.linalg.norm(pts, axis=1)
        return self.r_out - r if self.r_in == 0 else np.minimum(r - self.r_in, self.r_out - r)

    def circle_curvature(self, r):
        """Geodesic curvature, toward the domain, of the boundary circle
        nearest each chart radius ``r``."""
        rho = LEAF_METRICS[self.metric].circle_radius
        outer = 1.0 / rho(self.r_out)
        if self.r_in == 0:
            return np.full(np.shape(r), outer)
        return np.where(self._outer(r), outer, -1.0 / rho(self.r_in))

    def distance_derivatives(self, pts, h):
        """Gradient covector ``-s r_hat`` and covariant Hessian
        ``-s k(r) (S - r_hat r_hat^T)`` of the distance at chart points
        ``(m, 2)``, and where they are usable: off the centre and, on an
        annulus, more than 0.75 h from the cut locus, the equidistant circle."""
        r = np.maximum(np.linalg.norm(pts, axis=1), 1e-30)
        rhat = pts / r[:, None]
        minus_s = np.where(self._outer(r), -1.0, 1.0)
        proj = np.asarray(self.metric(pts)) - np.einsum("mi,mj->mij", rhat, rhat)
        radius = LEAF_METRICS[self.metric].circle_radius(r)
        hess = minus_s[:, None, None] * proj / radius[:, None, None]
        usable = r > 1e-12
        if self.r_in > 0:
            usable &= np.abs(r - 0.5 * (self.r_in + self.r_out)) > 0.75 * h
        return minus_s[:, None] * rhat, hess, usable


class DomainMesh:
    def __init__(self, vertices: np.ndarray, triangles: np.ndarray,
                 boundary_loops: list, boundary_normal: np.ndarray, h: float,
                 polar: Optional[PolarDomain] = None,
                 _ambient: Optional[AmbientSpace] = None,
                 _edges: Optional[tuple] = None):
        self.vertices = vertices                 # (nv, 2) chart coordinates
        self.triangles = triangles               # (nt, 3) positively oriented
        self.boundary_loops = boundary_loops     # int arrays, interior on the left
        # (nv, 2); valid rows only at boundary vertices
        self.boundary_normal = boundary_normal
        self.h = h                               # mesh size (max sigma edge length)
        self.polar = polar                       # the preset domain's closed forms
        self._ambient, self._edges = _ambient, _edges
        self._where = ""                         # "<file>: " for a mesh read from one

    # -- basic derived data, built on first read and read-only --------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted vertices of all boundary loops."""
        return _read_only(_unique(np.concatenate([np.asarray(l) for l in self.boundary_loops])))

    @cached_property
    def suspect_elements(self) -> np.ndarray:
        """Cut-locus suspects ``(nt,)`` bool (see ``_suspect_elements``):
        only the barrier searches use them."""
        return _read_only(_suspect_elements(self, self._ambient))

    @cached_property
    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.boundary_vertices] = True
        return _read_only(mask)

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        return _read_only(np.nonzero(~self.is_boundary)[0])

    @cached_property
    def dist_to_boundary(self) -> np.ndarray:
        """(nv,) sigma-geodesic distance to the boundary, made here alone: the
        :class:`PolarDomain` closed form, or the triangle update relaxed from
        the boundary (:func:`_eikonal_sweep`); MeshErrors name the mesh file."""
        b, polar = self.boundary_vertices, self.polar
        d = np.full(self.n_vertices, np.inf) if polar is None else polar.distance(self.vertices)
        d[b] = 0.0
        with prefixed(self._where, MeshError):
            if polar is None:
                d = _eikonal_sweep(self.vertices, self.triangles, d, self._ambient)
            if np.any(d[b] != 0.0):
                raise MeshError("boundary vertices must have distance 0")
            if np.any(d[self.interior_vertices] <= 0.0):
                raise MeshError("interior vertices must have positive distance")
        return _read_only(d)

    def edge_table(self):
        """Unique edges as sorted vertex pairs ``(ne, 2)`` and the number of
        elements sharing each edge ``(ne,)``."""
        if self._edges is None:
            self._edges = _edge_table(self.triangles)
        return self._edges

    @cached_property
    def two_ring(self) -> np.ndarray:
        """(nv, width) int32 vertex 2-rings: row ``v`` holds the vertices
        within two edge hops of ``v``, in ascending order and without ``v``
        itself, padded with ``v`` up to the largest 2-ring of the mesh.
        Expanded once, 512 vertices at a time (``_ring_rows``), from the
        1-ring of the edge table, which is not kept."""
        nv = self.n_vertices
        edges = self.edge_table()[0]
        # pairs (v, w) as keys v nv + w, ascending: one hop either way
        v, w = np.divmod(_unique(np.concatenate([edges @ [nv, 1], edges @ [1, nv]])), nv)
        one_ring = _offsets(np.bincount(v, minlength=nv)), w
        blocks = [_ring_rows(one_ring, start, min(start + 512, nv))
                  for start in range(0, nv, 512)]
        ring = np.repeat(np.arange(nv, dtype=np.int32)[:, None],
                         max(b.shape[1] for b in blocks), axis=1)
        for start, block in zip(range(0, nv, 512), blocks):
            ring[start:start + len(block), :block.shape[1]] = block
        return _read_only(ring)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ring_rows(one_ring, start: int, stop: int):
    """The 2-rings of the vertices ``start`` to ``stop - 1``, one hop added
    to the 1-ring CSR rows ``one_ring`` of the whole mesh: row ``i`` holds
    the 2-ring of vertex ``start + i`` as ``DomainMesh.two_ring`` gives it,
    padded with the vertex to the block's largest 2-ring.  Only the block's
    pairs are held, so a caller can walk the mesh a block at a time."""
    ptr, one = one_ring
    nv = len(ptr) - 1
    # pairs (i, w) as keys i nv + w, ascending: the hop adds the 1-ring of
    # every w reached
    count = np.diff(ptr[start:stop + 1])
    keys = np.repeat(np.arange(stop - start) * nv, count) + one[ptr[start]:ptr[stop]]
    i, w = np.divmod(keys, nv)
    count = ptr[w + 1] - ptr[w]
    first = np.repeat(ptr[w] - np.cumsum(count) + count, count)
    far = one[np.arange(len(first)) + first]
    i, w = np.divmod(_unique(np.concatenate([keys, np.repeat(i, count) * nv + far])), nv)
    keep = i + start != w
    i, w = i[keep], w[keep]
    count = np.bincount(i, minlength=stop - start)
    rows = np.repeat(np.arange(start, stop)[:, None], count.max(), axis=1)
    rows[i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)] = w
    return rows


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
    keys, counts = np.unique(pairs[:, 0].astype(np.int64) * nv + pairs[:, 1],
                             return_counts=True)
    edges = np.stack(np.divmod(keys, nv), axis=1).astype(triangles.dtype, copy=False)
    return edges, counts


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


def _offsets(counts):
    """Where each run starts, and the end of the last: 0 and the cumulative
    sums of ``counts``, the ``indptr`` of CSR rows of those lengths."""
    return np.concatenate([[0], np.cumsum(counts)])


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


# -- sigma-aware helpers ----------------------------------------------------


def _spd_inverse(S):
    """Inverse components ``(i11, i12, i22)`` and determinants of symmetric
    2x2 matrices ``S`` ``(..., 2, 2)``, in closed form: ``(d, -b, a) / det``
    with ``det = a d - b^2``."""
    S = np.asarray(S)
    a, b, d = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    det = a * d - b * b
    return (d / det, -b / det, a / det), det


def _sigma_edges(vertices, triangles, ambient: AmbientSpace):
    """Edge table and the leaf-metric length of each edge (metric at the
    edge midpoint)."""
    table = _edge_table(triangles)
    i, j = table[0][:, 0], table[0][:, 1]
    e = vertices[j] - vertices[i]
    S = ambient.base_metric(0.5 * (vertices[i] + vertices[j]))
    return table, np.sqrt(np.einsum("ei,eij,ej->e", e, S, e))


def _barycentric(p, points):
    """Barycentric coordinates ``(..., 3)`` of chart points ``(..., 2)`` in
    the triangles with corners ``p`` ``(..., 3, 2)``, broadcast together."""
    e1, e2 = p[..., 1, :] - p[..., 0, :], p[..., 2, :] - p[..., 0, :]
    d = points - p[..., 0, :]
    det = _cross2(e1, e2)
    l1, l2 = _cross2(d, e2) / det, _cross2(e1, d) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


def locate_points(mesh: DomainMesh, points):
    """Element of ``mesh`` holding each chart point, and the point's
    barycentric coordinates there: ``(element (n,), barycentric (n, 3))``.

    A bucket grid of square cells, half as wide as the mean side of the
    element bounding boxes, lists every element under each cell its box
    overlaps (about nine cells an element; wider cells give each point
    more candidates).  A point's candidates are the elements of its cell;
    it goes to the one whose smallest barycentric coordinate is largest,
    the lowest element index on a tie.  When that coordinate is below -1e-12, the point lies
    in no element (outside the mesh, for example between a boundary chord
    and the curve it approximates), and it goes to the element with the
    largest smallest coordinate over the whole mesh.  The coordinates, some
    of them negative there, then extrapolate the element's linear function,
    so ``sum(barycentric * values[triangles[element]], axis=1)`` reproduces
    every linear field exactly.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    corners = mesh.vertices[mesh.triangles]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    origin, width = lo.min(axis=0), 0.5 * float(np.mean(hi - lo))
    shape = np.floor((hi.max(axis=0) - origin) / width).astype(np.intp) + 1

    def cell(q):
        return np.clip(np.floor((q - origin) / width).astype(np.intp), 0, shape - 1)

    # (cell, element) pairs, sorted by cell and then element, as CSR rows
    c0, c1 = cell(lo), cell(hi)
    span = c1 - c0 + 1
    count = span[:, 0] * span[:, 1]
    elem = np.repeat(np.arange(len(corners)), count)
    k = np.arange(len(elem)) - np.repeat(np.cumsum(count) - count, count)
    keys = (c0[elem, 0] + k % span[elem, 0]) * shape[1] + c0[elem, 1] + k // span[elem, 0]
    order = np.argsort(keys, kind="stable")
    listed = elem[order]
    ptr = _offsets(np.bincount(keys, minlength=shape.prod()))

    pc = cell(points)
    key = pc[:, 0] * shape[1] + pc[:, 1]
    n_cand = ptr[key + 1] - ptr[key]
    first = np.cumsum(n_cand) - n_cand
    pt = np.repeat(np.arange(len(points)), n_cand)
    cand = listed[np.repeat(ptr[key] - first, n_cand) + np.arange(len(pt))]
    bary = _barycentric(corners[cand], points[pt])
    score = bary.min(axis=1)
    best = np.full(len(points), -np.inf)
    np.maximum.at(best, pt, score)
    # first (lowest-numbered) candidate of each point reaching its best score
    hit = np.flatnonzero(score == best[pt])
    keep = np.ones(len(hit), dtype=bool)
    keep[1:] = pt[hit[1:]] != pt[hit[:-1]]
    hit = hit[keep]
    element = np.empty(len(points), dtype=np.intp)
    out = np.empty((len(points), 3))
    element[pt[hit]], out[pt[hit]] = cand[hit], bary[hit]

    outside = np.flatnonzero(best < -1e-12)
    rows = max(1, 2**16 // len(corners))
    for s in range(0, len(outside), rows):
        q = outside[s:s + rows]
        b = _barycentric(corners, points[q, None])          # (rows, nt, 3)
        e = np.argmax(b.min(axis=2), axis=1)
        element[q], out[q] = e, b[np.arange(len(q)), e]
    return element, out


def closed_polyline_geometry(points, ambient: AmbientSpace):
    """Leaf-metric geometry of a closed chart polyline, point k joined to
    k + 1 and the last to the first, at every point.

    Returns the unit normal ``N`` rotated +90 degrees from the chord of the
    two neighbours (it points into the region on the left; rows are not
    finite where the neighbours coincide) and the geodesic curvature toward
    ``N`` (positive where the polyline turns left, 0 at a zero-length edge).
    The curvature is the turning angle ``sign * beta / ((l1 + l2) / 2)`` in
    the metric at the point, plus the connection term
    ``<Gamma(v, v), N> / |v|^2`` with ``v = (next - prev) / 2``, which is 0
    on the flat metric and not taken.
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
    christoffel = ambient.leaf.christoffel
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = raw / np.sqrt(form(raw, raw))[:, None]
        beta = np.arccos(np.clip(form(e1, e2) / (l1 * l2), -1.0, 1.0))
        sign = np.where(_cross2(e1, e2) >= 0, 1.0, -1.0)
        geodesic = sign * beta / (0.5 * (l1 + l2))
        if christoffel is not None:
            # quadratic over quadratic in v: tang = 2 v will do
            gamma_vv = np.einsum("pkij,pi,pj->pk", christoffel(p), tang, tang)
            geodesic = geodesic + form(gamma_vv, normal) / form(tang, tang)
        curvature = np.where(ok, geodesic, 0.0)
    return normal, curvature


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


def _suspect_elements(mesh: DomainMesh, ambient: AmbientSpace):
    """Elements where the discrete |grad d|_sigma deviates from 1 by more
    than 10 h (cut-locus suspects)."""
    G, _ = _hat_gradients(mesh.vertices, mesh.triangles)
    gx, gy = np.einsum("eai,ea->ie", G, mesh.dist_to_boundary[mesh.triangles])
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    (i11, i12, i22), _ = _spd_inverse(ambient.base_metric(cent))
    norm = np.sqrt(i11 * gx * gx + 2.0 * i12 * gx * gy + i22 * gy * gy)
    return np.abs(norm - 1.0) > 10.0 * mesh.h


# -- structured builders ----------------------------------------------------


def _segment_cumsum(x, start, seg):
    """Inclusive cumulative sums of ``x`` restarted at each segment
    ``start``; ``seg`` is the segment of every entry."""
    c = np.cumsum(x)
    return c - (c[start] - x[start])[seg]


def _spider_web(numbers, radii, counts, first):
    """Concentric chart rings and the triangles of the bands between
    neighbouring rings.

    Ring ``k`` holds ``counts[k]`` vertices, numbered on from ``first``, at
    radius ``radii[k]`` and angles ``2 pi (j + (numbers[k] % 2) / 2) /
    counts[k]``.  The band between rings ``k`` and ``k + 1`` (``p`` and
    ``q`` vertices) gets ``p + q`` positively oriented triangles by merging
    the two angle sequences, both unwrapped from the inner ring's first
    vertex and the outer one started at its vertex nearest that angle.
    Each step of the merge emits (inner vertex, outer vertex, next vertex
    of the ring that advances), the inner ring advancing on a tie.  Every
    band is merged at once by one stable sort, and the step counters are
    cumulative sums of its result.

    Returns the vertices ``(nv, 2)``, the band triangles and the ring
    pointers ``ptr`` (ring ``k`` is vertices ``ptr[k]:ptr[k + 1]``).
    """
    two_pi = 2 * math.pi
    counts = np.asarray(counts)
    nb = len(counts) - 1
    ptr = _offsets(counts)
    ring = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(ptr[-1]) - ptr[ring]
    ang = two_pi * (local + 0.5 * (np.asarray(numbers)[ring] % 2)) / counts[ring]
    r = np.asarray(radii)[ring]
    verts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)

    # band k: inner ring k, outer ring k + 1; both sequences in band order
    p, q = counts[:-1], counts[1:]
    band_a, band_b = ring[:ptr[nb]], ring[ptr[1]:] - 1
    start_a, start_b = ptr[:nb], ptr[1:-1] - ptr[1]
    k_a, k_b = local[:ptr[nb]], local[ptr[1]:]
    a0 = ang[start_a]
    rel = (ang[ptr[1]:] - a0[band_b] + math.pi) % two_pi - math.pi
    # j0: the outer vertex nearest a0, the first one on a tie
    dist = np.abs(rel)
    hit = np.flatnonzero(dist == np.minimum.reduceat(dist, start_b)[band_b])
    j0 = hit[np.searchsorted(band_b[hit], np.arange(nb))] - start_b
    b_un = rel[start_b[band_b] + (j0[band_b] + k_b) % q[band_b]]
    a_un = (ang[:ptr[nb]] - a0[band_a]) % two_pi

    def successors(x, band, start, size, k):
        """``x[k + 1]`` in each band after adding 2 pi from every descent
        of ``x`` on; the last entry is the band's first plus 2 pi."""
        down = np.zeros(len(x), dtype=np.intp)
        down[1:] = x[1:] < x[:-1]
        down[start] = 0
        x = x + two_pi * _segment_cumsum(down, start, band)
        last = k == size[band] - 1
        nxt = np.arange(1, len(x) + 1)
        nxt[last] = start[band[last]]
        out = x[nxt]
        out[last] += two_pi
        return out

    band = np.concatenate([band_a, band_b])
    order = np.lexsort((np.concatenate([successors(a_un, band_a, start_a, p, k_a),
                                        successors(b_un, band_b, start_b, q, k_b)]),
                        band))
    inner = order < len(band_a)
    band = band[order]
    start = _offsets(p + q)[:-1]
    i = _segment_cumsum(inner.astype(np.intp), start, band) - inner
    j = j0[band] + np.arange(len(band)) - start[band] - i
    pb, qb, lo, hi = p[band], q[band], ptr[band], ptr[band + 1]
    tris = np.stack([lo + i % pb, hi + j % qb,
                     np.where(inner, lo + (i + 1) % pb, hi + (j + 1) % qb)], axis=1)
    return verts, tris + first, ptr + first


def _finalize(vertices, triangles, loops, normals, polar, ambient, edges):
    """Assemble a mesh from its parts and its leaf-metric edge table
    ``edges`` (``_sigma_edges``), and check its orientation and topology."""
    table, lengths = edges
    mesh = DomainMesh(vertices, triangles, loops, normals, float(lengths.max()), polar,
                      _ambient=ambient, _edges=table)
    if not np.all(_chart_areas(vertices, triangles) > 0):
        raise MeshError("triangles must be positively oriented in the chart")
    counts = mesh.edge_table()[1]
    if np.any(counts > 2):
        raise MeshError("non-conforming mesh: an edge is shared by more than 2 elements")
    _, _, ids = _loop_edges(mesh)
    if np.any(ids < 0) or np.any(counts[ids] != 1) \
            or len(_unique(ids)) != np.count_nonzero(counts == 1):
        raise MeshError("boundary loops do not cover the one-sided edges exactly")
    return mesh


def _polar_mesh(r_in: float, r_out: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Spider-web mesh of a :class:`PolarDomain` on the ambient's leaf
    metric, with closed-form normals: around a centre vertex, ring i holds
    6 i vertices; on an annulus, a ring holds about 2 pi r / h and the inner
    loop runs clockwise, so the interior is on the left."""
    polar = PolarDomain(r_in, r_out, ambient.base_metric)
    if not h > 0:
        raise ParameterError("a polar mesh needs a positive mesh size")
    centre = int(r_in == 0)
    m = max(2, int(math.ceil((r_out - r_in) / h)))
    rings = np.arange(centre, m + 1)
    radii = r_in + (r_out - r_in) * rings / m
    counts = 6 * rings if centre else np.maximum(8, np.rint(2 * math.pi * radii / h).astype(int))
    verts, tris, ptr = _spider_web(rings, radii, counts, centre)
    loops = [np.arange(ptr[-2], ptr[-1])]
    if centre:
        fan = np.stack([np.zeros(6, dtype=int), 1 + np.arange(6),
                        1 + np.arange(1, 7) % 6], axis=1)
        verts, tris = np.concatenate([[[0.0, 0.0]], verts]), np.concatenate([fan, tris])
    else:
        loops.append(np.arange(ptr[1])[::-1].copy())
    b = np.concatenate(loops)
    normals = np.zeros_like(verts)
    # radial lines are unit-speed: the distance gradient is the inward unit normal
    normals[b] = polar.distance_derivatives(verts[b], h)[0]
    return _finalize(verts, tris, loops, normals, polar, ambient,
                     _sigma_edges(verts, tris, ambient))


def disk_mesh(radius: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Chart disk ``|u| <= radius`` (a :class:`PolarDomain`)."""
    return _polar_mesh(0.0, radius, h, ambient)


def cap_mesh(theta0: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Geodesic cap of colatitude ``theta0``: the chart disk of that radius
    in the geodesic polar chart of the round sphere."""
    return _polar_mesh(0.0, theta0, h, ambient)


def annulus_mesh(r_in: float, r_out: float, h: float, ambient: AmbientSpace) -> DomainMesh:
    """Chart annulus ``r_in <= |u| <= r_out``, a disk if ``r_in = 0`` (a
    :class:`PolarDomain`)."""
    return _polar_mesh(r_in, r_out, h, ambient)


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
    An infinite ``d_a`` or ``d_b`` leaves the other endpoint's value, the
    edge relaxation; both infinite leave ``inf``.
    """
    ends = np.minimum(d_a + l_a, d_b + l_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = d_a - d_b
        q = D / (A - delta**2)
        theta = (B - delta * np.sqrt(q)) / A
        inner = d_b + theta * delta + np.sqrt(q)
        stationary = (delta**2 < A) & (theta > 0.0) & (theta < 1.0)
    return np.where(stationary, np.minimum(inner, ends), ends)


def _eikonal_sweep(vertices, triangles, dist, ambient):
    """Lower ``dist`` to the fixed point of the triangle update
    (straight-segment travel across each element in its centroid metric,
    :func:`_corner_update`), updating all ``3 nt`` corners per sweep from
    the previous field (Jacobi), so the result does not depend on the vertex
    or triangle order.  Each sweep takes the least of the starting value and
    the corner updates from the previous field, not of the previous value,
    so the fixed point holds each value as the least update from its final
    neighbours whatever the path to it, and a start above the result (the
    boundary zeros, or edge-path lengths) reaches the same bits although
    the rounded update is not monotone to the last ulp.  Rounding can also
    cycle the last ulps of a few values; a field seen before ends the sweeps
    with each value's least over one period.  The sweeps stop when one
    changes nothing, and MeshError is raised if ``nv`` sweeps do not get
    there.
    """
    S = ambient.base_metric(vertices[triangles].mean(axis=1))
    corner = np.concatenate([np.roll(triangles, -k, axis=1) for k in range(3)])
    c, a, b = corner.T
    S = np.concatenate([S] * 3)

    def form(u, v):
        return np.einsum("ni,nij,nj->n", u, S, v)

    e, w = vertices[a] - vertices[b], vertices[c] - vertices[b]
    A, B = form(e, e), form(e, w)
    D = _spd_inverse(S)[1] * _cross2(e, w)**2   # A C - B^2 without cancellation
    l_a, l_b = np.sqrt(form(w - e, w - e)), np.sqrt(form(w, w))
    start = dist

    def sweep(dist):
        new = start.copy()
        np.minimum.at(new, c, _corner_update(dist[a], dist[b], A, B, D, l_a, l_b))
        return new

    seen = {}
    for k in range(len(dist)):
        new = sweep(dist)
        if np.array_equal(new, dist):
            return dist
        dist = new
        key = hash(dist.tobytes())
        if key in seen:
            low = dist
            for _ in range(k - seen[key]):
                dist = sweep(dist)
                low = np.minimum(low, dist)
            return low
        seen[key] = k
    raise MeshError(f"distance to the boundary did not converge in {len(dist)} sweeps")


def _loop_orientation_area(vertices, loop):
    p = vertices[np.asarray(loop)]
    x, y = p[:, 0], p[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))


def _holds_bool(obj) -> bool:
    """Whether ``obj``, a value or rows of values, holds a bool: NumPy reads
    JSON ``true`` and ``false`` as the numbers 1 and 0."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind == "b"
    if not isinstance(obj, (list, tuple)):
        return isinstance(obj, bool)
    return any(type(x) is bool or isinstance(x, (list, tuple)) and bool in map(type, x)
               for x in obj)


def _index_array(obj, what: str, n_vertices: int) -> np.ndarray:
    if _holds_bool(obj):
        raise MeshError(f"{what}: vertex indices must be integers")
    try:
        a = np.asarray(obj)
    except ValueError:
        raise MeshError(f"{what}: rows of different lengths") from None
    if a.dtype == object and all(type(x) is int for x in a.flat):
        # ints beyond the int64 range, compared as Python ints
        bad = [x for x in a.flat if not 0 <= x < n_vertices]
    elif a.size and a.dtype.kind not in "iu":
        raise MeshError(f"{what}: vertex indices must be integers")
    else:
        bad = a[(a < 0) | (a >= n_vertices)]
    if len(bad):
        raise MeshError(f"{what}: vertex index {bad[0]} out of range "
                        f"(the mesh has {n_vertices} vertices)")
    return a.astype(int)


# The leaf-metric edge lengths and element areas a mesh file may have: the
# fourth powers of lengths that the relaxation (``D = A C - B^2``), the
# operator (squared areas) and the recovery (its normal matrix) form then
# stay within [1e-120, 1e120], far from overflow and underflow.
_LENGTH_RANGE = (1e-30, 1e30)
_AREA_RANGE = (1e-60, 1e60)


def _checked_arrays(vertices, triangles, boundary_loops, ambient: AmbientSpace):
    """Finite ``(nv, 2)`` vertices, below chart radius pi on the round sphere
    metric, ``(nt, 3)`` triangles, their edges (``_sigma_edges``) with
    leaf-metric lengths in ``_LENGTH_RANGE`` and leaf-metric areas (metric
    at the centroid, sign aside: that is the orientation rule's) in
    ``_AREA_RANGE``, and loops of at least three vertex indices in range,
    none listed twice; MeshError otherwise."""
    if _holds_bool(vertices):
        raise MeshError("vertices must be rows of two numbers")
    try:
        vertices = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError):
        raise MeshError("vertices must be rows of two numbers") from None
    except OverflowError:       # an int beyond the float range
        raise MeshError("vertices must be rows of two finite numbers") from None
    if vertices.ndim != 2 or vertices.shape[1] != 2 or not np.all(np.isfinite(vertices)):
        raise MeshError("vertices must be rows of two finite numbers")
    if ambient.base_metric is round_sphere_metric:
        radius = np.linalg.norm(vertices, axis=1)
        v = int(np.argmax(radius))
        if radius[v] >= math.pi:
            raise MeshError(f"vertex {v} at chart radius {float(radius[v])!r} reaches the "
                            "antipode (pi) of the round sphere metric")
    nv = len(vertices)
    triangles = _index_array(triangles, "triangles", nv)
    if triangles.ndim != 2 or triangles.shape[1] != 3 or len(triangles) == 0:
        raise MeshError("triangles must be rows of three vertex indices")
    unused = np.bincount(triangles.ravel(), minlength=nv) == 0
    if np.any(unused):
        raise MeshError(f"vertex {int(np.argmax(unused))} is in no triangle")
    with np.errstate(all="ignore"):     # out-of-range coordinates overflow: refused below
        edges = _sigma_edges(vertices, triangles, ambient)
        det = _spd_inverse(ambient.base_metric(vertices[triangles].mean(axis=1)))[1]
        areas = np.abs(_chart_areas(vertices, triangles)) * np.sqrt(det)
    (pairs, _), lengths = edges
    lo, hi = _LENGTH_RANGE
    bad = np.flatnonzero(~((lengths >= lo) & (lengths <= hi)))     # NaN included
    if len(bad):
        raise MeshError(f"edge ({pairs[bad[0], 0]}, {pairs[bad[0], 1]}) has leaf-metric "
                        f"length {float(lengths[bad[0]])!r}, outside [{lo:g}, {hi:g}]")
    lo, hi = _AREA_RANGE
    bad = np.flatnonzero(~((areas >= lo) & (areas <= hi)))
    if len(bad):
        raise MeshError(f"element {bad[0]} has leaf-metric area {float(areas[bad[0]])!r}, "
                        f"outside [{lo:g}, {hi:g}]")
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
    listed, count = np.unique(np.concatenate(loops), return_counts=True)
    if np.any(count > 1):
        raise MeshError(f"boundary loops list vertex {listed[np.argmax(count)]} twice")
    return vertices, triangles, loops, edges


def mesh_from_arrays(vertices, triangles, boundary_loops, ambient: AmbientSpace) -> DomainMesh:
    """Build a mesh from raw arrays and its boundary normals; the distance
    to the boundary is relaxed on its first read (``dist_to_boundary``).

    Outer loops are re-ordered counterclockwise and inner loops clockwise so
    the interior is on the left everywhere.
    """
    vertices, triangles, loops, edges = _checked_arrays(vertices, triangles, boundary_loops,
                                                        ambient)
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
    return _finalize(vertices, triangles, loops, normals, None, ambient, edges)


# -- JSON exchange ----------------------------------------------------------


def mesh_to_json(mesh: DomainMesh) -> dict:
    """Exchange document: vertices, triangles, boundary loops."""
    return {
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary": [loop.tolist() for loop in mesh.boundary_loops],
    }


def _write_mesh_json(mesh: DomainMesh, path):
    """Write the mesh exchange document to ``path`` with the bytes of
    ``json.dumps(mesh_to_json(mesh), sort_keys=True)`` and a newline, a
    chunk of 64 rows at a time: neither the lists nor the text of a large
    mesh are held at once."""
    def rows(array, fmt):
        for start in range(0, len(array), 64):
            yield ", ".join(map(fmt, *array[start:start + 64].T.tolist()))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"boundary": [')
        fh.write(", ".join("[" + ", ".join(map(str, loop.tolist())) + "]"
                           for loop in mesh.boundary_loops))
        for key, array, fmt in (("triangles", mesh.triangles, "[{}, {}, {}]".format),
                                ("vertices", mesh.vertices, "[{!r}, {!r}]".format)):
            fh.write(f'], "{key}": [')
            for k, chunk in enumerate(rows(array, fmt)):
                fh.write(", " + chunk if k else chunk)
        fh.write("]}\n")


def mesh_from_json(doc, ambient: AmbientSpace) -> DomainMesh:
    """Mesh from an exchange document or from the path of a JSON file
    holding one; a malformed one raises MeshError naming the file."""
    where = "mesh document"
    if isinstance(doc, (str, os.PathLike)):
        where = str(doc)
        doc = read_input(doc, MeshError, parse=json.loads)
    with prefixed(f"{where}: ", MeshError):
        if not isinstance(doc, dict):
            raise MeshError("not a JSON object")
        for key in ("vertices", "triangles", "boundary"):
            if key not in doc:
                raise MeshError(f"missing key {key!r}")
        mesh = mesh_from_arrays(doc["vertices"], doc["triangles"], doc["boundary"],
                                ambient)
    mesh._where = f"{where}: "
    return mesh
