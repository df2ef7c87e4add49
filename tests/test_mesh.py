import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ckgraph as ck
from ckgraph.errors import MeshError
from ckgraph.mesh import (_chart_areas, _corner_update, _edge_relaxation,
                          _loop_edges, _nearest, _sigma_edges, _unique,
                          annulus_mesh, cap_mesh, disk_mesh, mesh_from_arrays,
                          mesh_from_json, mesh_to_json)

FLAT = ck.preset_ambient("killing_flat")
ROUND = ck.preset_ambient("euclidean_radial")


def test_disk_orientation_and_conformity():
    mesh = disk_mesh(0.4, 0.05, FLAT)
    areas = _chart_areas(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0)
    # each edge belongs to at most two triangles; the loop edges to one
    counts = mesh.edge_table()[2]
    assert counts.max() == 2
    assert np.all(counts[_loop_edges(mesh)[2]] == 1)
    assert np.count_nonzero(counts == 1) == len(mesh.boundary_vertices)


def test_disk_distance_field():
    mesh = disk_mesh(0.4, 0.05, FLAT)
    r = np.linalg.norm(mesh.vertices, axis=1)
    exact = 0.4 - r
    assert np.abs(mesh.dist_to_boundary - exact).max() < 1e-10
    assert np.all(mesh.dist_to_boundary[mesh.boundary_vertices] == 0)
    assert np.all(mesh.dist_to_boundary[mesh.interior_vertices] > 0)


def test_disk_normals_inward_unit():
    mesh = disk_mesh(0.4, 0.05, FLAT)
    bv = mesh.boundary_vertices
    nrm = mesh.boundary_normal[bv]
    pos = mesh.vertices[bv]
    # inward means against the position vector on a disk
    assert np.all(np.einsum("bi,bi->b", nrm, pos) < 0)
    assert np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max() < 1e-12


def test_cap_normals_sigma_unit():
    mesh = cap_mesh(1.0, 0.1, ROUND)
    bv = mesh.boundary_vertices
    S = np.asarray(ROUND.base_metric(mesh.vertices[bv]))
    q = np.einsum("bi,bij,bj->b", mesh.boundary_normal[bv], S,
                  mesh.boundary_normal[bv])
    assert np.abs(q - 1.0).max() < 1e-12


def test_annulus_two_loops_and_distance():
    mesh = annulus_mesh(0.3, 0.7, 0.07, FLAT)
    assert len(mesh.boundary_loops) == 2
    r = np.linalg.norm(mesh.vertices, axis=1)
    exact = np.minimum(r - 0.3, 0.7 - r)
    assert np.abs(mesh.dist_to_boundary - exact).max() < 1e-10
    # inner-loop normals point outward in the chart, outer-loop inward
    for loop in mesh.boundary_loops:
        rs = np.linalg.norm(mesh.vertices[loop], axis=1)
        dots = np.einsum("bi,bi->b", mesh.boundary_normal[loop],
                         mesh.vertices[loop])
        if rs.mean() > 0.5:
            assert np.all(dots < 0)
        else:
            assert np.all(dots > 0)


@pytest.mark.parametrize("h", [0.12, 0.06, 0.03])
def test_mesh_size_scales(h):
    mesh = disk_mesh(0.4, h, FLAT)
    assert 0.5 * h < mesh.h < 2.5 * h


def test_json_roundtrip():
    mesh = annulus_mesh(0.3, 0.7, 0.1, FLAT)
    doc = mesh_to_json(mesh)
    back = mesh_from_json(doc, FLAT)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.abs(back.dist_to_boundary - mesh.dist_to_boundary).max() < 0.05


def test_from_arrays_fixes_orientation():
    mesh = disk_mesh(0.3, 0.1, FLAT)
    loop = mesh.boundary_loops[0][::-1]   # deliberately reversed
    rebuilt = mesh_from_arrays(mesh.vertices, mesh.triangles, [loop], FLAT)
    bv = rebuilt.boundary_vertices
    dots = np.einsum("bi,bi->b", rebuilt.boundary_normal[bv],
                     rebuilt.vertices[bv])
    assert np.all(dots < 0)              # inward again


def test_from_arrays_distance_approximation():
    mesh = disk_mesh(0.3, 0.05, FLAT)
    rebuilt = mesh_from_arrays(mesh.vertices, mesh.triangles,
                               mesh.boundary_loops, FLAT)
    r = np.linalg.norm(rebuilt.vertices, axis=1)
    err = np.abs(rebuilt.dist_to_boundary - (0.3 - r))
    assert err.max() < 3 * rebuilt.h**2 + 1e-3


def test_nonconforming_rejected():
    verts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 1, 3]])   # edge (0,1) shared with crossing
    with pytest.raises(MeshError):
        mesh_from_arrays(verts, tris, [np.array([0, 1, 3, 2])], FLAT)


def test_annulus_suspects_near_cut_locus():
    mesh = annulus_mesh(0.3, 0.7, 0.05, FLAT)
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    rc = np.linalg.norm(cent, axis=1)
    sus = mesh.suspect_elements
    # every suspect sits near the equidistant circle r = 0.5
    assert np.all(np.abs(rc[sus] - 0.5) < 3 * mesh.h)


def _rows(csr):
    """CSR rows ``(indptr, indices)`` as lists of ints."""
    ptr, idx = csr
    return [idx[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


def test_vertex_rings():
    mesh = disk_mesh(0.3, 0.1, FLAT)
    one = _rows(mesh.vertex_rings(depth=1))
    two = _rows(mesh.vertex_rings(depth=2))
    for v in range(mesh.n_vertices):
        assert v not in one[v] and v not in two[v]
        assert set(one[v]) <= set(two[v])
        assert len(two[v]) >= 5 or v in mesh.boundary_vertices


# -- edge table (property tests against a brute-force reference) -----------


def _preset(kind, size, h):
    if kind == "disk":
        return disk_mesh(size, h, FLAT), FLAT
    if kind == "annulus":
        return annulus_mesh(size, size + 0.3, h, FLAT), FLAT
    return cap_mesh(size, h, ROUND), ROUND


_PRESETS = st.tuples(st.sampled_from(["disk", "annulus", "cap"]),
                     st.floats(0.2, 0.8), st.floats(0.08, 0.2))


def _brute_force(mesh):
    counts = Counter()
    for t in mesh.triangles.tolist():
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            counts[(min(a, b), max(a, b))] += 1
    adj = [set() for _ in range(mesh.n_vertices)]
    for a, b in counts:
        adj[a].add(b)
        adj[b].add(a)
    two = [sorted(adj[v].union(*(adj[w] for w in adj[v])) - {v})
           for v in range(mesh.n_vertices)]
    three = [sorted(set(two[v]).union(*(adj[w] for w in two[v])) - {v})
             for v in range(mesh.n_vertices)]
    bedges = []
    for loop in mesh.boundary_loops:
        loop = [int(v) for v in loop]
        for i, j in zip(loop, loop[1:] + loop[:1]):
            owners = [e for e, t in enumerate(mesh.triangles.tolist())
                      if i in t and j in t]
            bedges.append((i, j, owners))
    return counts, [sorted(s) for s in adj], two, three, bedges


@settings(max_examples=25, deadline=None)
@given(_PRESETS)
def test_edge_table_matches_brute_force(spec):
    mesh, _ = _preset(*spec)
    counts, one, two, three, bedges = _brute_force(mesh)
    edges, inverse, ecounts = mesh.edge_table()
    assert dict(zip(map(tuple, edges.tolist()), ecounts.tolist())) == counts
    for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        local = np.sort(mesh.triangles[:, [a, b]], axis=1)
        assert np.array_equal(edges[inverse[:, k]], local)
    assert _rows(mesh.vertex_rings(1)) == one
    assert _rows(mesh.vertex_rings(2)) == two
    assert _rows(mesh.vertex_rings(3)) == three
    i, j, ids = _loop_edges(mesh)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a, b, _ in bedges]
    assert np.array_equal(edges[ids], np.sort(np.stack([i, j], axis=1), axis=1))
    assert all(len(o) == 1 for _, _, o in bedges)


@settings(max_examples=8, deadline=None)
@given(st.tuples(st.sampled_from(["disk", "annulus", "cap"]),
                 st.floats(0.2, 0.4), st.floats(0.1, 0.2)))
def test_json_roundtrip_exact(spec):
    mesh, amb = _preset(*spec)
    back = mesh_from_json(json.loads(json.dumps(mesh_to_json(mesh))), amb)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert len(back.boundary_loops) == len(mesh.boundary_loops)
    for a, b in zip(back.boundary_loops, mesh.boundary_loops):
        assert np.array_equal(a, b)


# -- malformed arrays ---------------------------------------------------------

def _small_doc():
    return mesh_to_json(disk_mesh(0.3, 0.15, FLAT))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["vertices"].__setitem__(2, ["a", 0.1]), "vertices must be rows"),
    (lambda d: d["vertices"].__setitem__(2, [0.1]), "vertices must be rows"),
    (lambda d: d["triangles"].__setitem__(3, [0, 1]), "rows of different lengths"),
    (lambda d: d["triangles"][0].__setitem__(1, 1.5), "must be integers"),
    (lambda d: d["triangles"][0].__setitem__(1, 10**6), "out of range"),
    (lambda d: d["boundary"][0].__setitem__(2, -1), "out of range"),
    (lambda d: d.__setitem__("boundary", []), "at least one boundary loop"),
    (lambda d: d.__setitem__("boundary", [[0, 1]]), "at least 3 vertex indices"),
    (lambda d: d.__setitem__("boundary", 5), "at least one boundary loop"),
    (lambda d: d.pop("triangles"), "missing key 'triangles'"),
])
def test_malformed_arrays_rejected(edit, message):
    doc = _small_doc()
    edit(doc)
    with pytest.raises(MeshError, match=message):
        mesh_from_json(doc, FLAT)


def test_unused_vertex_rejected():
    doc = _small_doc()
    doc["vertices"].append([5.0, 5.0])
    with pytest.raises(MeshError, match="in no triangle"):
        mesh_from_json(doc, FLAT)


# -- generic distance field (closed-form corner update, Jacobi sweeps) --------


def _brute_corner(pa, pb, pc, S, da, db):
    """min over theta in [0, 1] of theta da + (1 - theta) db + |p_c - p|_S,
    p = theta pa + (1 - theta) pb: dense sampling, then ternary search in
    the bracket around the best sample (the objective is convex)."""
    def travel(th):
        v = pc[:, None, :] - (th[..., None] * pa[:, None, :]
                              + (1 - th[..., None]) * pb[:, None, :])
        q = np.einsum("nki,nij,nkj->nk", v, S, v)
        return th * da[:, None] + (1 - th) * db[:, None] + np.sqrt(q)

    n, m = len(da), 2001
    grid = np.broadcast_to(np.linspace(0.0, 1.0, m), (n, m))
    k = np.argmin(travel(grid), axis=1)
    lo = np.maximum(k - 1, 0) / (m - 1)
    hi = np.minimum(k + 1, m - 1) / (m - 1)
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        left = travel(np.stack([m1, m2], axis=1))
        keep = left[:, 0] <= left[:, 1]
        hi, lo = np.where(keep, m2, hi), np.where(keep, lo, m1)
    return travel(np.stack([lo, hi, 0.5 * (lo + hi)], axis=1)).min(axis=1)


def test_corner_update_matches_brute_force():
    rng = np.random.default_rng(20261018)
    n = 600
    pa, pb, pc = (rng.uniform(-1.0, 1.0, (n, 2)) for _ in range(3))
    L = rng.normal(size=(n, 2, 2))
    S = L @ L.transpose(0, 2, 1) + 0.05 * np.eye(2)
    e, w = pa - pb, pc - pb

    def form(u, v):
        return np.einsum("ni,nij,nj->n", u, S, v)

    A, B, C = form(e, e), form(e, w), form(w, w)
    db = rng.uniform(0.0, 1.0, n)
    da = db + rng.uniform(-1.5, 1.5, n) * np.sqrt(A)
    D = np.linalg.det(S) * (e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0])**2
    new = _corner_update(da, db, A, B, D, np.sqrt(form(w - e, w - e)), np.sqrt(C))
    ref = _brute_corner(pa, pb, pc, S, da, db)
    assert np.all(np.abs(new - ref) <= 1e-12 * np.abs(ref))

    # every branch of the update is exercised by the draw
    delta = da - db
    inside = delta**2 < A
    s = -np.sign(delta) * np.sqrt(delta**2 * (A * C - B**2)
                                  / np.where(inside, A - delta**2, 1.0))
    theta = (B + s) / A
    interior = inside & (theta > 0) & (theta < 1)
    obtuse = form(pa - pc, pb - pc) < 0       # angle at the updated corner
    for branch in (interior, inside & (theta <= 0), inside & (theta >= 1),
                   ~inside, obtuse & interior):
        assert np.count_nonzero(branch) >= 20


def _reference_sweep(vertices, triangles, dist, ambient, sweeps=2):
    """The former generic distance refinement, kept as a reference:
    Gauss-Seidel passes in order of increasing distance, each corner
    minimised by a 40-step ternary search."""
    cent = vertices[triangles].mean(axis=1)
    S = ambient.base_metric(cent)
    for _ in range(sweeps):
        order = np.argsort(dist[triangles].min(axis=1))
        for e in order:
            tri = triangles[e]
            Se = S[e]
            for k in range(3):
                c = tri[k]
                a, b = tri[(k + 1) % 3], tri[(k + 2) % 3]
                if not np.isfinite(dist[a]) or not np.isfinite(dist[b]):
                    continue
                pa, pb, pc = vertices[a], vertices[b], vertices[c]

                def travel(th):
                    p = th * pa + (1 - th) * pb
                    v = pc - p
                    return th * dist[a] + (1 - th) * dist[b] + math.sqrt(v @ Se @ v)

                lo, hi = 0.0, 1.0
                for _ in range(40):
                    m1 = lo + (hi - lo) / 3
                    m2 = hi - (hi - lo) / 3
                    if travel(m1) <= travel(m2):
                        hi = m2
                    else:
                        lo = m1
                cand = travel(0.5 * (lo + hi))
                if cand < dist[c]:
                    dist[c] = cand
    return dist


def _dijkstra(mesh, ambient):
    """The former upper bound of the generic distance, kept as a reference."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    csr_matrix = pytest.importorskip("scipy.sparse").csr_matrix
    (pairs, _, _), lengths = _sigma_edges(mesh.vertices, mesh.triangles, ambient)
    nv = mesh.n_vertices
    graph = csr_matrix((lengths, (pairs[:, 0], pairs[:, 1])), shape=(nv, nv))
    return csgraph.dijkstra(graph, directed=False, indices=mesh.boundary_vertices,
                            min_only=True)


# coarse enough for the reference to take well under a second
@pytest.mark.parametrize("mesh, ambient", [
    (disk_mesh(0.4, 0.1, FLAT), FLAT),
    (cap_mesh(1.0, 0.25, ROUND), ROUND),
    (annulus_mesh(0.3, 0.7, 0.12, FLAT), FLAT),
], ids=["disk", "cap", "annulus"])
def test_generic_distance_matches_reference(mesh, ambient):
    ref = _reference_sweep(mesh.vertices, mesh.triangles,
                           _dijkstra(mesh, ambient), ambient)
    new = mesh_from_arrays(mesh.vertices, mesh.triangles, mesh.boundary_loops,
                           ambient).dist_to_boundary
    assert np.all(new <= ref + 1e-15)
    assert np.abs(new - ref).max() <= 1e-9


def _relabelled(mesh, rng):
    """The same mesh with shuffled vertex labels, shuffled triangles, each
    triangle's vertices rotated and each loop started elsewhere."""
    perm = rng.permutation(mesh.n_vertices)          # old label -> new label
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    tris = perm[mesh.triangles][rng.permutation(mesh.n_triangles)]
    roll = rng.integers(0, 3, len(tris))
    tris = np.take_along_axis(tris, (np.arange(3) + roll[:, None]) % 3, axis=1)
    loops = [np.roll(perm[l], rng.integers(len(l))) for l in mesh.boundary_loops]
    return perm, verts, tris, loops


@settings(max_examples=10, deadline=None)
@given(_PRESETS, st.integers(0, 2**32 - 1))
def test_generic_distance_independent_of_labels(spec, seed):
    mesh, amb = _preset(*spec)
    base = mesh_from_arrays(mesh.vertices, mesh.triangles, mesh.boundary_loops, amb)
    perm, verts, tris, loops = _relabelled(mesh, np.random.default_rng(seed))
    moved = mesh_from_arrays(verts, tris, loops, amb)
    assert np.abs(moved.dist_to_boundary[perm] - base.dist_to_boundary).max() <= 1e-15


@settings(max_examples=15, deadline=None)
@given(_PRESETS, st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@example(("disk", 0.4, 0.04), None)
@example(("disk", 0.4, 0.04), 2026)        # relabelled, as the benchmark's file
@example(("cap", 1.0, 0.05), None)
@example(("annulus", 0.3, 0.05), None)
def test_edge_relaxation_equals_dijkstra(spec, seed):
    mesh, amb = _preset(*spec)
    if seed is not None:
        _, verts, tris, loops = _relabelled(mesh, np.random.default_rng(seed))
        mesh = mesh_from_arrays(verts, tris, loops, amb)
    (pairs, _, _), lengths = _sigma_edges(mesh.vertices, mesh.triangles, amb)
    start = np.full(mesh.n_vertices, np.inf)
    start[mesh.boundary_vertices] = 0.0
    assert np.array_equal(_edge_relaxation(pairs, lengths, start),
                          _dijkstra(mesh, amb))


def test_edge_relaxation_unconverged_is_an_error():
    mesh = disk_mesh(0.3, 0.15, FLAT)
    (pairs, _, _), lengths = _sigma_edges(mesh.vertices, mesh.triangles, FLAT)
    start = np.full(mesh.n_vertices, np.inf)
    start[mesh.boundary_vertices] = 0.0
    with pytest.raises(MeshError, match="shortest edge paths to the boundary did "
                                        rf"not converge in {mesh.n_vertices} sweeps"):
        _edge_relaxation(pairs, -lengths, start)      # never settles


def test_nearest_matches_kd_tree():
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    rng = np.random.default_rng(7)
    # 3 chunks of 2^20 // 300 points
    points, targets = rng.uniform(-1, 1, (8000, 2)), rng.uniform(-1, 1, (300, 2))
    assert np.array_equal(_nearest(points, targets), cKDTree(targets).query(points)[1])


def test_nearest_tie_goes_to_lowest_index():
    targets = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert _nearest(np.zeros((1, 2)), targets).tolist() == [1]
    assert _nearest(np.zeros((1, 2)), targets[::-1]).tolist() == [0]


def test_generic_distance_unconverged_is_an_error(monkeypatch):
    import ckgraph.mesh as mesh_mod
    update = mesh_mod._corner_update
    monkeypatch.setattr(mesh_mod, "_corner_update",
                        lambda *args: update(*args) - 1.0)   # never settles
    doc = _small_doc()
    with pytest.raises(MeshError, match=r"^mesh document: distance to the boundary "
                                        rf"did not converge in {len(doc['vertices'])} sweeps"):
        mesh_from_json(doc, FLAT)


def test_sorted_unique_matches_numpy():
    rng = np.random.default_rng(6)
    for size in (0, 1, 2, 50, 5000):
        keys = rng.integers(-20, 3 * size + 1, size=size)
        assert np.array_equal(_unique(keys), np.unique(keys))
        assert _unique(keys).dtype == np.unique(keys).dtype


def test_boundary_vertices_built_once():
    mesh = annulus_mesh(0.2, 0.5, 0.1, FLAT)
    bv = mesh.boundary_vertices
    assert bv is mesh.boundary_vertices
    assert np.array_equal(bv, np.unique(np.concatenate(mesh.boundary_loops)))
    with pytest.raises(ValueError):
        bv[0] = 1

