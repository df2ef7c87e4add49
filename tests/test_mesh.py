import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ckgraph as ck
from ckgraph.errors import MeshError
from ckgraph.mesh import (_chart_areas, annulus_mesh, cap_mesh, disk_mesh,
                          mesh_from_arrays, mesh_from_json, mesh_to_json)

FLAT = ck.preset_ambient("killing_flat")
ROUND = ck.preset_ambient("euclidean_radial")


def test_disk_orientation_and_conformity():
    mesh = disk_mesh(0.4, 0.05, FLAT)
    areas = _chart_areas(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0)
    # each edge belongs to at most two triangles; boundary edges to one
    mesh.boundary_edges()   # raises on non-conforming boundary


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


def test_vertex_rings():
    mesh = disk_mesh(0.3, 0.1, FLAT)
    one = mesh.vertex_rings(depth=1)
    two = mesh.vertex_rings(depth=2)
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
    bedges = []
    for loop in mesh.boundary_loops:
        loop = [int(v) for v in loop]
        for i, j in zip(loop, loop[1:] + loop[:1]):
            owners = [e for e, t in enumerate(mesh.triangles.tolist())
                      if i in t and j in t]
            bedges.append((i, j, owners))
    return counts, [sorted(s) for s in adj], two, bedges


@settings(max_examples=25, deadline=None)
@given(_PRESETS)
def test_edge_table_matches_brute_force(spec):
    mesh, _ = _preset(*spec)
    counts, one, two, bedges = _brute_force(mesh)
    edges, inverse, ecounts = mesh.edge_table()
    assert dict(zip(map(tuple, edges.tolist()), ecounts.tolist())) == counts
    for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        local = np.sort(mesh.triangles[:, [a, b]], axis=1)
        assert np.array_equal(edges[inverse[:, k]], local)
    assert [list(map(int, r)) for r in mesh.vertex_rings(1)] == one
    assert [list(map(int, r)) for r in mesh.vertex_rings(2)] == two
    assert mesh.boundary_edges() == [(i, j, o[0]) for i, j, o in bedges]
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
