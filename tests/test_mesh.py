import json
import math
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ckgraph as ck
from ckgraph.errors import MeshError
from ckgraph.fields import ScalarField
from ckgraph import mesh as mesh_module
from ckgraph.mesh import (_chart_areas, _corner_update, _eikonal_sweep,
                          _loop_edges, _sigma_edges, _spd_inverse,
                          _unique,
                          annulus_mesh, cap_mesh, disk_mesh, locate_points,
                          mesh_from_arrays, mesh_from_json, mesh_to_json)
from ckgraph.problemfile import load_problem

FLAT = ck.preset_ambient("killing_flat")
ROUND = ck.preset_ambient("euclidean_radial")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_disk_orientation_and_conformity():
    mesh = disk_mesh(0.4, 0.05, FLAT)
    areas = _chart_areas(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0)
    # each edge belongs to at most two triangles; the loop edges to one
    counts = mesh.edge_table()[1]
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
    # at h = 0.045 no ring lies on the cut locus r = 0.5 (at 0.05 one does,
    # and there are no suspects at all)
    mesh = annulus_mesh(0.3, 0.7, 0.045, FLAT)
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    rc = np.linalg.norm(cent, axis=1)
    sus = mesh.suspect_elements
    assert sus.any()
    # every suspect sits near the equidistant circle r = 0.5
    assert np.all(np.abs(rc[sus] - 0.5) < 3 * mesh.h)


# at h = 0.045 the annulus has no ring on its cut locus r = 0.5, so the
# elements of the band across it are suspects
@pytest.mark.parametrize("build, ambient, suspects", [
    (lambda: disk_mesh(0.4, 0.05, FLAT), FLAT, 0),
    (lambda: cap_mesh(1.0, 0.05, ROUND), ROUND, 0),
    (lambda: annulus_mesh(0.3, 0.7, 0.045, FLAT), FLAT, 140),
    (lambda: mesh_from_json(mesh_to_json(annulus_mesh(0.3, 0.7, 0.045, FLAT)), FLAT),
     FLAT, 140),
    (lambda: mesh_from_json(mesh_to_json(cap_mesh(0.8, 0.1, ROUND)), ROUND), ROUND, 0),
], ids=["disk", "cap", "annulus", "generic_annulus", "generic_cap"])
def test_suspects_built_on_first_read(monkeypatch, former_suspects, build, ambient,
                                      suspects):
    mesh = build()
    calls = []
    former = mesh_module._suspect_elements
    monkeypatch.setattr(mesh_module, "_suspect_elements",
                        lambda *args: calls.append(1) or former(*args))
    first = mesh.suspect_elements
    assert mesh.suspect_elements is first and len(calls) == 1
    assert np.array_equal(first, former_suspects(mesh, ambient))
    assert np.count_nonzero(first) == suspects


@pytest.mark.parametrize("name", ck.PRESET_NAMES)
def test_spd_inverse_matches_linalg(name):
    amb = ck.preset_ambient(name)
    mesh = cap_mesh(1.0, 0.05, amb)
    edges = mesh.edge_table()[0]
    pts = np.concatenate([mesh.vertices[mesh.triangles].mean(axis=1),
                          mesh.vertices[edges].mean(axis=1)])
    S = amb.base_metric(pts)
    (i11, i12, i22), det = _spd_inverse(S)
    inv = np.linalg.inv(S)
    for got, want in ((i11, inv[:, 0, 0]), (i12, inv[:, 0, 1]), (i12, inv[:, 1, 0]),
                      (i22, inv[:, 1, 1]), (det, np.linalg.det(S))):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())


def test_vertex_rings():
    mesh = disk_mesh(0.3, 0.1, FLAT)
    one = [set() for _ in range(mesh.n_vertices)]
    for a, b in mesh.edge_table()[0].tolist():
        one[a].add(b)
        one[b].add(a)
    # a row of the stencil past its 2-ring is padding with the vertex itself
    for v, row in enumerate(mesh.two_ring.tolist()):
        two = [w for w in row if w != v]
        assert row[len(two):] == [v] * (len(row) - len(two))
        assert one[v] <= set(two)
        assert len(two) >= 5 or v in mesh.boundary_vertices


# -- edge table (property tests against a brute-force reference) -----------


def _preset(kind, size, h):
    if kind == "disk":
        return disk_mesh(size, h, FLAT), FLAT
    if kind == "annulus":
        return annulus_mesh(size, size + 0.3, h, FLAT), FLAT
    return cap_mesh(size, h, ROUND), ROUND


_PRESETS = st.tuples(st.sampled_from(["disk", "annulus", "cap"]),
                     st.floats(0.2, 0.8), st.floats(0.08, 0.2))


# -- preset generator (against the former ring-merge loop) -----------------


def _band_loop(tris, inner_idx, inner_ang, outer_idx, outer_ang):
    """The former band triangulation, kept as a reference: merge the two
    angle sequences one triangle at a time."""
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


def _rings_loop(verts, numbers, radius_of, count_of):
    """Ring vertices appended to ``verts``, one ring per number, and the
    ring indices and angles (the former per-ring loop)."""
    ring_idx, ring_ang = [], []
    for i in numbers:
        r, cnt = radius_of(i), count_of(i)
        ang = 2 * math.pi * (np.arange(cnt) + 0.5 * (i % 2)) / cnt
        ring_idx.append(list(range(len(verts), len(verts) + cnt)))
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        ring_ang.append(list(ang))
    return ring_idx, ring_ang


def _disk_loop(radius, h):
    """Vertices, triangles and boundary loop of the former ``_polar_disk``."""
    m = max(2, int(math.ceil(radius / h)))
    verts = [(0.0, 0.0)]
    idx, ang = _rings_loop(verts, range(1, m + 1), lambda i: radius * i / m,
                           lambda i: 6 * i)
    tris = [(0, idx[0][j], idx[0][(j + 1) % 6]) for j in range(6)]
    for i in range(m - 1):
        _band_loop(tris, idx[i], ang[i], idx[i + 1], ang[i + 1])
    return np.asarray(verts), np.asarray(tris, dtype=int), [np.asarray(idx[-1], dtype=int)]


def _annulus_loop(r_in, r_out, h):
    """Vertices, triangles and boundary loops of the former annulus builder."""
    m = max(2, int(math.ceil((r_out - r_in) / h)))
    verts = []

    def radius_of(i):
        return r_in + (r_out - r_in) * i / m

    idx, ang = _rings_loop(verts, range(m + 1), radius_of,
                           lambda i: max(8, int(round(2 * math.pi * radius_of(i) / h))))
    tris = []
    for i in range(m):
        _band_loop(tris, idx[i], ang[i], idx[i + 1], ang[i + 1])
    inner = np.asarray(idx[0], dtype=int)
    return (np.asarray(verts), np.asarray(tris, dtype=int),
            [np.asarray(idx[-1], dtype=int), inner[::-1].copy()])


def _assert_same_arrays(mesh, reference):
    verts, tris, loops = reference
    assert mesh.vertices.dtype == verts.dtype and np.array_equal(mesh.vertices, verts)
    assert mesh.triangles.dtype == tris.dtype and np.array_equal(mesh.triangles, tris)
    assert len(mesh.boundary_loops) == len(loops)
    for got, want in zip(mesh.boundary_loops, loops):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# radius over h: whole and fractional ring counts, odd and even outer rings,
# and the 4h companion sizes of the benchmark's preset workloads
@pytest.mark.parametrize("radius", [0.3, 0.4, 0.77, 1.0, 1.3])
@pytest.mark.parametrize("h", [0.02, 0.025, 0.04, 0.05, 0.08, 0.1, 0.1 / 3, 0.15, 0.3])
def test_disk_and_cap_arrays_match_loop(radius, h):
    _assert_same_arrays(disk_mesh(radius, h, FLAT), _disk_loop(radius, h))
    _assert_same_arrays(cap_mesh(radius, h, ROUND), _disk_loop(radius, h))


@pytest.mark.parametrize("r_in, r_out, h", [
    (0.3, 0.7, 0.05), (0.3, 0.7, 0.07), (0.3, 0.7, 0.1), (0.3, 0.7, 0.12),
    (0.2, 0.5, 0.1), (0.2, 0.5, 0.15), (0.2, 0.6, 0.02), (0.1, 1.0, 0.04),
    (0.5, 0.55, 0.01), (1.0, 2.0, 0.03)])
def test_annulus_arrays_match_loop(r_in, r_out, h):
    _assert_same_arrays(annulus_mesh(r_in, r_out, h, FLAT), _annulus_loop(r_in, r_out, h))


@settings(max_examples=40, deadline=None)
@given(_PRESETS)
def test_preset_arrays_match_loop(spec):
    kind, size, h = spec
    mesh, _ = _preset(kind, size, h)
    ref = _annulus_loop(size, size + 0.3, h) if kind == "annulus" else _disk_loop(size, h)
    _assert_same_arrays(mesh, ref)


def _workload_inputs(tmp_path, name):
    """Problem file (and mesh file) of a benchmark workload, as
    ``perfbench/workloads.py`` writes them."""
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         module.__dict__)
    module.write_inputs(name, 0, tmp_path)
    return tmp_path / "problem.json"


@pytest.mark.parametrize("name", ["cap_continuation", "radial_sphere", "meshfile_disk"])
def test_benchmark_meshes_match_loop(tmp_path, name):
    loaded = load_problem(_workload_inputs(tmp_path, name))
    doc = json.loads((tmp_path / "problem.json").read_text(encoding="utf-8"))
    if name == "meshfile_disk":
        mesh_doc = json.loads((tmp_path / "mesh.json").read_text(encoding="utf-8"))
        ref = (np.asarray(mesh_doc["vertices"], dtype=float),
               np.asarray(mesh_doc["triangles"]),
               [np.asarray(l) for l in mesh_doc["boundary"]])
        _assert_same_arrays(loaded.problem.mesh, ref)
        return
    size = next(iter(doc["domain"]["params"].values()))
    h = doc["resolution"]
    _assert_same_arrays(loaded.problem.mesh, _disk_loop(size, h))
    _assert_same_arrays(loaded.companion().mesh, _disk_loop(size, 4 * h))


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
    return counts, two, bedges


@settings(max_examples=25, deadline=None)
@given(_PRESETS, st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@example(("annulus", 0.3, 0.1), 0)
def test_edge_table_matches_brute_force(spec, seed):
    # a preset, or a relabelled mesh-file copy of it
    mesh, amb = _preset(*spec)
    if seed is not None:
        mesh = mesh_from_arrays(*_relabelled(mesh, np.random.default_rng(seed))[1:], amb)
    counts, two, bedges = _brute_force(mesh)
    edges, ecounts = mesh.edge_table()
    assert dict(zip(map(tuple, edges.tolist()), ecounts.tolist())) == counts
    # the kept stencil: each 2-ring padded with its own vertex to the largest
    ring = mesh.two_ring
    width = max(map(len, two))
    assert ring.shape == (mesh.n_vertices, width)
    for v, row in enumerate(ring.tolist()):
        assert row == two[v] + [v] * (width - len(two[v]))
        assert len(two[v]) >= 5 or mesh.is_boundary[v]
    i, j, ids = _loop_edges(mesh)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a, b, _ in bedges]
    assert np.array_equal(edges[ids], np.sort(np.stack([i, j], axis=1), axis=1))
    assert all(len(o) == 1 for _, _, o in bedges)


@pytest.mark.parametrize("mesh_file", [False, True], ids=["preset", "mesh_file"])
def test_cached_arrays_are_read_only(mesh_file):
    # each is built once and shared by every later read: a caller writing
    # into one (the fits' stencil, say) would corrupt all that follow
    mesh = annulus_mesh(0.3, 0.6, 0.1, FLAT)
    if mesh_file:
        mesh = mesh_from_arrays(mesh.vertices, mesh.triangles, mesh.boundary_loops, FLAT)
    # the 2-ring stencil, kept for the life of the mesh, is int32: half the
    # bytes of int64 indices
    dtypes = {"boundary_vertices": np.intp, "is_boundary": bool,
              "interior_vertices": np.intp, "dist_to_boundary": float,
              "suspect_elements": bool, "two_ring": np.int32}
    for name, dtype in dtypes.items():
        a = getattr(mesh, name)
        assert getattr(mesh, name) is a
        assert a.dtype == dtype, name
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


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
    # JSON true and false are not indices or coordinates, though NumPy
    # reads them as 1 and 0
    (lambda d: d["triangles"][0].__setitem__(1, True), "triangles: vertex indices must be"),
    (lambda d: d["vertices"][2].__setitem__(0, True), "vertices must be rows"),
    (lambda d: d["boundary"][0].__setitem__(2, False), "boundary loop 0: vertex indices must"),
    # beyond the int64 range, which NumPy holds as Python objects
    (lambda d: d["triangles"][0].__setitem__(1, 10**30), "vertex index 10{30} out of range"),
    (lambda d: d["boundary"][0].__setitem__(2, -10**30), "vertex index -10{30} out of range"),
    (lambda d: d["boundary"][0].__setitem__(2, -1), "out of range"),
    (lambda d: d.__setitem__("boundary", []), "at least one boundary loop"),
    (lambda d: d.__setitem__("boundary", [[0, 1]]), "at least 3 vertex indices"),
    (lambda d: d.__setitem__("boundary", 5), "at least one boundary loop"),
    (lambda d: d["boundary"].__setitem__(0, 2 * d["boundary"][0]), "list vertex 7 twice"),
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


def test_element_area_out_of_range_rejected():
    # every edge length is in range, but element 0 has area 1e-70, whose
    # square underflows
    doc = {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1e-70]],
           "triangles": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
           "boundary": [[0, 1, 2, 3]]}
    with pytest.raises(MeshError, match=r"^mesh document: element 0 has leaf-metric "
                                        r"area 1e-70, outside \[1e-60, 1e\+60\]$"):
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
    (pairs, _), lengths = _sigma_edges(mesh.vertices, mesh.triangles, ambient)
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


def _from_reference_start(vertices, triangles, loops, ambient):
    """The generic distance of a mesh and the triangle update's fixed point
    started from the shortest edge paths instead of the boundary."""
    mesh = mesh_from_arrays(vertices, triangles, loops, ambient)
    return mesh.dist_to_boundary, _eikonal_sweep(
        mesh.vertices, mesh.triangles, _dijkstra(mesh, ambient), ambient)


@settings(max_examples=15, deadline=None)
@given(_PRESETS, st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@example(("disk", 0.4, 0.04), None)
@example(("disk", 0.4, 0.04), 2026)        # relabelled, as the benchmark's file
@example(("cap", 1.0, 0.05), None)
@example(("annulus", 0.3, 0.05), None)
def test_generic_distance_independent_of_start(spec, seed):
    mesh, amb = _preset(*spec)
    verts, tris, loops = mesh.vertices, mesh.triangles, mesh.boundary_loops
    if seed is not None:
        _, verts, tris, loops = _relabelled(mesh, np.random.default_rng(seed))
    dist, ref = _from_reference_start(verts, tris, loops, amb)
    assert np.array_equal(dist, ref)


@pytest.mark.parametrize("kind", ["disk", "cap"])
def test_generic_distance_independent_of_start_jittered(kind):
    mesh, amb = _preset(kind, 0.4, 0.01)
    rng = np.random.default_rng(5)
    verts = mesh.vertices.copy()
    inner = mesh.interior_vertices
    verts[inner] += rng.uniform(-0.002, 0.002, (len(inner), 2))
    dist, ref = _from_reference_start(verts, mesh.triangles, mesh.boundary_loops, amb)
    assert np.all(np.abs(dist - ref) <= 1e-14 * ref)


def test_generic_distance_settles_a_rounding_cycle():
    # on this jittered annulus the rounded update cycles the last ulp of a
    # vertex with period 4 instead of settling
    mesh, amb = _preset("annulus", 0.3, 0.04)
    rng = np.random.default_rng(2)
    verts = mesh.vertices.copy()
    inner = mesh.interior_vertices
    verts[inner] += rng.uniform(-0.2, 0.2, (len(inner), 2)) * mesh.h
    dist, ref = _from_reference_start(verts, mesh.triangles, mesh.boundary_loops, amb)
    assert np.array_equal(dist, ref)


def test_generic_distance_unconverged_is_an_error(monkeypatch):
    import ckgraph.mesh as mesh_mod
    update = mesh_mod._corner_update
    monkeypatch.setattr(mesh_mod, "_corner_update",
                        lambda *args: update(*args) - 1.0)   # never settles
    doc = _small_doc()
    mesh = mesh_from_json(doc, FLAT)     # the distance is relaxed on its first read
    with pytest.raises(MeshError, match=r"^mesh document: distance to the boundary "
                                        rf"did not converge in {len(doc['vertices'])} sweeps"):
        mesh.dist_to_boundary


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


@pytest.mark.parametrize("build, args", [
    (disk_mesh, (0.4, 1e-320)), (disk_mesh, (1e300, 0.1)), (disk_mesh, (0.4, 1e-5)),
    (annulus_mesh, (0.1, 1e300, 0.1)), (annulus_mesh, (0.1, 0.4, 1e-6)),
])
def test_polar_mesh_beyond_int32_refused(build, args):
    # the vertex count is found before any array is built
    with pytest.raises(ck.ParameterError, match=r"vertices, more than int32 indices reach"):
        build(*args, FLAT)



# -- point location (against an all-elements search) ------------------------


def _all_elements_search(mesh, points):
    """Barycentric coordinates of every point in every element, one element
    and point at a time, and the largest smallest coordinate per point."""
    bary = np.empty((len(points), mesh.n_triangles, 3))
    for e, tri in enumerate(mesh.triangles):
        a, b, c = mesh.vertices[tri]
        M = np.array([b - a, c - a]).T
        for k, p in enumerate(points):
            l1, l2 = np.linalg.solve(M, p - a)
            bary[k, e] = (1.0 - l1 - l2, l1, l2)
    return bary, bary.min(axis=2).max(axis=1)


def _located_meshes():
    disk = disk_mesh(0.4, 0.08, FLAT)
    _, verts, tris, loops = _relabelled(disk, np.random.default_rng(7))
    return {"disk": disk, "cap": cap_mesh(1.0, 0.2, ROUND),
            "annulus": annulus_mesh(0.2, 0.5, 0.1, FLAT),
            "generic": mesh_from_json(mesh_to_json(
                mesh_from_arrays(verts, tris, loops, FLAT)), FLAT)}


@pytest.mark.parametrize("kind", ["disk", "cap", "annulus", "generic"])
def test_locate_points_matches_all_elements_search(kind):
    mesh = _located_meshes()[kind]
    rng = np.random.default_rng(1)
    r_out = np.linalg.norm(mesh.vertices, axis=1).max()
    r_in = 0.2 if kind == "annulus" else 0.0
    # random points inside the disk of the boundary vertices, mesh vertices
    # and edge midpoints (ties on shared edges and corners)
    r = np.sqrt(rng.uniform(r_in**2, (0.95 * r_out)**2, 300))
    t = rng.uniform(0, 2 * math.pi, 300)
    edges = mesh.edge_table()[0]
    points = np.concatenate([np.stack([r * np.cos(t), r * np.sin(t)], axis=1),
                             mesh.vertices[:40],
                             mesh.vertices[edges[:40]].mean(axis=1)])
    element, bary = locate_points(mesh, points)
    ref, best = _all_elements_search(mesh, points)
    inside = best >= -1e-12
    assert np.all(inside)
    # the same element up to ties: the chosen one contains the point too
    k = np.arange(len(points))
    assert np.all(ref[k, element].min(axis=1) >= -1e-12)
    assert np.abs(bary - ref[k, element]).max() <= 1e-13
    plain = np.argmax(ref.min(axis=2), axis=1)
    tie = element != plain                  # on an edge or corner of both
    assert np.abs(bary[tie].min(axis=1)).max(initial=0.0) <= 1e-12
    values = np.sin(3 * mesh.vertices[:, 0]) + mesh.vertices[:, 1] ** 2
    field = ScalarField(mesh, values)
    expected = (ref[k, plain] * values[mesh.triangles[plain]]).sum(axis=1)
    assert np.abs(field.at(points) - expected).max() <= 1e-13


@pytest.mark.parametrize("kind", ["disk", "cap", "annulus"])
def test_points_outside_take_the_best_element_extrapolation(kind):
    # between each boundary chord and the circle it approximates
    mesh = _located_meshes()[kind]
    outer = mesh.boundary_loops[0]
    p, q = mesh.vertices[outer], mesh.vertices[np.roll(outer, -1)]
    radius = np.linalg.norm(p, axis=1).max()
    mid = 0.5 * (p + q)
    points = mid / np.linalg.norm(mid, axis=1)[:, None] * (
        0.5 * radius + 0.5 * np.linalg.norm(mid, axis=1))[:, None]
    element, bary = locate_points(mesh, points)
    ref, best = _all_elements_search(mesh, points)
    assert np.all(best < -1e-12)                     # outside every element
    k = np.arange(len(points))
    assert np.array_equal(element, np.argmax(ref.min(axis=2), axis=1))
    assert np.abs(bary - ref[k, element]).max() <= 1e-13
    # linear extrapolation from that element
    a = mesh.vertices[:, 0] - 2 * mesh.vertices[:, 1] + 0.5
    assert np.abs(ScalarField(mesh, a).at(points)
                  - (points[:, 0] - 2 * points[:, 1] + 0.5)).max() <= 1e-13


@pytest.mark.parametrize("kind", ["disk", "cap", "annulus", "generic"])
def test_locate_points_reproduces_linear_fields(kind):
    mesh = _located_meshes()[kind]
    points = np.random.default_rng(2).uniform(-1.2, 1.2, (500, 2))
    coef = np.array([0.7, -1.3])
    field = ScalarField(mesh, mesh.vertices @ coef - 0.25)
    assert np.abs(field.at(points) - (points @ coef - 0.25)).max() <= 1e-12
    element, bary = locate_points(mesh, points)
    assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-14
