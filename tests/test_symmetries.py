"""The pipeline's exact symmetries as a metamorphic test: ``ckg solve``,
``certify`` and ``verify``, run in process on a problem and on its image
under a relation, must give the image of the first run's outputs.

The relations hold exactly in exact arithmetic; in floating point the two
runs add in different orders, so numbers are compared to 1e-9 relative, and
what the program chooses (certify's parameters, counts, verdicts, notes)
exactly.  The ``killing_flat`` translation and scaling relations wait for
tolerances that follow the problem's scale: today ``phi + c`` at c = 100
takes 258 continuation stages there."""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import ckgraph as ck
from ckgraph.cli import main

RTOL = 1e-9

# labels, not numbers: a relabelling moves them, and a tie may pick another
_LABELS = {"margin_location", "boundary_max_discrepancy_vertex", "timestamp"}


def _pipeline(doc, mesh=None):
    """The solution and certify's and verify's reports, each with its exit
    code, for ``doc``, with ``mesh`` written as its ``mesh.json``."""
    work = Path(tempfile.mkdtemp(prefix="ckg-symmetry-"))
    try:
        if mesh is not None:
            (work / "mesh.json").write_text(json.dumps(mesh), encoding="utf-8")
        prob = work / "problem.json"
        prob.write_text(json.dumps(doc), encoding="utf-8")
        sol = str(work / "out" / "solution.csv")
        reports = []
        for argv in (["solve", str(prob), "--out", str(work / "out")],
                     ["certify", str(prob), sol], ["verify", str(prob), sol]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                reports.append((main(argv), stdout.getvalue()))
        assert reports[0][0] == 0, reports[0]
        z = np.loadtxt(sol, delimiter=",", skiprows=1)[:, 3]
        return z, [dict(json.loads(out), exit=code) for code, out in reports[1:]]
    finally:
        shutil.rmtree(work)


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in _LABELS:
                yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _assert_image(base, image, scale=1.0):
    """``image``'s report is ``base``'s, its floats times ``scale``: floats
    to ``RTOL`` relative, the rest exactly."""
    a, b = dict(_leaves(base)), dict(_leaves(image))
    assert a.keys() == b.keys()
    for path, want in a.items():
        got = b[path]
        if isinstance(want, float):
            want *= scale
            assert abs(got - want) <= RTOL * max(abs(want), abs(got)), (path, want, got)
        else:
            assert got == want, (path, want, got)


# -- mesh-file disk: relabel, reverse the loop, reflect, rotate ----------------

_CAP_DOC = {"ambient": {"preset": "killing_flat"}, "domain": {"mesh": "mesh.json"},
            "H": {"constant": 1.0}, "phi": {"constant": -math.sqrt(0.84)},
            "checks": []}
_DISK = ck.mesh_to_json(ck.disk_mesh(0.4, 0.05, ck.preset_ambient("killing_flat")))
_BASE = {}


def _relabel(mesh, rng):
    """New labels for the vertices, the triangles and their corners, and
    the loop start; vertex ``v`` becomes ``perm[v]``."""
    v, t = np.array(mesh["vertices"]), np.array(mesh["triangles"])
    perm = rng.permutation(len(v))
    vertices = np.empty_like(v)
    vertices[perm] = v
    corners = rng.integers(3, size=len(t))[:, None]
    tris = np.take_along_axis(perm[t], (np.arange(3) + corners) % 3, axis=1)
    loops = [np.roll(perm[loop], -int(rng.integers(len(loop)))) for loop in mesh["boundary"]]
    return {"vertices": vertices.tolist(), "triangles": tris[rng.permutation(len(t))].tolist(),
            "boundary": [loop.tolist() for loop in loops]}, perm


def _reverse_loops(mesh, rng):
    return dict(mesh, boundary=[loop[::-1] for loop in mesh["boundary"]]), None


def _reflect(mesh, rng):
    # x -> -x reverses the orientation: each triangle is flipped back
    return dict(mesh, vertices=[[-x, y] for x, y in mesh["vertices"]],
                triangles=[[a, c, b] for a, b, c in mesh["triangles"]]), None


def _rotate(mesh, rng):
    # a quarter turn, exact in floating point
    return dict(mesh, vertices=[[-y, x] for x, y in mesh["vertices"]]), None


_RELATIONS = {"relabel": _relabel, "reverse_loops": _reverse_loops,
              "reflect": _reflect, "rotate": _rotate}


@settings(max_examples=30, deadline=None)
@given(chain=st.lists(st.sampled_from(sorted(_RELATIONS)), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_mesh_file_relations_map_the_pipeline(chain, seed):
    if not _BASE:
        _BASE["run"] = _pipeline(_CAP_DOC, _DISK)
    z, reports = _BASE["run"]
    rng = np.random.default_rng(seed)
    mesh, where = _DISK, np.arange(len(z))      # vertex v of the base is where[v]
    for name in chain:
        mesh, perm = _RELATIONS[name](mesh, rng)
        if perm is not None:
            where = perm[where]
    z_image, reports_image = _pipeline(_CAP_DOC, mesh)
    assert np.abs(z_image[where] - z).max() <= RTOL * np.abs(z).max()
    for report, image in zip(reports, reports_image):
        _assert_image(report, image)


# -- euclidean_radial: phi + c is a homothety -----------------------------------

def _radial_doc(c):
    return {"ambient": {"preset": "euclidean_radial"},
            "domain": {"preset": "cap", "params": {"theta0": 1.0}}, "resolution": 0.1,
            "H": {"constant": 0.0}, "checks": [],
            "phi": {"expression": f"-log(cos(sqrt(x*x + y*y))) + log(cos(1.0)) + {c!r}"}}


@settings(max_examples=10, deadline=None)
@given(c=st.floats(-1.0, 3.0))
def test_radial_shift_of_the_data_maps_the_pipeline(c):
    # lambda = e^t: the shift t -> t + c scales the ambient metric by e^(2c),
    # so the solution moves by c, a barrier's margins stay, and the
    # recovered mean curvature (H = 0 is prescribed) scales by e^-c
    if "radial" not in _BASE:
        _BASE["radial"] = _pipeline(_radial_doc(0.0))
    z, (certify, verify) = _BASE["radial"]
    z_image, (certify_image, verify_image) = _pipeline(_radial_doc(c))
    assert np.abs(z_image - (z + c)).max() <= RTOL * np.abs(z + c).max()
    _assert_image(certify, certify_image)
    # verify's verdict against its fixed tolerance is no image of the base's
    discrepancies = [f"{k}_discrepancy" for k in ("max", "mean", "boundary_max")]
    _assert_image({k: verify[k] for k in discrepancies},
                  {k: verify_image[k] for k in discrepancies}, math.exp(-c))
    assert verify_image["checked_vertices"] == verify["checked_vertices"]
