"""Inputs and exact oracles of the benchmark's three workloads.

Each workload is one Dirichlet problem with a known exact solution.  The
inputs are written with the standard library only, so the program under
test receives nothing but the generated files.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

CAP_PHI = -math.sqrt(0.84)        # boundary value of the cap -sqrt(1 - r^2) at r = 0.4


def cap_exact(x, y):
    return -math.sqrt(1.0 - (x * x + y * y))


def radial_exact(x, y):
    return -math.log(math.cos(math.hypot(x, y))) + math.log(math.cos(1.0))


def _preset_doc(ambient, domain, params, resolution, H, phi):
    return {"ambient": {"preset": ambient},
            "domain": {"preset": domain, "params": params},
            "resolution": resolution, "H": H, "phi": phi}


def disk_mesh_doc(radius: float, h: float, rng: random.Random) -> dict:
    """Spider-web triangulation of a chart disk (ring i holds 6 i vertices),
    rotated by a seeded angle, with seeded vertex and triangle labels."""
    m = max(2, math.ceil(radius / h))
    rot = rng.uniform(0.0, 2.0 * math.pi)
    pts, rings, angles = [(0.0, 0.0)], [[0]], [[0.0]]
    for i in range(1, m + 1):
        cnt = 6 * i
        ang = [2.0 * math.pi * (k + 0.5 * (i % 2)) / cnt for k in range(cnt)]
        rings.append(list(range(len(pts), len(pts) + cnt)))
        angles.append(ang)
        r = radius * i / m
        pts.extend((r * math.cos(a + rot), r * math.sin(a + rot)) for a in ang)
    tris = [(0, rings[1][j], rings[1][(j + 1) % 6]) for j in range(6)]
    for i in range(1, m):
        _band(tris, rings[i], angles[i], rings[i + 1], angles[i + 1])

    perm = list(range(len(pts)))
    rng.shuffle(perm)                           # old label -> new label
    vertices = [None] * len(pts)
    for old, new in enumerate(perm):
        vertices[new] = list(pts[old])
    triangles = [[perm[v] for v in t] for t in tris]
    rng.shuffle(triangles)
    loop = [perm[v] for v in rings[m]]
    start = rng.randrange(len(loop))
    return {"vertices": vertices, "triangles": triangles,
            "boundary": [loop[start:] + loop[:start]]}


def _band(tris, inner, inner_ang, outer, outer_ang):
    """Positively oriented triangles between two concentric rings, by
    merging their angle sequences measured from the first inner vertex
    (the same merge, ties included, as the preset disk of the program)."""
    two_pi = 2.0 * math.pi
    p, q = len(inner), len(outer)
    rel = [(t - inner_ang[0] + math.pi) % two_pi - math.pi for t in outer_ang]
    j0 = min(range(q), key=lambda k: abs(rel[k]))
    order = [(j0 + k) % q for k in range(q)]
    a = _unwrap([(t - inner_ang[0]) % two_pi for t in inner_ang])
    b = _unwrap([rel[k] for k in order])
    a.append(a[0] + two_pi)
    b.append(b[0] + two_pi)
    i = j = 0
    while i < p or j < q:
        if j == q or (i < p and a[i + 1] <= b[j + 1]):
            tris.append((inner[i % p], outer[order[j % q]], inner[(i + 1) % p]))
            i += 1
        else:
            tris.append((inner[i % p], outer[order[j % q]],
                         outer[order[(j + 1) % q]]))
            j += 1


def _unwrap(angles):
    for k in range(1, len(angles)):
        while angles[k] < angles[k - 1]:
            angles[k] += 2.0 * math.pi
    return angles


# The preset workloads are fixed by their oracles; only the mesh-file
# workload draws its input from the seed.
def _cap_continuation(seed):
    return (_preset_doc("killing_flat", "disk", {"radius": 0.4}, 0.02,
                        {"constant": 1.0}, {"constant": CAP_PHI}), None)


def _radial_sphere(seed):
    phi = "-log(cos(sqrt(x*x + y*y))) + log(cos(1))"
    return (_preset_doc("euclidean_radial", "cap", {"theta0": 1.0}, 0.025,
                        {"constant": 0.0}, {"expression": phi}), None)


def _meshfile_disk(seed):
    # ckg certify exits 1 here (height-barrier search exhausted up to
    # D = 2^20); the run counts it as a failed command and keeps it visible.
    doc = {"ambient": {"preset": "killing_flat"},
           "domain": {"mesh": "mesh.json"},
           "H": {"constant": 1.0}, "phi": {"constant": CAP_PHI}}
    return doc, disk_mesh_doc(0.4, 0.04, random.Random(seed))


# name -> (input builder, exact solution at a chart point)
WORKLOADS = {
    "cap_continuation": (_cap_continuation, cap_exact),
    "radial_sphere": (_radial_sphere, radial_exact),
    "meshfile_disk": (_meshfile_disk, cap_exact),
}


def write_inputs(name: str, seed: int, workdir: Path):
    """Write ``problem.json``, and ``mesh.json`` where the workload has one,
    into ``workdir``."""
    build, _ = WORKLOADS[name]
    problem, mesh = build(seed)
    if mesh is not None:
        (workdir / "mesh.json").write_text(json.dumps(mesh), encoding="utf-8")
    (workdir / "problem.json").write_text(json.dumps(problem, indent=2) + "\n",
                                          encoding="utf-8")
