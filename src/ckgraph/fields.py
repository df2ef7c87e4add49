"""Per-vertex scalar fields bound to a mesh."""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .errors import MeshError
from .mesh import DomainMesh, locate_points

__all__ = ["ScalarField"]

_CSV_COLUMNS = ("vertex", "x", "y", "value")


class ScalarField:
    def __init__(self, mesh: DomainMesh, values: np.ndarray):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise MeshError(
                f"field length {self.values.shape} does not match "
                f"{self.mesh.n_vertices} vertices"
            )
        if not np.all(np.isfinite(self.values)):
            v = int(np.argmin(np.isfinite(self.values)))
            raise MeshError(f"value {float(self.values[v])!r} at vertex {v} is not finite")

    @classmethod
    def constant(cls, mesh: DomainMesh, value: float) -> "ScalarField":
        return cls(mesh, np.full(mesh.n_vertices, float(value)))

    def at(self, points) -> np.ndarray:
        """The piecewise-linear field at chart points; a point outside the
        mesh takes the extrapolation documented by ``locate_points``."""
        element, bary = locate_points(self.mesh, points)
        return np.einsum("pk,pk->p", bary, self.values[self.mesh.triangles[element]])

    # CSV exchange format: header "vertex,x,y,value"
    def to_csv(self, path):
        x, y = self.mesh.vertices.T
        rows = zip(map(str, range(len(self.values))), map(repr, x.tolist()),
                   map(repr, y.tolist()), map(repr, self.values.tolist()))
        # row by row: the rows of a large mesh are not all held at once
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(_CSV_COLUMNS) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)

    @classmethod
    def from_csv(cls, mesh: DomainMesh, path) -> "ScalarField":
        """Read the ``to_csv`` format: one row per mesh vertex, with ``x,y``
        matching that vertex.  Anything else raises ``MeshError`` naming
        the file and line."""
        try:
            with open(path, "r", newline="", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MeshError(f"cannot read {path}: {exc}") from exc
        values = _parse_all(mesh, text)
        if values is None:
            # walk the rows to find the first fault and its line
            values = _walk_rows(mesh, text, path)
        return cls(mesh, values)


def _vertex_tolerance(mesh: DomainMesh) -> float:
    return 1e-9 * max(1.0, float(np.abs(mesh.vertices).max()))


def _parse_all(mesh: DomainMesh, text: str):
    """The values of a file written as ``to_csv`` writes it, parsed at
    once; None when the layout differs or any row would fail a check of
    ``_walk_rows``, which parses each cell the same way."""
    header, _, body = text.partition("\n")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if header != ",".join(_CSV_COLUMNS) or '"' in text or "\r" in text \
            or len(lines) != mesh.n_vertices or any(l.count(",") != 3 for l in lines):
        return None
    cells = ",".join(lines).split(",")
    try:
        vertex = np.array(list(map(int, cells[0::4])), dtype=np.int64)
        x, y, v = (np.array(list(map(float, cells[k::4]))) for k in (1, 2, 3))
    except (ValueError, OverflowError):
        return None
    nv = mesh.n_vertices
    if np.any((vertex < 0) | (vertex >= nv)) \
            or not np.all(np.bincount(vertex, minlength=nv) == 1):
        return None
    vx, vy = mesh.vertices[vertex].T
    tol = _vertex_tolerance(mesh)
    if not (np.all(np.abs(x - vx) <= tol) and np.all(np.abs(y - vy) <= tol)
            and np.all(np.isfinite(v))):
        return None
    values = np.empty(nv)
    values[vertex] = v
    return values


def _walk_rows(mesh: DomainMesh, text: str, path) -> np.ndarray:
    """Parse and check ``text`` row by row; the first fault raises
    ``MeshError`` naming the file and line."""
    nv = mesh.n_vertices
    verts = mesh.vertices.tolist()
    tol = _vertex_tolerance(mesh)
    values = np.full(nv, np.nan)
    seen = np.zeros(nv, dtype=bool)
    try:
        reader = csv.DictReader(io.StringIO(text, newline=""))
        missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise MeshError(f"{path}:1: missing column "
                            + ", ".join(repr(c) for c in missing))
        for row in reader:
            where = f"{path}:{reader.line_num}"
            v = _parse(row, "vertex", int, where)
            if not 0 <= v < nv:
                raise MeshError(f"{where}: vertex {v} outside 0..{nv - 1}")
            if seen[v]:
                raise MeshError(f"{where}: vertex {v} appears twice")
            x, y = (_parse(row, k, float, where) for k in ("x", "y"))
            vx, vy = verts[v]
            if not (abs(x - vx) <= tol and abs(y - vy) <= tol):
                raise MeshError(f"{where}: x,y = {x!r},{y!r} do not match "
                                f"mesh vertex {v} at {vx!r},{vy!r}")
            values[v] = _parse(row, "value", float, where)
            seen[v] = True
    except csv.Error as exc:
        raise MeshError(f"cannot read {path}: {exc}") from exc
    if not seen.all():
        raise MeshError(f"{path}: no row for vertex {int(np.argmin(seen))} "
                        f"({nv - int(seen.sum())} of {nv} vertices missing)")
    return values


def _parse(row, key, kind, where):
    """``kind(row[key])``, finite, or a ``MeshError`` naming the line."""
    try:
        out = kind(row[key])
        if kind is int or math.isfinite(out):
            return out
    except (TypeError, ValueError):
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise MeshError(f"{where}: {key} {row[key]!r} is not {noun}")

