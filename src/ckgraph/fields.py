"""Per-vertex scalar fields bound to a mesh."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .mesh import DomainMesh

__all__ = ["ScalarField", "distance_to_boundary"]

_CSV_COLUMNS = ("vertex", "x", "y", "value")


@dataclass
class ScalarField:
    mesh: DomainMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise MeshError(
                f"field length {self.values.shape} does not match "
                f"{self.mesh.n_vertices} vertices"
            )
        if not np.all(np.isfinite(self.values)):
            raise MeshError("scalar field contains non-finite values")

    @classmethod
    def constant(cls, mesh: DomainMesh, value: float) -> "ScalarField":
        return cls(mesh, np.full(mesh.n_vertices, float(value)))

    @classmethod
    def from_function(cls, mesh: DomainMesh, fn) -> "ScalarField":
        return cls(mesh, np.asarray(fn(mesh.vertices), dtype=float))

    def copy(self) -> "ScalarField":
        return ScalarField(self.mesh, self.values.copy())

    # CSV exchange format: header "vertex,x,y,value"
    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(_CSV_COLUMNS)
            for i, ((x, y), v) in enumerate(zip(self.mesh.vertices, self.values)):
                w.writerow([i, repr(float(x)), repr(float(y)), repr(float(v))])

    @classmethod
    def from_csv(cls, mesh: DomainMesh, path) -> "ScalarField":
        """Read the ``to_csv`` format: one row per mesh vertex, with ``x,y``
        matching that vertex.  Anything else raises ``MeshError`` naming
        the file and line."""
        nv = mesh.n_vertices
        verts = mesh.vertices.tolist()
        tol = 1e-9 * max(1.0, float(np.abs(mesh.vertices).max()))
        values = np.full(nv, np.nan)
        seen = np.zeros(nv, dtype=bool)
        try:
            with open(path, "r", newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                missing = [c for c in _CSV_COLUMNS
                           if c not in (reader.fieldnames or ())]
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
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise MeshError(f"cannot read {path}: {exc}") from exc
        if not seen.all():
            raise MeshError(f"{path}: no row for vertex {int(np.argmin(seen))} "
                            f"({nv - int(seen.sum())} of {nv} vertices missing)")
        return cls(mesh, values)


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


def distance_to_boundary(mesh: DomainMesh) -> ScalarField:
    """The sigma-geodesic distance to the boundary as a field (computed at
    mesh construction; closed form for preset domains)."""
    if not mesh.boundary_loops:
        raise MeshError("mesh has no boundary")
    return ScalarField(mesh, mesh.dist_to_boundary.copy())
