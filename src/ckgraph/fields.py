"""Per-vertex scalar fields bound to a mesh."""

from __future__ import annotations

import csv
import io
from itertools import zip_longest

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
        """Read one row per mesh vertex, with ``x,y`` matching that vertex,
        in any layout ``csv.reader`` reads: rows and columns in any order,
        extra columns, CRLF, quoted cells, blank rows.  Every layout gets
        the same checks; a fault raises ``MeshError`` naming the file and
        the line its row ends on."""
        try:
            with open(path, "r", newline="", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise MeshError(f"cannot read {path}: {reason}") from exc
        return cls(mesh, _checked_values(mesh, path, *_tokens(text)))


def _vertex_tolerance(mesh: DomainMesh) -> float:
    return 1e-9 * max(1.0, float(np.abs(mesh.vertices).max()))


def _tokens(text: str):
    """The cells of each column by header name, as ``csv.DictReader`` maps
    them; the line each non-blank row ends on; the ``csv.Error`` that
    stopped the read, if any (with no cells if it stopped at the header).
    Text as ``to_csv`` writes it (no quote, CR or NUL, every row as wide
    as the header) is split by ``str.split``, which is faster there."""
    head, *rows = text.split("\n")
    if rows[-1:] == [""]:
        rows.pop()
    # csv.reader refuses a cell longer than its field size limit
    if not any(c in text for c in '"\r\0') \
            and max(map(len, [head, *rows])) <= csv.field_size_limit():
        # each row's cells and then a "\n" cell: one count checks the widths
        k, n = head.count(",") + 2, len(rows)
        flat = ",\n,".join(rows).split(",")
        if len(flat) == k * n - 1 and flat[k - 1::k].count("\n") == n - 1:
            cells = {h: flat[j::k] for j, h in enumerate(head.split(","))}
            return cells, range(2, n + 2), None
    reader = csv.reader(io.StringIO(text, newline=""))
    header, rows, lines, error = None, [], [], None
    try:
        header = next(reader, [])
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        error = exc
    if header is None:
        return None, lines, error
    return {c[0]: c[1:] for c in zip_longest(header, *rows)}, lines, error


def _checked_values(mesh: DomainMesh, path, cells, lines, error):
    """The per-vertex values, or ``MeshError`` for the first of: a read
    error at the header, a missing column, the first faulty row (its first
    fault in the order of ``faults``), a read error, a vertex with no
    row."""
    if cells is None:
        raise MeshError(f"cannot read {path}: {error}")
    missing = [c for c in _CSV_COLUMNS if c not in cells]
    if missing:
        raise MeshError(f"{path}:1: missing column "
                        + ", ".join(repr(c) for c in missing))
    nv = mesh.n_vertices
    ints = _parsed(cells["vertex"], int)
    # -2 for no integer, -1 and nv for one outside 0..nv-1
    try:        # at once when every cell holds an integer that fits int64
        vertex = np.clip(np.array(ints, dtype=np.int64), -1, nv)
    except (TypeError, OverflowError):
        vertex = np.array([-2 if v is None else min(max(v, -1), nv)
                           for v in ints], dtype=np.int64)
    twice = np.ones(len(ints), dtype=bool)  # an earlier row has the vertex
    twice[np.unique(vertex, return_index=True)[1]] = False
    x, y, value = (np.array(_parsed(cells[c], float), dtype=float)
                   for c in ("x", "y", "value"))
    vx, vy = mesh.vertices[np.clip(vertex, 0, nv - 1)].T
    off = np.maximum(np.abs(x - vx), np.abs(y - vy)) > _vertex_tolerance(mesh)
    faults = (
        (vertex == -2, "vertex {vertex!r} is not an integer"),
        ((vertex == -1) | (vertex == nv), "vertex {v} outside 0..{last}"),
        (twice, "vertex {v} appears twice"),
        (~np.isfinite(x), "x {x!r} is not a finite number"),
        (~np.isfinite(y), "y {y!r} is not a finite number"),
        (off, "x,y = {fx!r},{fy!r} do not match mesh vertex {v} "
              "at {vx!r},{vy!r}"),
        (~np.isfinite(value), "value {value!r} is not a finite number"),
    )
    flags = np.array([mask for mask, _ in faults]).T.ravel()  # row by row
    if flags.any():
        r, k = divmod(int(np.argmax(flags)), len(faults))
        raise MeshError(f"{path}:{lines[r]}: " + faults[k][1].format(
            v=ints[r], last=nv - 1, fx=float(x[r]), fy=float(y[r]),
            vx=float(vx[r]), vy=float(vy[r]),
            **{c: cells[c][r] for c in _CSV_COLUMNS}))
    if error is not None:
        raise MeshError(f"cannot read {path}: {error}")
    values = np.full(nv, np.nan)
    values[vertex] = value
    if len(vertex) < nv:        # the rows name distinct vertices
        raise MeshError(
            f"{path}: no row for vertex {int(np.argmax(np.isnan(values)))} "
            f"({nv - len(vertex)} of {nv} vertices missing)")
    return values


def _parsed(cells, kind) -> list:
    """``kind(cell)`` for each cell, None where that raises."""
    try:        # at once when no cell raises
        return list(map(kind, cells))
    except (TypeError, ValueError):
        pass
    out = []
    for cell in cells:
        try:
            out.append(kind(cell))
        except (TypeError, ValueError):
            out.append(None)
    return out
