import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ckgraph as ck
from ckgraph.errors import MeshError
from ckgraph.fields import _CSV_COLUMNS, ScalarField, _vertex_tolerance
from ckgraph.mesh import DomainMesh

FLAT = ck.preset_ambient("killing_flat")


def test_csv_roundtrip(tmp_path):
    mesh = ck.disk_mesh(0.3, 0.1, FLAT)
    rng = np.random.default_rng(4)
    field = ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
    path = tmp_path / "field.csv"
    field.to_csv(path)
    back = ScalarField.from_csv(mesh, path)
    assert np.array_equal(back.values, field.values)   # repr() is lossless


def test_csv_format(tmp_path):
    mesh = ck.disk_mesh(0.3, 0.2, FLAT)
    field = ScalarField.constant(mesh, -0.25)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw                            # LF only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "vertex,x,y,value"
    assert len(lines) == mesh.n_vertices + 1


def test_csv_bytes_match_row_writer(tmp_path):
    # the output of to_csv against the csv-module loop it replaced
    mesh = ck.disk_mesh(0.3, 0.05, FLAT)
    rng = np.random.default_rng(9)
    values = rng.standard_normal(mesh.n_vertices) * 10.0 ** rng.uniform(
        -20, 20, mesh.n_vertices)
    values[:3] = (0.0, -0.0, 1e300)
    field = ScalarField(mesh, values)
    field.to_csv(tmp_path / "new.csv")
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("vertex", "x", "y", "value"))
        for i, ((x, y), v) in enumerate(zip(mesh.vertices, values)):
            w.writerow([i, repr(float(x)), repr(float(y)), repr(float(v))])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_written_row_by_row(tmp_path, traced_peak):
    # the writer holds the three value lists, not a table of formatted rows
    # (that table peaked at about 8 times the file)
    mesh = ck.disk_mesh(0.4, 0.005, FLAT)
    field = ScalarField(mesh, np.linspace(-1.0, 1.0, mesh.n_vertices))
    path = tmp_path / "big.csv"
    _, peak = traced_peak(field.to_csv, path)
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize("layout", ["shuffled", "crlf", "columns", "quoted", "blank"])
def test_csv_layouts_read_alike(tmp_path, layout):
    # every layout goes through the same checks and gives the same values
    mesh = ck.disk_mesh(0.3, 0.1, FLAT)
    field = ScalarField(mesh, np.random.default_rng(5).standard_normal(mesh.n_vertices))
    path = tmp_path / "field.csv"
    field.to_csv(path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    if layout == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
    elif layout == "columns":
        header = "value,vertex,x,y"
        rows = [",".join(r.split(",")[3:] + r.split(",")[:3]) for r in rows]
    elif layout == "quoted":
        rows = ['"' + r.replace(",", '","') + '"' for r in rows]
    elif layout == "blank":
        rows = rows[:5] + [""] + rows[5:]
    end = "\r\n" if layout == "crlf" else "\n"
    path.write_bytes((end.join([header, *rows]) + end).encode("utf-8"))
    assert np.array_equal(ScalarField.from_csv(mesh, path).values, field.values)


def test_length_mismatch_rejected():
    mesh = ck.disk_mesh(0.3, 0.2, FLAT)
    with pytest.raises(MeshError):
        ScalarField(mesh, np.zeros(mesh.n_vertices + 1))


def test_nonfinite_rejected():
    mesh = ck.disk_mesh(0.3, 0.2, FLAT)
    vals = np.zeros(mesh.n_vertices)
    vals[0] = np.nan
    with pytest.raises(MeshError):
        ScalarField(mesh, vals)



# -- the reader against the row walk it replaced ------------------------------

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


_MESH = ck.disk_mesh(0.3, 0.1, FLAT)
_VALUES = np.random.default_rng(6).standard_normal(_MESH.n_vertices)
_NV = _MESH.n_vertices

# name -> edit of one row's cells (vertex, x, y, value) in to_csv order
_CELL_FAULTS = {
    "vertex_not_integer": lambda c, d: ["1.5" if d(st.booleans()) else "two", *c[1:]],
    "vertex_outside": lambda c, d: [d(st.sampled_from(["-1", str(_NV), "1" + "0" * 30])),
                                    *c[1:]],
    "vertex_repeated": lambda c, d: [str(d(st.integers(0, _NV - 1))), *c[1:]],
    "x_not_finite": lambda c, d: [c[0], d(st.sampled_from(["abc", "nan", "inf", ""])),
                                  *c[2:]],
    "y_not_finite": lambda c, d: [*c[:2], d(st.sampled_from(["-inf", "1,5", " "])),
                                  c[3]],
    "x_edited": lambda c, d: [c[0], c[1] + d(st.sampled_from(["1", "e-3", "5e2"])), *c[2:]],
    "value_not_finite": lambda c, d: [*c[:3], d(st.sampled_from(["abc", "nan", "1e999"]))],
    "nul_cell": lambda c, d: [*c[:3], c[3] + "\0"],     # csv.reader may refuse the line
    "long_cell": lambda c, d: [*c[:3], c[3] + "0" * csv.field_size_limit()],  # it refuses this
}
_LAYOUTS = ["to_csv", "shuffled", "crlf", "columns", "quoted", "quoted_newline", "blank",
            "extra_column"]
_ROW_FAULTS = ["short_row", "extra_row", "missing_rows", "no_rows"]
# whole files with no row: empty, blank, or the header alone with no line end
_NO_ROWS = ["", "\n", "\r\n", ",".join(_CSV_COLUMNS)]


@st.composite
def _csv_files(draw):
    """A layout of the rows ``to_csv`` writes for ``_VALUES`` and up to
    three corruptions, often on the same few rows: the text of the file.
    Now and then a file with no row at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(_NO_ROWS))
    rows = [[str(v), repr(x), repr(y), repr(val)]
            for v, ((x, y), val) in enumerate(zip(_MESH.vertices.tolist(), _VALUES.tolist()))]
    short = []
    where = st.one_of(st.integers(0, 2), st.integers(0, _NV - 1))
    for fault in draw(st.lists(st.sampled_from([*_CELL_FAULTS, *_ROW_FAULTS]), max_size=3)):
        if not rows:
            break
        r = min(draw(where), len(rows) - 1)
        if fault in _CELL_FAULTS:
            rows[r] = _CELL_FAULTS[fault](rows[r], draw)
        elif fault == "short_row":
            short.append((rows[r], draw(st.integers(1, 3))))
        elif fault == "extra_row":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[r]))
        elif fault == "missing_rows":
            del rows[r:r + draw(st.integers(1, 3))]
        else:
            rows.clear()
    layout = draw(st.sampled_from(_LAYOUTS))
    header = list(_CSV_COLUMNS)
    if layout == "shuffled":
        rows = draw(st.permutations(rows))
    elif layout == "columns":
        order = draw(st.permutations(range(4)))
        header = [header[k] for k in order]
        for row in rows:
            row[:] = [row[k] for k in order]
    elif layout == "extra_column":
        header.append("note")
        for row in rows:
            row.append(draw(st.sampled_from(["", "x", "1"])))
    for row, k in short:
        del row[len(row) - k:]
    if layout == "quoted":
        header, *rows = [[f'"{c}"' for c in cells] for cells in [header, *rows]]
    lines = [",".join(row) for row in [header, *rows]]
    if layout == "quoted_newline" and len(lines) > 1:
        k = draw(st.integers(1, len(lines) - 1))
        cells = lines[k].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = f'"{cells[j]}\n"'
        lines[k] = ",".join(cells)
    elif layout == "blank":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\r\n" if layout == "crlf" else "\n"
    return end.join(lines) + end


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_files())
def test_csv_reader_agrees_with_row_walk(tmp_path, text):
    # the same message as the row walk, or bitwise the same values
    path = tmp_path / "field.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _walk_rows(_MESH, text, path)
    except MeshError as exc:
        with pytest.raises(MeshError) as got:
            ScalarField.from_csv(_MESH, path)
        assert str(got.value) == str(exc)
    else:
        got = ScalarField.from_csv(_MESH, path).values
        assert got.tobytes() == want.tobytes()
