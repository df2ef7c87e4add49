import csv

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.errors import MeshError
from ckgraph.fields import ScalarField

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
    # files the bulk parse declines go through the row walk; both give the
    # same values
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

