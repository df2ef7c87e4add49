import math
import os
import tracemalloc

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.frontal import FrontMatrix, FrontTree
from ckgraph.mesh import _hat_gradients


def child_env(base=None):
    """Environment for a child process that runs ckgraph: ``base``
    (default: this process's environment) with ``PYTHONPATH`` at the package
    under test and RuntimeWarnings made errors, as the suite's
    ``filterwarnings`` makes them in this process, so a child that warns
    fails however it exits."""
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(ck.__file__)))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def central_difference(f, x, step, direction=1):
    """The central difference of ``f`` at ``x`` along ``direction``,
    ``(f(x + step d) - f(x - step d)) / (2 step)``."""
    return (f(x + step * direction) - f(x - step * direction)) / (2 * step)


def front_matrix(dense, coords):
    """``dense`` on its own nonzeros as a ``FrontMatrix`` on the points
    ``coords``: one (row, column) pair per nonzero, in CSC order, so the
    matrix's ``data`` is its values in pair order."""
    cols, rows = np.nonzero(dense.T)
    return FrontMatrix(FrontTree(rows, cols, coords), dense[rows, cols])


@pytest.fixture(scope="session")
def cmc_problem():
    """Spherical-cap problem: flat ambient, disk of radius 0.4, H = 1,
    constant boundary data; exact solution -sqrt(1 - r^2)."""
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.04, amb)
    phi = -np.sqrt(0.84)
    return ck.Problem.create(amb, mesh, 1.0, phi)


@pytest.fixture(scope="session")
def cmc_solution(cmc_problem):
    report = ck.continuation_solve(cmc_problem)
    assert report.status == "converged"
    return report


@pytest.fixture(scope="session")
def cmc_exact(cmc_problem):
    r = np.linalg.norm(cmc_problem.mesh.vertices, axis=1)
    return -np.sqrt(1.0 - r**2)


@pytest.fixture(scope="session")
def radial_problem():
    """Radial graph in Euclidean space written over a spherical cap:
    lambda = e^t over the round leaf, H = 0; exact solution
    -ln cos(theta) + ln cos(1)."""
    amb = ck.preset_ambient("euclidean_radial")
    mesh = ck.cap_mesh(1.0, 0.1, amb)
    r = np.linalg.norm(mesh.vertices, axis=1)
    zex = -np.log(np.cos(r)) + np.log(np.cos(1.0))
    return ck.Problem.create(amb, mesh, 0.0, zex)


@pytest.fixture(scope="session")
def radial_exact(radial_problem):
    r = np.linalg.norm(radial_problem.mesh.vertices, axis=1)
    return -np.log(np.cos(r)) + np.log(np.cos(1.0))


@pytest.fixture(scope="session")
def radial_solution(radial_problem):
    report = ck.continuation_solve(radial_problem)
    assert report.status == "converged"
    return report


def _boundary_flux(problem, z):
    """Variationally consistent total boundary flux of ``grad z / U``.

    An independent (non-vectorized) pass testing the divergence term against
    the boundary hat functions; the reference of the flux-balance checks,
    which pair it with the vectorized assembly.
    """
    amb, mesh = problem.ambient, problem.mesh
    G, A = _hat_gradients(mesh.vertices, mesh.triangles)
    is_b = mesh.is_boundary
    zv = z.values
    total = 0.0
    for e, tri in enumerate(mesh.triangles):
        if not is_b[tri].any():
            continue
        cent = mesh.vertices[tri].mean(axis=0)
        S = amb.base_metric(cent)
        Sinv = np.linalg.inv(S)
        sd = math.sqrt(np.linalg.det(S))
        gz = sum(zv[tri[a]] * G[e, a] for a in range(3))
        U = math.sqrt(float(amb.gamma(cent)) + gz @ Sinv @ gz)
        for a in range(3):
            if is_b[tri[a]]:
                total += A[e] * sd * (G[e, a] @ Sinv @ gz) / U
    return float(total)


@pytest.fixture(scope="session")
def boundary_flux():
    """``boundary_flux(problem, z)``: the scalar-loop boundary flux."""
    return _boundary_flux


def _former_suspects(mesh, ambient):
    """The former eager cut-locus flags, kept as a reference: |grad d| in
    the inverse centroid metric from ``np.linalg.inv``."""
    G, _ = _hat_gradients(mesh.vertices, mesh.triangles)
    gd = np.einsum("eai,ea->ei", G, mesh.dist_to_boundary[mesh.triangles])
    Sinv = np.linalg.inv(ambient.base_metric(mesh.vertices[mesh.triangles].mean(axis=1)))
    norm = np.sqrt(np.einsum("ei,eij,ej->e", gd, Sinv, gd))
    return np.abs(norm - 1.0) > 10.0 * mesh.h


@pytest.fixture(scope="session")
def former_suspects():
    """``former_suspects(mesh, ambient)``: the former eager suspect flags."""
    return _former_suspects


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it held beyond what was allocated
    before the call, as tracemalloc sees them (NumPy reports its buffers)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: the result of the call and its peak of
    traced memory in bytes."""
    return _traced_peak


@pytest.fixture
def factorizations(monkeypatch):
    """``factorizations(note=None)``: from the call on, every multifrontal
    factorization (``FrontTree.factor``, the one a ``FrontMatrix`` makes on
    its first solve) appends to the returned list the size of the factored
    system, or the value of ``note()`` if given."""
    def count(note=None):
        made, factor = [], FrontTree.factor

        def counted(tree, data):
            made.append(tree.n if note is None else note())
            return factor(tree, data)
        monkeypatch.setattr(FrontTree, "factor", counted)
        return made
    return count
