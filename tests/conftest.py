import math

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.mesh import _hat_gradients


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
