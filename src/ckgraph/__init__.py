"""Dirichlet problems for prescribed-mean-curvature graphs along a
conformal Killing flow: geometry, finite elements, continuation solver,
and solvability certificates."""

import os as _os

if "CKG_THREADS" in _os.environ:
    _v = _os.environ["CKG_THREADS"]
    for _k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_k, _v)

from .ambient import (AmbientSpace, PRESET_NAMES, flat_metric,
                      leaf_mean_curvature, preset_ambient, round_sphere_metric)
from .analysis import (BarrierCertificate, HypothesisReport,
                       boundary_barrier, check_hypotheses, cylinder_kappa,
                       cylinder_mean_curvature, cylinder_monotonicity_probe,
                       height_barrier, inf_boundary_cylinder_curvature,
                       max_principle_conditions, search_boundary_barrier,
                       search_height_barrier, upper_barrier_check)
from .errors import (DomainError, MeshError, NewtonStallError, ParameterError,
                     SchemaError, SingularSystemError)
from .fields import ScalarField
from .mesh import (DomainMesh, annulus_mesh, cap_mesh, disk_mesh,
                   mesh_from_arrays, mesh_from_json, mesh_to_json)
from .operator import Problem, SparseSystem, mean_curvature_of_graph
from .problemfile import LoadedProblem, load_problem
from .solver import (NewtonRecord, SolveReport, SolverOptions,
                     continuation_solve, linear_solve, newton_solve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
