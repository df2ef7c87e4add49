"""Damped Newton iteration with chord steps, and continuation in the load
parameter."""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from .errors import DomainError, NewtonStallError, SingularSystemError
from .fields import ScalarField
from .operator import Problem

__all__ = [
    "CHORD_CONTRACTION", "SolverOptions", "NewtonRecord", "SolveReport",
    "linear_solve", "newton_solve", "continuation_solve",
]


class SolverOptions:
    def __init__(self, newton_tol: float = 1e-10, max_newton_iters: int = 50,
                 initial_tau_step: float = 0.25, min_tau_step: float = 1e-4,
                 damping_factor: float = 0.5, max_damping_halvings: int = 20,
                 clamp_margin: float = 1e-6):
        self.newton_tol, self.max_newton_iters = newton_tol, max_newton_iters
        self.initial_tau_step, self.min_tau_step = initial_tau_step, min_tau_step
        self.damping_factor = damping_factor
        self.max_damping_halvings = max_damping_halvings
        self.clamp_margin = clamp_margin


class NewtonRecord:
    def __init__(self, tau: float, iter: int, residual_norm: float,
                 step_norm: float, damping_halvings: int):
        self.tau, self.iter = tau, iter
        self.residual_norm, self.step_norm = residual_norm, step_norm
        self.damping_halvings = damping_halvings

    def to_json(self):
        return dict(vars(self))


class SolveReport:
    def __init__(self, status: str, solution: Optional[ScalarField],
                 tau_reached: float, tau_path: Optional[List[float]] = None,
                 grad_sup_history: Optional[List[float]] = None,
                 newton_history: Optional[List[NewtonRecord]] = None,
                 clamped: bool = False, message: str = "",
                 path: Optional[dict] = None):
        self.status = status              # converged | stalled | left_interval
        self.solution, self.tau_reached = solution, tau_reached
        self.tau_path = [] if tau_path is None else tau_path
        self.grad_sup_history = [] if grad_sup_history is None else grad_sup_history
        self.newton_history = [] if newton_history is None else newton_history
        self.clamped, self.message = clamped, message
        # which path produced the report (see ``continuation_solve``)
        self.path = {"kind": "continuation"} if path is None else path

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# Deuflhard's contraction monitor (Newton Methods for Nonlinear Problems,
# Springer 2004, ch. 2): a chord step, solved with the Jacobian of the last
# full Newton step, is kept when it cuts the max-norm residual to at most
# this fraction of its value; otherwise the Jacobian is factored anew.
CHORD_CONTRACTION = 0.25


def linear_solve(system, rhs) -> np.ndarray:
    """Solve the ``FrontMatrix`` ``system``, factored on its first solve,
    and check the residual to 1e-12 relative to the right-hand side, after
    one refinement step if need be; raises ``SingularSystemError`` on
    singular or badly conditioned systems."""
    rhs = np.asarray(rhs, dtype=float)
    x = system.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("linear solve produced non-finite entries")
    res = np.linalg.norm(system @ x - rhs)
    bound = 1e-12 * max(np.linalg.norm(rhs), 1.0)
    if res > bound:
        # one step of iterative refinement before giving up
        x = x + system.solve(rhs - system @ x)
        res = np.linalg.norm(system @ x - rhs)
        if res > bound:
            raise SingularSystemError(
                f"linear residual {res:.3e} exceeds bound {bound:.3e}")
    return x


def _clamp(z, problem: Problem, options: SolverOptions):
    cap = problem.ambient.interval_end - options.clamp_margin
    if math.isfinite(cap) and np.any(z > cap):
        return np.minimum(z, cap), True
    return z, False


def newton_solve(problem: Problem, tau: float, z0: np.ndarray,
                 options: Optional[SolverOptions] = None,
                 on_iteration: Optional[Callable] = None):
    """Damped Newton iteration at fixed ``tau``, with chord steps.

    Boundary values are imposed strongly as ``tau * phi``.  A full step
    solves with the Jacobian at the iterate, factored by that solve, and
    backtracks until the residual falls.  When no cut was needed, that
    Jacobian is kept, and the next iterations try chord steps with it: a
    chord step is kept when it cuts the residual to at most
    ``CHORD_CONTRACTION`` times its value; otherwise it is discarded, with
    the kept Jacobian, and a full step is taken at the same iterate.  Each
    kept step is one iteration and one record; a chord step's
    ``damping_halvings`` is 0.

    Returns ``(z, records, clamped, evaluation, jacobian)``: the element
    pass at the returned ``z`` and the factored Jacobian kept for chord
    steps (None if none is kept).  Raises ``NewtonStallError`` with the
    last iterate, which is also the best: a step is accepted only when the
    residual falls.  One factored Jacobian and one element pass are the
    most that is held at once.
    """
    options = options or SolverOptions()
    asm = problem.assembly()
    mesh = problem.mesh
    z = np.asarray(z0, dtype=float).copy()
    z[mesh.boundary_vertices] = tau * problem.phi[mesh.boundary_vertices]
    z, clamped = _clamp(z, problem, options)
    ii = asm.interior
    records = []

    def attempt(alpha, step):
        """The trial ``z + alpha * step``, clamped, whether it was clamped,
        and its residual norm, residual and element pass.  The trial is None
        when it equals ``z``, its norm then that of ``z``; outside the
        interval the norm is inf, with no residual or pass."""
        trial = z.copy()
        trial[ii] += alpha * step
        trial, was_clamped = _clamp(trial, problem, options)
        if np.array_equal(trial, z):
            # the step no longer moves any unknown, nor can a shorter one
            return None, was_clamped, rnorm, None, None
        try:
            r, ev = asm.residual(trial, tau)
        except DomainError:
            return trial, was_clamped, math.inf, None, None
        return trial, was_clamped, float(np.abs(r).max()), r, ev

    r, ev = asm.residual(z, tau)
    rnorm = float(np.abs(r).max())
    kept = None
    for it in range(1, options.max_newton_iters + 1):
        if rnorm <= options.newton_tol:
            return z, records, clamped, ev, kept
        alpha, halvings = 1.0, 0
        if kept is not None:
            ev = None       # the trial's element pass is the one held
            step = linear_solve(kept, -r)
            trial, was_clamped, trial_norm, trial_r, trial_ev = attempt(alpha, step)
            if trial_norm > CHORD_CONTRACTION * rnorm:
                # too little contraction: a full step at the same iterate
                kept = trial_r = trial_ev = None
                r, ev = asm.residual(z, tau)
        if kept is None:
            kept, _ = asm.system(ev)
            ev = None       # the element pass is not held through the factorization
            step = linear_solve(kept, -r)
            while True:
                trial, was_clamped, trial_norm, trial_r, trial_ev = attempt(alpha, step)
                if trial is None or trial_norm < rnorm \
                        or halvings >= options.max_damping_halvings:
                    break
                # a damped step keeps no factorization
                kept = trial_r = trial_ev = None
                alpha *= options.damping_factor
                halvings += 1
            if not trial_norm < rnorm:
                raise NewtonStallError(
                    f"Newton stalled at tau={tau} after {it} iterations "
                    f"(residual {rnorm:.3e})",
                    best_iterate=z, iterations=it, residual_norm=rnorm)
        z, rnorm, r, ev = trial, trial_norm, trial_r, trial_ev
        del trial_r, trial_ev
        clamped = clamped or was_clamped
        rec = NewtonRecord(tau, it, rnorm, float(alpha * np.abs(step).max()),
                           halvings)
        records.append(rec)
        if on_iteration is not None:
            on_iteration(rec)
    if rnorm <= options.newton_tol:
        return z, records, clamped, ev, kept
    raise NewtonStallError(
        f"Newton did not reach tolerance at tau={tau} "
        f"(residual {rnorm:.3e} after {options.max_newton_iters} iterations)",
        best_iterate=z, iterations=options.max_newton_iters,
        residual_norm=rnorm)


def continuation_solve(problem: Problem,
                       options: Optional[SolverOptions] = None,
                       on_iteration: Optional[Callable] = None,
                       companion: Optional[Callable[[], Optional[Problem]]] = None
                       ) -> SolveReport:
    """Solve at ``tau = 1``, by the continuation march below or, with a
    ``companion``, by nested iteration (Bank & Rose, 1982).

    ``companion()`` returns the same problem on a coarser mesh of the same
    domain, or None.  The march then runs on the companion, its solution is
    interpolated to this mesh (``ScalarField.at``; boundary vertices take
    ``phi``), the companion is freed, and Newton at ``tau = 1`` starts from
    there.  That report describes this mesh: ``tau_path`` is
    ``[0.0, 1.0]``, one stage from the trivial solution, and
    ``newton_history`` holds the iterations of that one Newton solve;
    ``path`` is ``{"kind": "sequenced", "companion": ...}`` with the
    companion's vertex count, ``tau_path`` and Newton iteration count.
    If the companion's march does not converge, or that Newton raises, the
    march runs on this mesh as it does without a companion, and ``path``
    also gives the reason as ``fallback``.  ``on_iteration`` sees the
    iterations on this mesh only.
    """
    options = options or SolverOptions()
    built = companion() if companion is not None else None
    if built is None:
        return _march(problem, options, on_iteration)
    start, summary, fallback = _companion_start(problem, built, options)
    del built           # the companion's mesh, assembly and tree go here
    if start is not None:
        try:
            z, records, clamped, _, _ = newton_solve(problem, 1.0, start,
                                                     options, on_iteration)
        except (NewtonStallError, SingularSystemError, DomainError) as exc:
            fallback = str(exc)
        else:
            report = SolveReport(
                status="converged", solution=ScalarField(problem.mesh, z),
                tau_reached=1.0, tau_path=[0.0, 1.0],
                # z = 0 at tau = 0
                grad_sup_history=[0.0, problem.assembly().grad_sup(z)],
                newton_history=records, clamped=clamped,
                path={"kind": "sequenced", "companion": summary})
            return _converged(report)
    report = _march(problem, options, on_iteration)
    report.path = {"kind": "continuation", "companion": summary,
                   "fallback": fallback}
    return report


def _companion_start(problem: Problem, companion: Problem,
                     options: SolverOptions):
    """The companion's march: its solution interpolated to the interior of
    ``problem`` (None if the march did not converge), a summary (companion
    vertices, ``tau_path``, Newton iterations) and the reason it cannot
    start ``problem`` ("" when it can)."""
    solve = _march(companion, options, None)
    summary = {"vertices": companion.mesh.n_vertices, "tau_path": solve.tau_path,
               "newton_iterations": len(solve.newton_history)}
    if not solve.converged:
        return None, summary, f"companion continuation {solve.status}"
    mesh = problem.mesh
    start = np.zeros(mesh.n_vertices)
    ii = mesh.interior_vertices
    start[ii] = solve.solution.at(mesh.vertices[ii])
    return start, summary, ""


def _march(problem: Problem, options: SolverOptions,
           on_iteration: Optional[Callable]) -> SolveReport:
    """March ``tau`` from 0 to 1 with step halving on Newton failure.

    ``z = 0`` solves the ``tau = 0`` problem exactly, so the march starts
    there.  Each stage starts Newton from the Euler predictor
    ``z + dtau * dz/dtau``, with the tangent computed once at the last
    accepted solution, with the Jacobian its Newton solve kept; it
    starts from that solution itself when the tangent is unavailable or the
    guess would reach the clamp level, so a guess never clamps.  The step
    never grows back; statuses are ``converged``, ``stalled`` (step
    underflow) and ``left_interval`` (iterates pushed to the interval end).
    """
    asm = problem.assembly()
    mesh = problem.mesh
    ii = asm.interior
    clamp_level = problem.ambient.interval_end - options.clamp_margin
    z = np.zeros(mesh.n_vertices)
    report = SolveReport(status="converged", solution=None, tau_reached=0.0)
    report.tau_path.append(0.0)
    report.grad_sup_history.append(asm.grad_sup(z))

    tau, step = 0.0, options.initial_tau_step
    # the element pass at the last accepted solution and the factored
    # Jacobian Newton kept there, for the next tangent
    _, evaluation = asm.residual(z, tau)
    kept = None
    while tau < 1.0:
        if evaluation is not None:
            # the tangent solves J_ii dz = -(dR_i/dtau + J_ib phi_b), with
            # Newton's last factored Jacobian, as it is a predictor only; its
            # own matrix is factored at tau = 0 and when Newton kept none.
            # Neither the element pass nor a factorization is held past the
            # tangent: peak memory
            jacobian, rate = asm.system(evaluation, tangent=True)
            jacobian = kept or jacobian
            evaluation = kept = None
            try:
                tangent = linear_solve(jacobian, -rate)
            except SingularSystemError:
                tangent = None
            del jacobian, rate
        target = min(1.0, tau + step)
        start = z
        if tangent is not None:
            guess = z.copy()
            guess[ii] += (target - tau) * tangent
            if not np.any(guess[ii] >= clamp_level):
                start = guess
        try:
            z_new, records, clamped, evaluation, kept = newton_solve(
                problem, target, start, options, on_iteration)
        except (NewtonStallError, SingularSystemError, DomainError) as exc:
            step *= 0.5
            if step < options.min_tau_step:
                hit_end = False
                if isinstance(exc, NewtonStallError):
                    cap = problem.ambient.interval_end - 10 * options.clamp_margin
                    hit_end = math.isfinite(cap) and bool(
                        np.any(exc.best_iterate > cap))
                if isinstance(exc, DomainError):
                    hit_end = True
                report.status = "left_interval" if hit_end else "stalled"
                report.tau_reached = tau
                report.solution = ScalarField(mesh, z)
                report.message = str(exc)
                return report
            continue
        report.newton_history.extend(records)
        report.clamped = report.clamped or clamped
        tau, z = target, z_new
        report.tau_path.append(tau)
        report.grad_sup_history.append(asm.grad_sup(z))
    report.tau_reached = 1.0
    report.solution = ScalarField(mesh, z)
    return _converged(report)


def _converged(report: SolveReport) -> SolveReport:
    """``report`` of a solve that reached ``tau = 1``; a clamped one says so
    in its message."""
    if report.clamped:
        report.message = "iterates were clamped below the interval end"
    return report
