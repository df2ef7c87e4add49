import gc
import json
import weakref

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.errors import NewtonStallError, SingularSystemError
import ckgraph.frontal as frontal
import ckgraph.solver as solver
from ckgraph.frontal import FrontTree
from ckgraph.problemfile import load_problem, load_problem_document
from ckgraph.solver import (SolverOptions, continuation_solve, linear_solve,
                            newton_solve)
from conftest import front_matrix


def test_linear_solve_contract():
    # 200 points in the plane coupled to their six nearest neighbours, a
    # pattern deep enough for several tree heights, nonsymmetric values
    rng = np.random.default_rng(0)
    coords = rng.uniform(size=(200, 2))
    d2 = ((coords[:, None] - coords[None]) ** 2).sum(axis=2)
    near = np.argsort(d2, axis=1)[:, :7]
    dense = np.zeros((200, 200))
    dense[np.arange(200)[:, None], near] = rng.standard_normal(near.shape)
    dense[near, np.arange(200)[:, None]] += rng.standard_normal(near.shape)
    dense += 10 * np.eye(200)
    A = front_matrix(dense, coords)
    assert len({g.height for g in A.tree.classes}) > 2
    x = rng.standard_normal(200)
    b = dense @ x
    assert np.abs(A @ x - b).max() <= 1e-13 * np.abs(b).max()
    sol = linear_solve(A, b)
    assert np.linalg.norm(dense @ sol - b) <= 1e-12 * np.linalg.norm(b)
    # a second solve uses the factors the first one made
    assert np.array_equal(linear_solve(A, b), sol)


def test_linear_solve_singular():
    A = front_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[0.0, 0.0],
                                                                   [1.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        linear_solve(A, np.array([1.0, 0.0]))


def _tridiagonal(n=5):
    """A dense diagonally dominant tridiagonal matrix and its FrontMatrix."""
    dense = 4 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    return dense, front_matrix(dense, coords)


def test_linear_solve_refinement_meets_the_bound(monkeypatch):
    # the first solve is off by 1e-6 relative, beyond the bound; the one
    # refinement step recovers the solution, which is returned
    dense, A = _tridiagonal()
    b = dense @ np.arange(1.0, 6.0)
    solve, calls = frontal.FrontMatrix.solve, []

    def spy(self, rhs):
        calls.append(1)
        x = solve(self, rhs)
        return x * (1 + 1e-6) if len(calls) == 1 else x
    monkeypatch.setattr(frontal.FrontMatrix, "solve", spy)
    x = linear_solve(A, b)
    assert len(calls) == 2
    assert np.linalg.norm(dense @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_linear_solve_non_finite_is_singular(monkeypatch):
    dense, A = _tridiagonal()
    monkeypatch.setattr(frontal.FrontMatrix, "solve",
                        lambda self, rhs: np.full(len(rhs), np.nan))
    with pytest.raises(SingularSystemError, match="non-finite entries"):
        linear_solve(A, dense @ np.ones(5))


def test_front_tree_built_once_per_solve(monkeypatch):
    built = []

    def counted(*args):
        built.append(FrontTree(*args))
        return built[-1]
    monkeypatch.setattr(frontal, "FrontTree", counted)
    solves = []

    def counted_solve(system, rhs):
        solves.append(system.tree)
        return linear_solve(system, rhs)
    monkeypatch.setattr(solver, "linear_solve", counted_solve)
    amb = ck.preset_ambient("killing_flat")
    prob = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.08, amb), 1.0, -np.sqrt(0.84))
    rep = continuation_solve(prob)
    assert rep.status == "converged"
    assert len(built) == 1
    assert len(solves) > 4 and all(t is built[0] for t in solves)


def test_trivial_stage_needs_no_iteration(cmc_problem, radial_problem):
    # z = 0 solves the tau = 0 problem exactly
    for prob in (cmc_problem, radial_problem):
        z, records, clamped, _, _ = newton_solve(prob, 0.0,
                                                 np.zeros(prob.mesh.n_vertices))
        assert len(records) <= 1
        assert not clamped
        assert np.abs(z[prob.mesh.interior_vertices]).max() == 0.0


def test_continuation_reaches_one(cmc_solution, radial_solution):
    for rep in (cmc_solution, radial_solution):
        assert rep.status == "converged"
        assert rep.tau_reached == 1.0
        assert rep.tau_path[0] == 0.0 and rep.tau_path[-1] == 1.0
        assert all(b > a for a, b in zip(rep.tau_path, rep.tau_path[1:]))
        assert len(rep.grad_sup_history) == len(rep.tau_path)
        assert all(g >= 0 for g in rep.grad_sup_history)


def test_solution_accuracy(cmc_solution, cmc_exact):
    assert np.abs(cmc_solution.solution.values - cmc_exact).max() < 5e-4


def test_newton_history_records(cmc_solution):
    assert cmc_solution.newton_history
    for rec in cmc_solution.newton_history:
        assert 0.0 <= rec.tau <= 1.0
        assert rec.residual_norm >= 0.0
        assert rec.damping_halvings >= 0
    # the final stage ends at the tolerance
    last_tau = cmc_solution.newton_history[-1].tau
    finals = [r for r in cmc_solution.newton_history if r.tau == last_tau]
    assert finals[-1].residual_norm <= 1e-10


def test_uniqueness_two_initializations(cmc_problem):
    from ckgraph.analysis import search_height_barrier
    phi_ext = cmc_problem.phi.copy()
    barrier, _ = search_height_barrier(cmc_problem)
    za, *_ = newton_solve(cmc_problem, 1.0, phi_ext)
    zb, *_ = newton_solve(cmc_problem, 1.0, barrier.values.copy())
    assert np.abs(za - zb).max() < 1e-8


def test_stall_reports_best_iterate():
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.1, amb)
    prob = ck.Problem.create(amb, mesh, 1.0, -np.sqrt(0.84))
    opts = SolverOptions(max_newton_iters=1, newton_tol=1e-14)
    with pytest.raises(NewtonStallError) as info:
        newton_solve(prob, 1.0, np.zeros(mesh.n_vertices), opts)
    err = info.value
    assert err.best_iterate.shape == (mesh.n_vertices,)
    assert np.isfinite(err.residual_norm)


def test_chord_step_that_contracts_too_little_is_discarded(monkeypatch, cmc_exact,
                                                           factorizations):
    # with the contraction factor at 0 no chord step is kept: each one is
    # discarded, and a full Newton step at the same iterate follows
    amb = ck.preset_ambient("killing_flat")
    prob = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.04, amb), 1.0,
                             -np.sqrt(0.84))
    asm = prob.assembly()
    residual, solve, events = asm.residual, solver.linear_solve, []

    def traced_residual(z, tau):
        events.append(("residual", z.copy()))
        return residual(z, tau)

    def traced_solve(system, rhs):
        # recorded when it returns, after the factorization it made
        x = solve(system, rhs)
        events.append(("solve", None))
        return x
    monkeypatch.setattr(asm, "residual", traced_residual)
    factorizations(lambda: events.append(("factor", None)))
    monkeypatch.setattr(solver, "linear_solve", traced_solve)
    z_chord, records, *_ = newton_solve(prob, 1.0, cmc_exact)
    # the default factor keeps chord steps here
    assert [k for k, _ in events].count("factor") < len(records)
    events.clear()
    monkeypatch.setattr(solver, "CHORD_CONTRACTION", 0.0)
    z, records, *_ = newton_solve(prob, 1.0, cmc_exact)
    kinds = [k for k, _ in events]
    # after the first full step, each iteration solves a chord step,
    # evaluates its trial, then the iterate again, and factors there
    assert len(records) >= 2
    assert kinds == ["residual", "factor", "solve", "residual"] + [
        "solve", "residual", "residual", "factor", "solve", "residual"
    ] * (len(records) - 1)
    for j in range(4, len(events), 6):
        iterate, trial, again = (events[i][1] for i in (j - 1, j + 1, j + 2))
        assert not np.array_equal(trial, iterate)
        assert np.array_equal(again, iterate)
    assert all(r.damping_halvings == 0 for r in records)
    assert records[-1].residual_norm <= 1e-10
    assert np.abs(z - z_chord).max() <= 1e-9


def test_damped_step_keeps_no_factorization(monkeypatch, cmc_exact, factorizations):
    # from 1.05 times the cap the first step is cut once; the next
    # iteration factors again before any chord step
    amb = ck.preset_ambient("killing_flat")
    prob = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.04, amb), 1.0,
                             -np.sqrt(0.84))
    solve, events = solver.linear_solve, []

    def traced_solve(system, rhs):
        # recorded when it returns, after the factorization it made
        x = solve(system, rhs)
        events.append("solve")
        return x
    factorizations(lambda: events.append("factor"))
    monkeypatch.setattr(solver, "linear_solve", traced_solve)
    _, records, *_ = newton_solve(
        prob, 1.0, 1.05 * cmc_exact,
        on_iteration=lambda rec: events.append(rec.damping_halvings))
    halvings = [r.damping_halvings for r in records]
    assert halvings[0] > 0 and not any(halvings[1:]) and len(records) > 3
    assert events[:6] == ["factor", "solve", halvings[0], "factor", "solve", 0]
    # then chord steps on the second factorization
    assert events.count("factor") == 2


def test_forced_failure_statuses():
    amb = ck.preset_ambient("example_b")     # finite interval end at 1
    mesh = ck.disk_mesh(0.3, 0.1, amb)
    prob = ck.Problem.create(amb, mesh, -20.0, 0.9)
    rep = continuation_solve(prob, SolverOptions(min_tau_step=1e-3))
    assert rep.status in ("stalled", "left_interval")
    assert rep.tau_reached < 1.0
    assert rep.solution is not None          # partial data for the report
    assert rep.message


def test_options_respected(cmc_problem):
    opts = SolverOptions(initial_tau_step=0.5)
    rep = continuation_solve(cmc_problem, opts)
    assert rep.status == "converged"
    steps = np.diff(rep.tau_path)
    assert steps.max() <= 0.5 + 1e-15
    # the step never grows after a halving
    assert all(b <= a + 1e-15 for a, b in zip(steps, steps[1:]))


def test_path_tangent_matches_secant(cmc_problem, cmc_exact):
    # dz/dtau at a converged stage against secants of two converged solves
    ii = cmc_problem.mesh.interior_vertices
    asm = cmc_problem.assembly()
    z_half, _, _, ev, _ = newton_solve(cmc_problem, 0.5, 0.5 * cmc_exact)

    def tangent(evaluation):
        jacobian, rate = asm.system(evaluation, tangent=True)
        return linear_solve(jacobian, -rate)
    dz = tangent(asm.residual(z_half, 0.5)[1])
    # Newton's last element pass gives the same tangent without a new pass
    assert np.array_equal(tangent(ev), dz)
    errs = []
    for d in (0.04, 0.02, 0.01):
        z_d, *_ = newton_solve(cmc_problem, 0.5 + d, z_half)
        errs.append(np.abs((z_d[ii] - z_half[ii]) / d - dz).max())
    assert errs[0] < 1e-3 * np.abs(dz).max()
    # first order in d: halving d halves the secant error
    for a, b in zip(errs, errs[1:]):
        assert 0.4 < b / a < 0.6


def test_stage_count_mesh_independent(cmc_solution):
    # the Euler predictor removes the boundary layer that forced halvings
    amb = ck.preset_ambient("killing_flat")
    mesh = ck.disk_mesh(0.4, 0.02, amb)
    fine = continuation_solve(ck.Problem.create(amb, mesh, 1.0, -np.sqrt(0.84)))
    for rep in (cmc_solution, fine):
        assert rep.status == "converged"
        assert rep.tau_path == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert sum(r.damping_halvings for r in rep.newton_history) == 0


def test_continuation_element_passes_are_line_search_residuals(monkeypatch):
    # Newton hands its last element pass to the next Jacobian or tangent, and
    # the tangent at tau = 0 takes its pass from a residual call, so every
    # element pass is a residual call
    amb = ck.preset_ambient("killing_flat")
    prob = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.08, amb), 1.0, -np.sqrt(0.84))
    asm = prob.assembly()
    calls = {"_evaluate": 0, "residual": 0}

    def counted(name):
        method = getattr(asm, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(asm, name, wrapper)
    counted("_evaluate")
    counted("residual")
    rep = continuation_solve(prob)
    assert rep.status == "converged" and len(rep.tau_path) > 2
    assert calls["_evaluate"] == calls["residual"]


def _without_tangent(monkeypatch, problem):
    """Make the tangent system of ``problem`` fail to solve, through
    whichever factorization solves it."""
    asm = problem.assembly()
    system = asm.system

    def no_tangent(ev, tangent=False):
        jacobian, rate = system(ev, tangent)
        if tangent:
            # a NaN rate: the solve gives non-finite entries and raises
            rate = np.full(jacobian.shape[0], np.nan)
        return jacobian, rate
    monkeypatch.setattr(asm, "system", no_tangent)


def test_tangent_failure_starts_from_previous_solution(monkeypatch, factorizations):
    # without a tangent every stage starts from the last accepted solution,
    # which on this mesh takes 16 stages, 151 Newton iterations, 28 halvings
    # and 53 factorizations (91, 41 and 111 without chord steps); the
    # tangents after tau = 0 fail in the solve with Newton's last
    # factorization, which makes none
    amb = ck.preset_ambient("killing_flat")
    prob = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.04, amb), 1.0,
                             -np.sqrt(0.84))
    _without_tangent(monkeypatch, prob)
    factored = factorizations()
    rep = continuation_solve(prob)
    assert rep.status == "converged"
    assert len(rep.tau_path) - 1 == 16
    assert len(rep.newton_history) == 151
    assert sum(r.damping_halvings for r in rep.newton_history) == 28
    assert len(factored) == 53


@pytest.mark.parametrize("step", [0.25, 1.0])
def test_guess_never_clamps_or_changes_outcome(monkeypatch, step):
    # finite interval end at 1: a guess that would reach the clamp level is
    # not used, so clamping and the failure status come from Newton alone
    newton = solver.newton_solve
    amb = ck.preset_ambient("example_b")
    opts = SolverOptions(initial_tau_step=step, min_tau_step=1e-3)
    level = amb.interval_end - opts.clamp_margin

    def run(with_tangent):
        prob = ck.Problem.create(amb, ck.disk_mesh(0.3, 0.1, amb), -20.0, 0.9)
        ii = prob.mesh.interior_vertices
        starts = []

        def spy(problem, tau, z0, options=None, on_iteration=None):
            starts.append(z0[ii].copy())
            return newton(problem, tau, z0, options, on_iteration)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "newton_solve", spy)
            if not with_tangent:
                _without_tangent(mp, prob)
            return continuation_solve(prob, opts), starts

    rep, starts = run(True)
    base, _ = run(False)
    assert all(s.max() < level for s in starts)
    assert (rep.status, rep.clamped, rep.tau_reached) == \
        (base.status, base.clamped, base.tau_reached)
    assert rep.status == "stalled" and not rep.clamped
    if step == 1.0:
        # dtau * dz reaches past the interval end: the first attempt starts
        # at 0, the halved one from the guess
        assert np.all(starts[0] == 0.0)
        assert np.any(starts[1] != 0.0)


def _ladder_problem(ladder, h):
    if ladder == "cap":
        amb = ck.preset_ambient("killing_flat")
        mesh = ck.disk_mesh(0.4, h, amb)
        r = np.linalg.norm(mesh.vertices, axis=1)
        return ck.Problem.create(amb, mesh, 1.0, -np.sqrt(0.84)), -np.sqrt(1.0 - r**2)
    amb = ck.preset_ambient("euclidean_radial")
    mesh = ck.cap_mesh(1.0, h, amb)
    r = np.linalg.norm(mesh.vertices, axis=1)
    exact = -np.log(np.cos(r)) + np.log(np.cos(1.0))
    return ck.Problem.create(amb, mesh, 0.0, exact), exact


@pytest.mark.parametrize("ladder, sizes", [("cap", (0.04, 0.02, 0.01)),
                                           ("radial", (0.1, 0.05, 0.025))],
                         ids=["cap", "radial"])
def test_convergence_order_ladder(ladder, sizes):
    # second order at each halving of h, so a change that keeps every
    # max-error bound but loses an order of accuracy fails here
    errors = []
    for h in sizes:
        prob, exact = _ladder_problem(ladder, h)
        rep = continuation_solve(prob)
        assert rep.status == "converged"
        errors.append(np.abs(rep.solution.values - exact).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.8), orders


# -- sequenced solve: continuation on a companion, Newton on the target -------

_SEQUENCED = {
    "cap": {"ambient": {"preset": "killing_flat"},
            "domain": {"preset": "disk", "params": {"radius": 0.4}},
            "resolution": 0.02, "H": {"constant": 1.0},
            "phi": {"constant": -float(np.sqrt(0.84))}},
    "radial_sphere": {"ambient": {"preset": "euclidean_radial"},
                      "domain": {"preset": "cap", "params": {"theta0": 1.0}},
                      "resolution": 0.025, "H": {"constant": 0.0},
                      "phi": {"expression":
                              "-log(cos(sqrt(x*x + y*y))) + log(cos(1))"}},
    "annulus": {"ambient": {"preset": "example_a"},
                "domain": {"preset": "annulus",
                           "params": {"r_in": 0.2, "r_out": 0.5}},
                "resolution": 0.03, "H": {"constant": 0.3},
                "phi": {"expression": "-0.5 + 0.1*x"}},
}


def _loaded(name):
    return load_problem_document(_SEQUENCED[name])


@pytest.fixture(scope="module")
def plain_solutions():
    """Today's continuation on the target mesh, per problem."""
    out = {}
    for name in _SEQUENCED:
        loaded = _loaded(name)
        out[name] = continuation_solve(loaded.problem, loaded.options)
        assert out[name].converged and out[name].path == {"kind": "continuation"}
    return out


def _fine_linear_solves(monkeypatch, n_interior):
    sizes = []

    def counted(system, rhs):
        sizes.append(len(rhs))
        return linear_solve(system, rhs)
    monkeypatch.setattr(solver, "linear_solve", counted)
    return lambda: sum(n == n_interior for n in sizes)


@pytest.mark.parametrize("name", list(_SEQUENCED))
def test_sequenced_matches_continuation(name, plain_solutions, monkeypatch):
    loaded = _loaded(name)
    fine = _fine_linear_solves(monkeypatch,
                               len(loaded.problem.mesh.interior_vertices))
    seen = []
    rep = continuation_solve(loaded.problem, loaded.options, seen.append,
                             companion=loaded.companion)
    plain = plain_solutions[name]
    assert rep.converged and rep.path["kind"] == "sequenced"
    assert np.abs(rep.solution.values - plain.solution.values).max() <= 1e-9
    companion = rep.path["companion"]
    assert companion["tau_path"] == plain.tau_path
    assert 4 * companion["vertices"] <= loaded.problem.mesh.n_vertices
    # the report describes the target mesh: one stage, its Newton iterations
    assert rep.tau_path == [0.0, 1.0] and len(rep.grad_sup_history) == 2
    assert seen == rep.newton_history and all(r.tau == 1.0 for r in seen)
    assert rep.newton_history[-1].residual_norm <= 1e-10
    # one linear solve per Newton step: no tangent is solved on the target
    assert fine() == len(rep.newton_history)


@pytest.mark.parametrize("name", ["cap", "radial_sphere"])
def test_sequenced_path_factors_the_target_once(name, factorizations):
    # one full Newton step from the interpolated companion solution, then
    # chord steps on its factorization; the plain march factored the target
    # 12 (cap) and 15 (radial_sphere) times before chord steps
    loaded = _loaded(name)
    factored = factorizations()
    rep = continuation_solve(loaded.problem, loaded.options,
                             companion=loaded.companion)
    assert rep.converged and rep.path["kind"] == "sequenced"
    n_target = len(loaded.problem.mesh.interior_vertices)
    assert factored.count(n_target) == 1
    assert len(rep.newton_history) > 1
    # the companion's march: the tau = 0 tangent and one per Newton solve
    stages = len(rep.path["companion"]["tau_path"]) - 1
    assert len(factored) - 1 == 1 + stages


def _log(records):
    """Newton records as the log lines they write."""
    return [rec.to_json() for rec in records]


def _forced_fallback(monkeypatch, loaded, fail):
    """Run the sequenced solve with ``newton_solve`` failing as ``fail``
    says; return the report and the iterations it logged."""
    newton = solver.newton_solve

    def failing(problem, tau, z0, options=None, on_iteration=None):
        exc = fail(problem is not loaded.problem, tau)
        if exc is not None:
            raise exc
        return newton(problem, tau, z0, options, on_iteration)
    monkeypatch.setattr(solver, "newton_solve", failing)
    seen = []
    rep = continuation_solve(loaded.problem, loaded.options, seen.append,
                             companion=loaded.companion)
    return rep, seen


def test_companion_stall_falls_back(plain_solutions, monkeypatch):
    loaded = _loaded("cap")
    rep, seen = _forced_fallback(monkeypatch, loaded, lambda on_companion, tau: (
        NewtonStallError("forced", best_iterate=np.zeros(1), iterations=1,
                         residual_norm=1.0) if on_companion and tau > 0 else None))
    plain = plain_solutions["cap"]
    assert rep.converged
    assert np.array_equal(rep.solution.values, plain.solution.values)
    assert rep.tau_path == plain.tau_path
    assert _log(rep.newton_history) == _log(plain.newton_history)
    assert rep.path["kind"] == "continuation"
    assert rep.path["fallback"] == "companion continuation stalled"
    assert rep.path["companion"]["tau_path"] == [0.0]
    assert _log(seen) == _log(plain.newton_history)


@pytest.mark.parametrize("error", [
    NewtonStallError("forced stall", best_iterate=np.zeros(1), iterations=1,
                     residual_norm=1.0),
    SingularSystemError("forced singular system"),
    ck.DomainError("forced domain error")], ids=["stall", "singular", "domain"])
def test_target_newton_failure_falls_back(plain_solutions, monkeypatch, error):
    loaded = _loaded("cap")
    first = []

    def fail(on_companion, tau):
        # only the one Newton solve from the interpolated companion solution
        if not on_companion and not first:
            first.append(tau)
            return error
        return None
    rep, seen = _forced_fallback(monkeypatch, loaded, fail)
    plain = plain_solutions["cap"]
    assert first == [1.0]
    assert rep.converged
    assert np.array_equal(rep.solution.values, plain.solution.values)
    assert rep.tau_path == plain.tau_path
    assert _log(rep.newton_history) == _log(plain.newton_history)
    assert rep.path["kind"] == "continuation"
    assert rep.path["fallback"] == str(error)
    assert rep.path["companion"]["tau_path"] == plain.tau_path
    assert _log(seen) == _log(plain.newton_history)


def test_no_companion_keeps_the_plain_path(tmp_path):
    loaded = _loaded("cap")
    mesh = loaded.problem.mesh
    ck.ScalarField(mesh, loaded.problem.phi).to_csv(tmp_path / "phi.csv")
    (tmp_path / "mesh.json").write_text(json.dumps(ck.mesh_to_json(mesh)))
    csv_doc = dict(_SEQUENCED["cap"], phi={"csv": "phi.csv"})
    mesh_doc = {k: v for k, v in _SEQUENCED["cap"].items() if k != "resolution"}
    mesh_doc["domain"] = {"mesh": "mesh.json"}
    for doc in (csv_doc, mesh_doc):
        (tmp_path / "p.json").write_text(json.dumps(doc))
        other = load_problem(tmp_path / "p.json")
        assert other.companion() is None
        rep = continuation_solve(other.problem, other.options,
                                 companion=other.companion)
        assert rep.path == {"kind": "continuation"} and len(rep.tau_path) == 5
    # a target of few rings: the two-ring floor leaves no 4x smaller companion
    small = load_problem_document(dict(_SEQUENCED["cap"], resolution=0.1))
    assert small.companion() is None


def test_companion_freed_before_target_newton(monkeypatch):
    loaded = load_problem_document(dict(_SEQUENCED["cap"], resolution=0.04))
    refs, alive = [], []
    newton = solver.newton_solve

    def built():
        companion = loaded.companion()
        refs.append(weakref.ref(companion))
        refs.append(weakref.ref(companion.assembly()))
        return companion

    def spy(problem, tau, z0, options=None, on_iteration=None):
        if problem is loaded.problem:
            alive.append([r() is not None for r in refs])
        return newton(problem, tau, z0, options, on_iteration)
    monkeypatch.setattr(solver, "newton_solve", spy)
    gc.disable()            # freed by reference counts, not the collector
    try:
        rep = continuation_solve(loaded.problem, loaded.options,
                                 companion=built)
    finally:
        gc.enable()
    assert rep.path["kind"] == "sequenced"
    assert alive == [[False, False]]


def test_no_evaluation_held_through_linear_solve(monkeypatch, factorizations):
    # the target Newton of the sequenced path, from the interpolated
    # companion solution; each factorization starts without an element pass
    loaded = load_problem_document(dict(_SEQUENCED["cap"], resolution=0.04))
    problem = loaded.problem
    start, _, reason = solver._companion_start(problem, loaded.companion(),
                                               loaded.options)
    assert reason == ""
    asm = problem.assembly()
    evaluate, refs, alive = asm._evaluate, [], []

    def kept(z, tau):
        ev = evaluate(z, tau)
        refs.append(weakref.ref(ev))
        return ev

    def spy(system, rhs):
        alive.append(sum(r() is not None for r in refs))
        return linear_solve(system, rhs)
    monkeypatch.setattr(asm, "_evaluate", kept)
    monkeypatch.setattr(solver, "linear_solve", spy)
    factored = factorizations(lambda: sum(r() is not None for r in refs))
    gc.disable()            # freed by reference counts, not the collector
    try:
        *_, ev, _ = newton_solve(problem, 1.0, start, loaded.options)
    finally:
        gc.enable()
    # one factorization, then chord steps, none with an element pass held
    assert factored == [0]
    assert len(alive) >= 2 and alive == [0] * len(alive)
    # the final element pass is still returned, for the path tangent
    assert refs[-1]() is ev


def test_no_evaluation_held_through_march_tangent(monkeypatch):
    # the plain march: each path tangent is assembled from Newton's last
    # element pass, which is dropped before the tangent is solved
    amb = ck.preset_ambient("killing_flat")
    problem = ck.Problem.create(amb, ck.disk_mesh(0.4, 0.04, amb), 1.0,
                                -np.sqrt(0.84))
    asm = problem.assembly()
    evaluate, refs, alive = asm._evaluate, [], []

    def kept(z, tau):
        ev = evaluate(z, tau)
        refs.append(weakref.ref(ev))
        return ev

    def spy(system, rhs):
        alive.append(sum(r() is not None for r in refs))
        return linear_solve(system, rhs)
    monkeypatch.setattr(asm, "_evaluate", kept)
    monkeypatch.setattr(solver, "linear_solve", spy)
    gc.disable()            # freed by reference counts, not the collector
    try:
        rep = continuation_solve(problem)
    finally:
        gc.enable()
    assert rep.converged and len(rep.tau_path) > 2
    assert len(alive) > len(rep.newton_history) and alive == [0] * len(alive)


def test_line_search_ends_when_the_step_stops_moving(monkeypatch):
    # a tolerance below rounding stalls once the Newton step is rounding
    # noise; the cuts then stop when the damped trial equals the iterate, so
    # the residual passes do not grow with the halving limit
    doc = {"ambient": {"preset": "killing_flat"},
           "domain": {"preset": "disk", "params": {"radius": 0.4}},
           "resolution": 0.1, "H": {"constant": 1.0},
           "phi": {"constant": -np.sqrt(0.84)}, "solver": {"newton_tol": 1e-300}}
    residual = ck.operator._Assembly.residual
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return residual(self, *args, **kwargs)
    monkeypatch.setattr(ck.operator._Assembly, "residual", counted)
    outcomes = []
    for limit in (20, 10**4):
        loaded = load_problem_document(doc)
        loaded.options.max_damping_halvings = limit
        calls.clear()
        rep = continuation_solve(loaded.problem, loaded.options,
                                 companion=loaded.companion)
        outcomes.append((rep.status, rep.message, rep.tau_reached, len(calls)))
    (status, message, tau, passes), huge = outcomes
    assert status == "stalled"
    assert message.startswith("Newton stalled at tau=0.0001220703125 after ")
    assert huge[:3] == (status, message, tau)
    assert huge[3] <= passes < 200
