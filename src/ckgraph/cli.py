"""Command-line front door: solve / check / certify / verify.

Exit codes: 0 success, 1 input or parameter error, 2 solver stalled,
3 iterates left the flow interval.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (boundary_normal_slope, check_hypotheses,
                       cylinder_monotonicity_probe, height_barrier,
                       max_principle_conditions, search_boundary_barrier,
                       search_height_barrier)
from .errors import DomainError, MeshError, ParameterError, SchemaError
from .fields import ScalarField
from .mesh import _write_mesh_json
from .operator import mean_curvature_of_graph
from .problemfile import LoadedProblem, load_problem
from .solver import continuation_solve

_STATUS_EXIT = {"converged": 0, "stalled": 2, "left_interval": 3}

# errors in the input files or parameters: a message and exit 1
_INPUT_ERRORS = (SchemaError, ParameterError, MeshError, DomainError)


def _dump_json(doc, path=None):
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


def _report_skeleton(status: str):
    return {
        "status": status,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _option_error(args, names, nonnegative=False):
    """The message for the first of the numeric options ``names`` that is
    given but not finite (or, with ``nonnegative``, negative); None when all
    are usable."""
    for name in names:
        value = getattr(args, name)
        if value is None:
            continue
        if not math.isfinite(value):
            return f"--{name} must be a finite number, got {value}"
        if nonnegative and value < 0:
            return f"--{name} must not be negative, got {value}"
    return None


def _run_checks(loaded: LoadedProblem, report: dict):
    """The post-solve checks; the hypothesis check, when asked for, ran
    before the solve."""
    problem = loaded.problem
    if "max_principle" in loaded.checks:
        report["max_principle"] = max_principle_conditions(problem).to_json()
    if "monotonicity" in loaded.checks:
        h = problem.mesh.h
        depths = [2 * h, 4 * h, 6 * h]
        report["monotonicity"] = cylinder_monotonicity_probe(problem, depths)


def _load_solution(args):
    """The problem and the solution CSV that certify and verify read; a
    value at or above the end of the flow interval is refused."""
    loaded = load_problem(args.problem)
    z = ScalarField.from_csv(loaded.problem.mesh, args.solution)
    end = loaded.problem.ambient.interval_end
    bad = np.nonzero(z.values >= end)[0]
    if len(bad):
        v = int(bad[0])
        raise DomainError(f"{args.solution}: vertex {v} value {float(z.values[v])} "
                          f"reaches the interval end {end}")
    return loaded, z


def _os_error(what: str, path, exc: OSError) -> int:
    print(f"error: cannot {what} {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def cmd_solve(args) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _os_error("create the output directory", out, exc)
    report = _report_skeleton("input_error")
    try:
        loaded = load_problem(args.problem)
    except _INPUT_ERRORS as exc:
        report["error"] = str(exc)
        _dump_json(report, out / "report.json")
        raise
    problem = loaded.problem
    # --strict refuses to solve on a failed check, so it always runs it
    if args.strict or "hypotheses" in loaded.checks:
        hyp = check_hypotheses(problem)
        report["hypotheses"] = hyp.to_json()
        if not hyp.passed:
            names = ", ".join(hyp.failing())
            if args.strict:
                report["status"] = "hypotheses_failed"
                report["error"] = f"failing conditions: {names}"
                _dump_json(report, out / "report.json")
                print(f"error: hypothesis check failed ({names})", file=sys.stderr)
                return 1
            print(f"warning: failing conditions: {names}", file=sys.stderr)

    _write_mesh_json(problem.mesh, out / "mesh.json")
    log_path = out / "log.jsonl"
    with open(log_path, "w", encoding="utf-8") as log:
        def on_iteration(rec):
            log.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")

        solve = continuation_solve(problem, loaded.options, on_iteration,
                                   companion=loaded.companion)

    report["status"] = solve.status
    report["path"] = solve.path
    report["tau_reached"] = solve.tau_reached
    report["tau_path"] = solve.tau_path
    report["grad_sup_history"] = solve.grad_sup_history
    report["newton_iterations"] = len(solve.newton_history)
    report["clamped"] = solve.clamped
    if solve.message:
        report["message"] = solve.message
    if solve.solution is not None:
        solve.solution.to_csv(out / "solution.csv")
        report["solution_range"] = [float(solve.solution.values.min()),
                                    float(solve.solution.values.max())]
    _run_checks(loaded, report)
    _dump_json(report, out / "report.json")
    code = _STATUS_EXIT[solve.status]
    print(f"{solve.status}: tau = {solve.tau_reached}, "
          f"{len(solve.newton_history)} Newton iterations")
    return code


def cmd_check(args) -> int:
    hyp = check_hypotheses(load_problem(args.problem).problem)
    _dump_json(hyp.to_json())
    return 0 if hyp.passed else 1


def cmd_certify(args) -> int:
    bad = _option_error(args, ("D", "B", "eps"))
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 1
    loaded, z = _load_solution(args)
    problem = loaded.problem
    report = _report_skeleton("certified")
    certs = {}
    if args.D is not None or args.B is not None:
        if args.D is None or args.B is None:
            raise ParameterError("--D and --B must be given together")
        _, certs["height"] = height_barrier(problem, args.D, args.B, z)
    else:
        _, certs["height"] = search_height_barrier(problem, z)
    _, certs["boundary_lower"] = search_boundary_barrier(
        problem, z, eps=args.eps, upper=False)
    _, certs["boundary_upper"] = search_boundary_barrier(
        problem, z, eps=args.eps, upper=True)
    slopes = boundary_normal_slope(problem, z)
    report["certificates"] = {k: c.to_json() for k, c in certs.items()}
    report["boundary_slope_range"] = [float(slopes.min()), float(slopes.max())]
    ok = all(c.valid for c in certs.values())
    report["status"] = "certified" if ok else "certificate_failed"
    if args.out:
        try:
            _dump_json(report, Path(args.out))
        except OSError as exc:
            return _os_error("write", args.out, exc)
    else:
        _dump_json(report)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    bad = _option_error(args, ("tol",), nonnegative=True)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 1
    loaded, z = _load_solution(args)
    problem = loaded.problem
    H_rec, mask = mean_curvature_of_graph(problem, z)
    if not np.any(mask):
        print("error: no interior vertices with confident recovery",
              file=sys.stderr)
        return 1
    diff = np.abs(H_rec.values[mask] - problem.H.values[mask])
    tol = loaded.verify_tolerance if args.tol is None else args.tol
    out = {
        "max_discrepancy": float(diff.max()),
        "mean_discrepancy": float(diff.mean()),
        "tolerance": tol,
        "checked_vertices": int(mask.sum()),
        "passed": bool(diff.mean() <= tol),
    }
    _dump_json(out)
    return 0 if out["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ckg",
        description="Dirichlet solver for prescribed-mean-curvature graphs "
                    "along a conformal Killing flow")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run the continuation solver")
    s.add_argument("problem")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--strict", action="store_true",
                   help="refuse to solve when a hypothesis check fails")
    s.set_defaults(fn=cmd_solve)

    c = sub.add_parser("check", help="evaluate the solvability conditions")
    c.add_argument("problem")
    c.set_defaults(fn=cmd_check)

    ce = sub.add_parser("certify", help="barrier certificates for a solution")
    ce.add_argument("problem")
    ce.add_argument("solution", help="solution.csv to certify")
    ce.add_argument("--eps", type=float, default=0.05,
                    help="boundary strip width")
    ce.add_argument("--D", type=float, default=None)
    ce.add_argument("--B", type=float, default=None)
    ce.add_argument("--out", default=None, help="write the report here")
    ce.set_defaults(fn=cmd_certify)

    v = sub.add_parser("verify", help="recovered-vs-prescribed curvature")
    v.add_argument("problem")
    v.add_argument("solution")
    v.add_argument("--tol", type=float, default=None)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    # At exit, the collector's final passes would traverse every live object
    # of the process, only for the OS to reclaim the memory; frozen objects
    # are skipped.  Atexit hooks registered before this one still run, after
    # it, and the standard streams are flushed; only objects in reference
    # cycles are left to the OS.  Every file a command writes is closed
    # before it returns.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        # every command's input and parameter errors end here; solve also
        # records its load error in report.json first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone; keep the flush at shutdown quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
