"""End-to-end benchmark of the ckg pipeline: solve, then certify, then verify.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py          # every workload, untraced then traced

Load model: a closed loop with one caller.  Every command runs in its own
child process (``python -m ckgraph.cli`` with ``PYTHONPATH=src``), each one
after the previous has exited, because certify and verify read the
``solution.csv`` that solve writes.  Pipelines repeat while another one
fits in ``--seconds``; timings are medians over them.  A command counts as
failed when it exits non-zero or its output fails the check; a run prints a
FAIL line with its last stderr line for each.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced pipelines with pipelines whose children run through
``tracer.py`` and reports the per-layer metrics, including the cost of the
spans.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

THREADS = 1                # CKG_THREADS of every child; at most nproc anywhere
SETUPS = 5                 # set-ups per run; setup_s is their median
MAX_ERR_BAR = 5e-3         # acceptance criteria 1 and 2 of the program
CHILD_TIMEOUT = 120.0      # seconds before a hung command is killed
DERIVED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

COMMANDS = ("solve", "certify", "verify")

# Every end-to-end metric the run prints, with its unit.  BENCHMARK.json
# bounds the steadier ones.  certify_s and verify_s are printed without a
# bound: on a shared 2-core machine, their run-to-run spread reached 0.27,
# more than the largest bound allowed (0.25).
END_TO_END_UNITS = {"solve_s": "s", "certify_s": "s", "verify_s": "s",
                    "pipeline_s": "s", "max_err": "1", "fail_frac": "1",
                    "peak_rss_mb": "MB", "setup_s": "s"}

CLI_ARGS = {
    "solve": ["solve", "problem.json", "--out", "out"],
    "certify": ["certify", "problem.json", "out/solution.csv"],
    "verify": ["verify", "problem.json", "out/solution.csv"],
}

VERSIONS_PROBE = (
    "import json, platform, numpy, scipy, ckgraph.cli; "
    "print(json.dumps({'python': platform.python_version(), "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")


class SetupError(Exception):
    """The program cannot be started from this checkout."""


@dataclass
class Command:
    name: str
    seconds: float
    rss_mb: float
    code: int
    passed: bool
    wrong: bool                 # exited 0, yet its output fails the check
    spans: dict = None          # the tracer's record, for a traced command


@dataclass
class Pipeline:
    traced: bool
    commands: list = field(default_factory=list)
    max_err: float = None
    n_vertices: int = None
    counts: dict = field(default_factory=dict)   # stages, newton_iters, ...

    @property
    def seconds(self):
        return sum(c.seconds for c in self.commands)


# -- children ---------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    for key in DERIVED_THREAD_VARS:     # let CKG_THREADS set them
        env.pop(key, None)
    env["CKG_THREADS"] = str(THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, cwd: Path, log_stem: str):
    """Run one child to completion; return (seconds, peak RSS in MB, exit
    code, stdout, stderr).  Time runs from spawn to exit."""
    out_path, err_path = cwd / f"{log_stem}.out", cwd / f"{log_stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def setup(workload: str, seed: int, workdir: Path):
    """Write the inputs and warm the interpreter, imports and file cache
    with one untimed child; return (seconds, versions)."""
    start = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    write_inputs(workload, seed, workdir)
    _, _, code, out, err = run_child([sys.executable, "-c", VERSIONS_PROBE],
                                     workdir, "warmup")
    seconds = time.perf_counter() - start
    if code != 0:
        raise SetupError(f"cannot import ckgraph from {ROOT / 'src'}: "
                         f"{_last_line(err)}")
    return seconds, json.loads(out.strip().splitlines()[-1])


# -- output checks ------------------------------------------------------------


def _last_line(text: str) -> str:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def check_solve(pipe: Pipeline, workdir: Path, exact):
    out = workdir / "out"
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        with open(out / "solution.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        errs = [abs(float(r["value"]) - exact(float(r["x"]), float(r["y"])))
                for r in rows]
        with open(out / "log.jsonl", encoding="utf-8") as fh:
            halvings = sum(json.loads(ln)["damping_halvings"] for ln in fh)
        pipe.max_err, pipe.n_vertices = max(errs), len(rows)
        pipe.counts = {"stages": len(report["tau_path"]) - 1,
                       "newton_iters": report["newton_iterations"],
                       "damping_halvings": halvings}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable output: {exc}"
    if report.get("status") != "converged" or report.get("tau_reached") != 1.0:
        return False, (f"status {report.get('status')}, "
                       f"tau_reached {report.get('tau_reached')}")
    if not pipe.max_err <= MAX_ERR_BAR:
        return False, f"max_err {pipe.max_err:.3e} above {MAX_ERR_BAR:g}"
    return True, ""


def check_certify(stdout: str):
    try:
        certs = json.loads(stdout)["certificates"]
        invalid = [k for k, c in certs.items() if c["valid"] is not True]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return False, f"unreadable output: {exc}"
    if not certs or invalid:
        return False, f"certificates not valid: {invalid or 'none issued'}"
    return True, ""


def check_verify(stdout: str):
    try:
        passed = json.loads(stdout)["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable output: {exc}"
    return passed is True, "" if passed is True else "passed is not true"


# -- pipelines --------------------------------------------------------------


def run_pipeline(workload: str, workdir: Path, traced: bool, index: int) -> Pipeline:
    _, exact = WORKLOADS[workload]
    pipe = Pipeline(traced)
    out = workdir / "out"
    if out.exists():
        shutil.rmtree(out)
    for name in COMMANDS:
        if traced:
            spans_path = workdir / f"spans_{name}.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
                    f"{index}.{name}", *CLI_ARGS[name]]
        else:
            argv = [sys.executable, "-m", "ckgraph.cli", *CLI_ARGS[name]]
        seconds, rss, code, stdout, stderr = run_child(argv, workdir, name)
        if name == "solve":
            ok, why = check_solve(pipe, workdir, exact)
        elif name == "certify":
            ok, why = check_certify(stdout)
        else:
            ok, why = check_verify(stdout)
        if not (code == 0 and ok):
            print(f"FAIL {workload} pipeline {index} {name}: exit {code}: "
                  f"{_last_line(stderr) or why}", flush=True)
        spans = None
        if traced:
            try:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                pass            # the layers of this command count as not measured
        pipe.commands.append(Command(name, seconds, rss, code, passed=code == 0 and ok,
                                     wrong=code == 0 and not ok, spans=spans))
    return pipe


def run_pipelines(workload: str, workdir: Path, seconds: float, trace: bool,
                  rng: random.Random):
    """Closed loop of rounds for ``seconds``: a round starts only if a
    round of median length still fits.  An untraced run's round is one
    pipeline; a traced run's is one untraced and one traced pipeline, in an
    order the seed sets."""
    pipelines, rounds = [], []
    start = time.perf_counter()
    while not rounds or \
            time.perf_counter() - start + median(rounds) <= seconds:
        began = time.perf_counter()
        order = [False, True] if trace else [False]
        rng.shuffle(order)
        for traced in order:
            pipelines.append(run_pipeline(workload, workdir, traced,
                                          len(pipelines)))
        rounds.append(time.perf_counter() - began)
    return pipelines


# -- metrics ----------------------------------------------------------------


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def timing(values):
    """(median, note): the note gives the highest percentile that has at
    least ten samples beyond it, and the sample count."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100.0 - p) / 100.0 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return median(values), f"p{p:g} {q[round(p * 10) - 1]:.6g}, n={n}"
    return median(values), f"no percentile has 10 samples beyond it, n={n}"


def end_to_end(pipelines, setups):
    """Metric name -> (value, note)."""
    commands = [c for p in pipelines for c in p.commands]
    out = {f"{name}_s": timing([c.seconds for c in commands if c.name == name])
           for name in COMMANDS}
    out["pipeline_s"] = timing([p.seconds for p in pipelines])
    errs = [p.max_err for p in pipelines if p.max_err is not None]
    out["max_err"] = (max(errs) if errs else None,
                      f"largest over n={len(errs)} solutions")
    failed = sum(not c.passed for c in commands)
    out["fail_frac"] = (failed / len(commands),
                        f"{failed} of {len(commands)} commands")
    rss, note = timing([max(c.rss_mb for c in p.commands) for p in pipelines])
    out["peak_rss_mb"] = (rss, f"largest child per pipeline, median, {note}")
    out["setup_s"] = timing(setups)
    return out


class SpanStats:
    """Per-name totals over the spans of one traced pipeline."""

    def __init__(self, commands):
        self.total, self.self_time, self.calls = {}, {}, {}
        self.ok, self.valid, self.imports = {}, {}, []
        self.missing = set()
        for cmd in commands:
            if cmd.spans is None:
                self.missing.add("*")
                continue
            self.missing.update(cmd.spans["missing"])
            spans = cmd.spans["spans"]
            child_time = [0.0] * len(spans)
            for s in spans:
                if s["parent"] is not None:
                    child_time[s["parent"]] += s["end"] - s["start"]
            for s, inner in zip(spans, child_time):
                name, dur = s["name"], s["end"] - s["start"]
                if name == "cli.import":
                    self.imports.append(dur)
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - inner
                self.calls[name] = self.calls.get(name, 0) + 1
                self.ok[name] = self.ok.get(name, 0) + bool(s["ok"])
                self.valid[name] = self.valid.get(name, 0) + bool(s.get("valid"))

    def measured(self, name):
        return "*" not in self.missing and name not in self.missing

    def time(self, name):
        return self.total.get(name, 0.0) if self.measured(name) else None

    def count(self, name):
        return self.calls.get(name, 0) if self.measured(name) else None

    def ratio(self, num, name):
        calls = self.count(name)
        return num.get(name, 0) / calls if calls else None


# per-layer metric -> span whose summed time per pipeline it reports
LAYER_TIMES = {
    "problemfile.load_s": "problemfile.load",
    "mesh.build_s": "mesh.build",
    "analysis.hypotheses_s": "analysis.hypotheses",
    "cylinder.inf_hk_s": "cylinder.inf_hk",
    "solver.continuation_s": "solver.continuation",
    "solver.linear_solve_s": "solver.linear_solve",
    "operator.residual_s": "operator.residual",
    "operator.curvature_recovery_s": "operator.curvature_recovery",
    "analysis.height_search_s": "analysis.height_search",
    "analysis.boundary_search_s": "analysis.boundary_search",
    "fields.csv_write_s": "fields.csv_write",
    "fields.csv_read_s": "fields.csv_read",
}

# per-layer metric -> span whose calls per pipeline it counts
LAYER_COUNTS = {
    "solver.stage_attempts": "solver.newton",
    "solver.linear_solve_calls": "solver.linear_solve",
    "operator.jacobian_calls": "operator.jacobian",
    "operator.residual_calls": "operator.residual",
    "operator.recovery_calls": "operator.recovery",
    "analysis.barrier_candidates": "analysis.barrier",
}


def pipeline_layers(pipe: Pipeline):
    st = SpanStats(pipe.commands)
    out = {k: st.time(span) for k, span in LAYER_TIMES.items()}
    out.update({k: st.count(span) for k, span in LAYER_COUNTS.items()})
    out["operator.jacobian_s"] = (st.self_time.get("operator.jacobian", 0.0)
                                  if st.measured("operator.jacobian") else None)
    out["solver.stage_accept_ratio"] = st.ratio(st.ok, "solver.newton")
    out["analysis.barrier_accept_ratio"] = st.ratio(st.valid, "analysis.barrier")
    iters = pipe.counts.get("newton_iters")
    calls = out["operator.residual_calls"]
    out["operator.residual_per_iter"] = calls / iters \
        if calls is not None and iters else None
    for key in ("stages", "newton_iters", "damping_halvings"):
        out[f"solver.{key}"] = pipe.counts.get(key)
    return out, st.imports


def per_layer(pipelines, predictions):
    """Metric name -> (value, note); the value is None if not measured."""
    traced = [p for p in pipelines if p.traced]
    rows, imports = [], []
    for p in traced:
        row, imp = pipeline_layers(p)
        rows.append(row)
        imports.extend(imp)
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    out["cli.import_s"] = median(imports)
    # each round is one traced and one untraced pipeline, run back to back
    rounds = list(zip(pipelines[0::2], pipelines[1::2]))
    out["trace.overhead_s"] = median(
        [(a.seconds - b.seconds) * (1 if a.traced else -1) for a, b in rounds])
    n = {"cli.import_s": f"median of {len(imports)} commands",
         "trace.overhead_s": f"median over {len(rounds)} rounds of traced "
                             f"minus untraced pipeline_s"}
    return {k: (v, f"{n.get(k, f'median of {len(rows)} pipelines')}; "
                   f"should move {predictions[k]}")
            for k, v in out.items()}


# -- reporting ----------------------------------------------------------------


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool):
    """One run; prints the report and returns the result object."""
    rng = random.Random(seed)
    workdir = WORK / workload
    setups, versions = [], None
    for _ in range(SETUPS):
        took, versions = setup(workload, seed, workdir)
        setups.append(took)
    pipelines = run_pipelines(workload, workdir, seconds, trace, rng)
    commands = [c for p in pipelines for c in p.commands]
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "ckg_threads": THREADS, "nproc": os.cpu_count(),
              "git_sha": git_sha(), **versions,
              "vertices": pipelines[0].n_vertices}
    print("env " + json.dumps(record), flush=True)

    if trace:
        metrics = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in metrics}
        predictions = json.loads((BENCH / "predictions.json")
                                 .read_text(encoding="utf-8"))["per_layer"]
        values = per_layer(pipelines, predictions)
    else:
        metrics, units = spec["end_to_end"], END_TO_END_UNITS
        values = end_to_end(pipelines, setups)
        counts = pipelines[0].counts
        print(f"  solver counts: stages {counts.get('stages')}, newton_iters "
              f"{counts.get('newton_iters')}, damping_halvings "
              f"{counts.get('damping_halvings')}")
    for name, unit in units.items():
        value, note = values[name]
        shown = "not_measured" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown} {unit} ({note})")
    return {"correct": not any(c.wrong for c in commands),
            "attempted": len(commands),
            "failed": sum(not c.passed for c in commands),
            "metrics": {m["name"]: {"value": values[m["name"]][0],
                                    "unit": m["unit"]} for m in metrics}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    runs = [(args.workload, bool(args.trace))] if args.workload else \
        [(name, trace) for name in names for trace in (False, True)]
    try:
        for workload, trace in runs:
            result = measure(spec, workload, args.seed, args.seconds, trace)
            print(json.dumps(result), flush=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
