"""Benchmark of the cdmac engine, run from the root of a source checkout:

    python3 perfbench/run.py --workload compute --seed 0 --seconds 20 --trace 0

Workloads are defined in workloads.py and explained in NOTES.md.  One
single-threaded process imports the program from ./src and drives it through
its public entry points.

--trace 0 times the workload with tracing off: set-up is repeated and its
median reported, then whole passes over the workload's case list run until
the next pass would end after --seconds (at least one pass).  --trace 1 runs
one untraced pass and one traced pass and reports the per-layer metrics from
spans.py.  Every op's output is checked; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A full record (the
environment, one row per case, the span tree) goes to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

PROCESS_START = time.monotonic()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_sha256.json"
RESULTS = HERE / "results"

import spans  # noqa: E402  (the benchmark's own modules sit beside this file)
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

MODULES = ("cli", "verify", "macdonald", "walgebra", "tableaux", "scalar", "poly",
           "laurent", "koornwinder", "qseries")
SETUP_TRIALS = 21
OP_DEADLINE_S = 60.0   # an op still running after this counts as failed
RUN_CAP_S = 150.0      # no op may run past this point of the process's life


class OpDeadline(BaseException):
    """Raised into a running op by SIGALRM; BaseException so that no
    `except Exception` in the program swallows it."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_program() -> dict:
    """Import the program afresh from ./src (previous imports are dropped)."""
    for name in [n for n in sys.modules if n == "cdmac" or n.startswith("cdmac.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"cdmac.{m}") for m in MODULES}


def set_up(workload: str, seed: int):
    t0 = time.perf_counter()
    mods = load_program()
    reference = json.loads(REFERENCE.read_text())
    cases = workloads.build_cases(workload, seed, reference)
    return time.perf_counter() - t0, mods, cases


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _with_deadline(fn, seconds: float):
    def alarm(signum, frame):
        raise OpDeadline()
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(cases, mods, order):
    """Run every case once in the given order: (pass seconds, per-case
    seconds, per-case raw result or the Outcome of a failure)."""
    times, raws = [0.0] * len(cases), [None] * len(cases)
    t_pass = time.perf_counter()
    for i in order:
        budget = min(OP_DEADLINE_S, RUN_CAP_S - (time.monotonic() - PROCESS_START))
        t0 = time.perf_counter()
        try:
            if budget <= 0:
                raise OpDeadline()
            raws[i] = _with_deadline(lambda: cases[i].run(mods), budget)
        except OpDeadline:
            raws[i] = Outcome("deadline", detail=f"not done within {budget:.1f} s")
        except Exception:  # an op that raises is a failed op; the run goes on
            raws[i] = Outcome("error", detail=traceback.format_exc(limit=-3)[-600:])
        times[i] = time.perf_counter() - t0
    return time.perf_counter() - t_pass, times, raws


def judge(case, raw) -> Outcome:
    if isinstance(raw, Outcome):
        return raw
    try:
        return case.judge(raw)
    except Exception:  # malformed output
        return Outcome("error", detail=traceback.format_exc(limit=-3)[-600:])


def parse_back(cases, mods, outcomes) -> dict:
    """Outside every metric: each compute case's printed polynomial, read
    back, must equal the inversion route.  Returns {case id: problem}."""
    problems = {}
    for case, out in zip(cases, outcomes):
        if not isinstance(case, workloads.ComputeCase) or out.status != "ok":
            continue
        try:
            if not case.parse_back(mods, out.stdout):
                problems[case.id] = "parsed output != lassalle_invert"
        except Exception:
            problems[case.id] = traceback.format_exc(limit=-3)[-600:]
    return problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of ./.git read directly (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def emit(args, correct, attempted, failed, metrics, record):
    record.update({"environment": environment(args), "correct": correct,
                   "attempted": attempted, "failed": failed, "metrics": metrics})
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    env = record["environment"]
    print(f"# python {env['python']}, nproc {env['nproc']}, commit {env['git_commit']}, "
          f"workload {args.workload}, seed {args.seed}")
    print(f"# {'case':<58} {'median_s':>9} {'n':>3}  status")
    for row in record["rows"]:
        print(f"  {row['case']:<58} {row['median_s']:>9.4f} {row['samples']:>3}  "
              f"{','.join(sorted(set(row['statuses'])))}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if "pass_times_s" in record:
        print(f"  pass_s samples = {len(record['pass_times_s'])} passes")
    print(f"  ops_failed = {failed}/{attempted} ops ({failed / attempted:.4f}), "
          f"correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def summarize(cases, times_per_pass, outcomes_per_pass, problems):
    """One row per case, the failure tally and the correctness verdict."""
    rows, attempted, failed, correct = [], 0, 0, True
    for i, case in enumerate(cases):
        statuses = []
        for outcomes in outcomes_per_pass:
            status = outcomes[i].status
            if case.id in problems and status == "ok":
                status = "wrong"
            statuses.append(status)
            attempted += 1
            failed += status != "ok"
            # deadlines and the documented thm_2_2 defect fail the op without
            # showing a wrong result
            correct = correct and status in ("ok", "known-defect", "deadline")
        details = sorted({o[i].detail for o in outcomes_per_pass if o[i].detail})
        if case.id in problems:
            details.append(problems[case.id])
        rows.append({"case": case.id,
                     "median_s": statistics.median(t[i] for t in times_per_pass),
                     "samples": len(times_per_pass),
                     "times_s": [t[i] for t in times_per_pass],
                     "statuses": statuses, "details": details})
    return rows, attempted, failed, correct


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def measure(args):
    """--trace 0: the end-to-end metrics."""
    setups, mods, cases = [], None, None
    for _ in range(SETUP_TRIALS):
        mods = cases = None
        gc.collect()  # free the previous copy, so copies do not add to peak_rss_mb
        dt, mods, cases = set_up(args.workload, args.seed)
        setups.append(dt)
    pass_times, times_per_pass, outcomes_per_pass = [], [], []
    while True:
        order = workloads.pass_order(len(cases), args.seed, len(pass_times))
        dt, times, raws = run_pass(cases, mods, order)
        pass_times.append(dt)
        times_per_pass.append(times)
        outcomes_per_pass.append([judge(c, r) for c, r in zip(cases, raws)])
        if sum(pass_times) + dt > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = parse_back(cases, mods, outcomes_per_pass[-1])
    rows, attempted, failed, correct = summarize(cases, times_per_pass,
                                                 outcomes_per_pass, problems)
    geomean = math.exp(statistics.fmean(math.log(r["median_s"]) for r in rows))
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(statistics.median(pass_times), "s"),
        "case_s.geomean": _metric(geomean, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    record = {"rows": rows, "setup_trials_s": setups, "pass_times_s": pass_times}
    emit(args, correct, attempted, failed, metrics, record)


def _bindings() -> dict:
    """Every attribute of the program's modules and classes, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "cdmac" or name.startswith("cdmac."):
            for attr, value in list(vars(mod).items()):
                out[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for a, v in vars(value).items():
                        out[(name, attr, a)] = id(v)
    return out


def trace(args):
    """--trace 1: an untraced and a traced pass, and the per-layer metrics."""
    _, mods, cases = set_up(args.workload, args.seed)
    order = workloads.pass_order(len(cases), args.seed, 0)
    plain_s, plain_times, plain_raws = run_pass(cases, mods, order)
    plain = [judge(c, r) for c, r in zip(cases, plain_raws)]
    before = _bindings()
    tracer = spans.Tracer(mods)
    with tracer.active():
        traced_s, traced_times, traced_raws = run_pass(cases, mods, order)
    if _bindings() != before:
        raise SystemExit("tracing left a patched attribute behind")
    traced = [judge(c, r) for c, r in zip(cases, traced_raws)]
    problems = parse_back(cases, mods, traced)
    for case, a, b in zip(cases, plain, traced):
        if a.digest != b.digest and case.id not in problems:
            problems[case.id] = "traced output differs from untraced output"
    rows, attempted, failed, correct = summarize(
        cases, [plain_times, traced_times], [plain, traced], problems)

    metrics = {}
    self_total = 0.0
    for name in spans.SPANS:
        calls, total, own = tracer.layer(name)
        self_total += own
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(own, "s")
        metrics[f"{name}.total_s"] = _metric(total, "s")
    for name, value in tracer.counts.items():
        unit = {"poly.output.coef_bits_max": "bits", "laurent.format.bytes": "bytes"}
        metrics[name] = _metric(value, unit.get(name, "count"))
    gcd_calls = metrics["poly.poly_gcd.calls"]["value"]
    metrics["poly.poly_gcd.useful_ratio"] = _metric(
        metrics["poly.poly_gcd.useful"]["value"] / gcd_calls if gcd_calls else 0.0, "ratio")
    metrics["trace.pass_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    metrics["trace.outside_s"] = _metric(traced_s - self_total, "s")
    metrics["ops_failed"] = _metric(failed / attempted, "ratio")
    record = {"rows": rows, "untraced_pass_s": plain_s, "span_tree": tracer.tree(),
              "hook_s": tracer.hook_s}
    emit(args, correct, attempted, failed, metrics, record)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "cdmac" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    (trace if args.trace else measure)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
