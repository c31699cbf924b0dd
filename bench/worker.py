"""One benchmark pass, in its own process.

Usage: python3 bench/worker.py '<json request>'

The request names the workload, seed, pass index, whether to trace and
whether to attempt the over-cap probes.  The pass sets up (import,
problem generation, file parsing) SETUP_REPEATS times, then runs each
operation through ``holozeta.cli.run([..., '--json'])`` under a wall cap,
checks every answer after the clock has stopped, and prints one JSON line.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
SETUP_REPEATS = 15
OP_CAP_S = 60.0       # per-operation wall cap for the timed operations
PROBE_CAP_S = 10.0    # wall cap for the known over-cap operations
SHORT_OP_S = 0.5      # untraced operations faster than this ...
REPEATS = 4           # ... run this many more times after the pass


class OverCap(BaseException):
    """Raised by the per-operation timer.

    Derives from BaseException so that neither ``cli.run``'s handlers
    (GBTimeout, InputError, OSError, ValueError) nor any ``except Exception``
    in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise OverCap()


def _purge_holozeta():
    for name in [m for m in sys.modules if m == "holozeta" or m.startswith("holozeta.")]:
        del sys.modules[name]


def set_up(names, seed, workdir):
    """Import holozeta afresh, write the problem files and parse each one."""
    _purge_holozeta()
    t0 = time.perf_counter()
    cli = importlib.import_module("holozeta.cli")
    paths = workloads.write_problems(names, seed, workdir)
    for path in paths.values():
        cli.ProblemFile.load(path)
    return time.perf_counter() - t0, cli, paths


def run_op(cli, argv, cap):
    """(seconds, stdout, error or None) of one CLI call under a wall cap."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        if rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    except OverCap:
        error = f"over the {cap:g} s cap"
    except Exception as exc:        # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    return elapsed, out.getvalue(), error


def run_pass(cli, ops, paths, references, tracer=None):
    """Time every operation, then check the answers; returns per-op records.

    Without a tracer, an operation that took under SHORT_OP_S runs REPEATS
    more times after the pass, and its time is the median of all its runs:
    millisecond operations vary most from run to run.  With a tracer, each
    record carries the seconds the operation spent in each Groebner stage
    and in rational_roots.
    """
    timed = []
    t0 = time.perf_counter()
    with tracer or contextlib.nullcontext():
        for op in ops:
            before = tracer.seconds_by_stage() if tracer else {}
            seconds, text, error = run_op(cli, op.argv(paths[op.problem]), OP_CAP_S)
            after = tracer.seconds_by_stage() if tracer else {}
            stages = {k: v - before.get(k, 0.0) for k, v in after.items()}
            timed.append((op, seconds, text, error, stages))
    pass_s = time.perf_counter() - t0
    records = []
    for op, seconds, text, error, stages in timed:
        if error is None and tracer is None and seconds < SHORT_OP_S:
            runs = [run_op(cli, op.argv(paths[op.problem]), OP_CAP_S) for _ in range(REPEATS)]
            bad = [e or "another answer" for _, t, e in runs if e is not None or t != text]
            if bad:
                error = f"a repeated run failed: {bad[0]}"
            seconds = statistics.median([seconds] + [s for s, _, _ in runs])
        if error is None:
            error = checks.check(op, text, references)
        record = {"op": op.key, "s": seconds, "error": error}
        if tracer is not None:
            record["stages"] = {k: v for k, v in stages.items() if v > 0}
        records.append(record)
    return pass_s, records


def run_probes(cli, paths, references):
    """Attempt the known over-cap operations; check any that finish."""
    records = []
    for op in workloads.OVER_CAP_PROBES:
        seconds, text, error = run_op(cli, op.argv(paths[op.problem]), PROBE_CAP_S)
        if error is None:
            error = checks.check(op, text, references)
        records.append({"op": op.key, "s": seconds, "error": error})
    return records


def main(request):
    workload, seed = request["workload"], request["seed"]
    ops = workloads.pass_order(workloads.operations(workload), seed, request["pass_index"])
    probes = request.get("probes", False)
    names = {op.problem for op in ops}
    if probes:
        names |= {op.problem for op in workloads.OVER_CAP_PROBES}
    workdir = ROOT / ".bench_work" / f"pass-{os.getpid()}"
    references = checks.load_references(workload)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli, paths = set_up(names, seed, workdir)
            setups.append(seconds)
        tracer = tracing.Tracer() if request.get("trace") else None
        pass_s, records = run_pass(cli, ops, paths, references, tracer)
        result = {"setup_s": statistics.median(setups), "pass_s": pass_s,
                  "ops": records,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            result["layers"] = tracer.metrics()
        if probes:
            result["probes"] = run_probes(cli, paths, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main(json.loads(sys.argv[1]))
