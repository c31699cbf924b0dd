"""holozeta's benchmark: closed-loop, single-threaded passes over a workload.

Usage (from the root of a checkout):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in its own process (bench/worker.py) and calls
``holozeta.cli.run([..., '--json'])`` once per operation, each operation
starting when the previous one has finished.  Passes repeat while another
one fits in --seconds (at least one runs).  Answers are checked outside the
timed region.  With --trace 0 the last line reports the end-to-end metrics;
with --trace 1 one untraced and one traced pass run, and it reports the
per-layer metrics.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = (ROOT / "src" / "holozeta" / "cli.py", ROOT / "problems")
PASS_TIMEOUT_S = 170

UNITS = {"pass_s": "s", "op_geomean_s": "s", "slowest_op_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".coef_bits"):
        return "bits"
    if name == "fail_ratio":
        return "ratio"
    return "count"


def run_pass(workload, seed, index, trace=False, probes=False):
    """Run one pass in a child process and return its JSON report.

    The child is killed after PASS_TIMEOUT_S, so that a run never outlives
    its 180 s allowance with a pass still running.
    """
    request = json.dumps({"workload": workload, "seed": seed, "pass_index": index,
                          "trace": trace, "probes": probes})
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), request],
                          cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def confirm_references(workload):
    """Oracle confirmation of the references, once per checkout and content.

    The verdict depends only on the reference file and the program's
    sources, so it is kept under .bench_work/ keyed by their digest.
    """
    import checks
    digest = hashlib.sha256((checks.REFERENCES / f"{workload}.json").read_bytes())
    for path in sorted((ROOT / "src" / "holozeta").glob("*.py")):
        digest.update(path.read_bytes())
    stamp = ROOT / ".bench_work" / "oracle" / f"{workload}-{digest.hexdigest()[:24]}.ok"
    if stamp.exists():
        return {}
    sys.path.insert(0, str(ROOT / "src"))
    failures = checks.confirm_references(workload, checks.load_references(workload))
    if not failures:
        stamp.parent.mkdir(parents=True, exist_ok=True)
        stamp.write_text("confirmed\n")
    return failures


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(passes):
    per_pass = []
    for p in passes:
        # over the operations that passed; over all of them if none did
        ok = [r["s"] for r in p["ops"] if r["error"] is None] or [r["s"] for r in p["ops"]]
        per_pass.append({"pass_s": p["pass_s"], "op_geomean_s": geomean(ok),
                         "slowest_op_s": max(ok), "peak_rss_mb": p["rss_mb"],
                         "setup_s": p["setup_s"]})
    return {name: statistics.median(v[name] for v in per_pass) for name in UNITS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: {ROOT} is not a holozeta checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    passes, traced = [], None
    start = time.perf_counter()
    if args.trace:
        passes.append(run_pass(args.workload, args.seed, 0))
        traced = run_pass(args.workload, args.seed, 1, trace=True,
                          probes=args.workload == "bfun-distinct")
    else:
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(args.workload, args.seed, len(passes)))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break

    records = [r for p in passes + ([traced] if traced else []) for r in p["ops"]]
    failed = [r for r in records if r["error"] is not None]
    for r in failed:
        print(f"FAILED {r['op']}: {r['error']}", file=sys.stderr)
    oracle = confirm_references(args.workload)
    for key, reason in oracle.items():
        print(f"REFERENCE REJECTED {key}: {reason}", file=sys.stderr)

    if args.trace:
        values = dict(traced["layers"])
        values["tracing_overhead_s"] = traced["pass_s"] - passes[0]["pass_s"]
        probes = traced.get("probes", [])
        bad = sum(r["error"] is not None for r in traced["ops"] + probes)
        values["fail_ratio"] = bad / (len(traced["ops"]) + len(probes))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        for r in traced["ops"]:
            top = sorted(r["stages"].items(), key=lambda kv: -kv[1])[:3]
            print(f"{r['s']:8.3f} s  {r['op']}: " + ", ".join(
                f"{k} {v:.3f} s ({v / r['s']:.0%})" for k, v in top), file=sys.stderr)
        for r in probes:
            print(f"probe {r['op']}: {r['s']:.2f} s, {r['error'] or 'correct'}", file=sys.stderr)
    else:
        values = end_to_end(passes)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        times = {}
        for r in (r for p in passes for r in p["ops"]):
            times.setdefault(r["op"], []).append(r["s"])
        for key, ts in times.items():
            print(f"{statistics.median(ts):8.3f} s  {key}", file=sys.stderr)
        n_ops = sum(len(p["ops"]) for p in passes)
        print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), {n_ops} operations; "
              f"medians over passes: " + ", ".join(f"{k} {v:.4g}" for k, v in values.items()))
    print(json.dumps({"correct": not failed and not oracle, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
