"""Record the reference answers every benchmark answer is compared with.

Usage: python3 bench/record_references.py [workload ...]

Runs each workload's operations once, with seed 0 and no timing, checks
the closed forms, asks the oracle to confirm the answers and writes
``bench/references/<workload>.json``.  Run it only on a commit whose
answers are trusted; later commits must reproduce these files byte for byte.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
import worker
import workloads


def record(workload):
    ops = workloads.operations(workload)
    workdir = workloads.ROOT / ".bench_work" / "record"
    answers = {}
    try:
        _, cli, paths = worker.set_up({op.problem for op in ops}, 0, workdir)
        for op in ops:
            seconds, text, error = worker.run_op(cli, op.argv(paths[op.problem]),
                                                 worker.OP_CAP_S)
            if error is not None:
                raise SystemExit(f"{op.key}: {error}")
            answers[op.key] = checks.answer_of(text)
            print(f"{seconds:8.2f} s  {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = {op.key: reason for op in ops
                if (reason := checks.check(op, answers[op.key], answers))}
    failures.update(checks.confirm_references(workload, answers))
    if failures:
        raise SystemExit(f"{workload}: answers rejected: {failures}")
    doc = {key: json.loads(text) for key, text in answers.items()}
    path = checks.REFERENCES / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(worker.SRC))
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
