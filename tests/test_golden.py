"""Byte-identical JSON documents for the shipped problems.

Each case runs one command with --json and compares the document, with
"version" dropped and "gb_stats" kept, byte for byte against
tests/golden/<command>-<problem>.json.  To record the files again after an
intended change of output:

    PYTHONPATH=src python3 tests/test_golden.py
"""
import contextlib
import io
import json
import os

import pytest

from holozeta.cli import run

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PROBLEMS = ("cusp", "cusp_gauss", "ex3", "ex4", "ex5", "gamma")

CASES = ([("ann-fs", p, ()) for p in PROBLEMS]
         + [("funceq", p, ()) for p in PROBLEMS]
         + [("laurent", "cusp", ("--lambda0=-5/6", "--k=-1"))]
         + [("zeta-diff", p, ()) for p in ("gamma", "ex3", "cusp", "cusp_gauss")])


def _path(command, problem):
    return os.path.join(GOLDEN, f"{command}-{problem}.json")


def _document(command, problem, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run([command, os.path.join(ROOT, "problems", f"{problem}.prob"), "--json", *flags])
    assert rc == 0
    doc = json.loads(out.getvalue())
    del doc["version"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command,problem,flags", CASES,
                         ids=[f"{c}-{p}" for c, p, _ in CASES])
def test_golden_document(command, problem, flags):
    with open(_path(command, problem), "rb") as fh:
        expected = fh.read()
    assert _document(command, problem, flags).encode() == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for command, problem, flags in CASES:
        with open(_path(command, problem), "w") as fh:
            fh.write(_document(command, problem, flags))
