"""Byte-identical JSON documents for the shipped problems.

Each case runs one command with --json and compares the document, with
"version" dropped and "gb_stats" kept, byte for byte against
tests/golden/<stem>.json; the stem is <command>-<problem>, with a suffix
naming the flags where one command and problem run more than once.  To
record the files again after an intended change of output:

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

# (stem, command, problem, flags); the laurent cases at -1 and -7/6 have
# shift m = 2, so they run the two-factor product P0(s) P0(s+1)
CASES = ([(f"ann-fs-{p}", "ann-fs", p, ()) for p in PROBLEMS]
         + [(f"funceq-{p}", "funceq", p, ()) for p in PROBLEMS]
         + [("laurent-cusp", "laurent", "cusp", ("--lambda0=-5/6", "--k=-1")),
            ("laurent-cusp-at-minus1-k0", "laurent", "cusp", ("--lambda0=-1", "--k=0")),
            ("laurent-cusp-at-minus7_6-k0", "laurent", "cusp", ("--lambda0=-7/6", "--k=0"))]
         + [(f"zeta-diff-{p}", "zeta-diff", p, ())
            for p in ("gamma", "ex3", "cusp", "cusp_gauss")])


def _path(stem):
    return os.path.join(GOLDEN, f"{stem}.json")


def _document(command, problem, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run([command, os.path.join(ROOT, "problems", f"{problem}.prob"), "--json", *flags])
    assert rc == 0
    doc = json.loads(out.getvalue())
    del doc["version"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("stem,command,problem,flags", CASES,
                         ids=[stem for stem, *_ in CASES])
def test_golden_document(stem, command, problem, flags):
    with open(_path(stem), "rb") as fh:
        expected = fh.read()
    assert _document(command, problem, flags).encode() == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for stem, command, problem, flags in CASES:
        with open(_path(stem), "w") as fh:
            fh.write(_document(command, problem, flags))
