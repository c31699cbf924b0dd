"""Golden answers, and the Groebner engine's work, for the shipped problems.

Each case runs one command with --json.  Its answer is the document without
"gb_stats" and "version"; it is compared byte for byte against
tests/golden/<stem>.json, where the stem is <command>-<problem>, with a
suffix naming the flags where one command and problem run more than once.
Answers come from reduced Groebner bases, which are unique, so an answer
file changes only when the mathematics does; no script records them.

The engine's work is pinned apart from the answers, in
tests/golden/engine_calls.json: for each stem, the ordered list
[stage, pairs_considered, pairs_skipped, zero_reductions, basis_size] of
every groebner_engine call the command makes.  The document's "gb_stats"
must equal the last of them.  After a change to the engine's work made on
purpose, record that file again (it is written only once every answer file
has matched):

    PYTHONPATH=src python3 tests/test_golden.py
"""
import ast
import contextlib
import glob
import io
import json
import os
from unittest import mock

import pytest

from holozeta import weyl_core
from holozeta.cli import run

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ENGINE_CALLS = os.path.join(GOLDEN, "engine_calls.json")
PROBLEMS = ("cusp", "cusp_gauss", "ex3", "ex4", "ex5", "gamma")
COUNTERS = ("pairs_considered", "pairs_skipped", "zero_reductions", "basis_size")

# (stem, command, problem, flags); the laurent cases at -1 and -7/6 have
# shift m = 2, so they run the two-factor product P0(s) P0(s+1).  verify
# runs only on the problems without phi, whose check has no quadrature.
CASES = ([(f"ann-fs-{p}", "ann-fs", p, ()) for p in PROBLEMS]
         + [(f"bfun-{p}", "bfun", p, ()) for p in PROBLEMS]
         + [(f"funceq-{p}", "funceq", p, ()) for p in PROBLEMS]
         + [("laurent-cusp", "laurent", "cusp", ("--lambda0=-5/6", "--k=-1")),
            ("laurent-cusp-at-minus1-k0", "laurent", "cusp", ("--lambda0=-1", "--k=0")),
            ("laurent-cusp-at-minus7_6-k0", "laurent", "cusp", ("--lambda0=-7/6", "--k=0"))]
         + [(f"verify-{p}", "verify", p, ()) for p in ("cusp", "ex5")]
         + [(f"zeta-diff-{p}", "zeta-diff", p, ())
            for p in ("gamma", "ex3", "cusp", "cusp_gauss")])


def _path(stem):
    return os.path.join(GOLDEN, f"{stem}.json")


def _run(command, problem, flags):
    """(answer text, engine calls, gb_stats) of one command."""
    calls = []
    engine = weyl_core.groebner_engine

    def counted(gens, sig, order, deadline=None, stage="groebner", pair_components=None,
                **kwargs):
        basis = engine(gens, sig, order, deadline, stage, pair_components, **kwargs)
        stats = weyl_core.last_gb_stats()
        calls.append([stage] + [getattr(stats, c) for c in COUNTERS])
        return basis

    out = io.StringIO()
    with mock.patch.object(weyl_core, "groebner_engine", counted), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run([command, os.path.join(ROOT, "problems", f"{problem}.prob"), "--json", *flags])
    assert rc == 0
    doc = json.loads(out.getvalue())
    del doc["version"]
    stats = doc.pop("gb_stats")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", calls, stats


def _engine_calls():
    with open(ENGINE_CALLS) as fh:
        return json.load(fh)


def _format_engine_calls(recorded):
    """The engine-calls file with one call a line."""
    entries = [f"  {json.dumps(stem)}: [\n"
               + ",\n".join(f"    {json.dumps(call)}" for call in calls) + "\n  ]"
               for stem, calls in sorted(recorded.items())]
    return "{\n" + ",\n".join(entries) + "\n}\n"


def _src_stages():
    """Every stage name src/ passes: a string given as a stage argument or
    as a stage default, or a function's stage default plus a string that the
    function adds to it."""
    names = set()
    for path in glob.glob(os.path.join(ROOT, "src", "holozeta", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "stage" \
                    and isinstance(node.value, ast.Constant):
                names.add(node.value.value)
            if not isinstance(node, ast.FunctionDef):
                continue
            params = node.args.args[len(node.args.args) - len(node.args.defaults):]
            default = next((d.value for a, d in zip(params, node.args.defaults)
                            if a.arg == "stage" and isinstance(d, ast.Constant)), None)
            if default is None:
                continue
            names.add(default)
            names.update(default + inner.value.right.value for inner in ast.walk(node)
                         if isinstance(inner, ast.keyword) and inner.arg == "stage"
                         and isinstance(inner.value, ast.BinOp)
                         and isinstance(inner.value.right, ast.Constant))
    return names


@pytest.mark.parametrize("stem,command,problem,flags", CASES,
                         ids=[stem for stem, *_ in CASES])
def test_golden_document(stem, command, problem, flags):
    answer, calls, stats = _run(command, problem, flags)
    with open(_path(stem), "rb") as fh:
        assert answer.encode() == fh.read()
    assert calls == _engine_calls()[stem]
    assert stats == dict(zip(COUNTERS, calls[-1][1:]))


def test_golden_files_match_cases():
    stems = {stem for stem, *_ in CASES}
    assert set(_engine_calls()) == stems
    assert set(os.listdir(GOLDEN)) == {f"{s}.json" for s in stems} | {"engine_calls.json"}
    for stem in stems:
        with open(_path(stem)) as fh:
            assert not {"gb_stats", "version"} & json.load(fh).keys(), stem


def test_engine_call_stages_are_passed_by_src():
    stages = {call[0] for calls in _engine_calls().values() for call in calls}
    assert stages <= _src_stages()


if __name__ == "__main__":
    recorded = {}
    for stem, command, problem, flags in CASES:
        answer, recorded[stem], _ = _run(command, problem, flags)
        with open(_path(stem)) as fh:
            if fh.read() != answer:
                raise SystemExit(f"{stem}: the answer differs from its golden file; "
                                 "engine calls not recorded")
    with open(ENGINE_CALLS, "w") as fh:
        fh.write(_format_engine_calls(recorded))
