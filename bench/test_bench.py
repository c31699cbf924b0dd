"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Operation  # noqa: E402


def all_references():
    refs = {}
    for name in workloads.WORKLOADS:
        refs.update(checks.load_references(name))
    return refs


def test_altered_answer_counts_as_failed(tmp_path):
    refs = checks.load_references("bfun-distinct")
    ops = [Operation("funceq", "gamma"), Operation("funceq", "cusp")]
    _, cli, paths = worker.set_up({"gamma", "cusp"}, 1, tmp_path)
    _, records = worker.run_pass(cli, ops, paths, refs)
    assert [r["error"] for r in records] == [None, None]

    altered = dict(refs)
    doc = json.loads(altered["funceq cusp"])
    doc["P0"] += " + 1"
    altered["funceq cusp"] = checks.canonical(doc)
    _, records = worker.run_pass(cli, ops, paths, altered)
    assert records[0]["error"] is None
    assert records[1]["error"] == "answer differs from the reference"


def test_closed_form_rejects_a_reference_with_a_wrong_b():
    op = Operation("funceq", "bp-2-5")
    doc = json.loads(checks.load_references("bfun-distinct")[op.key])
    assert checks.check(op, json.dumps(doc), {op.key: checks.canonical(doc)}) is None
    doc["bfunction"]["monic"] = doc["bfunction"]["monic"].replace("s^5", "2*s^5")
    reason = checks.check(op, json.dumps(doc), {op.key: checks.canonical(doc)})
    assert reason.endswith("is not the closed form")


def test_over_cap_operation_counts_as_failed(tmp_path):
    _, cli, paths = worker.set_up({"cusp_gauss"}, 1, tmp_path)
    op = Operation("funceq", "cusp_gauss")
    seconds, text, error = worker.run_op(cli, op.argv(paths["cusp_gauss"]), 0.01)
    assert error == "over the 0.01 s cap"
    assert seconds < 1.0
    # the program still works after an interrupted call
    _, text, error = worker.run_op(cli, op.argv(paths["cusp_gauss"]), worker.OP_CAP_S)
    assert error is None and checks.check(op, text, all_references()) is None


def test_two_seeds_give_identical_answers(tmp_path):
    names = ("cusp_gauss", "ex4", "y2-x2-ex4w")
    first = workloads.write_problems(names, 1, tmp_path / "a")
    seed = next(s for s in range(2, 50)
                if all(workloads.write_problems(names, s, tmp_path / "b")[n].read_text()
                       != first[n].read_text() for n in names))
    ops = [Operation("funceq", "cusp_gauss"), Operation("funceq", "ex4"),
           Operation("zeta-diff", "y2-x2-ex4w")]
    answers = []
    for s in (1, seed):
        _, cli, paths = worker.set_up(set(names), s, tmp_path / str(s))
        answers.append([checks.answer_of(worker.run_op(cli, op.argv(paths[op.problem]),
                                                       worker.OP_CAP_S)[1]) for op in ops])
    assert answers[0] == answers[1]
    refs = all_references()
    assert answers[0] == [refs[op.key] for op in ops]


def _namespaces():
    """Every function, class and method of holozeta's modules and traced
    classes, by identity (module state such as _LAST_STATS changes with use)."""
    def code(v):
        return callable(v) or isinstance(v, (classmethod, staticmethod))
    out = {}
    for name, mod in sys.modules.items():
        if name == "holozeta" or name.startswith("holozeta."):
            out.update({(name, k): id(v) for k, v in vars(mod).items() if code(v)})
    for module, attr in tracing.TRACED:
        if "." in attr:
            cls = getattr(sys.modules[module], attr.split(".")[0])
            out.update({(cls.__qualname__, k): id(v) for k, v in vars(cls).items() if code(v)})
    return out


def test_tracer_patches_every_namespace_and_restores_it(tmp_path):
    _, cli, paths = worker.set_up({"cusp"}, 1, tmp_path)
    mod = {name.split(".")[-1]: sys.modules[name] for name in
           ("holozeta", "holozeta.bfunction", "holozeta.laurent", "holozeta.weyl_core")}
    before = _namespaces()
    originals = (mod["bfunction"].bfunction, cli.difference_gcrd,
                 mod["weyl_core"].WeylOperator.__dict__["__mul__"])
    tracer = tracing.Tracer()
    with tracer:
        assert mod["laurent"].bfunction is mod["bfunction"].bfunction
        assert mod["laurent"].bfunction is not originals[0]
        assert mod["holozeta"].bfunction is mod["bfunction"].bfunction
        assert cli.difference_gcrd is not originals[1]
        assert mod["weyl_core"].WeylOperator.__dict__["__mul__"] is not originals[2]
        worker.run_op(cli, Operation("funceq", "cusp").argv(paths["cusp"]), worker.OP_CAP_S)
    assert _namespaces() == before
    assert tracer.spans["annihilator.ann_fs"]["calls"] == 1
    assert tracer.spans["cli.load"]["calls"] == 1
    spans = tracer.spans["bfunction.bfunction"]
    assert 0 < spans["self_s"] < spans["s"]


def test_counters_repeat_exactly_between_traced_runs(tmp_path):
    ops = [Operation("laurent", "cusp", "-1", 0), Operation("zeta-diff", "cusp_gauss"),
           Operation("funceq", "bp-2-5")]
    refs = all_references()
    counters = []
    for seed in (1, 2):
        _, cli, paths = worker.set_up({op.problem for op in ops}, seed, tmp_path / str(seed))
        tracer = tracing.Tracer()
        _, records = worker.run_pass(cli, ops, paths, refs, tracer)
        assert all(r["error"] is None for r in records)
        counters.append({k: v for k, v in tracer.metrics().items()
                         if k.startswith("weyl_core.gb.") and not k.endswith(".s")})
    assert counters[0] == counters[1]
    for stage in ("laurent-colon", "w-adapted-basis", "functional-operator"):
        assert counters[0][f"weyl_core.gb.{stage}.calls"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bfun-distinct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not a holozeta checkout" in proc.stderr
