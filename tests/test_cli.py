"""Operator grammar, problem files, subcommands, exit codes, JSON schema."""
import json
import os
import subprocess
import sys
import time

import pytest

from holozeta import (
    QQ,
    GBTimeout,
    IdealPresentation,
    TermOrder,
    WeylOperator,
    d_n,
    d_n_s,
    time_limit,
)
from holozeta.cli import InputError, ProblemFile, parse_operator, run

W = WeylOperator
ROOT = os.path.join(os.path.dirname(__file__), "..")
PROBLEMS = os.path.join(ROOT, "problems")


def prob(name):
    return os.path.join(PROBLEMS, name)


# ---------------------------------------------------------------------------
# operator grammar
# ---------------------------------------------------------------------------

def test_parse_ex3_generator():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert parse_operator("x^2*dx + x^2 - 1", sig) == x * x * dx + x * x - 1


def test_parse_normal_orders():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert parse_operator("dx*x", sig) == x * dx + 1


def test_parse_rationals_and_parens():
    sig = d_n_s(("x",))
    x, s = W.gen(sig, "x"), W.gen(sig, "s")
    assert parse_operator("3/4*(x + s)^2 - 1/2", sig) == \
        (x + s) * (x + s) * QQ(3, 4) - QQ(1, 2)


def test_parse_errors_carry_position():
    sig = d_n(("x",))
    with pytest.raises(InputError):
        parse_operator("3*x^-1", sig)          # negative exponent
    with pytest.raises(InputError):
        parse_operator("2x", sig)              # juxtaposition
    with pytest.raises(InputError):
        parse_operator("x + q", sig)           # unknown variable
    with pytest.raises(InputError):
        parse_operator("1/0", sig)             # malformed rational
    err = None
    try:
        parse_operator("x + ?", sig)
    except InputError as exc:
        err = exc
    assert err is not None and "line" in str(err)


@pytest.mark.parametrize("text", [
    "²", "3²", "x^²", "½", "x +", "()", "(x", "x)", "", "x^-", "1/", "1/x", "x/2", "é",
    "x^99999", "2x", "x y", "x^2^", "--x", "1/0", "x^-1", "dx^32767*x^32767*dx",
    "(x+1)^32767*x", "x^2 + 99999^32767", "x^2 + 99999^800*99999^800"])
def test_malformed_operator_is_input_error_with_position(text):
    with pytest.raises(InputError, match=r"\(line "):
        parse_operator(text, d_n(("x",)))


def test_oversized_products_and_constants_are_found_before_expanding():
    # each is refused before anything is expanded, except the product of two
    # printable constants, which the check of the finished coefficients finds
    limit = sys.get_int_max_str_digits()
    if limit != 4300:
        pytest.skip("the digit cases assume the default integer string limit")
    sig = d_n(("x",))
    errors = {
        "dx^32767*x^32767*dx": "exponent above 32767 in a product (line 1)",
        "(x+1)^32767*x": "exponent above 32767 in a product (line 1)",
        "(x^2+x+1)^20000": "exponent above 32767 in a product (line 1)",
        "x^2 + 99999^32767": f"constant power with more than {limit} digits (line 1, col 13)",
        "(1/7)^5089": f"constant power with more than {limit} digits (line 1, col 7)",
        "1" + "0" * limit: f"integer with more than {limit} digits (line 1, col 1)",
        "x^2 + 99999^800*99999^800": f"coefficient with more than {limit} digits (line 1)",
    }
    for text, message in errors.items():
        with pytest.raises(InputError) as err:
            parse_operator(text, sig)
        assert str(err.value) == message
    # 7^5088 has 4300 digits; a zero factor ends the check, a zeroth power
    # adds nothing to it
    assert parse_operator("(1/7)^5088", sig) == W.constant(sig, QQ(1, 7 ** 5088))
    assert parse_operator("0*x^32767*x", sig).is_zero()
    assert parse_operator("x^32767*(x-x)^0", sig) == W.gen(sig, "x", 32767)


def test_oversized_constant_exits_3(tmp_path, capsys):
    p = tmp_path / "big.prob"
    p.write_text("vars: x, y\nf: x^2 + 99999^32767\nannihilator: dx, dy\n")
    assert run(["ann-fs", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: constant power with more than") and "(line 2" in err


def test_oversized_product_of_constants_exits_3(tmp_path, capsys):
    # each power prints, their product does not
    p = tmp_path / "big.prob"
    p.write_text("vars: x, y\nf: x^2 + 99999^800*99999^800\nannihilator: dx, dy\n")
    assert run(["ann-fs", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: coefficient with more than") and "(line 2)" in err


def test_print_parse_round_trip_random():
    import random
    rng = random.Random(77)
    sig = d_n_s(("x", "y"))
    order = TermOrder.grevlex(sig)
    for _ in range(40):
        op = W.zero(sig)
        for _ in range(rng.randint(1, 4)):
            mono = [0] * sig.nslots
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(sig.nslots)] += 1
            c = QQ(rng.randint(-5, 5), rng.randint(1, 4))
            if c:
                op = op + W(sig, {tuple(mono): c})
        assert parse_operator(op.to_str(order), sig) == op


# ---------------------------------------------------------------------------
# problem files and commands (in process via run())
# ---------------------------------------------------------------------------

def test_problem_file_load():
    pf = ProblemFile.load(prob("cusp.prob"))
    assert pf.vars == ("x", "y")
    assert pf.lambda0 == QQ(-5, 6) and pf.k == -1
    assert pf.assume_saturated
    inst = pf.instance()
    assert inst.f.total_degree() == 3


def test_problem_file_requires_saturation(tmp_path):
    p = tmp_path / "bad.prob"
    p.write_text("vars: x\nf: x\nannihilator: dx\n")
    pf = ProblemFile.load(str(p))
    with pytest.raises(InputError):
        pf.instance()


def test_problem_file_unknown_key(tmp_path):
    p = tmp_path / "bad.prob"
    p.write_text("vars: x\nf: x\nannihilator: dx\nwhatever: 1\n")
    with pytest.raises(InputError):
        ProblemFile.load(str(p))


def test_run_bfun_cusp(capsys):
    rc = run(["bfun", prob("cusp.prob")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(s+1)(6s+5)(6s+7)" in out


def test_run_laurent_cusp_flags(capsys):
    rc = run(["laurent", prob("cusp.prob"), "--lambda0=-5/6", "--k=-1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l.strip() for l in out.splitlines()]
    assert "x" in lines and "y" in lines


def test_run_zeta_diff_gamma(capsys):
    rc = run(["zeta-diff", prob("gamma.prob")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "E - (s+1)" in out


def test_run_json_validates_against_schema(capsys):
    rc = run(["zeta-diff", prob("gamma.prob"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    schema = json.load(open(os.path.join(ROOT, "docs", "result.schema.json")))
    _validate(doc, schema)
    assert doc["difference_operators"] == ["E - (s+1)"]
    assert "timing" not in doc            # deterministic by default


def test_run_json_deterministic(capsys):
    rc = run(["bfun", prob("cusp.prob"), "--json"])
    out1 = capsys.readouterr().out
    rc2 = run(["bfun", prob("cusp.prob"), "--json"])
    out2 = capsys.readouterr().out
    assert rc == rc2 == 0 and out1 == out2


def test_run_verify_gamma(capsys):
    # no --box: the exponential weights get a box wide enough for x^lambda e^-x
    rc = run(["verify", prob("gamma.prob"), "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "annihilator_sound: True" in out
    assert "functional_equation_holds: True" in out
    assert "numeric_residual_ok: True" in out


def test_run_verify_default_box_follows_phi(capsys):
    rc = run(["verify", prob("ex3.prob")])
    assert rc == 0
    assert "numeric_residual_ok: True" in capsys.readouterr().out


def test_run_verify_box_overrides_phi_default(capsys):
    # a box of 12 clips x^lambda e^-x, so the residual check fails on gamma
    rc = run(["verify", prob("gamma.prob"), "--box", "12", "--tol", "1e-6"])
    assert rc == 0
    assert "numeric_residual_ok: False" in capsys.readouterr().out


def test_run_verify_variable_named_like_a_derivative(tmp_path, capsys):
    p = tmp_path / "dog.prob"
    p.write_text("vars: dog\nf: dog\nannihilator: ddog\nassume_saturated: true\n")
    rc = run(["verify", str(p), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["annihilator_sound"] and doc["functional_equation_holds"]
    assert doc["bfunction"]["monic"] == "s + 1"


def test_run_input_error_exit_3(tmp_path, capsys):
    p = tmp_path / "broken.prob"
    p.write_text("vars: x\nf: 3*x^-1\nannihilator: dx\nassume_saturated: true\n")
    rc = run(["bfun", str(p)])
    capsys.readouterr()
    assert rc == 3
    rc = run(["bfun", str(tmp_path / "missing.prob")])
    capsys.readouterr()
    assert rc == 3


def test_run_non_ascii_digit_is_input_error_naming_its_line(tmp_path, capsys):
    p = tmp_path / "superscript.prob"
    p.write_text("vars: x\nf: 3*²\nannihilator: dx\nassume_saturated: true\n")
    rc = run(["bfun", str(p)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("input error:") and "(line 2, col 3)" in err


@pytest.mark.parametrize("command", ["ann-fs", "bfun", "zeta-diff"])
@pytest.mark.parametrize("name", ["t", "dt", "s", "sigma", "tau_h", "h"])
def test_run_reserved_variable_name_is_input_error(name, command, tmp_path, capsys):
    p = tmp_path / "reserved.prob"
    p.write_text(f"vars: x, {name}\nf: x^2 + {name}\nannihilator: dx, d{name}\n"
                 "assume_saturated: true\n")
    rc = run([command, str(p)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"input error: variable name {name!r} is reserved\n"


def test_run_timeout_exit_2(capsys):
    rc = run(["zeta-diff", prob("ex4.prob"), "--timeout", "2"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["bfun", prob("cusp.prob"), "--timeout", "abc"],
    ["laurent", prob("cusp.prob"), "--lambda0=-5/6", "--k", "x"],
    ["bfun", prob("cusp.prob"), "--box", "3"],              # verify's flags only
    ["verify", prob("cusp.prob"), "--lambda0=-5/6"],        # laurent's flags only
    ["zeta-diff", prob("gamma.prob"), "--k=1"],
    ["ann-fs"],
    ["nosuch", prob("cusp.prob")],
], ids=["timeout", "k", "box-on-bfun", "lambda0-on-verify", "k-on-zeta-diff",
        "no-problem", "no-command"])
def test_run_usage_error_is_input_error(argv, capsys):
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: holozeta")


@pytest.mark.parametrize("argv", [["--help"], ["bfun", "--help"]])
def test_run_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_subcommands_take_only_the_flags_they_read():
    from holozeta.cli import _COMMANDS, build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {name: {opt for a in p._actions for opt in a.option_strings
                    if opt not in ("-h", "--help")}
             for name, p in sub.choices.items()}
    common = {"--json", "--timings", "--timeout"}
    assert set(flags) == set(_COMMANDS)
    assert flags.pop("laurent") == common | {"--lambda0", "--k"}
    assert flags.pop("verify") == common | {"--box", "--tol"}
    assert all(f == common for f in flags.values())


@pytest.mark.parametrize("argv", [
    ["ann-fs", "cusp.prob"], ["bfun", "cusp.prob"], ["funceq", "cusp.prob"],
    ["laurent", "cusp.prob", "--lambda0=-5/6", "--k=-1"], ["zeta-diff", "gamma.prob"],
    ["verify", "cusp.prob"]], ids=lambda argv: argv[0])
def test_timeout_reaches_every_engine_call(argv, monkeypatch, capsys):
    from holozeta import weyl_core
    deadlines, engine = [], weyl_core.groebner_engine

    def spy(gens, sig, order, stage="groebner", pair_components=None, **kwargs):
        deadlines.append((stage, weyl_core._DEADLINE.get()))
        return engine(gens, sig, order, stage, pair_components, **kwargs)
    monkeypatch.setattr(weyl_core, "groebner_engine", spy)
    assert run([argv[0], prob(argv[1]), *argv[2:], "--timeout", "1000"]) == 0
    capsys.readouterr()
    assert deadlines and [stage for stage, d in deadlines if d is None] == []
    # one deadline for the whole command, and none left behind
    assert len({d for _stage, d in deadlines}) == 1
    assert weyl_core._DEADLINE.get() is None


@pytest.mark.parametrize("value", ["0", "-1", "-0.5", "nan"])
def test_run_nonpositive_timeout_is_input_error(value, capsys):
    rc = run(["bfun", prob("cusp.prob"), f"--timeout={value}"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("input error: --timeout must be positive")


@pytest.mark.parametrize("flag,rule", [
    ("--box=0", "--box must be finite and positive"),
    ("--box=-3", "--box must be finite and positive"),
    ("--box=nan", "--box must be finite and positive"),
    ("--box=inf", "--box must be finite and positive"),
    ("--tol=-1e-6", "--tol must be finite and nonnegative"),
    ("--tol=nan", "--tol must be finite and nonnegative"),
    ("--tol=inf", "--tol must be finite and nonnegative"),
])
def test_run_box_and_tol_that_fake_or_hang_the_check_are_input_errors(flag, rule, capsys):
    # a box of 0 gives a residual of 0, a tolerance of inf passes any
    # residual and a nan box hangs the quadrature: all are refused before the
    # problem is loaded
    rc = run(["verify", prob("cusp_gauss.prob"), flag])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith(f"input error: {rule}") and captured.err.count("\n") == 1


def test_no_deadline_outlives_its_command(capsys):
    # the benchmark runs many commands in one process
    from holozeta import weyl_core
    assert run(["bfun", prob("cusp.prob"), "--timeout", "0.001"]) == 2
    assert run(["bfun", prob("cusp.prob")]) == 0
    capsys.readouterr()
    sig = d_n(("x",))
    with pytest.raises(GBTimeout), time_limit(time.monotonic() - 1):
        IdealPresentation(sig, [W.gen(sig, "x")]).contains(W.gen(sig, "dx"))
    assert weyl_core._DEADLINE.get() is None


def test_run_ending_past_the_deadline_exits_2(monkeypatch, capsys):
    # a command that overruns its deadline outside the engine loops
    import holozeta.cli

    def slow(args, prob):
        time.sleep(0.2)
        return {"command": "bfun"}
    monkeypatch.setitem(holozeta.cli._COMMANDS, "bfun", slow)
    rc = run(["bfun", prob("cusp.prob"), "--timeout=0.1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("timeout: the command ended after")
    assert run(["bfun", prob("cusp.prob"), "--timeout=5"]) == 0


@pytest.mark.parametrize("value", ["--5/6", "1/-2", "5/", "/6", "-5/6/7", "1.5", "- 5/6"])
def test_run_malformed_lambda0_flag_is_input_error(value, capsys):
    rc = run(["laurent", prob("cusp.prob"), f"--lambda0={value}", "--k=-1"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("input error: bad --lambda0")


@pytest.mark.parametrize("value", ["--5/6", "1/-2"])
def test_malformed_lambda0_file_key_is_input_error(value, tmp_path, capsys):
    p = tmp_path / "bad.prob"
    p.write_text("vars: x, y\nf: x^3 - y^2\nannihilator: dx, dy\n"
                 f"lambda0: {value}\nk: -1\nassume_saturated: true\n")
    with pytest.raises(InputError, match=r"not a rational.*\(line 4\)"):
        ProblemFile.load(str(p))
    assert run(["laurent", str(p)]) == 3
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("value", ["x", "1.5", "", "--1", "1/2", "- 1"])
def test_malformed_k_file_key_is_input_error(value, tmp_path, capsys):
    p = tmp_path / "bad.prob"
    p.write_text("vars: x, y\nf: x^3 - y^2\nannihilator: dx, dy\n"
                 f"lambda0: -5/6\nk: {value}\nassume_saturated: true\n")
    with pytest.raises(InputError, match=r"not an integer.*\(line 5\)"):
        ProblemFile.load(str(p))
    assert run(["laurent", str(p)]) == 3
    assert capsys.readouterr().err.startswith("input error:")


def test_k_signs(tmp_path):
    p = tmp_path / "ok.prob"
    for text, value in [("-1", -1), ("+2", 2), (" 0 ", 0), ("007", 7)]:
        p.write_text(f"vars: x\nf: x\nannihilator: dx\nk: {text}\n")
        assert ProblemFile.load(str(p)).k == value


def test_lambda0_signs(tmp_path):
    p = tmp_path / "ok.prob"
    for text, value in [("-5/6", QQ(-5, 6)), ("+5/6", QQ(5, 6)), (" 4/6 ", QQ(2, 3)),
                        ("-1", QQ(-1))]:
        p.write_text(f"vars: x\nf: x\nannihilator: dx\nlambda0: {text}\n")
        assert ProblemFile.load(str(p)).lambda0 == value


@pytest.mark.parametrize("value", ["ture", "y", "2", "on", "true false"])
def test_malformed_assume_saturated_is_input_error(value, tmp_path, capsys):
    p = tmp_path / "bad.prob"
    p.write_text(f"vars: x\nf: x\nannihilator: x*dx - 1\nassume_saturated: {value}\n")
    with pytest.raises(InputError, match=r"not a boolean.*\(line 4\)"):
        ProblemFile.load(str(p))
    assert run(["bfun", str(p)]) == 3
    assert "line 4" in capsys.readouterr().err


def test_repeated_key_is_input_error(tmp_path, capsys):
    # a later line must not silently override an earlier one
    p = tmp_path / "twice.prob"
    p.write_text("vars: x\nf: x\nf: x^2\nannihilator: dx\nassume_saturated: true\n")
    with pytest.raises(InputError, match=r"repeated key 'f' \(line 3\)"):
        ProblemFile.load(str(p))
    assert run(["bfun", str(p)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_assume_saturated_values(tmp_path):
    p = tmp_path / "ok.prob"
    for text, value in [("true", True), ("YES", True), ("1", True), ("True", True),
                        ("false", False), ("No", False), ("0", False), ("", False)]:
        p.write_text(f"vars: x\nf: x\nannihilator: dx\nassume_saturated: {text}\n")
        assert ProblemFile.load(str(p)).assume_saturated is value
    p.write_text("vars: x\nf: x\nannihilator: dx\n")
    assert ProblemFile.load(str(p)).assume_saturated is False


def test_console_entry_point_version():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-m", "holozeta.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "holozeta 0.1.0" in out.stdout


# ---------------------------------------------------------------------------
# minimal JSON-schema validator covering the subset the schema uses
# ---------------------------------------------------------------------------

def _validate(doc, schema, path="$"):
    typ = schema.get("type")
    if typ == "object":
        assert isinstance(doc, dict), path
        for req in schema.get("required", ()):
            assert req in doc, f"{path}.{req} missing"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, val in doc.items():
            if key in props:
                _validate(val, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                _validate(val, extra, f"{path}.{key}")
            else:
                assert extra, f"{path}.{key} unexpected"
    elif typ == "array":
        assert isinstance(doc, list), path
        for i, item in enumerate(doc):
            _validate(item, schema.get("items", {}), f"{path}[{i}]")
    elif typ == "string":
        assert isinstance(doc, str), path
        if "enum" in schema:
            assert doc in schema["enum"], path
    elif typ == "integer":
        assert isinstance(doc, int) and not isinstance(doc, bool), path
    elif typ == "number":
        assert isinstance(doc, (int, float)) and not isinstance(doc, bool), path
    elif typ == "boolean":
        assert isinstance(doc, bool), path


def test_emitted_generators_round_trip(capsys):
    # ResultDocument invariant: parsing an emitted generator string
    # reproduces the identical operator (and re-prints identically)
    rc = run(["ann-fs", prob("cusp.prob"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    sig = d_n_s(("x", "y"))
    order = TermOrder.grevlex(sig)
    for text in doc["generators"]:
        op = parse_operator(text, sig)
        assert op.to_str(order) == text


def test_ann_fs_runs_without_saturation_assertion(tmp_path, capsys):
    p = tmp_path / "unsat.prob"
    p.write_text("vars: x\nf: x\nannihilator: dx\n")
    rc = run(["ann-fs", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "f-saturation" in out
    # but b-function computation refuses
    rc = run(["bfun", str(p)])
    capsys.readouterr()
    assert rc == 3


# ---------------------------------------------------------------------------
# failures: input errors exit 3, internal failures exit 4, one line each
# ---------------------------------------------------------------------------

def test_run_exponent_above_limit_is_input_error(tmp_path, capsys):
    p = tmp_path / "big.prob"
    p.write_text("vars: x, y\nf: x^40000 - y^2\nannihilator: dx, dy\n"
                 "assume_saturated: true\n")
    rc = run(["bfun", str(p)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 2, col" in err and "Traceback" not in err


def test_run_laurent_k_below_pole_order_is_input_error(capsys):
    rc = run(["laurent", prob("cusp.prob"), "--lambda0=-5/6", "--k=-5"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("input error:")


def _internal_errors():
    from holozeta.bfunction import NoBFunction, NotInIdeal
    from holozeta.integration import NotHolonomic
    from holozeta.oracle import OracleError
    return [NoBFunction("no b-function found"), NotHolonomic("weight b-function is zero"),
            OracleError("grid too short"), AssertionError(), NotInIdeal("b(s) is not in"),
            OverflowError("exponent above 32767 in a product"), ValueError("internal\ndetail")]


@pytest.mark.parametrize("exc", _internal_errors(), ids=lambda e: type(e).__name__)
def test_run_internal_failure_exit_4(exc, monkeypatch, capsys):
    import holozeta.cli

    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(holozeta.cli, "ann_fs", fail)
    rc = run(["bfun", prob("cusp.prob")])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {type(exc).__name__}")


def test_run_functional_operator_membership_failure_exit_4(monkeypatch, capsys):
    import importlib
    bfunction_module = importlib.import_module("holozeta.bfunction")
    monkeypatch.setattr(bfunction_module, "represent", lambda *a, **k: None)
    rc = run(["funceq", prob("cusp.prob")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == "error: NotInIdeal: b(s) is not in ann + D_n[s] f\n"
