"""Command line front end: parse problem files, run pipeline stages, report.

Commands: ann-fs, bfun, funceq, laurent, zeta-diff, verify.  Problem files
are declarative "key: value" documents; all results are emitted as canonical
strings (print/parse round trips exactly) plus an optional JSON document.
Exit codes: 0 success, 2 timeout (--timeout runs the whole command under one
time_limit, which every Groebner computation checks; a command that ends past
it exits 2 too), 3 input error (usage, syntax, exponents above MAX_EXPONENT, the
problem instance or Laurent request checks), 4 internal failure; a failure
prints one line on stderr, no traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from . import __version__
from .annihilator import ProblemInstance, ann_fs
from .bfunction import bfunction, functional_operator
from .integration import difference_gcrd, zeta_difference
from .laurent import LaurentRequest, LaurentRequestError, ann_laurent
from .oracle import (
    PHI_FAMILIES,
    LogSection,
    PhiSpec,
    annihilates,
    apply_log_section,
    numeric_zeta,
    residual_check,
)
from .weyl_core import (
    MAX_EXPONENT,
    QQ,
    GBTimeout,
    SignatureMismatch,
    TermOrder,
    WeylOperator,
    d_n,
    last_gb_stats,
    time_limit,
)


class InputError(ValueError):
    """Problem file or operator syntax error, with position information."""

    def __init__(self, msg, line=None, col=None):
        pos = ""
        if line is not None:
            pos = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(msg + pos)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# operator grammar: integers, rationals p/q, names, d<var>, + - * ^, parens;
# all products explicit, exponents nonnegative integers
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()/])|(?P<bad>\S)")


def _top_exponents(op):
    """Each generator's largest exponent in a nonzero operator.  These add
    under multiplication: for the weight 1 on one generator and 0 on the
    others, the associated graded ring of the Weyl algebra is a polynomial
    ring, a domain, so the top-weight parts of two factors multiply to a
    nonzero top-weight part of their product."""
    return [max(col) for col in zip(*op.exponent_terms())]


def parse_operator(text, sig, line=1):
    """Parse an operator expression into normally ordered form.  A product
    or power whose exponents would pass MAX_EXPONENT, or a constant that
    could not be printed in sys.get_int_max_str_digits() digits, is an input
    error found before it is computed; so is a finished coefficient that
    could not be printed."""
    digits = sys.get_int_max_str_digits()
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise InputError(f"unexpected character {m[0]!r}", line, m.start() + 1)
        if m.lastgroup == "int" and digits and len(m[0]) > digits:
            raise InputError(f"integer with more than {digits} digits", line, m.start() + 1)
        toks.append((m[0] if m.lastgroup == "op" else m.lastgroup, m[0], m.start() + 1))
    toks.append(("end", "", len(text) + 1))
    toks.reverse()          # toks[-1] is the next token, toks.pop() takes it

    def expr():
        negate = toks[-1][0] in "+-" and toks.pop()[0] == "-"
        op = term()
        if negate:
            op = -op
        while toks[-1][0] in "+-":
            sign = toks.pop()[0]
            rhs = term()
            op = op + rhs if sign == "+" else op - rhs
        return op

    def term():
        # each factor is a (base, exponent) pair, expanded only once the
        # exponents of the whole product are known to fit
        factors = [factor()]
        while toks[-1][0] == "*":
            toks.pop()
            factors.append(factor())
        kind, _, col = toks[-1]
        if kind in ("int", "name", "("):
            raise InputError("juxtaposition not allowed; use *", line, col)
        top = [0] * sig.nslots
        for base, e in factors:
            if not e:           # base^0 = 1
                continue
            if not base:        # the product is 0 from here on
                break
            top = [a + e * b for a, b in zip(top, _top_exponents(base))]
            if max(top) > MAX_EXPONENT:
                raise InputError(f"exponent above {MAX_EXPONENT} in a product", line)
        op = None
        for base, e in factors:
            power = base if e == 1 else base ** e
            op = power if op is None else op * power
        return op

    def factor():
        base = atom()
        if toks[-1][0] != "^":
            return base, 1
        toks.pop()
        kind, val, col = toks.pop()
        negative = kind == "-"
        if negative:
            kind, val, col = toks.pop()
        if kind != "int":
            raise InputError("exponent must be an integer", line, col)
        if negative:
            raise InputError("negative exponents are not allowed", line, col)
        e = int(val)
        if e > MAX_EXPONENT:
            raise InputError(f"exponent {val} above {MAX_EXPONENT}", line, col)
        c = base.terms.get(0)
        if (digits and base.terms.keys() == {0}
                and e * math.log10(max(abs(c.numerator), c.denominator)) >= digits):
            raise InputError(f"constant power with more than {digits} digits", line, col)
        return base, e

    def atom():
        kind, val, col = toks.pop()
        if kind == "int":
            if toks[-1][0] != "/":
                return WeylOperator.constant(sig, int(val))
            toks.pop()
            kind, den, col = toks.pop()
            if kind != "int":
                raise InputError("malformed rational", line, col)
            if int(den) == 0:
                raise InputError("zero denominator", line, col)
            return WeylOperator.constant(sig, QQ(int(val), int(den)))
        if kind == "name":
            try:
                return WeylOperator.gen(sig, val)
            except SignatureMismatch:
                raise InputError(f"unknown variable {val!r}", line, col) from None
        if kind == "(":
            op = expr()
            kind, _, col = toks.pop()
            if kind != ")":
                raise InputError("expected )", line, col)
            return op
        raise InputError(f"unexpected {val or kind!r}", line, col)

    try:
        op = expr()
    except OverflowError as exc:
        raise InputError(str(exc), line) from None
    kind, val, col = toks[-1]
    if kind != "end":
        raise InputError(f"unexpected {val!r}", line, col)
    if digits and max((max(abs(c.numerator), c.denominator) for c in op.terms.values()),
                      default=0) >= 10 ** digits:
        raise InputError(f"coefficient with more than {digits} digits", line)
    return op


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

class ProblemFile:
    """Declarative problem description.

    Keys: vars (ordered list), f, annihilator (list of operator expressions),
    lambda0 (rational p/q), k (integer), phi (family tag),
    assume_saturated (must be true to run anything past ann-fs).
    """

    def __init__(self, vars, f_text, ann_texts, lambda0=None, k=None, phi=None,
                 assume_saturated=False):
        self.vars = tuple(vars)
        self.sig = d_n(self.vars)
        self.f = parse_operator(f_text, self.sig)
        self.ann = [parse_operator(t, self.sig) for t in ann_texts]
        self.lambda0 = lambda0
        self.k = k
        self.phi = phi
        self.assume_saturated = assume_saturated

    @classmethod
    def load(cls, path):
        keys = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if ":" not in line:
                    raise InputError("expected 'key: value'", lineno)
                key, _, val = line.partition(":")
                key = key.strip()
                if key in keys:
                    raise InputError(f"repeated key {key!r}", lineno)
                keys[key] = (val.strip(), lineno)
        def take(name, default=None):
            return keys.pop(name, (default, None))
        vars_field, _ = take("vars")
        if not vars_field:
            raise InputError("missing 'vars'")
        f_text, f_line = take("f")
        if not f_text:
            raise InputError("missing 'f'")
        ann_field, ann_line = take("annihilator")
        if not ann_field:
            raise InputError("missing 'annihilator'")
        lambda0, lambda0_line = take("lambda0")
        k, k_line = take("k")
        if k is not None and not _INTEGER.fullmatch(k):
            raise InputError(f"not an integer: {k!r}", k_line)
        phi, phi_line = take("phi")
        if phi and phi not in PHI_FAMILIES:
            raise InputError(f"unknown phi family {phi!r}", phi_line)
        sat_text, sat_line = take("assume_saturated")
        sat = _BOOLEANS.get((sat_text or "false").lower())
        if sat is None:
            raise InputError(f"not a boolean: {sat_text!r}", sat_line)
        if keys:
            name, (_, lineno) = next(iter(keys.items()))
            raise InputError(f"unknown key {name!r}", lineno)
        var_names = [v.strip() for v in vars_field.split(",") if v.strip()]
        ann_texts = [t.strip() for t in ann_field.split(",") if t.strip()]
        try:
            return cls(var_names, f_text, ann_texts,
                       lambda0=_parse_rational(lambda0, lambda0_line) if lambda0 else None,
                       k=int(k) if k is not None else None,
                       phi=phi or None,
                       assume_saturated=sat)
        except InputError:
            # operator fields are parsed as one-line texts; parse them again
            # with their file lines so that the error names the right line
            sig = d_n(var_names)
            parse_operator(f_text, sig, f_line)
            for text in ann_texts:
                parse_operator(text, sig, ann_line)
            raise

    def instance(self, strict=True):
        """strict commands require the saturation assertion; ann-fs runs
        without it (the result then annihilates f^s (x) u for the
        f-saturation of D_n/I)."""
        if strict and not self.assume_saturated:
            raise InputError("assume_saturated: true is required past ann-fs "
                             "(saturation is the caller's assertion)")
        try:
            return ProblemInstance.make(self.vars, self.f, self.ann)
        except ValueError as exc:
            raise InputError(str(exc)) from None


_INTEGER = re.compile(r"[+-]?[0-9]+")
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(text, line=None):
    """A rational written [+-]p or [+-]p/q, with decimal digits p and q."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise InputError(f"not a rational p/q: {text!r}", line)
    num, _, den = text.partition("/")
    if den and not int(den):
        raise InputError("zero denominator", line)
    return QQ(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------

def _canonical_strings(ideal):
    order = TermOrder.grevlex(ideal.sig)
    return [g.to_str(order) for g in ideal.basis()]


def _emit(doc, args, wall):
    stats = last_gb_stats()
    doc["gb_stats"] = {
        "pairs_considered": stats.pairs_considered,
        "pairs_skipped": stats.pairs_skipped,
        "zero_reductions": stats.zero_reductions,
        "basis_size": stats.basis_size,
    }
    doc["version"] = __version__
    if args.timings:
        doc["timing"] = {"total_s": round(wall, 3)}
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, val in doc.items():
            if key in ("command", "version", "gb_stats"):
                continue
            if isinstance(val, list):
                print(f"{key}:")
                for v in val:
                    print(f"  {v}")
            elif isinstance(val, dict):
                print(f"{key}:")
                for k2, v2 in val.items():
                    print(f"  {k2}: {v2}")
            else:
                print(f"{key}: {val}")
    print(f"[{doc['command']}] wall time {wall:.2f}s", file=sys.stderr)


def _run_ann_fs(args, prob):
    inst = prob.instance(strict=False)
    ann = ann_fs(inst)
    doc = {"command": "ann-fs", "stage": "ann-fs", "generators": _canonical_strings(ann)}
    if not prob.assume_saturated:
        doc["note"] = ("assume_saturated is false: the generators annihilate "
                       "f^s (x) u for the f-saturation of D_n/I")
    return doc


def _run_bfun(args, prob):
    inst = prob.instance()
    ann = ann_fs(inst)
    b = bfunction(ann, inst.f)
    return {"command": "bfun", "stage": "b-function",
            "bfunction": {"monic": b.poly.to_str(),
                          "factored": b.factored_str()}}


def _run_funceq(args, prob):
    inst = prob.instance()
    ann = ann_fs(inst)
    b = bfunction(ann, inst.f)
    eqn = functional_operator(ann, inst.f, b)
    return {"command": "funceq", "stage": "functional-equation",
            "bfunction": {"monic": b.poly.to_str(), "factored": b.factored_str()},
            "P0": eqn.P0.to_str()}


def _run_laurent(args, prob):
    inst = prob.instance()
    lambda0 = args.lambda0 if args.lambda0 is not None else prob.lambda0
    k = args.k if args.k is not None else prob.k
    if lambda0 is None or k is None:
        raise InputError("laurent needs lambda0 and k (file keys or flags)")
    req = LaurentRequest(inst, lambda0, int(k))
    system = ann_laurent(req)
    return {"command": "laurent", "stage": "laurent-annihilator",
            "lambda0": str(QQ(lambda0)), "k": int(k),
            "pole_order_bound": system.l, "shift_m": system.m,
            "b": system.b.factored_str(),
            "generators": _canonical_strings(system.ann_w)}


def _run_zeta_diff(args, prob):
    inst = prob.instance()
    ops = zeta_difference(inst)
    doc = {"command": "zeta-diff", "stage": "zeta-difference",
           "difference_operators": [op.to_str() for op in ops]}
    g = difference_gcrd(ops)
    doc["gcrd"] = g.to_str()
    return doc


def _run_verify(args, prob):
    inst = prob.instance()
    ann = ann_fs(inst)
    section = LogSection.fs(inst)
    sound = all(annihilates(g, section) for g in ann.basis())
    b = bfunction(ann, inst.f)
    eqn = functional_operator(ann, inst.f, b)
    lhs = apply_log_section(eqn.P0, apply_log_section(inst.f, section))
    rhs = apply_log_section(b.as_operator(inst.sig_s), section)
    funceq_ok = (lhs - rhs).is_zero()
    doc = {"command": "verify", "stage": "verify",
           "annihilator_sound": bool(sound),
           "functional_equation_holds": bool(funceq_ok),
           "bfunction": {"monic": b.poly.to_str(), "factored": b.factored_str()}}
    if prob.phi and len(prob.vars) <= 2:
        ops = zeta_difference(inst)
        order = max(op.max_power for op in ops)
        lams = list(range(0, 7 + order))
        box = PHI_FAMILIES[prob.phi] if args.box is None else args.box
        zv = numeric_zeta(inst.f, PhiSpec(prob.phi), lams, box=box)
        resid = residual_check(ops, list(zip(lams, zv.values)))
        doc["difference_operators"] = [op.to_str() for op in ops]
        doc["numeric_residual"] = resid
        doc["numeric_residual_ok"] = bool(resid <= args.tol)
    return doc


_COMMANDS = {
    "ann-fs": _run_ann_fs,
    "bfun": _run_bfun,
    "funceq": _run_funceq,
    "laurent": _run_laurent,
    "zeta-diff": _run_zeta_diff,
    "verify": _run_verify,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as an InputError instead of exiting with 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    ap = _ArgumentParser(
        prog="holozeta",
        description="Exact D-module computations for f_+^lambda phi and local zeta functions")
    ap.add_argument("--version", action="version", version=f"holozeta {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="problem file")
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timing in the JSON document")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="wall clock limit for the whole command")
        if name == "laurent":
            p.add_argument("--lambda0", type=str, default=None,
                           help="expansion point (rational p/q)")
            p.add_argument("--k", type=int, default=None, help="Laurent index")
        if name == "verify":
            p.add_argument("--box", type=float, default=None,
                           help="quadrature box half-width (default: by phi family, "
                                "12 for gaussian and 50 for the others)")
            p.add_argument("--tol", type=float, default=1e-6,
                           help="numeric residual tolerance")
    return ap


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "lambda0", None) is not None:
        try:
            args.lambda0 = _parse_rational(args.lambda0)
        except ValueError as exc:
            print(f"input error: bad --lambda0: {exc}", file=sys.stderr)
            return 3
    if args.timeout is not None and not args.timeout > 0:
        print(f"input error: --timeout must be positive, not {args.timeout:g}",
              file=sys.stderr)
        return 3
    t0 = time.monotonic()
    try:
        prob = ProblemFile.load(args.problem)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    try:
        with time_limit(None if args.timeout is None else t0 + args.timeout):
            doc = _COMMANDS[args.command](args, prob)
    except GBTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 2
    except (InputError, LaurentRequestError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return 4
    wall = time.monotonic() - t0
    if args.timeout is not None and wall > args.timeout:
        print(f"timeout: the command ended after {wall:.2f} s, past --timeout "
              f"{args.timeout:g}", file=sys.stderr)
        return 2
    _emit(doc, args, wall)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
