"""Correctness checks on CLI answers, run outside the timed region.

Every answer must equal the reference document recorded from the seed
commit (``references/<workload>.json``).  Brieskorn-Pham b-functions and the
gamma and ex3 difference operators are also checked against closed forms.
The references themselves are confirmed by the oracle: the functional
equation identity for each funceq answer and a numeric residual for each
convergent zeta-diff answer (``confirm_references``).
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import workloads

REFERENCES = Path(__file__).resolve().parent / "references"

# keys of a CLI document that describe the run or the program, not the answer
DIAGNOSTIC_KEYS = ("gb_stats", "stages", "timing", "version")

CLOSED_FORM_ZETA = {
    "gamma": ["E - (s+1)"],
    "ex3": ["E^2 - (s+2)*E - 1"],
}

# zeta-diff answers confirmed numerically: Z(lambda) converges for these
# weights.  For y2-x2-ex4w and y2-x3-ex4w the set {f > 0} contains y -> -inf,
# where ex4's factor exp(-y) grows, and cusp has phi = 1 on the plane, so Z
# diverges and no quadrature can confirm them.
NUMERIC_ZETA = {"cusp_gauss": 5.0, "x5-y2-gauss": 9.0}     # name -> quadrature box
NUMERIC_TOL = 5e-3


def answer_of(stdout_text):
    """The answer part of a CLI JSON document, as canonical text."""
    doc = json.loads(stdout_text)
    for key in DIAGNOSTIC_KEYS:
        doc.pop(key, None)
    return canonical(doc)


def canonical(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


def load_references(workload):
    path = REFERENCES / f"{workload}.json"
    return {key: canonical(doc) for key, doc in json.loads(path.read_text()).items()}


def parse_upoly(text, var="s"):
    """Coefficients (lowest degree first) of a printed univariate polynomial.

    Accepts both the spaced form ``s^3 + 3*s^2 + 107/36*s + 35/36`` and the
    compact form ``108s^3+940s^2-2692s``.
    """
    coeffs = {}
    body = text.replace(" ", "")
    for sign, num, mono, exp in re.findall(
            rf"([+-]?)(\d+(?:/\d+)?)?\*?({var}(?:\^(\d+))?)?", body):
        if not num and not mono:
            continue
        c = Fraction(num) if num else Fraction(1)
        e = (int(exp) if exp else 1) if mono else 0
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    if not coeffs:
        raise ValueError(f"not a polynomial: {text!r}")
    return [coeffs.get(e, Fraction(0)) for e in range(max(coeffs) + 1)]


def brieskorn_pham_b(a, b):
    """(s+1) * prod (s + i/a + j/b) over the distinct values, 0<i<a, 0<j<b."""
    roots = {Fraction(1)} | {Fraction(i, a) + Fraction(j, b)
                             for i in range(1, a) for j in range(1, b)}
    poly = [Fraction(1)]
    for r in sorted(roots):
        poly = _mul_linear(poly, r)
    return poly


def _mul_linear(poly, r):
    """poly * (s + r), coefficients lowest degree first."""
    out = [Fraction(0)] * (len(poly) + 1)
    for e, c in enumerate(poly):
        out[e] += r * c
        out[e + 1] += c
    return out


def check(op, text, references):
    """None when the answer is right, else the reason it is wrong."""
    try:
        got = answer_of(text)
    except ValueError as exc:
        return f"unparsable document: {exc}"
    doc = json.loads(got)
    problem = workloads.problems()[op.problem]
    if op.command == "funceq" and problem.bp:
        want = brieskorn_pham_b(*problem.bp)
        if parse_upoly(doc["bfunction"]["monic"]) != want:
            return f"b-function {doc['bfunction']['monic']} is not the closed form"
    if op.command == "zeta-diff" and op.problem in CLOSED_FORM_ZETA:
        if doc["difference_operators"] != CLOSED_FORM_ZETA[op.problem]:
            return f"difference operators {doc['difference_operators']} are not the closed form"
    ref = references.get(op.key)
    if ref is None:
        # only the over-cap probes lack a reference; a funceq answer can
        # still be confirmed by the oracle
        if op.command == "funceq":
            return confirm_funceq(problem, doc)
        return f"no reference answer for {op.key!r}"
    if got != ref:
        return "answer differs from the reference"
    return None


def _instance(problem):
    from holozeta.cli import ProblemFile
    return ProblemFile(problem.vars, problem.f, problem.ann, phi=problem.phi,
                       assume_saturated=True).instance()


def confirm_funceq(problem, doc):
    """Oracle: P0(s) f^(s+1) = b(s) f^s on the exact log-section of f^s u."""
    from holozeta.cli import parse_operator
    from holozeta.oracle import LogSection, apply_log_section
    inst = _instance(problem)
    P0 = parse_operator(doc["P0"], inst.sig_s)
    b = parse_operator(doc["bfunction"]["monic"], inst.sig_s)
    lhs = apply_log_section(P0, LogSection.fs(inst, mult=inst.f))
    rhs = apply_log_section(b, LogSection.fs(inst))
    if not (lhs - rhs).is_zero():
        return "the oracle rejects the functional equation"
    return None


def parse_difference_operator(text):
    """A DifferenceOperator from its printed form, e.g. ``E^2 - (s+2)*E - 1``."""
    from holozeta.integration import DifferenceOperator
    from holozeta.upoly import UPoly
    pieces = re.split(r" ([+-]) ", text)
    coeffs = {}
    for sign, body in zip(["+"] + pieces[1::2], pieces[0::2]):
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        m = re.fullmatch(r"(?:\((.+)\)|(\d+(?:/\d+)?))?\*?(E(?:\^(\d+))?)?", body)
        if m is None:
            raise ValueError(f"not a difference operator term: {body!r}")
        poly, const, shift, power = m.groups()
        k = (int(power) if power else 1) if shift else 0
        c = parse_upoly(poly) if poly else [Fraction(const or 1)]
        coeffs[k] = UPoly([-v for v in c] if sign == "-" else c)
    return DifferenceOperator(coeffs)


def confirm_zeta(problem, doc, box):
    """Oracle: the operators annihilate Z(lambda) computed by quadrature."""
    from holozeta.oracle import PhiSpec, numeric_zeta, residual_check
    texts = doc["difference_operators"]
    ops = [parse_difference_operator(t) for t in texts]
    if [op.to_str() for op in ops] != texts:
        return "difference operators do not print back as read"
    lams = list(range(0, 2 + max(op.max_power for op in ops)))
    zv = numeric_zeta(_instance(problem).f, PhiSpec(problem.phi), lams,
                      tol=1e-3, box=box, depth=10)
    resid = residual_check(ops, list(zip(lams, zv.values)))
    if resid > NUMERIC_TOL:
        return f"numeric residual {resid:.3g} above {NUMERIC_TOL}"
    return None


def confirm_references(workload, references):
    """Oracle confirmation of a workload's reference answers.

    ``references`` maps operation keys to canonical answers.  Returns
    {operation key: reason} for every reference the oracle rejects.
    Laurent answers have no oracle; they are checked against the
    references only.
    """
    table = workloads.problems()
    failures = {}
    for op in workloads.operations(workload):
        doc = json.loads(references[op.key])
        problem = table[op.problem]
        reason = None
        if op.command == "funceq":
            reason = confirm_funceq(problem, doc)
        elif op.command == "zeta-diff" and op.problem in NUMERIC_ZETA:
            reason = confirm_zeta(problem, doc, NUMERIC_ZETA[op.problem])
        if reason is not None:
            failures[op.key] = reason
    return failures
