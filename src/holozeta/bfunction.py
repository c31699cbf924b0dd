"""Generalized b-functions and functional-equation operators.

b is the monic generator of C[s] cap (Ann(f^s (x) u) + D_n[s] f): the minimal
polynomial of s on D_n[s]/(Ann + D_n[s] f), found as the first linear
dependency among the normal forms of 1, s, s^2, ... against one grevlex
basis.  A functional operator P0 with P0(s) f^(s+1) (x) u = b(s) f^s (x) u is
recovered from an exact representation b = sum a_i g_i + P0 f produced by the
module engine.
"""
from __future__ import annotations

from dataclasses import dataclass

from .upoly import UPoly
from .weyl_core import (
    QQ,
    IdealPresentation,
    WeylOperator,
    minimal_polynomial,
    represent,
)


class NoBFunction(RuntimeError):
    """C[s] meets ann + D_n[s] f trivially (non-holonomic input)."""


class NotInIdeal(RuntimeError, ValueError):
    """b(s) has no representation over ann + D_n[s] f.

    An internal failure when b is the b-function; it stays a ValueError for
    callers that catch the error this used to be.
    """


@dataclass(frozen=True)
class BFunction:
    """Monic polynomial in s with its rational-root factorization.

    poly = nonrational_part * prod (s - root)^mult up to the monic scaling;
    nonrational_part is integer-primitive and has no rational roots.
    """

    poly: UPoly
    rational_roots: tuple
    nonrational_part: UPoly

    @classmethod
    def from_upoly(cls, p):
        if not p:
            raise NoBFunction("no b-function found (input not holonomic?)")
        p = p.monic()
        roots, rest = p.rational_roots()
        return cls(p, tuple(roots), rest)

    def multiplicity(self, root):
        root = QQ(root)
        for r, m in self.rational_roots:
            if r == root:
                return m
        return 0

    @property
    def degree(self):
        return self.poly.degree

    def as_operator(self, sig):
        """Embed into D_n[s] (sig must carry the extra s)."""
        return WeylOperator(sig, {sig.mono({"s": e}): c for e, c in enumerate(self.poly.c)})

    def factored_str(self):
        """Integer-cleared factored display, e.g. (s+1)(6s+5)(6s+7).

        Equals poly up to a positive rational scalar.  Rational-root factors
        are printed as (q s - p) for the root p/q, sorted by (q, |p|, p);
        a nontrivial rootless cofactor is appended in its primitive form.
        """
        factors = []
        for r, m in self.rational_roots:
            p, q = int(r.numerator), int(r.denominator)
            if q == 1 and p == 0:
                body = "s"
            else:
                body = UPoly((-p, q)).to_str(compact=True)
            factors.append(((q, abs(p), p), body, m))
        factors.sort(key=lambda f: f[0])
        out = ""
        for _, body, m in factors:
            piece = f"({body})" if body != "s" else "s"
            out += piece + (f"^{m}" if m > 1 else "")
        if self.nonrational_part.degree > 0:
            out += f"({self.nonrational_part.to_str(compact=True)})"
        return out or "1"


@dataclass(frozen=True)
class FunctionalEquation:
    """P0(s) f^(s+m) (x) u = b(s) f^s (x) u; m = 1 for the basic equation."""

    b: BFunction
    P0: WeylOperator
    shift: int = 1

    def check(self, ann, f):
        """P0 * f^shift - b(s) must lie in the annihilator ideal."""
        sig_s = self.P0.sig
        lhs = self.P0 * f.embed(sig_s) ** self.shift - self.b.as_operator(sig_s)
        return ann.contains(lhs)


def bfunction(ann, f):
    """Monic generator of C[s] cap (ann + D_n[s] f)."""
    sig_s = ann.sig
    ideal = IdealPresentation(sig_s, list(ann.generators) + [f.embed(sig_s)])
    b = minimal_polynomial(WeylOperator.gen(sig_s, "s"), ideal,
                           stage="b-function-elimination")
    return BFunction.from_upoly(b)


def functional_operator(ann, f, b):
    """A P0 with P0(s)(f^(s+1) (x) u) = b(s) f^s (x) u.

    Found as the f-cofactor of an exact representation of b(s) over
    ann.generators + [f]; the membership is guaranteed when b is (a multiple
    of) the b-function.
    """
    sig_s = ann.sig
    fs = f.embed(sig_s)
    gens = list(ann.generators) + [fs]
    target = b.as_operator(sig_s)
    cof = represent(target, gens, stage="functional-operator")
    if cof is None:
        raise NotInIdeal("b(s) is not in ann + D_n[s] f")
    eqn = FunctionalEquation(b, cof[-1], 1)
    if not eqn.check(ann, fs):
        raise AssertionError("internal error: functional equation fails its invariant")
    return eqn


def shift_compose(eqn, m):
    """(P, b) with b(s) f^s = P(s) f^(s+m), P = P0(s) P0(s+1) ... P0(s+m-1)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    sig_s = eqn.P0.sig
    P = WeylOperator.one(sig_s)
    bpoly = UPoly.one()
    for j in range(m):
        P = P * eqn.P0.shift_extra("s", j)
        bpoly = bpoly * eqn.b.poly.shift(j)
    return FunctionalEquation(BFunction.from_upoly(bpoly), P, m)
