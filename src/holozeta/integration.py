"""Integration of D_{n+1}/J along the x's, and difference equations for Z.

The integral module D_{n+1}/(J + dx_1 D_{n+1} + ... + dx_n D_{n+1}) is the
restriction to x = 0 of the Fourier transform of J (x_j -> dx_j,
dx_j -> -x_j, t and dt fixed).  The restriction is computed the standard way:
a w-adapted Groebner basis for the weight w(x) = -1, w(dx) = +1 obtained
through Bernstein homogenization (a grevlex basis of the homogenized ideal
comes first: its Hilbert function, which no order changes, lets the weighted
run skip the S-pairs that reduce to zero), the weight b-function b_w(theta) as the
minimal polynomial of theta = sum x_j dx_j modulo in_w(J) (linear algebra on
normal forms against one grevlex basis), truncation at the largest
nonnegative integer root k0, and an exact module elimination over
D_1 = C<t, dt>.  The Mellin map mu(t) = E, mu(dt) = -s E^{-1} then turns the
D_1-annihilator of the class of 1 into difference operators for
Z(lambda) = int f_+^lambda phi dx.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import weyl_core
from .annihilator import build_malgrange
from .upoly import UPoly, _add, _int_gcd, _int_quo, _mul, _primitive, _shift, signed_rising
from .weyl_core import (
    QQ,
    QQ1,
    IdealPresentation,
    SignatureMismatch,
    SubmodulePresentation,
    TermOrder,
    WeylOperator,
    add_term,
    component_zero_ideal,
    d_1,
    minimal_polynomial,
    q_str,
    signed_sum,
)


class NotHolonomic(RuntimeError):
    """The weight b-function vanished: restriction data unavailable."""


def fourier_transform(ideal):
    """x_j -> dx_j, dx_j -> -x_j on every generator; t, dt are fixed.

    A ring automorphism of D_{n+1}; applying it four times is the identity.
    """
    if isinstance(ideal, WeylOperator):
        return _fourier_op(ideal)
    return IdealPresentation(ideal.sig, [_fourier_op(g) for g in ideal.generators])


def _fourier_op(op):
    """sum (-1)^|b| dx^a x^b rest over the terms x^a dx^b rest of op."""
    sig = op.sig
    xs = sig.x_names
    dxs = tuple("d" + x for x in xs)
    out = WeylOperator.zero(sig)
    for a, part in op.coefficients(xs, sig).items():
        dxa = WeylOperator(sig, {sig.mono(zip(dxs, a)): QQ1})
        for b, rest in part.coefficients(dxs, sig).items():
            xb = WeylOperator(sig, {sig.mono(zip(xs, b)): (-1) ** sum(b)})
            out = out + dxa * xb * rest
    return out


# ---------------------------------------------------------------------------
# Bernstein homogenization and the w-adapted basis
# ---------------------------------------------------------------------------

def _w_row(sig):
    """Restriction weight: x_j -> -1, dx_j -> +1, everything else 0."""
    w = {**dict.fromkeys(sig.x_names, -1), **{"d" + x: 1 for x in sig.x_names}}
    return tuple(w.get(name, 0) for name in sig.names)


def w_adapted_basis(ideal, stage="w-adapted-basis"):
    """Groebner basis of the ideal adapted to the restriction weight.

    Generators are Bernstein-homogenized; the graded engine runs with the
    weight row first and h scanned last in the grevlex tiebreak, and its
    minimal basis (primitive integer rows, not tail-reduced: the restriction
    reads only initial forms and low-weight elements, which any w-adapted
    basis provides) is dehomogenized.  Initial forms of the output generate
    in_w.  The leading monomials of a grevlex basis are the weighted run's
    target.  The weighted run calls weyl_core.groebner_engine as looked up
    at call time, so a wrapper patched onto that attribute sees it.
    """
    sig = ideal.sig
    hsig = sig.homogenize()
    row = _w_row(hsig)
    order = TermOrder(hsig, weight_rows=[row])
    ones = dict.fromkeys(hsig.names, 1)
    hideal = IdealPresentation(hsig, [g.homogenize("h", ones, hsig) for g in ideal.generators])
    grevlex = hideal.reducers(stage="w-adapted-basis-grevlex")
    rows = weyl_core.groebner_engine([g.terms for g in hideal.generators], hsig, order, stage,
                                     hilbert_target=[r.lm for r in grevlex.reds])
    # h is the last slot, so the bits below it are the monomial without h;
    # each row is homogeneous, so no two of its terms meet there
    low = (1 << hsig._pk.h_shift) - 1
    return [WeylOperator._of(sig, {m & low: QQ(c) for m, c in row.items()}) for row in rows]


@dataclass(frozen=True)
class RestrictionData:
    """Weight b-function, truncation order, basis and relations at x = 0.

    k0 is None when b_w has no nonnegative integer root; the degree-0
    restriction then vanishes and downstream ideals are the unit ideal.
    basis lists the dx-exponent tuples of weight <= k0; relations is the
    D_1-submodule they satisfy.
    """

    bw: UPoly
    k0: object
    basis: tuple
    relations: SubmodulePresentation


def weight_bfunction(ideal, adapted=None):
    """Generator of in_w(J) cap C[theta], theta = sum x_j dx_j."""
    sig = ideal.sig
    if adapted is None:
        adapted = w_adapted_basis(ideal)
    row = _w_row(sig)
    initials = [g.initial_form(row) for g in adapted]
    theta = sum((WeylOperator.gen(sig, x) * WeylOperator.gen(sig, "d" + x)
                 for x in sig.x_names), WeylOperator.zero(sig))
    bw = minimal_polynomial(theta, IdealPresentation(sig, initials),
                            stage="theta-elimination")
    if not bw:
        raise NotHolonomic("weight b-function is zero: not holonomic along the restriction")
    return bw


def _dx_monomials(sig, max_weight):
    """dx-exponent tuples of total degree <= max_weight, degree-0 first."""
    n = sig.n_x
    if n == 0:
        return ((),)
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(max_weight + 1 - sum(m))]
    return tuple(sorted(out, key=lambda m: (sum(m), m)))


def _at_x_zero(groups, gamma, sig):
    """The x-free part of dx^gamma g, which alone survives at x = 0, from the
    groups {b: rest_b} of g = sum_b x^b rest_b (g.coefficients(xs, sig)).

    By the Leibniz rule only the k = b term of dx^gamma x^b rest_b is
    x-free, and only when b <= gamma: prod_i gamma_i!/(gamma_i-b_i)! times
    dx^(gamma-b) rest_b.
    """
    dxs = tuple("d" + x for x in sig.x_names)
    out = WeylOperator.zero(sig)
    for b, rest in groups.items():
        if all(map(operator.le, b, gamma)):
            lead = sig.mono(zip(dxs, map(operator.sub, gamma, b)))
            out = out + WeylOperator(sig, {lead: math.prod(map(math.perm, gamma, b))}) * rest
    return out


def restriction_data(ideal):
    """All data of the degree-0 restriction of D_{n+1}/ideal to x = 0."""
    sig = ideal.sig
    if not sig.has_t:
        raise SignatureMismatch("restriction expects a D_{n+1} ideal")
    adapted = w_adapted_basis(ideal)
    row = _w_row(sig)
    bw = weight_bfunction(ideal, adapted=adapted)
    k0 = bw.integer_roots_max()
    sig1 = d_1()
    if k0 is None:
        empty = SubmodulePresentation.make(1, sig1, [])
        return RestrictionData(bw, None, ((0,) * sig.n_x,), empty)
    basis = _dx_monomials(sig, k0)
    index = {b: i for i, b in enumerate(basis)}
    dxs = tuple("d" + x for x in sig.x_names)
    relations = []
    for g in adapted:
        mg = g.max_weight(row)
        budget = k0 - mg
        if budget < 0:
            continue
        groups = g.coefficients(sig.x_names, sig)
        for gamma in _dx_monomials(sig, budget):
            cols = [WeylOperator.zero(sig1)] * len(basis)
            for beta, col in _at_x_zero(groups, gamma, sig).coefficients(dxs, sig1).items():
                cols[index[beta]] = col
            if any(cols):
                relations.append(tuple(cols))
    module = SubmodulePresentation.make(len(basis), sig1, relations)
    return RestrictionData(bw, k0, basis, module)


def integration_ideal(ideal):
    """Annihilator in D_1 of the class of 1 in the degree-0 integral module.

    Fourier transform, then restriction to x = 0; the answer is the
    component-0 colon ideal of the truncated relation module.
    """
    FJ = fourier_transform(ideal)
    rd = restriction_data(FJ)
    sig1 = d_1()
    if rd.k0 is None:
        one = WeylOperator.one(sig1)
        return IdealPresentation(sig1, (one,), (one,))
    comp = rd.basis.index((0,) * ideal.sig.n_x)
    return component_zero_ideal(rd.relations, comp, stage="integration-colon")


# ---------------------------------------------------------------------------
# difference operators and the Mellin transform
# ---------------------------------------------------------------------------

class DifferenceOperator:
    """Laurent polynomial in the shift E with coefficients in Q[s].

    E acts by s -> s+1; the commutation E a(s) = a(s+1) E is built into the
    arithmetic.  Normalized form: minimal E-power 0, integer content 1,
    leading coefficient with positive leading sign.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: p for k, p in (coeffs or {}).items() if p}

    @classmethod
    def shift(cls, k=1):
        return cls({k: UPoly.one()})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, DifferenceOperator) and self.coeffs == other.coeffs

    @property
    def order(self):
        return max(self.coeffs) - min(self.coeffs) if self.coeffs else 0

    @property
    def max_power(self):
        return max(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, p in other.coeffs.items():
            add_term(out, k, p)
        return DifferenceOperator(out)

    def __mul__(self, other):
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                add_term(out, i + j, a * b.shift(i))
        return DifferenceOperator(out)

    def normalized(self):
        """Shift so the minimal E-power is 0, clear content, fix the sign."""
        return DifferenceOperator(dict(enumerate(map(UPoly, _to_poly_list(self)))))

    def to_str(self):
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            p = self.coeffs[k]
            sign = "-" if p.lead < 0 else "+"
            q = p if p.lead > 0 else -p
            e = "E" if k == 1 else f"E^{k}"
            if k == 0:
                body = q.to_str(compact=True) if q.degree == 0 else f"({q.to_str(compact=True)})"
            elif q.degree == 0:
                body = e if q.lead == 1 else f"{q_str(q.lead)}*{e}"
            else:
                body = f"({q.to_str(compact=True)})*{e}"
            parts.append((sign, body))
        return signed_sum(parts)

    def __repr__(self):
        return f"<DifferenceOperator {self.to_str()}>"


def mellin_raw(op):
    """mu(t^a dt^b) term by term; may carry negative E-powers (unnormalized)."""
    sig = op.sig
    if sig.n_x != 0 or not sig.has_t:
        raise SignatureMismatch("mellin transform expects a D_1 operator")
    ts, dts = sig.slot("t"), sig.slot("dt")
    terms = op.exponent_terms()
    den = math.lcm(*(c.denominator for c in terms.values()))
    rows = {}
    for m, c in terms.items():
        a, b = m[ts], m[dts]
        # E^a (-s E^-1)^b = (-1)^b (s+a)(s+a-1)...(s+a-b+1) E^(a-b), summed
        # on integers over the common denominator den
        n = c.numerator * (den // c.denominator)
        rows[a - b] = _add(rows.get(a - b, []), [n * v for v in signed_rising(a - b, b)])
    return DifferenceOperator({k: UPoly(QQ(v, den) for v in row) for k, row in rows.items()})


def mellin_to_difference(ideal):
    """Normalized Mellin images of the generators of a D_1 ideal."""
    return [mellin_raw(g).normalized() for g in ideal.generators]


def zeta_difference(inst):
    """Difference operators annihilating Z(lambda) = int f_+^lambda phi dx."""
    J = build_malgrange(inst)
    ann = integration_ideal(J)
    ops = [op for op in mellin_to_difference(ann) if op]
    if not ops:
        raise NotHolonomic("empty difference ideal: integration failed to terminate")
    return ops


# ---------------------------------------------------------------------------
# skew Euclidean layer over Q(s) for the gcrd of the difference operators, done
# fraction-free on integer coefficient lists: primitive pseudo-remainder
# sequences keep the coefficients as integer-content-1 polynomials instead of
# deep Q(s) gcd chains
# ---------------------------------------------------------------------------

def _to_poly_list(op):
    """Dense primitive integer form [c_0, ..., c_d] of op: the minimal E-power
    cleared, each c_i an integer coefficient list, content 1 and a positive
    lead on c_d; [] for the zero operator."""
    if not op:
        return []
    lo, hi = min(op.coeffs), max(op.coeffs)
    cs = _primitive([op.coeffs[k].c if k in op.coeffs else () for k in range(lo, hi + 1)])
    return [_shift(c, -lo) for c in cs]


def _strip_primitive(cs):
    """Divide out the polynomial content, then the integer content."""
    pcont = []
    for c in cs:
        pcont = _int_gcd(pcont, c)
        if len(pcont) == 1:
            break
    if len(pcont) > 1:
        cs = [_int_quo(c, pcont) for c in cs]
    return _primitive(cs)


def _pseudo_right_rem(a, b):
    """Pseudo-remainder of a under right division by b (dense integer lists).

    Vanishes exactly when the true Q(s) remainder does.  Each step clears
    the integer content only; the polynomial content goes once, from the
    finished remainder, which is returned primitive.
    """
    db = len(b) - 1
    while len(a) > db:
        d = len(a) - 1 - db
        lead = _shift(b[db], d)
        neg_lca = [-v for v in a[-1]]
        a = [_mul(c, lead) for c in a]
        for i, bc in enumerate(b):
            a[i + d] = _add(a[i + d], _mul(neg_lca, _shift(bc, d)))
        while a and not a[-1]:
            a.pop()
        a = _primitive(a)
    return _strip_primitive(a)


def difference_gcrd(ops):
    """Greatest common right divisor over Q(s)<E>, normalized.

    Generates the same left ideal of Q(s)<E, E^{-1}> as the inputs.
    """
    ops = [op for op in ops if op]
    if not ops:
        return DifferenceOperator()
    cur = _strip_primitive(_to_poly_list(ops[0]))
    for op in ops[1:]:
        a, b = cur, _strip_primitive(_to_poly_list(op))
        while b:
            a, b = b, _pseudo_right_rem(a, b)
        cur = a
    return DifferenceOperator(dict(enumerate(map(UPoly, cur)))).normalized()
