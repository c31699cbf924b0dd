"""Laurent expansion operators in e = s - lambda0, the log-tower module J_k, and
the annihilators of Laurent coefficients."""
import dataclasses
import math
import random

import pytest

from holozeta import (
    QQ,
    IdealPresentation,
    LaurentRequest,
    UPoly,
    WeylOperator,
    ann_fs,
    ann_laurent,
    bfunction,
    build_Jk,
    functional_operator,
    laurent_operators,
    shift_compose,
)
from holozeta.laurent import default_shift
from holozeta.oracle import LogSection, apply_log_section

from conftest import deriv, max_extra_degree, same_ideal

W = WeylOperator


class RatFunc:
    """Rational function num/den over Q, gcd-reduced, den monic."""

    def __init__(self, num, den):
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        self.num = num * (QQ(1) / den.lead)
        self.den = den.monic()


def _reference_operators(inst, lam, l, k, c):
    """laurent_operators on the global product P0(s)...P0(s+m-1), shifted."""
    ann = ann_fs(inst)
    eqn = functional_operator(ann, inst.f, bfunction(ann, inst.f))
    P = shift_compose(eqn, default_shift(lam)).P0
    return laurent_operators(P.shift_extra("s", lam), c, l, k)


def test_ann_laurent_matches_global_product(inst_cusp, inst_ex5):
    # the product built factor by factor modulo e^(l+k+1) gives the same
    # Q_kj as the full shifted product of shift_compose
    cases = [(inst_cusp, lam, k) for lam in (QQ(-1), QQ(-5, 6), QQ(-7, 6))
             for k in (-1, 0)] + [(inst_ex5, QQ(-4, 3), -1)]
    for inst, lam, k in cases:
        system = ann_laurent(LaurentRequest(inst, lam, k))
        assert system.l == 1
        ref = _reference_operators(inst, lam, system.l, k, system.c)
        assert list(system.Qk) == ref, (lam, k)


def _factorization_holds(system):
    return (system.c * UPoly.x() ** system.l == system.b.poly.shift(system.lambda0)
            and system.c[0] != 0)


def test_check_factorization(inst_cusp, inst_ex5):
    # b_m(lambda0 + e) = c(e) e^l with c(0) != 0, at simple roots, a double
    # root (ex5 at -5/6, l = 2) and a point that is not a root (l = 0)
    cases = [(inst_cusp, QQ(-1), 1), (inst_cusp, QQ(-5, 6), 1), (inst_cusp, QQ(-7, 6), 1),
             (inst_ex5, QQ(-5, 6), 2), (inst_cusp, QQ(-1, 2), 0)]
    for inst, lam, l in cases:
        system = ann_laurent(LaurentRequest(inst, lam, -l))
        assert system.l == l
        assert _factorization_holds(system)
        assert not _factorization_holds(dataclasses.replace(system, l=l + 1))
        if l:
            # the same product with one factor e left inside c: c(0) = 0
            short = dataclasses.replace(system, l=l - 1, c=system.c * UPoly.x())
            assert not _factorization_holds(short)


def test_default_shift():
    assert default_shift(QQ(-1)) == 2
    assert default_shift(QQ(-5, 6)) == 1
    assert default_shift(QQ(-7, 6)) == 2
    assert default_shift(QQ(1, 2)) == 0


def test_laurent_operators_trivial_cases(inst_x):
    sig_s = inst_x.sig_s
    sig = inst_x.sig
    dx = W.gen(sig_s, "dx")
    c = UPoly((2, 1))           # s + 2
    # l = 0, k = 0: single operator c(lam)^-1 P(lam)
    ops = laurent_operators(dx, c.shift(-1), 0, 0)
    assert len(ops) == 1
    assert ops[0] == W.gen(sig, "dx").scale(QQ(1, 1))
    # P = (s - lam) R: forced vanishing of Q_{-1,0}
    s = W.gen(sig_s, "s")
    P = (s + 1) * dx
    ops = laurent_operators(P.shift_extra("s", -1), c.shift(-1), 1, -1)
    assert len(ops) == 1 and ops[0].is_zero()


def _taylor_by_quotient_rule(P, c, lam, nmax, sig):
    """Independent oracle: d^r/ds^r (P/c) via the quotient rule, exactly."""
    # represent P as operator coefficients by s-power; differentiate the
    # rational-function pair (num, den) symbolically
    outs = []
    degs = max_extra_degree(P, "s")
    by_power = P.coefficients(("s",), sig)
    coeffs = [by_power.get((e,), W.zero(sig)) for e in range(degs + 1)]

    def eval_deriv(r):
        # d^r/ds^r (s^e / c(s)) at lam, via RatFunc arithmetic per power
        total = W.zero(sig)
        for e, op in enumerate(coeffs):
            if op.is_zero():
                continue
            fr = RatFunc(UPoly([0] * e + [1]), c)
            for _ in range(r):
                # quotient rule: (n/d)' = (n'd - nd')/d^2
                n, d = fr.num, fr.den
                fr = RatFunc(deriv(n) * d - n * deriv(d), d * d)
            val = fr.num.eval(lam) / fr.den.eval(lam)
            total = total + op.scale(val)
        return total

    for r in range(nmax + 1):
        outs.append(eval_deriv(r).scale(QQ(1, math.factorial(r))))
    return outs


def test_laurent_operators_against_derivative_oracle():
    # generic P of s-degree 2: Taylor data cross-checked against symbolic
    # differentiation via the quotient rule
    rng = random.Random(2)
    sig_s = IdealPresentation  # placeholder to appease linters
    from holozeta import d_n, d_n_s
    sig_s = d_n_s(("x",))
    sig = d_n(("x",))
    x, dx, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    P = (s * s) * dx + s * x * dx + x * x + 3
    c = UPoly((3, 4, 1))        # (s+1)(s+3)
    lam = QQ(-2)
    l, k = 1, 1
    N = l + k
    ops = laurent_operators(P.shift_extra("s", lam), c.shift(lam), l, k)
    taylor = _taylor_by_quotient_rule(P, c, lam, N, sig)
    # Q_kj = (1/j!) T_{N-j} where T_r is the r-th Taylor coefficient
    for j in range(N + 1):
        expected = taylor[N - j].scale(QQ(1, math.factorial(j)))
        assert ops[j] == expected


def test_laurent_operators_series_consistency():
    # truncate(c * computed Taylor series, N) == truncate(P expansion, N)
    from holozeta import d_n, d_n_s
    sig_s = d_n_s(("x",))
    sig = d_n(("x",))
    x, dx, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    P = (s + 2) * (s + 5) * dx + x
    c = UPoly((2, 1))
    lam = QQ(-3)
    l, k = 2, 0
    N = l + k
    ops = laurent_operators(P.shift_extra("s", lam), c.shift(lam), l, k)
    # reconstruct Taylor coefficients T_r = j! Q_{k, N-r}... T_r = ops[N-r]*(N-r)!
    taylor = [ops[N - r].scale(math.factorial(N - r)) for r in range(N + 1)]
    # multiply by c's expansion at lam and compare with P's expansion
    cshift = c.shift(lam)
    degs = max_extra_degree(P, "s")
    by_power = P.coefficients(("s",), sig)
    pcoeffs = [by_power.get((e,), W.zero(sig)) for e in range(degs + 1)]
    for r in range(N + 1):
        lhs = W.zero(sig)
        for i in range(r + 1):
            lhs = lhs + taylor[i].scale(cshift[r - i])
        rhs = W.zero(sig)
        for e in range(r, degs + 1):
            rhs = rhs + pcoeffs[e].scale(math.comb(e, r) * lam ** (e - r))
        assert lhs == rhs, r


def test_build_Jk_k0_is_ann(inst_x):
    ann = ann_fs(inst_x)
    J0 = build_Jk(ann, 0)
    assert J0.rank == 1
    assert [v[0] for v in J0.generators] == list(ann.generators)


def test_build_Jk_k1_example(inst_x):
    ann = ann_fs(inst_x)
    sig_s = inst_x.sig_s
    x, dx, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    Q = x * dx - s
    J1 = build_Jk(IdealPresentation(sig_s, [Q]), 1)
    zero = W.zero(sig_s)
    assert J1.generators == ((Q, zero), (W.constant(sig_s, -1), Q))


def test_build_Jk_annihilates_log_tuple(inst_cusp):
    # each generator annihilates (f^s (x) u, f^s log f (x) u, ...)
    ann = ann_fs(inst_cusp)
    k = 1
    Jk = build_Jk(ann, k)
    for vec in Jk.generators:
        total = None
        for j, op in enumerate(vec):
            piece = apply_log_section(op, LogSection.fs(inst_cusp, j=j))
            total = piece if total is None else total + piece
        assert total.is_zero()


def test_ann_laurent_cusp_residues(inst_cusp):
    sig = inst_cusp.sig
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    f = inst_cusp.f
    sys1 = ann_laurent(LaurentRequest(inst_cusp, QQ(-1), -1))
    assert sys1.l == 1
    expected1 = IdealPresentation(sig, [2 * x * dx + 3 * y * dy + 6,
                                     2 * y * dx + 3 * x * x * dy, f])
    assert same_ideal(sys1.ann_w, expected1)

    sys2 = ann_laurent(LaurentRequest(inst_cusp, QQ(-5, 6), -1))
    assert same_ideal(sys2.ann_w, IdealPresentation(sig, [x, y]))

    sys3 = ann_laurent(LaurentRequest(inst_cusp, QQ(-7, 6), -1))
    expected3 = IdealPresentation(sig, [x * x, x * dx + 2, y])
    assert same_ideal(sys3.ann_w, expected3)


def test_ann_laurent_finite_part_of_x(inst_x):
    # f = x at lambda0 = -1: the residue is delta, the k = 0 coefficient is
    # the finite part Pf x_+^{-1}: x(x dx + 1) annihilates it, x dx + 1 does
    # not (dx x Pf = delta), x does not
    res = ann_laurent(LaurentRequest(inst_x, QQ(-1), -1))
    sig = inst_x.sig
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert list(res.ann_w.basis()) == [x]
    fp = ann_laurent(LaurentRequest(inst_x, QQ(-1), 0))
    assert fp.ann_w.contains(x * x * dx + x)
    assert not fp.ann_w.contains(x * dx + 1)
    assert not fp.ann_w.contains(x)


def test_ann_laurent_validates_k(inst_x):
    with pytest.raises(ValueError):
        ann_laurent(LaurentRequest(inst_x, QQ(-1), -2))


def test_laurent_system_invariants(inst_cusp):
    sysm = ann_laurent(LaurentRequest(inst_cusp, QQ(-5, 6), -1))
    assert _factorization_holds(sysm)
    # each generator, contracted with Qk, lies in J_{l+k}|_{s=lam+m}
    for g in sysm.ann_w.basis():
        vec = tuple(g * q for q in sysm.Qk)
        assert sysm.Jk_sub.contains(vec)


def test_laurent_oracle_soundness(inst_cusp):
    # generators annihilate the concrete section w exactly
    for lam in (QQ(-1), QQ(-5, 6)):
        sysm = ann_laurent(LaurentRequest(inst_cusp, lam, -1))
        a = lam + sysm.m
        w = None
        for j, Qj in enumerate(sysm.Qk):
            piece = LogSection.fs(inst_cusp, j=j, mult=Qj, symbolic=False, a=a)
            w = piece if w is None else w + piece
        for g in sysm.ann_w.basis():
            assert apply_log_section(g, w).is_zero()


def test_laurent_monotonicity_next_level(inst_cusp):
    # membership re-verified one level up: the zero-padded contraction
    # (g Q_0, ..., g Q_{l+k}, 0) lies in J_{l+k+1}|_{s=lam+m}
    from holozeta import SubmodulePresentation, build_Jk
    for lam in (QQ(-1), QQ(-5, 6)):
        system = ann_laurent(LaurentRequest(inst_cusp, lam, -1))
        N = system.l - 1
        ann = ann_fs(inst_cusp)
        Jk1 = build_Jk(ann, N + 1)
        a = lam + system.m
        sig = inst_cusp.sig
        sub = SubmodulePresentation.make(
            N + 2, sig,
            [tuple(op.subs_extra("s", a, sig) for op in vec) for vec in Jk1.generators])
        zero = W.zero(sig)
        for g in system.ann_w.basis():
            vec = tuple(g * q for q in system.Qk) + (zero,)
            assert sub.contains(vec)
