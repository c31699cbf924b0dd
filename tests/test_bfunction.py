"""b-functions, functional-equation operators, shifted compositions."""
import time

import pytest
from hypothesis import HealthCheck, given, reject, seed, settings
from hypothesis import strategies as st

from holozeta import (
    QQ,
    GBTimeout,
    IdealPresentation,
    ProblemInstance,
    TermOrder,
    UPoly,
    WeylOperator,
    ann_fs,
    bfunction,
    d_n,
    functional_operator,
    minimal_polynomial,
    shift_compose,
    time_limit,
)
from holozeta.bfunction import BFunction, NoBFunction
from holozeta.oracle import LogSection, apply_log_section

from conftest import recompose

W = WeylOperator


def test_bfunction_f_x(inst_x):
    b = bfunction(ann_fs(inst_x), inst_x.f)
    assert b.poly == UPoly((1, 1))
    assert b.factored_str() == "(s+1)"


def test_bfunction_cusp(inst_cusp):
    b = bfunction(ann_fs(inst_cusp), inst_cusp.f)
    assert b.poly == UPoly.from_roots([QQ(-1), QQ(-5, 6), QQ(-7, 6)]).monic()
    assert b.factored_str() == "(s+1)(6s+5)(6s+7)"


def test_bfunction_cusp_gaussian_weight(inst_cusp_gauss):
    b = bfunction(ann_fs(inst_cusp_gauss), inst_cusp_gauss.f)
    assert b.factored_str() == "(s+1)(6s+5)(6s+7)"


def test_bfunction_ex4(inst_ex4):
    b = bfunction(ann_fs(inst_ex4), inst_ex4.f)
    assert b.factored_str() == "(s+1)"


def test_bfunction_ex3_is_one(inst_ex3):
    # ann + D_1[s] f is the unit ideal
    b = bfunction(ann_fs(inst_ex3), inst_ex3.f)
    assert b.poly == UPoly.one()
    assert b.factored_str() == "1"


def _b_ideal(ann, f):
    """ann + D_n[s] f."""
    sig_s = ann.sig
    return IdealPresentation(sig_s, list(ann.generators) + [f.embed(sig_s)])


def test_bfunction_past_deadline_times_out(inst_cusp):
    ann = ann_fs(inst_cusp)
    with pytest.raises(GBTimeout), time_limit(time.monotonic() - 1):
        bfunction(ann, inst_cusp.f)
    # with the grevlex basis already cached, the linear-algebra loop itself
    # must notice the deadline
    ideal = _b_ideal(ann, inst_cusp.f)
    ideal.basis()
    s = W.gen(ann.sig, "s")
    with pytest.raises(GBTimeout, match="b-stage"), time_limit(time.monotonic() - 1):
        minimal_polynomial(s, ideal, "b-stage")


def _instance_d2(f_of, *phi_names):
    """f = f_of(x, y) with I generated by the named operators in D_2."""
    sig = d_n(("x", "y"))
    x, y = W.gen(sig, "x"), W.gen(sig, "y")
    return ProblemInstance.make(("x", "y"), f_of(x, y), [W.gen(sig, n) for n in phi_names])


def test_bfunction_non_holonomic_dy():
    inst = _instance_d2(lambda x, y: x, "dy")
    with pytest.raises(NoBFunction):
        bfunction(ann_fs(inst), inst.f)


def test_bfunction_non_holonomic_dx():
    # D_2/<dx> is not holonomic, against the documented contract on I.  The
    # elimination route found s + 1 here; the quotient by ann + D_2[s] f has
    # dimension 3 > 2, so no b-function is claimed.
    inst = _instance_d2(lambda x, y: x, "dx")
    with pytest.raises(NoBFunction):
        bfunction(ann_fs(inst), inst.f)


# ---------------------------------------------------------------------------
# reference: b as the gcd of the pure-s elements of an elimination basis
# ---------------------------------------------------------------------------

def _bfunction_by_elimination(ann, f):
    """Monic gcd of the basis elements free of x and dx, under a block order
    eliminating every generator but s."""
    sig_s = ann.sig
    front = [n for n in sig_s.names if n != "s"]
    gb = _b_ideal(ann, f).basis(TermOrder.elimination(sig_s, front))
    s_slot = sig_s.slot("s")
    b = UPoly.zero()
    for g in gb:
        terms = g.exponent_terms()
        if any(e for m in terms for i, e in enumerate(m) if i != s_slot):
            continue
        coeffs = [QQ(0)] * (max(m[s_slot] for m in terms) + 1)
        for m, c in terms.items():
            coeffs[m[s_slot]] = c
        b = b.gcd(UPoly(coeffs))
    return b


def _assert_routes_agree(inst):
    ann = ann_fs(inst)
    s = W.gen(ann.sig, "s")
    b = minimal_polynomial(s, _b_ideal(ann, inst.f))
    assert b
    assert b == _bfunction_by_elimination(ann, inst.f)


def test_minimal_polynomial_cusp_is_exact(inst_cusp):
    # the engine divides by integer multipliers inside; b must come out monic
    # and exactly the rational one
    ann = ann_fs(inst_cusp)
    b = minimal_polynomial(W.gen(ann.sig, "s"), _b_ideal(ann, inst_cusp.f))
    # (s+1)(s+5/6)(s+7/6)
    assert b.c == (QQ(35, 36), QQ(107, 36), QQ(3), QQ(1))


def test_minimal_polynomial_matches_elimination(inst_cusp, inst_ex5):
    for inst in (inst_cusp, inst_ex5, _brieskorn_pham(3, 4)):
        _assert_routes_agree(inst)


_MONOS = [(a, b) for a in range(4) for b in range(4) if 1 <= a + b <= 3]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MONOS), st.sampled_from([-3, -2, -1, 1, 2, 3])),
                min_size=1, max_size=3, unique_by=lambda t: t[0]))
def test_minimal_polynomial_matches_elimination_random(terms):
    # phi = 1: I = <dx, dy>
    inst = _instance_d2(lambda x, y: sum(c * x ** a * y ** b for (a, b), c in terms),
                        "dx", "dy")
    _assert_routes_agree(inst)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@seed(20261019)
@given(st.lists(st.tuples(st.sampled_from(_MONOS), st.sampled_from([-3, -2, -1, 1, 2, 3])),
                min_size=1, max_size=3, unique_by=lambda t: t[0]))
def test_bfunction_roots_in_minus_n_zero_and_s_plus_1_divides(terms):
    # Kashiwara: the roots of b are negative rationals, in (-n, 0); phi = 1,
    # so f^(s+1) = f f^s gives the factor s + 1
    inst = _instance_d2(lambda x, y: sum(c * x ** a * y ** b for (a, b), c in terms),
                        "dx", "dy")
    try:
        # a few tiny inputs take seconds (the engine's long tail)
        with time_limit(time.monotonic() + 1):
            bf = bfunction(ann_fs(inst), inst.f)
    except GBTimeout:
        reject()
    assert bf.nonrational_part == UPoly.one()
    assert sum(m for _r, m in bf.rational_roots) == bf.degree
    assert all(-2 < r < 0 for r, _m in bf.rational_roots)
    assert not bf.poly.divmod(UPoly((1, 1)))[1]


def test_bfunction_structure_roundtrip(inst_cusp):
    b = bfunction(ann_fs(inst_cusp), inst_cusp.f)
    assert recompose(b) == b.poly
    assert b.poly.lead == 1
    assert not b.nonrational_part.degree > 0
    assert b.multiplicity(QQ(-5, 6)) == 1 and b.multiplicity(QQ(-1, 2)) == 0


def test_functional_operator_f_x(inst_x):
    ann = ann_fs(inst_x)
    b = bfunction(ann, inst_x.f)
    eqn = functional_operator(ann, inst_x.f, b)
    sig_s = inst_x.sig_s
    assert eqn.P0 == W.gen(sig_s, "dx")
    assert eqn.check(ann, inst_x.f)


def test_functional_operator_f_xsq(inst_xsq):
    ann = ann_fs(inst_xsq)
    b = bfunction(ann, inst_xsq.f)
    assert b.poly == UPoly.from_roots([QQ(-1), QQ(-1, 2)]).monic()
    eqn = functional_operator(ann, inst_xsq.f, b)
    sig_s = inst_xsq.sig_s
    dx = W.gen(sig_s, "dx")
    assert eqn.P0 == (dx * dx).scale(QQ(1, 4))


def _order(op):
    """Max total degree in the d-type slots (dx's and dt)."""
    slots = [ds for _xs, ds in op.sig.pairs]
    return max((sum(m[i] for i in slots) for m in op.exponent_terms()), default=-1)


def test_functional_operator_cusp_oracle_identity(inst_cusp):
    # validity is the oracle identity P0(s) f^{s+1} = b(s) f^s, not a
    # particular operator
    ann = ann_fs(inst_cusp)
    b = bfunction(ann, inst_cusp.f)
    eqn = functional_operator(ann, inst_cusp.f, b)
    assert _order(eqn.P0) == 3
    lhs = apply_log_section(eqn.P0, LogSection.fs(inst_cusp, mult=inst_cusp.f))
    rhs = apply_log_section(b.as_operator(inst_cusp.sig_s), LogSection.fs(inst_cusp))
    assert (lhs - rhs).is_zero()


def test_functional_operator_tail_reduces_only_the_rows_it_uses(monkeypatch):
    # represent reads few rows of its minimal basis: x^2 + y^3 + z^4's
    # remainder of b picks a handful of the front-headed ones, and only
    # those are tail-reduced
    import holozeta.weyl_core as wc
    sig = d_n(("x", "y", "z"))
    x, y, z, dx, dy, dz = (W.gen(sig, n) for n in ("x", "y", "z", "dx", "dy", "dz"))
    inst = ProblemInstance.make(("x", "y", "z"), x ** 2 + y ** 3 + z ** 4, [dx, dy, dz])
    ann = ann_fs(inst)
    b = bfunction(ann, inst.f)
    tails, sizes = [], []
    tail_reduced, engine = wc._tail_reduced, wc.groebner_engine

    def counted_tail(red, kept):
        tails.append(kept.stage)
        return tail_reduced(red, kept)

    def counted_engine(gens, sig, order, stage="groebner", *args, **kwargs):
        out = engine(gens, sig, order, stage, *args, **kwargs)
        sizes.append((stage, wc.last_gb_stats().basis_size))
        return out
    monkeypatch.setattr(wc, "_tail_reduced", counted_tail)
    monkeypatch.setattr(wc, "groebner_engine", counted_engine)
    functional_operator(ann, inst.f, b)
    [minimal] = [n for stage, n in sizes if stage == "functional-operator"]
    assert 0 < tails.count("functional-operator") < minimal


def test_functional_operator_rejects_nonmember(inst_x):
    ann = ann_fs(inst_x)
    with pytest.raises(ValueError):
        functional_operator(ann, inst_x.f, BFunction.from_upoly(UPoly((1,))))


def test_shift_compose_empty_product(inst_x):
    ann = ann_fs(inst_x)
    eqn = functional_operator(ann, inst_x.f, bfunction(ann, inst_x.f))
    zero = shift_compose(eqn, 0)
    assert zero.P0 == W.one(inst_x.sig_s)
    assert zero.b.poly == UPoly.one()


def test_shift_compose_gamma_identity(inst_x):
    ann = ann_fs(inst_x)
    eqn = functional_operator(ann, inst_x.f, bfunction(ann, inst_x.f))
    two = shift_compose(eqn, 2)
    sig_s = inst_x.sig_s
    dx = W.gen(sig_s, "dx")
    assert two.P0 == dx * dx
    assert two.b.poly == UPoly.from_roots([QQ(-1), QQ(-2)]).monic()
    assert two.check(ann, inst_x.f)


def test_shift_compose_cusp_oracle_reverification(inst_cusp):
    ann = ann_fs(inst_cusp)
    eqn = functional_operator(ann, inst_cusp.f, bfunction(ann, inst_cusp.f))
    one = shift_compose(eqn, 1)
    lhs = apply_log_section(one.P0, LogSection.fs(inst_cusp, mult=inst_cusp.f))
    rhs = apply_log_section(one.b.as_operator(inst_cusp.sig_s), LogSection.fs(inst_cusp))
    assert (lhs - rhs).is_zero()


def test_divisibility_under_shift_products(inst_cusp):
    # b0 divides b0(s) b0(s+1) ... b0(s+m-1) for every m >= 1
    ann = ann_fs(inst_cusp)
    eqn = functional_operator(ann, inst_cusp.f, bfunction(ann, inst_cusp.f))
    for m in range(1, 4):
        comp = shift_compose(eqn, m)
        q, r = comp.b.poly.divmod(eqn.b.poly)
        assert not r


def test_functional_equation_invariant_all_instances(
        inst_x, inst_xsq, inst_gamma, inst_ex3, inst_cusp, inst_cusp_gauss):
    for inst in (inst_x, inst_xsq, inst_gamma, inst_ex3, inst_cusp, inst_cusp_gauss):
        ann = ann_fs(inst)
        b = bfunction(ann, inst.f)
        eqn = functional_operator(ann, inst.f, b)
        assert eqn.check(ann, inst.f)


def _brieskorn_pham(a, b):
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    return ProblemInstance.make(("x", "y"), x ** a + y ** b, [dx, dy])


def _brieskorn_pham_b(a, b):
    """(s+1) * prod (s + i/a + j/b) over the distinct values, 0<i<a, 0<j<b."""
    roots = {QQ(i, a) + QQ(j, b) for i in range(1, a) for j in range(1, b)}
    return UPoly.from_roots([QQ(-1)] + sorted(-r for r in roots))


@pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5)])
def test_bfunction_brieskorn_pham_closed_form(a, b):
    # up to the degree-13 b of x^4 + y^5, with distinct denominators: their
    # rational roots drive the Laurent analysis
    inst = _brieskorn_pham(a, b)
    bf = bfunction(ann_fs(inst), inst.f)
    assert bf.poly == _brieskorn_pham_b(a, b)
    assert sum(m for _r, m in bf.rational_roots) == bf.degree
    assert bf.nonrational_part == UPoly.one()


def test_functional_operator_brieskorn_pham_4_5():
    inst = _brieskorn_pham(4, 5)
    ann = ann_fs(inst)
    eqn = functional_operator(ann, inst.f, bfunction(ann, inst.f))
    assert eqn.check(ann, inst.f)
