"""b-functions, functional-equation operators, shifted compositions."""
import pytest

from holozeta import (
    QQ,
    ProblemInstance,
    UPoly,
    WeylOperator,
    ann_fs,
    bfunction,
    d_n,
    functional_operator,
    shift_compose,
)
from holozeta.bfunction import BFunction
from holozeta.oracle import LogSection, apply_log_section

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


def test_bfunction_structure_roundtrip(inst_cusp):
    b = bfunction(ann_fs(inst_cusp), inst_cusp.f)
    assert b.recompose() == b.poly
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


def test_functional_operator_cusp_oracle_identity(inst_cusp):
    # validity is the oracle identity P0(s) f^{s+1} = b(s) f^s, not a
    # particular operator
    ann = ann_fs(inst_cusp)
    b = bfunction(ann, inst_cusp.f)
    eqn = functional_operator(ann, inst_cusp.f, b)
    assert eqn.P0.order() == 3
    lhs = apply_log_section(eqn.P0, LogSection.fs(inst_cusp, mult=inst_cusp.f))
    rhs = apply_log_section(b.as_operator(inst_cusp.sig_s), LogSection.fs(inst_cusp))
    assert (lhs - rhs).is_zero()


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


@pytest.mark.parametrize("a,b", [(3, 5), (4, 5)])
def test_bfunction_brieskorn_pham_closed_form(a, b):
    # degree-8 and degree-13 b-functions with distinct denominators: their
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
