"""The verification oracle: exact log-section actions and numeric quadrature."""
import math
import os
import random

import mpmath
import pytest

from holozeta import (
    QQ,
    DifferenceOperator,
    PhiSpec,
    ProblemInstance,
    UPoly,
    WeylOperator,
    ann_fs,
    apply_log_section,
    bfunction,
    build_malgrange,
    d_n,
    d_np1,
    functional_operator,
    numeric_zeta,
    residual_check,
    tau_substitute,
)
from holozeta.cli import ProblemFile
from holozeta.oracle import M_CAP, LogSection, OracleError, annihilates

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")

W = WeylOperator


def rand_op(sig, rng, max_terms=2, max_deg=2):
    out = W.zero(sig)
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * sig.nslots
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(sig.nslots)] += 1
        c = rng.randint(-3, 3)
        if c:
            out = out + W(sig, {tuple(mono): QQ(c)})
    return out


# ---------------------------------------------------------------------------
# symbolic side
# ---------------------------------------------------------------------------

def test_euler_kills_xs(inst_x):
    sig_s = inst_x.sig_s
    x, dx, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    assert annihilates(x * dx - s, LogSection.fs(inst_x))


def test_sections_reduce_with_one_reducer_set(inst_cusp, reducer_builds):
    # every section derived from one LogSection.fs divides by the reducers
    # of the same basis of I, built with the section itself
    section = LogSection.fs(inst_cusp)
    assert len(reducer_builds) == 2       # the basis of I, then its reducers
    reducer_builds.clear()
    x, y, dx, dy, s = (W.gen(inst_cusp.sig_s, n) for n in ("x", "y", "dx", "dy", "s"))
    assert annihilates(2 * x * dx + 3 * y * dy - 6 * s, section)
    assert annihilates(2 * y * dx + 3 * x * x * dy, section)
    assert not annihilates(dx, section)
    assert reducer_builds == []


def test_dx_on_log_section(inst_cusp):
    # dx (f^s log f) = s f_x f^{-1} f^s log f + f_x f^{-1} f^s
    sig_s = inst_cusp.sig_s
    dx = W.gen(sig_s, "dx")
    out = apply_log_section(dx, LogSection.fs(inst_cusp, j=1))
    fx = inst_cusp.f.derivative("x").embed(sig_s)
    s = W.gen(sig_s, "s")
    assert out.fpow == 1
    assert set(out.entries) == {0, 1}
    assert out.entries[1] == s * fx
    assert out.entries[0] == fx


def test_tau_substitution_intertwines_action(inst_cusp):
    # tau(P)(f^s (x) v) = f^s (x) (P v) for random P, v
    rng = random.Random(31)
    sig = inst_cusp.sig
    for _ in range(10):
        P = rand_op(sig, rng)
        v = rand_op(sig, rng)
        section_v = LogSection.fs(inst_cusp, mult=v)
        lhs = apply_log_section(tau_substitute(P, inst_cusp.f), section_v)
        rhs = LogSection.fs(inst_cusp, mult=P * v)
        assert (lhs - rhs).is_zero()


def test_malgrange_annihilates_fs(inst_cusp, inst_gamma, inst_ex3):
    for inst in (inst_cusp, inst_gamma, inst_ex3):
        J = build_malgrange(inst)
        section = LogSection.fs(inst)
        for g in J.generators:
            assert annihilates(g, section)


def _check_linearity_and_composition(v, pairs):
    for P, Q in pairs:
        both = apply_log_section(P + Q, v)
        sep = apply_log_section(P, v) + apply_log_section(Q, v)
        assert (both - sep).is_zero()
        comp = apply_log_section(P * Q, v)
        nested = apply_log_section(P, apply_log_section(Q, v))
        assert (comp - nested).is_zero()


def test_linearity_and_composition(inst_cusp):
    rng = random.Random(37)
    sig_s = inst_cusp.sig_s
    pairs = [(rand_op(sig_s, rng), rand_op(sig_s, rng)) for _ in range(10)]
    _check_linearity_and_composition(LogSection.fs(inst_cusp, j=1), pairs)


def test_linearity_and_composition_with_t_dt(inst_cusp):
    # [dt, t] = 1, so products over D_{n+1} pin the order in which the
    # factors of a normally ordered monomial act: dt first, then t
    rng = random.Random(41)
    sig = d_np1(("x", "y"))
    t, dt = W.gen(sig, "t"), W.gen(sig, "dt")
    pairs = [(dt, t), (t * dt, dt * t)]
    pairs += [(rand_op(sig, rng, 3), rand_op(sig, rng, 3)) for _ in range(10)]
    _check_linearity_and_composition(LogSection.fs(inst_cusp, j=1), pairs)


def test_functional_identity_is_oracle_checked(inst_xsq):
    ann = ann_fs(inst_xsq)
    b = bfunction(ann, inst_xsq.f)
    eqn = functional_operator(ann, inst_xsq.f, b)
    lhs = apply_log_section(eqn.P0, LogSection.fs(inst_xsq, mult=inst_xsq.f))
    rhs = apply_log_section(b.as_operator(inst_xsq.sig_s), LogSection.fs(inst_xsq))
    assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("name", ["cusp", "cusp_gauss", "ex3", "ex4", "ex5", "gamma",
                                  "x^3 + y^5", "x^2 + y^3 + z^4"])
def test_exact_checks(name):
    # verify's exact checks on the shipped problems and two phi = 1 inputs;
    # x^2 + y^3 + z^4 has a P0 of 693 terms, so --durations times the oracle
    if "^" in name:
        xs = ("x", "y", "z")[:name.count("+") + 1]
        prob = ProblemFile(xs, name, ["d" + x for x in xs], assume_saturated=True)
    else:
        prob = ProblemFile.load(os.path.join(PROBLEMS, name + ".prob"))
    inst = prob.instance()
    ann = ann_fs(inst)
    b = bfunction(ann, inst.f)
    P0 = functional_operator(ann, inst.f, b).P0
    section = LogSection.fs(inst)
    assert all(annihilates(g, section) for g in ann.basis())
    rhs = apply_log_section(b.as_operator(inst.sig_s), section)
    f_section = LogSection.fs(inst, mult=inst.f)
    assert (apply_log_section(P0, f_section) - rhs).is_zero()
    s = W.gen(inst.sig_s, "s")
    assert not (apply_log_section(P0 + s, f_section) - rhs).is_zero()


def test_vanishing_m_reported(inst_x):
    v = LogSection.fs(inst_x)
    sig_s = inst_x.sig_s
    x, dx, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    out = apply_log_section(x * dx - s, v)
    assert out.vanishing_m() == 0
    nonzero = apply_log_section(dx, v)
    assert nonzero.vanishing_m() is None


def test_vanishing_m_on_unsaturated_module():
    # M = D_1/<x dx> is not x-saturated: dx u != 0 but x dx u = 0
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    inst = ProblemInstance.make(("x",), x, [x * dx])
    assert LogSection.fs(inst, mult=dx).vanishing_m() == 1
    assert LogSection.fs(inst, mult=dx).is_zero()
    # no power x^m with m <= M_CAP sends u into <x dx>
    assert LogSection.fs(inst).vanishing_m() is None
    assert not LogSection.fs(inst, mult=x ** M_CAP).is_zero()


def test_annihilation_on_unsaturated_module_above_f_power_zero():
    # M = D_1/<x^2 dx> with f = x is not x-saturated (x dx u != 0 but
    # x (x dx u) = 0), and every dx raises the section's f power
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    inst = ProblemInstance.make(("x",), x, [x * x * dx])
    x, dx, s = (W.gen(inst.sig_s, n) for n in ("x", "dx", "s"))
    section = LogSection.fs(inst)
    for op in (x * dx - s, x * x * dx - s * x, dx * x - s - 1):
        assert apply_log_section(op, section).fpow == 1
        assert annihilates(op, section)
    for op in (dx, x * dx):
        assert not annihilates(op, section)


def test_variable_named_like_a_derivative():
    # the x variable "dog" and its derivative "ddog" are told apart by name
    sig = d_n(("dog",))
    dog, ddog = W.gen(sig, "dog"), W.gen(sig, "ddog")
    inst = ProblemInstance.make(("dog",), dog, [ddog])
    dog_s, ddog_s, s = (W.gen(inst.sig_s, n) for n in ("dog", "ddog", "s"))
    section = LogSection.fs(inst)
    assert annihilates(dog_s * ddog_s - s, section)
    assert not annihilates(ddog_s, section)
    assert not annihilates(dog_s, section)


@pytest.mark.parametrize("name", ["s", "t", "dt"])
def test_numeric_section_rejects_s_t_dt(inst_x, name):
    w = LogSection.fs(inst_x, symbolic=False, a=QQ(1, 2))
    sig = inst_x.sig_s if name == "s" else d_np1(("x",))
    with pytest.raises(OracleError, match="symbolic sections only"):
        apply_log_section(W.gen(sig, name), w)


def test_numeric_section_mode(inst_cusp):
    # numeric-exponent sections only admit D_n operators
    w = LogSection.fs(inst_cusp, symbolic=False, a=QQ(1, 6))
    sig = inst_cusp.sig
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    # Euler relation specializes at s = 1/6
    op = 2 * x * dx + 3 * y * dy - 1
    assert annihilates(op, w)


# ---------------------------------------------------------------------------
# numeric side
# ---------------------------------------------------------------------------

def test_numeric_zeta_gamma_values(inst_gamma):
    phi = PhiSpec("exponential")
    zv = numeric_zeta(inst_gamma.f, phi, [0, 1], tol=1e-8, box=40.0)
    assert abs(zv.values[0] - 1.0) < 1e-8
    assert abs(zv.values[1] - 1.0) < 1e-8


def test_numeric_zeta_two_resolutions(inst_ex3):
    phi = PhiSpec("one_sided_exp_inv")
    a = numeric_zeta(inst_ex3.f, phi, [0, 1, 2], tol=1e-8, box=60.0)
    b = numeric_zeta(inst_ex3.f, phi, [0, 1, 2], tol=1e-8, box=80.0)
    for va, vb in zip(a.values, b.values):
        assert abs(va - vb) <= 1e-8 * max(1.0, abs(va))


def test_numeric_zeta_rejects():
    sig = d_n(("x",))
    x = W.gen(sig, "x")
    with pytest.raises(OracleError):
        numeric_zeta(x, PhiSpec("exponential"), [QQ(-1)])
    with pytest.raises(ValueError):
        PhiSpec("nonsense")


def test_numeric_zeta_empty_region_is_zero():
    # f = -x^2 - 1 < 0 everywhere: Z vanishes identically on the grid
    sig = d_n(("x",))
    x = W.gen(sig, "x")
    f = -(x * x) - 1
    zv = numeric_zeta(f, PhiSpec("gaussian"), [0, 1, 2], box=8.0)
    assert all(abs(v) < 1e-12 for v in zv.values)


def test_numeric_zeta_rejects_derivatives_in_f():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    with pytest.raises(OracleError):
        numeric_zeta(x * dx, PhiSpec("gaussian"), [0])


@pytest.mark.parametrize("n, box, depth", [(1, 4.0, 3), (2, 2.0, 1)], ids=["n1", "n2"])
def test_numeric_zeta_lambdas_share_one_line_split(n, box, depth, monkeypatch):
    # the cuts of each line are found once for every lambda, and one call
    # over several lambdas returns exactly the single-lambda values
    from holozeta import oracle
    sig = d_n(("x", "y")[:n])
    x = W.gen(sig, "x")
    f = x ** 3 - W.gen(sig, "y") ** 2 if n == 2 else x * x - QQ(1, 3)
    splits = []
    split_roots = oracle._split_roots
    monkeypatch.setattr(oracle, "_split_roots",
                        lambda *a: splits.append(a) or split_roots(*a))
    phi = PhiSpec("gaussian")
    together = numeric_zeta(f, phi, [0, 1, 2], box=box, depth=depth).values
    assert len(splits) == (1 if n == 1 else 8 * depth + 1)
    alone = [numeric_zeta(f, phi, [lam], box=box, depth=depth).values[0] for lam in (0, 1, 2)]
    assert together == alone


def test_residual_check_gamma_closed_form():
    op = DifferenceOperator({1: UPoly.one(), 0: UPoly((-1, -1))})
    grid = [(i, float(mpmath.gamma(i + 1))) for i in range(0, 8)]
    assert residual_check([op], grid) < 1e-12


def test_residual_check_unit_sanity():
    unit = DifferenceOperator({0: UPoly.one()})
    grid = [(i, float(mpmath.gamma(i + 1))) for i in range(0, 4)]
    assert residual_check([unit], grid) == 1.0


def test_residual_check_guards():
    op = DifferenceOperator({3: UPoly.one(), 0: UPoly.one()})
    grid = [(0, 1.0), (1, 1.0)]
    with pytest.raises(OracleError):
        residual_check([op], grid)
    with pytest.raises(OracleError):
        residual_check([op], [(0, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)])
