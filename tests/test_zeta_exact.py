"""Exact checks of zeta-diff answers in any number of variables.

Quadrature (verify) covers n <= 2 only.  These checks need neither
quadrature nor sympy: closed forms of Z(lambda) for monomials and spheres,
and, for the Gaussian weight, the exact two-sided moments of f.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holozeta import (
    QQ,
    DifferenceOperator,
    ProblemInstance,
    UPoly,
    WeylOperator,
    d_n,
    difference_gcrd,
    zeta_difference,
)

from conftest import difference_member

W = WeylOperator


def _instance(names, f, weight):
    """f(*xs) with phi = exp(-|x|^2) ("gaussian") or exp(-sum x_i)
    ("exponential")."""
    sig = d_n(names)
    xs = [W.gen(sig, n) for n in names]
    ann = [W.gen(sig, "d" + n) + (2 * x if weight == "gaussian" else 1)
           for n, x in zip(names, xs)]
    return ProblemInstance.make(names, f(*xs), ann)


# ---------------------------------------------------------------------------
# moments of the Gaussian weight
#
# For phi = exp(-|x|^2), u(t) = int delta(t - f) phi dx decays fast on both
# sides, so the Mellin rules t -> E, dt -> -s E^-1 hold without boundary
# terms for the two-sided moments M(m) = int_(R^n) f^m phi dx: every printed
# operator sum_k a_k(s) E^k satisfies sum_k a_k(m) M(m + k) = 0 for m >= 0.
# ---------------------------------------------------------------------------

def _gaussian_moments(f, count):
    """M(0), ..., M(count - 1) divided by pi^(n/2), exactly, for a
    polynomial f in the x's: int x^(2j) exp(-x^2) dx = sqrt(pi) (2j-1)!!/2^j
    and odd powers integrate to 0."""
    n = f.sig.n_x

    def gauss(e):
        return QQ(0) if e % 2 else QQ(math.prod(range(e - 1, 0, -2)), 2 ** (e // 2))

    moments, power = [], W.one(f.sig)
    for _ in range(count):
        moments.append(sum((c * math.prod(gauss(e) for e in m[:n])
                            for m, c in power.exponent_terms().items()), QQ(0)))
        power = power * f
    return moments


def _moment_residuals(op, moments):
    """sum_k a_k(m) M(m + k) for m = 0 .. order + 8."""
    return [sum((a.eval(m) * moments[m + k] for k, a in op.coeffs.items()), QQ(0))
            for m in range(op.order + 9)]


@pytest.mark.parametrize("names,f", [
    (("x", "y"), lambda x, y: x ** 3 - y * y),
    (("x", "y"), lambda x, y: x ** 5 - y * y),
    (("x", "y", "z"), lambda x, y, z: x * x + y * y + z * z),
    (("x", "y"), lambda x, y: x * x * y * y),
], ids=["cusp_gauss", "x5-y2-gauss", "x2+y2+z2-gauss", "x2y2-gauss"])
def test_gaussian_moments_satisfy_every_printed_operator(names, f):
    inst = _instance(names, f, "gaussian")
    ops = zeta_difference(inst)
    gcrd = difference_gcrd(ops)
    top = max(op.order for op in ops + [gcrd])
    moments = _gaussian_moments(inst.f, 2 * top + 9)
    assert all(moments)
    for op in ops + [gcrd]:
        assert min(op.coeffs) == 0
        assert not any(_moment_residuals(op, moments))
    # one coefficient off by 1 breaks the identity
    mutated = DifferenceOperator({**gcrd.coeffs, 0: gcrd.coeffs.get(0, UPoly.zero()) + 1})
    assert any(_moment_residuals(mutated, moments))


# ---------------------------------------------------------------------------
# closed forms: Z is hypergeometric, so its annihilator over Q(s)<E> is
# generated by the first-order closed form, which must right-divide every
# printed operator and equal their gcrd
# ---------------------------------------------------------------------------

def _assert_closed_form(inst, closed):
    ops = zeta_difference(inst)
    for op in ops:
        assert difference_member(op, [closed])
    assert difference_gcrd(ops) == closed.normalized()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 2), min_size=1, max_size=3))
def test_exponential_weight_on_a_monomial(exponents):
    # f = prod x_i^a_i, phi = exp(-sum x_i): formally Z = prod Gamma(a_i s + 1),
    # so E - prod_i prod_(k=1..a_i) (a_i s + k)
    names = ("x", "y", "z")[:len(exponents)]
    inst = _instance(names, lambda *xs: math.prod(x ** a for x, a in zip(xs, exponents)),
                     "exponential")
    rhs = math.prod((UPoly((k, a)) for a in exponents for k in range(1, a + 1)), start=UPoly.one())
    _assert_closed_form(inst, DifferenceOperator({1: UPoly.one(), 0: -rhs}))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gaussian_weight_on_a_sphere(n):
    # f = |x|^2, phi = exp(-|x|^2): Z = pi^(n/2) Gamma(s + n/2) / Gamma(n/2),
    # so 2E - (2s + n)
    names = ("x", "y", "z", "w")[:n]
    inst = _instance(names, lambda *xs: sum(x * x for x in xs), "gaussian")
    _assert_closed_form(inst, DifferenceOperator({1: UPoly((2,)), 0: UPoly((-n, -2))}))
