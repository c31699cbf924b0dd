"""Fourier transform, weight b-functions, restriction, Mellin images, and
difference equations for the local zeta function."""
import random

import pytest

from holozeta import (
    QQ,
    DifferenceOperator,
    IdealPresentation,
    ProblemInstance,
    UPoly,
    WeylOperator,
    build_malgrange,
    d_1,
    d_n,
    d_np1,
    difference_gcrd,
    fourier_transform,
    integration_ideal,
    mellin_to_difference,
    restriction_data,
    weight_bfunction,
    zeta_difference,
)
from holozeta.integration import (
    NotHolonomic,
    _at_x_zero,
    _dx_monomials,
    mellin_raw,
    w_adapted_basis,
)
from holozeta.weyl_core import rational_content

from conftest import difference_member, is_unit

W = WeylOperator


def rand_op(sig, rng, max_terms=3, max_deg=3):
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
# Fourier transform
# ---------------------------------------------------------------------------

def test_fourier_basics():
    sig = d_np1(("x",))
    x, dx, t, dt = (W.gen(sig, n) for n in ("x", "dx", "t", "dt"))
    assert fourier_transform(dx) == -x
    assert fourier_transform(x) == dx
    assert fourier_transform(x * dx) == -x * dx - 1
    assert fourier_transform(t) == t and fourier_transform(dt) == dt


def test_fourier_fourth_power_is_identity():
    rng = random.Random(17)
    sig = d_np1(("x", "y"))
    for _ in range(30):
        op = rand_op(sig, rng)
        im = op
        for _ in range(4):
            im = fourier_transform(im)
        assert im == op


def test_fourier_preserves_commutators():
    sig = d_np1(("x", "y"))
    for name in ("x", "y"):
        xi, di = W.gen(sig, name), W.gen(sig, "d" + name)
        lhs = fourier_transform(di) * fourier_transform(xi) \
            - fourier_transform(xi) * fourier_transform(di)
        assert lhs == W.one(sig)


# ---------------------------------------------------------------------------
# weight b-function and restriction data
# ---------------------------------------------------------------------------

def test_weight_bfunction_hand_cases():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert weight_bfunction(IdealPresentation(sig, [dx])) == UPoly((0, 1))
    assert weight_bfunction(IdealPresentation(sig, [x])) == UPoly((1, 1))


def test_weight_bfunction_gamma_case(inst_gamma):
    FJ = fourier_transform(build_malgrange(inst_gamma))
    bw = weight_bfunction(FJ)
    assert bw.degree == 1
    assert bw.integer_roots_max() == 0


def test_restriction_k0_none_gives_unit_ideal():
    # J = <dx, dt + 1> in D_2: F(J) = <-x, dt + 1>, b_w = th + 1, no
    # nonnegative integer root, so the degree-0 integral module vanishes
    sig = d_np1(("x",))
    x, dx, t, dt = (W.gen(sig, n) for n in ("x", "dx", "t", "dt"))
    ideal = IdealPresentation(sig, [dx, dt + 1])
    out = integration_ideal(ideal)
    assert is_unit(out)
    ops = mellin_to_difference(out)
    assert len(ops) == 1 and ops[0].order == 0


def test_restriction_data_shape(inst_gamma):
    FJ = fourier_transform(build_malgrange(inst_gamma))
    rd = restriction_data(FJ)
    assert rd.k0 == 0
    assert rd.basis == ((0,),)
    assert len(rd.relations.generators) >= 1


def _at_x_zero_by_product(g, gamma):
    """The x-free group of the full product dx^gamma g."""
    sig = g.sig
    dx_gamma = W(sig, {sig.mono(zip(("d" + x for x in sig.x_names), gamma)): 1})
    return (dx_gamma * g).coefficients(sig.x_names, sig).get((0,) * sig.n_x, W.zero(sig))


def _assert_restriction_matches_product(gens, max_weight):
    for g in gens:
        sig = g.sig
        groups = g.coefficients(sig.x_names, sig)
        for gamma in _dx_monomials(sig, max_weight):
            assert _at_x_zero(groups, gamma, sig) == _at_x_zero_by_product(g, gamma)


def test_restriction_survivor_matches_full_product_random():
    rng = random.Random(23)
    for sig in (d_np1(("x",)), d_np1(("x", "y"))):
        gens = []
        for _ in range(30):
            g = rand_op(sig, rng, max_terms=4, max_deg=4)
            gens.append(g * QQ(rng.randint(1, 9), rng.randint(1, 9)))
        _assert_restriction_matches_product(gens, 4)


def test_restriction_survivor_matches_full_product_shipped(
        inst_gamma, inst_ex3, inst_cusp, inst_cusp_gauss):
    for inst in (inst_gamma, inst_ex3, inst_cusp, inst_cusp_gauss):
        adapted = w_adapted_basis(fourier_transform(build_malgrange(inst)))
        _assert_restriction_matches_product(adapted, 3)


def test_weight_bfunction_not_holonomic_error():
    sig = d_n(("x", "y"))
    dx = W.gen(sig, "dx")
    with pytest.raises(NotHolonomic):
        weight_bfunction(IdealPresentation(sig, [dx]))


# ---------------------------------------------------------------------------
# Mellin transform
# ---------------------------------------------------------------------------

def test_mellin_examples():
    sig = d_1()
    t, dt = W.gen(sig, "t"), W.gen(sig, "dt")
    assert mellin_raw(t - 1).coeffs == {1: UPoly.one(), 0: UPoly((-1,))}
    assert mellin_raw(dt * t).coeffs == {0: UPoly((0, -1))}       # -s
    assert mellin_raw(t * dt).coeffs == {0: UPoly((-1, -1))}      # -s - 1
    assert mellin_raw(dt).coeffs == {-1: UPoly((0, -1))}          # -s E^-1


def test_mellin_homomorphism_100_random_pairs():
    rng = random.Random(23)
    sig = d_1()
    for _ in range(100):
        a, b = rand_op(sig, rng), rand_op(sig, rng)
        prod = mellin_raw(a * b)
        sep = mellin_raw(a) * mellin_raw(b)
        assert prod == sep


def test_difference_operator_normalization():
    op = DifferenceOperator({-1: UPoly((0, 2)), 0: UPoly((2,))})
    norm = op.normalized()
    assert min(norm.coeffs) == 0
    assert norm == norm.normalized()
    # left multiplication by E shifts the coefficient arguments
    assert norm.coeffs[0] == UPoly((1, 1))   # 2s E^-1 -> (s+1) E^0 after clear
    assert norm.coeffs[1] == UPoly((1,))


def test_difference_commutation():
    E = DifferenceOperator.shift(1)
    s = DifferenceOperator({0: UPoly.x()})
    assert (E * s).coeffs == {1: UPoly((1, 1))}   # E s = (s+1) E


# ---------------------------------------------------------------------------
# zeta difference pipelines
# ---------------------------------------------------------------------------

def test_zeta_difference_gamma(inst_gamma):
    ops = zeta_difference(inst_gamma)
    assert [op.to_str() for op in ops] == ["E - (s+1)"]
    target = DifferenceOperator({1: UPoly.one(), 0: UPoly((-1, -1))})
    assert difference_member(target, ops)


def test_zeta_difference_half_line_gaussian():
    # int_0^oo x^s exp(-x^2) dx = Gamma((s+1)/2) / 2, so 2 Z(s+2) = (s+1) Z(s)
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    ops = zeta_difference(ProblemInstance.make(("x",), x, [dx + 2 * x]))
    assert [op.to_str() for op in ops] == ["2*E^2 - (s+1)"]
    target = DifferenceOperator({2: UPoly((2,)), 0: UPoly((-1, -1))})
    assert difference_member(target, ops)


@pytest.mark.parametrize("names,f,expected", [
    # Z = pi Gamma(s+1)
    (("x", "y"), lambda x, y: x * x + y * y, "E - (s+1)"),
    # Z = 2 pi Gamma(s+3/2)
    (("x", "y", "z"), lambda x, y, z: x * x + y * y + z * z, "2*E - (2s+3)"),
    # Z = 4 (Gamma((s+1)/2) / 2)^3, over the four octants where xyz > 0
    (("x", "y", "z"), lambda x, y, z: x * y * z, "8*E^2 - (s^3+3s^2+3s+1)"),
], ids=["x2+y2", "x2+y2+z2", "xyz"])
def test_zeta_difference_gaussian_closed_forms(names, f, expected):
    # phi = exp(-|x|^2) in two and three variables
    sig = d_n(names)
    xs = [W.gen(sig, n) for n in names]
    ann = [W.gen(sig, "d" + n) + 2 * x for n, x in zip(names, xs)]
    ops = zeta_difference(ProblemInstance.make(names, f(*xs), ann))
    assert [op.to_str() for op in ops] == [expected]


def test_zeta_difference_ex3(inst_ex3):
    ops = zeta_difference(inst_ex3)
    target = DifferenceOperator({2: UPoly.one(), 1: UPoly((-2, -1)), 0: UPoly((-1,))})
    assert difference_member(target, ops)
    # converse: every output operator is in the Q(s)<E>-ideal of the target
    for op in ops:
        assert difference_member(op, [target])


def test_zeta_difference_ex2_membership(inst_cusp_gauss):
    ops = zeta_difference(inst_cusp_gauss)
    c4 = UPoly((32,))
    c3 = UPoly((13 * 16, 4 * 16))
    c2 = (UPoly((3, 1)) * UPoly((211, 154, 27))).__mul__(-4)
    c1 = (UPoly((2, 1)) * UPoly((3, 1)) * UPoly((173, 162, 36))).__mul__(-6)
    c0 = (UPoly((1, 1)) * UPoly((2, 1)) * UPoly((3, 1)) * UPoly((5, 6))
          * UPoly((13, 6))).__mul__(-3)
    reference = DifferenceOperator({4: c4, 3: c3, 2: c2, 1: c1, 0: c0})
    assert difference_member(reference, ops)
    g = difference_gcrd(ops)
    assert g == reference.normalized()


def test_w_adapted_basis_makes_no_tail_reduction(inst_cusp_gauss, monkeypatch):
    # the restriction reads only initial forms and low-weight elements, which
    # the engine's minimal basis provides: no row of the w-adapted run is
    # tail-reduced, while the stages whose reduced bases are kept still are
    import holozeta.weyl_core as wc
    stages, tails = [], []
    tail_reduced, engine = wc._tail_reduced, wc.groebner_engine

    def counted_tail(red, kept):
        tails.append(kept.stage)
        return tail_reduced(red, kept)

    def counted_engine(gens, sig, order, stage="groebner", *args, **kwargs):
        stages.append(stage)
        return engine(gens, sig, order, stage, *args, **kwargs)
    monkeypatch.setattr(wc, "_tail_reduced", counted_tail)
    monkeypatch.setattr(wc, "groebner_engine", counted_engine)
    zeta_difference(inst_cusp_gauss)
    assert "w-adapted-basis" in stages
    assert "integration-colon" in tails and "w-adapted-basis" not in tails


def test_gcrd_and_membership_laws():
    E = DifferenceOperator.shift(1)
    one = DifferenceOperator({0: UPoly.one()})
    a = DifferenceOperator({1: UPoly.one(), 0: UPoly((-1, -1))})
    b = (E + one) * a
    c = (E * E + one) * a
    g = difference_gcrd([b, c])
    assert difference_member(a, [b, c]) or g == a.normalized()
    assert difference_member(b, [a])
    assert difference_member(c, [a])
    assert not difference_member(one, [a])


def _rand_difference(rng):
    """A nonzero operator of order <= 2 over Q[s] with small coefficients."""
    while True:
        op = DifferenceOperator({k: UPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                                 for k in range(3)})
        if op:
            return op


def test_gcrd_of_random_common_right_factor():
    # gcrd(a c, b c) = gcrd(a, b) c over Q(s)<E, E^-1>; the pseudo-remainders
    # of the products pick up polynomial content along the way
    rng = random.Random(53)
    for _ in range(25):
        a, b, c = (_rand_difference(rng) for _ in range(3))
        g = difference_gcrd([a * c, b * c])
        assert difference_member(a * c, [g]) and difference_member(b * c, [g])
        assert difference_member(g, [c])
        assert g.order == difference_gcrd([a, b]).order + c.order


# ---------------------------------------------------------------------------
# the rational route the integer one replaced, kept as its reference
# ---------------------------------------------------------------------------

def _ref_mellin_raw(op):
    ts, dts = op.sig.slot("t"), op.sig.slot("dt")
    out = DifferenceOperator()
    for m, c in op.exponent_terms().items():
        a, b = m[ts], m[dts]
        rising = UPoly.from_roots(range(-a, b - a)) * (-1) ** b
        out = out + DifferenceOperator({a - b: rising * c})
    return out


def _ref_normalized(op):
    if not op.coeffs:
        return DifferenceOperator()
    k = -min(op.coeffs)
    shifted = {i + k: p.shift(k) for i, p in op.coeffs.items()}
    cont = rational_content([c for p in shifted.values() for c in p.c])
    if shifted[max(shifted)].lead < 0:
        cont = -cont
    return DifferenceOperator({i: p * (1 / cont) for i, p in shifted.items()})


def _ref_strip_primitive(cs):
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        return cs
    pcont = UPoly.zero()
    for c in cs:
        pcont = pcont.gcd(c)
    if pcont.degree > 0:
        cs = [c.exact_div(pcont) for c in cs]
    cont = rational_content([v for c in cs for v in c.c])
    if cs[-1].lead < 0:
        cont = -cont
    return [c * (1 / cont) for c in cs]


def _ref_pseudo_right_rem(a, b):
    a = list(a)
    db = len(b) - 1
    while True:
        while a and not a[-1]:
            a.pop()
        if len(a) - 1 < db or not a:
            break
        d = len(a) - 1 - db
        lead = b[db].shift(d)
        lca = a[-1]
        a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[i + d] = a[i + d] - lca * bc.shift(d)
        cont = rational_content([v for c in a for v in c.c]) or QQ(1)
        a = [c * (1 / cont) for c in a]
    return _ref_strip_primitive(a)


def _ref_gcrd(ops):
    def poly_list(op):
        norm = _ref_normalized(op)
        return [norm.coeffs.get(i, UPoly.zero()) for i in range(norm.max_power + 1)]
    ops = [op for op in ops if op]
    cur = _ref_strip_primitive(poly_list(ops[0]))
    for op in ops[1:]:
        a, b = cur, _ref_strip_primitive(poly_list(op))
        while b:
            a, b = b, _ref_pseudo_right_rem(a, b)
        cur = a
    return _ref_normalized(DifferenceOperator(dict(enumerate(cur))))


def _assert_same_as_reference(ops):
    for op in ops:
        assert op.normalized() == _ref_normalized(op)
    g, ref = difference_gcrd(ops), _ref_gcrd(ops)
    assert g == ref and g.to_str() == ref.to_str()


def _rand_rational_difference(rng):
    """A nonzero operator with rational coefficients of degree <= 2, a
    minimal E-power in -3..0 and zero coefficients inside."""
    lo = rng.randint(-3, 0)
    while True:
        op = DifferenceOperator({
            k: UPoly([QQ(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))])
            for k in range(lo, lo + 4) if rng.random() < 0.6})
        if op:
            return op


def test_integer_route_matches_rational_route_on_random_families():
    rng = random.Random(29)
    for _ in range(30):
        a, b, c = (_rand_rational_difference(rng) for _ in range(3))
        content = DifferenceOperator({0: UPoly([QQ(rng.randint(1, 5), rng.randint(1, 3)),
                                                QQ(rng.randint(-5, 5), rng.randint(1, 3)), 1])})
        for ops in ([a, b], [a * c, b * c], [content * a, content * b], [a, b * c, content * c]):
            _assert_same_as_reference(ops)


def _ex4_weight(f):
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    return ProblemInstance.make(("x", "y"), f(x, y), [x * x * dx + x * x - 1, dy + 1])


def _gauss_weight(f):
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    return ProblemInstance.make(("x", "y"), f(x, y), [dx + 2 * x, dy + 2 * y])


_BUILT = {
    "y2-x2-ex4w": lambda: _ex4_weight(lambda x, y: y * y - x * x),
    "y2-x3-ex4w": lambda: _ex4_weight(lambda x, y: y * y - x ** 3),
    "x5-y2-gauss": lambda: _gauss_weight(lambda x, y: x ** 5 - y * y),
}


@pytest.mark.parametrize("name", [
    "gamma", "ex3", "cusp", "cusp_gauss", "y2-x2-ex4w", "y2-x3-ex4w", "x5-y2-gauss",
    pytest.param("ex4", marks=pytest.mark.slow),
])
def test_integer_route_matches_rational_route_on_zeta_diff_inputs(name, request):
    # ex4's gcrd is pinned by no golden answer; the other seven are the
    # benchmark's zeta-integrate inputs
    inst = _BUILT[name]() if name in _BUILT else request.getfixturevalue(f"inst_{name}")
    gens = integration_ideal(build_malgrange(inst)).generators
    ops = [mellin_raw(g) for g in gens]
    assert ops == [_ref_mellin_raw(g) for g in gens]
    _assert_same_as_reference([op for op in ops if op])


def test_zeta_difference_nontrivial(inst_gamma):
    ops = zeta_difference(inst_gamma)
    assert ops and all(op for op in ops)


def test_empty_region_instance_consistency():
    # f = -x^2 - 1: the distribution f_+^lambda phi vanishes identically, so
    # Z = 0 and any output operator annihilates the sampled data; the
    # abstract integral module itself is nonzero (it carries the level-set
    # density of f), so the difference ideal need not be the unit ideal
    from holozeta import ProblemInstance, numeric_zeta, residual_check, PhiSpec
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    inst = ProblemInstance.make(("x",), -(x * x) - 1, [dx])
    ops = zeta_difference(inst)
    assert ops
    zv = numeric_zeta(inst.f, PhiSpec("gaussian"), list(range(8)), box=8.0)
    assert all(abs(v) < 1e-12 for v in zv.values)
    assert residual_check(ops, list(zip(range(8), zv.values))) == 0.0


def test_ex2_numeric_residual(inst_cusp_gauss):
    # every output operator annihilates the numerically computed Z
    # (2-D quadrature is boundary-limited; tolerance is set accordingly)
    from holozeta import PhiSpec, numeric_zeta, residual_check
    ops = zeta_difference(inst_cusp_gauss)
    order = max(op.max_power for op in ops)
    lams = list(range(0, 2 + order))
    zv = numeric_zeta(inst_cusp_gauss.f, PhiSpec("gaussian"), lams,
                      tol=1e-3, box=5.0, depth=10)
    assert residual_check(ops, list(zip(lams, zv.values))) <= 5e-3
