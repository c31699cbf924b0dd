"""Ring axioms, normal forms and Groebner bases, checked against a
brute-force single-step rewriter where a second opinion is available."""
import heapq
import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from holozeta import (
    QQ,
    IdealPresentation,
    NonHomogeneousInput,
    RingSignature,
    SignatureMismatch,
    SubmodulePresentation,
    TermOrder,
    UPoly,
    WeylOperator,
    colon_kernel,
    d_1,
    d_n,
    d_n_s,
    d_np1,
    eliminate,
    minimal_polynomial,
    normal_form,
    represent,
)
from holozeta.bfunction import BFunction
from holozeta.integration import _w_row
from holozeta.weyl_core import (
    MAX_EXPONENT,
    GBStats,
    GBTimeout,
    _hilbert_numerator,
    _lcm,
    _make_keyf,
    _pack,
    _pdeg,
    _term_mul_into,
    _unpack,
    component_zero_ideal,
    groebner_engine,
    last_gb_stats,
    rational_content,
)

from conftest import deriv, is_unit, max_extra_degree, recompose, same_ideal

W = WeylOperator


# ---------------------------------------------------------------------------
# brute-force oracle: words over generators, normal ordered by single-step
# rewriting d*x -> x*d + 1 on adjacent letters
# ---------------------------------------------------------------------------

def _word_normal_order(sig, word, coeff):
    """Expand a word of slot indices into the canonical dict representation."""
    n = sig.nslots
    pending = [(list(word), coeff)]
    done = {}
    order = {i: i for i in range(n)}  # canonical slot order = layout order

    def first_violation(w):
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a > b:
                return i
        return None

    dconj = {d: x for x, d in sig.pairs}
    # d x = x d + 1, or x d + h^2 in the homogenized algebra
    unit = [sig.h_slot] * 2 if sig.homogenized else []
    while pending:
        w, c = pending.pop()
        i = first_violation(w)
        if i is None:
            mono = [0] * n
            for a in w:
                mono[a] += 1
            key = tuple(mono)
            v = done.get(key, QQ(0)) + c
            if v:
                done[key] = v
            else:
                done.pop(key, None)
            continue
        a, b = w[i], w[i + 1]
        # swap; if (a, b) is a (d, x) conjugate pair, add the commutator word
        swapped = w[:i] + [b, a] + w[i + 2:]
        pending.append((swapped, c))
        if dconj.get(a) == b:
            pending.append((w[:i] + unit + w[i + 2:], c))
    return done


def brute_multiply(p, q):
    """Multiply two operators monomial by monomial via word rewriting."""
    sig = p.sig
    res = {}
    for mp, cp in p.exponent_terms().items():
        for mq, cq in q.exponent_terms().items():
            word = []
            for i, e in enumerate(mp):
                word += [i] * e
            for i, e in enumerate(mq):
                word += [i] * e
            for mono, c in _word_normal_order(sig, word, cp * cq).items():
                v = res.get(mono, QQ(0)) + c
                if v:
                    res[mono] = v
                else:
                    res.pop(mono, None)
    return W(sig, res)


def rand_op(sig, rng, max_terms=3, max_deg=3, dens=(1,)):
    out = W.zero(sig)
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * sig.nslots
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(sig.nslots)] += 1
        c = rng.randint(-4, 4)
        if c:
            out = out + W(sig, {tuple(mono): QQ(c, rng.choice(dens))})
    return out


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_multiply_defining_relation():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert (dx * x).to_str() == "x*dx + 1"


def test_multiply_single_step():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert (dx + 2 * x) * x == x * dx + 2 * x * x + 1


def test_multiply_dx2_x2_against_brute_force():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    lhs = dx ** 2 * x ** 2
    assert lhs == brute_multiply(dx * dx, x * x)
    # frozen value computed with the rewriter: x^2 dx^2 + 4 x dx + 2
    assert lhs == x ** 2 * dx ** 2 + 4 * x * dx + 2


def test_ring_axioms_200_random_cases():
    # associativity, distributivity, [d_i, x_j] = delta_ij, other pairs commute
    rng = random.Random(20260808)
    sig = d_n(("x", "y"))
    for _ in range(200):
        a, b, c = (rand_op(sig, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    names = sig.names
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            gi, gj = W.gen(sig, ni), W.gen(sig, nj)
            comm = gi * gj - gj * gi
            if ni == "d" + nj:
                assert comm == W.one(sig)
            elif nj == "d" + ni:
                assert comm == -W.one(sig)
            else:
                assert comm.is_zero()


def test_multiply_matches_brute_force_random():
    rng = random.Random(7)
    for sig, dens, max_deg in (
            (RingSignature(("x",), has_t=True), (1,), 2),
            # two interacting pairs and rational coefficients
            (d_n_s(("x", "y")), (1, 2, 3, 5), 4),
            # the h^2k term of the homogenized Leibniz rule
            (RingSignature(("x", "y"), extras=("s",), homogenized=True), (1, 2, 3, 5), 4)):
        for _ in range(40):
            a = rand_op(sig, rng, max_terms=4, max_deg=max_deg, dens=dens)
            b = rand_op(sig, rng, max_terms=4, max_deg=max_deg, dens=dens)
            assert a * b == brute_multiply(a, b)


def test_lcm_is_the_fieldwise_max():
    sig = RingSignature(("x", "y"), extras=("s",), homogenized=True)
    pk = sig._pk
    rng = random.Random(11)
    values = [0, 1, 2, 3, MAX_EXPONENT - 1, MAX_EXPONENT]
    for _ in range(500):
        comp = rng.randrange(4) << pk.cshift
        a, b = ([rng.choice(values) for _ in range(sig.nslots)] for _ in range(2))
        got = _lcm(pk, _pack(pk, a) + comp, _pack(pk, b) + comp)
        assert got >> pk.cshift == comp >> pk.cshift
        assert _unpack(pk, got) == tuple(map(max, a, b))


def test_exponent_overflow_raises():
    # the true remainder is -x^42767, which no 15-bit exponent field holds
    sig = d_n(("x", "y"))
    p = W(sig, {(32767, 20000, 0, 0): 1})
    g = W(sig, {(20000, 20000, 0, 0): 1, (30000, 0, 0, 0): 1})
    with pytest.raises(OverflowError):
        normal_form(p, [g])
    x20000 = W.gen(sig, "x", 20000)
    with pytest.raises(OverflowError):
        x20000 * x20000
    with pytest.raises(OverflowError):
        W.gen(sig, "x", 32768)
    assert W.gen(sig, "x", 32766) * W.gen(sig, "x") == W.gen(sig, "x", 32767)
    # the h^2k term of the homogenized Leibniz rule overflows on its own
    hsig = d_n(("x",)).homogenize()
    left = W.gen(hsig, "h", 32766) * W.gen(hsig, "dx")
    with pytest.raises(OverflowError):
        left * W.gen(hsig, "x")


def test_signature_mismatch_rejected():
    a = W.gen(d_n(("x",)), "x")
    b = W.gen(d_n(("y",)), "y")
    with pytest.raises(SignatureMismatch):
        a * b


def test_signature_invariants():
    with pytest.raises(SignatureMismatch):
        RingSignature(("x",), has_t=True, extras=("s",))
    with pytest.raises(SignatureMismatch):
        RingSignature(("x",), extras=("sigma",))


# ---------------------------------------------------------------------------
# slot surgery by generator name
# ---------------------------------------------------------------------------

def _reference_coefficients(op, names, sig):
    """coefficients() by hand, from exponent_terms() and generator names."""
    src = op.sig
    groups = {}
    for m, c in op.exponent_terms().items():
        exps = dict(zip(src.names, m))
        key = tuple(exps[n] for n in names)
        rest = {n: e for n, e in exps.items() if e and n not in names}
        groups.setdefault(key, {})[sig.mono(rest)] = c
    return {key: W(sig, t) for key, t in groups.items()}


XY = ("x", "y")


@pytest.mark.parametrize("src, names, sig", [
    (d_n_s(XY), ("s",), d_n(XY)),
    (d_n_s(XY), ("dx", "dy"), d_n_s(XY)),
    (d_n_s(XY), ("y", "x"), d_n_s(XY)),
    (d_np1(XY), ("t", "dt"), d_n_s(XY)),
    (d_np1(XY), ("dy", "dx"), d_np1(XY)),
    (d_np1(XY), ("x", "y", "dx", "dy"), d_1()),
], ids=["s", "dx", "yx", "t-dt", "dydx", "x-dx"])
def test_coefficients_match_a_reference_grouping_and_rebuild(src, names, sig):
    rng = random.Random(f"coefficients/{names}")
    x_first = set(names) <= set(src.x_names)
    for _ in range(60):
        op = rand_op(src, rng, max_terms=6, max_deg=4)
        parts = op.coefficients(names, sig)
        assert parts == _reference_coefficients(op, names, sig)
        rebuilt = W.zero(src)
        for key, part in parts.items():
            mono = W(src, {src.mono(zip(names, key)): 1})
            rebuilt = rebuilt + (mono * part.embed(src) if x_first else part.embed(src) * mono)
        assert rebuilt == op


def test_coefficients_reject_a_generator_missing_from_the_target():
    src = d_np1(XY)
    assert W.gen(src, "t").coefficients(("x", "y"), d_1()) == {(0, 0): W.gen(d_1(), "t")}
    with pytest.raises(SignatureMismatch):
        W.gen(src, "dx").coefficients(("x", "y"), d_1())
    with pytest.raises(SignatureMismatch):
        W.gen(src, "t").coefficients(("x", "y"), d_n_s(XY))


def test_embed_keeps_an_operator_over_its_own_signature():
    op = W.gen(d_n(XY), "x") + 1
    assert op.embed(d_n(XY)) is op
    assert op.embed(d_n_s(XY)).coefficients(("s",), d_n(XY)) == {(0,): op}


def test_bernstein_homogenize_is_homogeneous_and_recovers_the_operator():
    rng = random.Random(11)
    for sig in (d_n(XY), d_np1(XY)):
        hsig = sig.homogenize()
        ones = dict.fromkeys(hsig.names, 1)
        for _ in range(60):
            op = rand_op(sig, rng, max_terms=5, max_deg=4)
            hop = op.homogenize("h", ones, hsig)
            assert len({sum(m) for m in hop.exponent_terms()}) <= 1
            assert hop.total_degree() == op.total_degree()
            assert hop.subs_extra("h", 1, sig) == op


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_form_exact_divisor():
    sig = d_n(("x",))
    dx = W.gen(sig, "dx")
    assert normal_form(dx, [dx]).is_zero()
    assert normal_form(QQ(-2, 3) * dx, [5 * dx]).is_zero()


def test_normal_form_single_step():
    sig = d_n_s(("x",))
    x, dx, s = W.gen(sig, "x"), W.gen(sig, "dx"), W.gen(sig, "s")
    assert normal_form(x * dx, [x * dx - s]) == s


def test_normal_form_matches_reference_random():
    # the fraction-free remainder against the rational division of _ref_nf,
    # which picks the same reducer at every step
    rng = random.Random(11)
    scales = [QQ(1), QQ(-1, 3), QQ(5, 2), QQ(-7, 4)]
    for sig in (d_n(("x", "y")), d_n_s(("x",))):
        pk = sig._pk
        order = TermOrder.grevlex(sig)
        key = _ref_key(order, pk)
        for _ in range(30):
            G = [rand_op(sig, rng) * rng.choice(scales) for _ in range(rng.randint(1, 3))]
            G = [g for g in G if not g.is_zero()]
            if not G:
                continue
            p = rand_op(sig, rng, max_terms=4) * rng.choice(scales)
            ref = _ref_nf(p.terms, [_RefRed(g.terms, key, pk) for g in G], pk, key)
            assert normal_form(p, G, order).terms == ref


def test_normal_form_of_bfunction_against_cusp_ideal():
    # b(s) = (s+1)(6s+5)(6s+7) reduces to 0 against GB(Ann(f^s) + <f>)
    from holozeta import ann_fs, bfunction
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    f = x ** 3 - y ** 2
    from holozeta import ProblemInstance
    inst = ProblemInstance.make(("x", "y"), f, [dx, dy])
    ann = ann_fs(inst)
    sig_s = inst.sig_s
    ideal = IdealPresentation(sig_s, list(ann.generators) + [f.embed(sig_s)])
    s = W.gen(sig_s, "s")
    b = (s + 1) * (6 * s + 5) * (6 * s + 7)
    assert normal_form(b, list(ideal.basis())).is_zero()
    assert ideal.contains(b)


def test_presentations_build_their_reducers_once(reducer_builds):
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    ideal = IdealPresentation(sig, [dx, y * dy + 1])    # 1/y
    ideal.basis()
    reducer_builds.clear()
    for p in (x * dx, y, x * y * dy + 1, W.zero(sig)):
        assert ideal.contains(p * (y * dy + 1))
    assert not ideal.contains(y * y + x)
    assert len(reducer_builds) == 1
    for p in (x * dx, y, x * y * dy + 1):
        assert ideal.normal_form(p * dx + y) == y
    assert minimal_polynomial(y * dy, ideal) == UPoly((1, 1))
    assert len(reducer_builds) == 1
    module = SubmodulePresentation.make(2, sig, [(dx, y), (W.zero(sig), dy)])
    module.basis()
    reducer_builds.clear()
    for p in (x, dy, x * y + 1):
        assert module.contains((p * dx, p * y + dy))
        assert not module.contains((p * dx + 1, p * y))
    assert len(reducer_builds) == 1


def test_presentations_keep_one_basis_per_order(monkeypatch):
    # a fresh presentation runs the engine once for any number of membership
    # tests; a basis under a second order is kept beside the first; a colon
    # ideal comes with its grevlex basis and runs no engine at all
    import holozeta.weyl_core as wc
    stages, engine = [], wc.groebner_engine

    def counted(gens, sig, order, deadline=None, stage="groebner", pair_components=None,
                **kwargs):
        stages.append(stage)
        return engine(gens, sig, order, deadline, stage, pair_components, **kwargs)
    monkeypatch.setattr(wc, "groebner_engine", counted)
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    ideal = IdealPresentation(sig, [dx, y * dy + 1])
    assert ideal.contains(x * dx) and ideal.contains(y * y * dy + y)
    assert not ideal.contains(x)
    assert stages == ["groebner"]
    lex = TermOrder.elimination(sig, ("y", "dy"))
    assert ideal.basis(lex, stage="lex") == ideal.basis(lex)
    assert ideal.basis() == ideal.basis(TermOrder.grevlex(sig))
    assert stages == ["groebner", "lex"]
    out = colon_kernel([x], SubmodulePresentation.make(1, sig, [(dx,)]), stage="colon")
    assert out.basis() == (dx * dx, x * dx - 1) and out.contains(x * dx * dx)
    assert stages == ["groebner", "lex", "colon"]


# ---------------------------------------------------------------------------
# groebner
# ---------------------------------------------------------------------------

def test_groebner_already_reduced():
    sig = d_n(("x", "y"))
    dx, dy = W.gen(sig, "dx"), W.gen(sig, "dy")
    assert set(IdealPresentation(sig, [dx, dy]).basis()) == {dx, dy}


def test_groebner_unit_from_commutator():
    # <x, dx> is the unit ideal: dx*x - x*dx = 1 with both products left
    # multiples of the generators
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    assert is_unit(IdealPresentation(sig, [x, dx]))
    # the left ideal <x, dx*x> however equals <x> (dx*x = dx . x); witnessed
    # by the delta-function module
    gb = IdealPresentation(sig, [x, dx * x]).basis()
    assert list(gb) == [x]


def test_groebner_membership_soundness_and_completeness():
    rng = random.Random(3)
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    I = IdealPresentation(sig, [dx, dy])
    for _ in range(20):
        member = rand_op(sig, rng) * dx + rand_op(sig, rng) * dy
        assert I.contains(member)
    # non-members, known a priori: anything with a nonzero pure-x part
    assert not I.contains(x * x + dx)
    assert not I.contains(W.one(sig))
    # independent low-degree certificate: x^2 is not a Q-combination of
    # m * g over monomials m of degree <= 3 (exact linear algebra)
    span = []
    for g in (dx, dy):
        for m in _monomials(sig, 3):
            span.append(W(sig, {m: QQ(1)}) * g)
    assert not _in_linear_span(x * x, span)


def _monomials(sig, deg):
    out = [(0,) * sig.nslots]
    for _ in range(deg):
        nxt = set()
        for m in out:
            for i in range(sig.nslots):
                mm = list(m)
                mm[i] += 1
                nxt.add(tuple(mm))
        out = sorted(nxt)
        yield from out


def _in_linear_span(p, span):
    """Exact Gaussian elimination over Q on monomial coordinates."""
    rows = []
    for q in span:
        if not q.is_zero():
            rows.append(q.exponent_terms())
    target = p.exponent_terms()
    for row in rows:
        pivot = max(row)
        if pivot in target and row.get(pivot):
            fac = target[pivot] / row[pivot]
            for m, c in row.items():
                v = target.get(m, QQ(0)) - fac * c
                if v:
                    target[m] = v
                else:
                    target.pop(m, None)
    # eliminate greedily once more against all rows until stable
    changed = True
    while changed and target:
        changed = False
        for row in rows:
            pivot = max(row)
            if pivot in target:
                fac = target[pivot] / row[pivot]
                for m, c in row.items():
                    v = target.get(m, QQ(0)) - fac * c
                    if v:
                        target[m] = v
                    else:
                        target.pop(m, None)
                changed = True
    return not target


def test_reduced_gb_unique_under_permutation_20_cases():
    rng = random.Random(5)
    sig = d_n(("x", "y"))
    for _ in range(20):
        gens = [rand_op(sig, rng, max_terms=2, max_deg=2) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        base = IdealPresentation(sig, gens).basis()
        perm = list(gens)
        rng.shuffle(perm)
        assert IdealPresentation(sig, perm).basis() == base


def test_groebner_idempotent():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    I = IdealPresentation(sig, [x * dx + 1, x * x])
    gb1 = I.basis()
    gb2 = IdealPresentation(sig, gb1).basis()
    assert gb2 == gb1


def test_negative_weight_order_rejects_inhomogeneous():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    row = [-1, 1]
    order = TermOrder(sig, weight_rows=[row])
    with pytest.raises(NonHomogeneousInput):
        IdealPresentation(sig, [x + 1]).basis(order)
    # weight-homogeneous input is fine
    IdealPresentation(sig, [x * dx + 1]).basis(order)


# ---------------------------------------------------------------------------
# eliminate / colon / represent / univariate
# ---------------------------------------------------------------------------

def test_eliminate_unit_and_sigma_tau():
    sig = RingSignature(("x",), extras=("sigma", "tau_h"))
    one = W.one(sig)
    assert is_unit(eliminate(IdealPresentation(sig, [one]), ("sigma", "tau_h")))


def test_eliminate_diagonal_example():
    # <x - t', dx + dt'> with (t', dt') realized as a central-free pair:
    # the intersection with D_1 in x is the zero ideal (the ideal is the
    # annihilator of delta(x - t'), free over D_1)
    sig = d_n(("x", "w"))
    x, w, dx, dw = (W.gen(sig, n) for n in ("x", "w", "dx", "dw"))
    I = IdealPresentation(sig, [x - w, dx + dw])
    order = TermOrder.elimination(sig, ("w", "dw"))
    kept = [g for g in I.basis(order)
            if not g.uses_slot(sig.slot("w")) and not g.uses_slot(sig.slot("dw"))]
    assert kept == []


def test_eliminate_f_x_psi_images():
    # J' for f = x, I = <dx>: eliminating sigma, tau_h and dehomogenizing
    # must give exactly <x dx - s>
    from holozeta import ann_fs, ProblemInstance
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    inst = ProblemInstance.make(("x",), x, [dx])
    ann = ann_fs(inst)
    sig_s = inst.sig_s
    xs, dxs, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    assert same_ideal(ann, IdealPresentation(sig_s, [xs * dxs - s]))


def test_colon_kernel_rank_one_identity():
    sig = d_n(("x",))
    dx = W.gen(sig, "dx")
    J = SubmodulePresentation.make(1, sig, [(dx,)])
    out = colon_kernel([W.one(sig)], J)
    assert list(out.basis()) == [dx]


def test_colon_kernel_of_x_modulo_dx():
    # {P : P x in D dx} = Ann(x) = D (x dx - 1) + D dx^2, read off the rows
    # of the module basis without a second Buchberger run
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    out = colon_kernel([x], SubmodulePresentation.make(1, sig, [(dx,)]))
    assert out.basis() == (dx * dx, x * dx - 1) == out.generators
    assert out.basis() == IdealPresentation(sig, out.generators).basis()


def test_colon_kernel_zero_vector():
    sig = d_n(("x",))
    dx = W.gen(sig, "dx")
    J = SubmodulePresentation.make(2, sig, [(dx, W.zero(sig))])
    out = colon_kernel([W.zero(sig), W.zero(sig)], J)
    assert is_unit(out)


def test_represent_recovers_membership():
    sig = d_n_s(("x",))
    x, dx, s = (W.gen(sig, n) for n in ("x", "dx", "s"))
    gens = [x * dx - s, x]
    target = (s + 1) * x  # = x*(x dx - s)*0 + ... some member
    cof = represent(x * (x * dx - s) + (s + 2) * x, gens)
    assert cof is not None
    recon = W.zero(sig)
    for c, g in zip(cof, gens):
        recon = recon + c * g
    assert recon == x * (x * dx - s) + (s + 2) * x
    assert represent(W.one(sig), gens) is None


def test_power_matches_repeated_product():
    sig = d_n(("x", "y"))
    x, dx, dy = (W.gen(sig, n) for n in ("x", "dx", "dy"))
    p = x * dx + dy
    rep = W.one(sig)
    for e in range(10):
        assert p ** e == rep
        rep = rep * p


def test_truncate_extra_is_a_ring_map_modulo_s_power():
    # s is central: truncating the factors before the product loses nothing
    # below the cut, and the cut keeps exactly the terms of s-degree <= n
    rng = random.Random(7)
    sig = d_n_s(("x", "y"))
    s = W.gen(sig, "s")
    for _ in range(30):
        p = rand_op(sig, rng, max_terms=4, max_deg=4) * (s + rng.randint(-3, 3))
        q = rand_op(sig, rng, max_terms=4, max_deg=4) * (s * s + rng.randint(-3, 3))
        for n in range(4):
            cut = p.truncate_extra("s", n)
            assert max_extra_degree(cut, "s") <= n
            assert cut.coefficients(("s",), d_n(("x", "y"))) == {
                e: op for e, op in p.coefficients(("s",), d_n(("x", "y"))).items() if e[0] <= n}
            prod = (p.truncate_extra("s", n) * q.truncate_extra("s", n)).truncate_extra("s", n)
            assert prod == (p * q).truncate_extra("s", n)


# ---------------------------------------------------------------------------
# upoly support layer
# ---------------------------------------------------------------------------

def test_upoly_arithmetic_and_roots():
    p = UPoly.from_roots([QQ(-1), QQ(-5, 6), QQ(-7, 6)])
    roots, rest = p.rational_roots()
    assert roots == [(QQ(-7, 6), 1), (QQ(-1), 1), (QQ(-5, 6), 1)]
    assert rest == UPoly.one()
    q, r = (p * UPoly((1, 2))).divmod(p)
    assert r == UPoly.zero() and q == UPoly((1, 2))
    assert p.shift(1).eval(QQ(-2)) == p.eval(QQ(-1))
    sq = UPoly.from_roots([QQ(-5, 6), QQ(-5, 6)])
    assert _root_multiplicity(sq, QQ(-5, 6)) == 2


def _root_multiplicity(p, r):
    m = 0
    lin = UPoly((-r, 1))
    while p and not p.eval(r):
        p = p.exact_div(lin)
        m += 1
    return m


def test_upoly_gcd_shared_linear_factors():
    s = UPoly.x()
    a = UPoly.from_roots([QQ(1), QQ(-2, 3), QQ(-2, 3)]) * (s * s + 1)
    b = UPoly.from_roots([QQ(-2, 3), QQ(5), QQ(1), QQ(1)]) * QQ(-7, 2)
    assert a.gcd(b) == UPoly.from_roots([QQ(1), QQ(-2, 3)])
    assert b.gcd(a) == a.gcd(b)
    assert a.gcd(a * QQ(3)) == a.monic()
    assert a.gcd(UPoly.from_roots([QQ(2)])) == UPoly.one()
    assert UPoly.zero().gcd(b) == b.monic() and b.gcd(UPoly.zero()) == b.monic()
    assert not UPoly.zero().gcd(UPoly.zero())


def test_upoly_gcd_with_derivative_degree_52():
    # roots 0..40 are simple; the repeated factors survive in gcd(p, p')
    rep = UPoly.from_roots([QQ(-3, 7)]) ** 2 * UPoly((5, 0, 1)) ** 3
    p = UPoly.from_roots([QQ(r) for r in range(41)]) * rep * UPoly((QQ(3, 7), 1))
    p = p * UPoly((5, 0, 1))
    assert p.degree == 52
    assert p.gcd(deriv(p)) == rep.monic()


def test_upoly_integer_roots():
    p = UPoly.from_roots([QQ(0), QQ(3), QQ(-2), QQ(1, 2)])
    assert p.integer_roots_max() == 3
    assert UPoly((1, 1)).integer_roots_max() is None


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _brute_force_rational_roots(p):
    """Rational roots by trying every +-d0/dn over the divisors d0 of the
    trailing and dn of the leading coefficient of the primitive form."""
    p = p.primitive()
    roots = []
    k = 0
    while not p[0]:
        p = UPoly(p.c[1:])
        k += 1
    if k:
        roots.append((QQ(0), k))
    if p.degree >= 1:
        for num in _divisors(abs(int(p[0]))):
            for den in _divisors(abs(int(p.lead))):
                if math.gcd(num, den) != 1:
                    continue
                for r in (QQ(num, den), QQ(-num, den)):
                    m = _root_multiplicity(p, r)
                    if m:
                        roots.append((r, m))
                        p = p.exact_div(UPoly.from_roots([r] * m))
    roots.sort(key=lambda rm: rm[0])
    return roots, p.primitive()


_root = st.builds(QQ, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _root_products(draw):
    """(p, {root: multiplicity}) with p = scalar * cofactor * prod (s - r)^m."""
    mult = {}
    for r in draw(st.lists(_root, max_size=6)):
        mult[r] = mult.get(r, 0) + draw(st.integers(1, 3))
    if draw(st.booleans()):
        mult[QQ(0)] = mult.get(QQ(0), 0) + draw(st.integers(1, 2))
    for r in range(draw(st.one_of(st.just(0), st.integers(2, 41)))):
        mult[QQ(r)] = mult.get(QQ(r), 0) + 1
    p = UPoly.from_roots([r for r, m in mult.items() for _ in range(m)])
    cofactor = UPoly(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4)))
    if cofactor:
        p = p * cofactor
    num = draw(st.integers(-9, 9).filter(bool))
    return p * QQ(num, draw(st.integers(1, 9))), mult


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_root_products())
def test_rational_roots_random_products(case):
    p, mult = case
    roots, rest = p.rational_roots()
    found = dict(roots)
    assert [r for r, _m in roots] == sorted(found)
    for r, m in mult.items():
        assert found.get(r, 0) >= m
    assert rest == rest.primitive()
    assert recompose(BFunction.from_upoly(p)) == p.monic()
    trailing = next(c for c in p.primitive().c if c)
    if abs(trailing) <= 10 ** 4 and abs(p.primitive().lead) <= 10 ** 4:
        assert (roots, rest) == _brute_force_rational_roots(p)


def test_rational_roots_consecutive_integers_skip_small_primes():
    # two of 0..40 meet mod every prime below 41, where they make a double
    # root mod P, so the prime search must skip all of those primes
    p = UPoly.from_roots([QQ(r) for r in range(41)] + [QQ(-3, 7)] * 2)
    roots, rest = (p * UPoly((5, 0, 1)) * QQ(-4, 3)).rational_roots()
    assert roots == [(QQ(-3, 7), 2)] + [(QQ(r), 1) for r in range(41)]
    assert rest == UPoly((5, 0, 1))


def test_eliminate_reembedding_contained_in_original():
    # generators of the elimination ideal, re-embedded, reduce to 0 against
    # the original ideal's basis
    sig = d_n_s(("x",))
    x, dx, s = (W.gen(sig, n) for n in ("x", "dx", "s"))
    ideal = IdealPresentation(sig, [x * dx - s, s - 1])
    out = eliminate(ideal, ("s",))
    assert out.generators            # x dx - 1 survives
    for g in out.generators:
        assert ideal.contains(g.embed(sig))


def _assert_reduced_and_monic(basis, order):
    # no term of any element is divisible by another element's leading
    # monomial, and leading coefficients are 1
    for g in basis:
        assert g.lc(order) == 1
    for i, g in enumerate(basis):
        for j, other in enumerate(basis):
            if i == j:
                continue
            lm = other.lm(order)
            for m in g.exponent_terms():
                assert not all(a >= b for a, b in zip(m, lm)), (i, j)


def test_cached_basis_is_reduced_and_monic():
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    gb = IdealPresentation(
        sig, [2 * x * dx + 3 * y * dy + 6, 2 * y * dx + 3 * x * x * dy,
              x ** 3 - y ** 2]).basis()
    _assert_reduced_and_monic(gb, TermOrder.grevlex(sig))


# ---------------------------------------------------------------------------
# reference: the Buchberger over Q that the fraction-free engine replaced,
# with the same pair selection, reducer choice and order (as a tuple key),
# and its own copy of the engine's pair criteria: the Gebauer–Möller update,
# or with pair_components the chain criterion tested when a pair is popped.
# Reduced bases are unique and the engine's decisions depend only on
# monomials, so bases and GBStats counters must agree.  With criteria off,
# it reduces every pair: a check that the criteria drop no needed pair.
# ---------------------------------------------------------------------------

def _ref_key(order, pk):
    """The TermOrder as a tuple key on labelled packed monomials: each
    weight row's weight, then per block its degree and its exponents from
    the last slot back, negated; the component goes last ("tp") or first."""
    def key(lab):
        comp = lab >> pk.cshift
        mono = _unpack(pk, lab & pk.smask)
        tkey = tuple(sum(w * e for w, e in zip(row, mono)) for row in order.weight_rows)
        for blk in order.blocks:
            tkey += (sum(mono[i] for i in blk),) + tuple(-mono[i] for i in reversed(blk))
        if order.position == "tp":
            return tkey + (-comp,)
        lead = (int(comp in order.top_comps),) if order.top_comps is not None else ()
        return lead + (-comp,) + tkey
    return key


class _RefRed:
    def __init__(self, terms, key, pk):
        self.terms = tuple(terms.items())
        self.lm = max(terms, key=key)
        self.comp = self.lm >> pk.cshift
        self.lc = terms[self.lm]
        self.key = key(self.lm)
        self.sugar = max(_pdeg(pk, m) for m in terms)


def _ref_divides(pk, a, b):
    d = b - a
    return d >= 0 and not d & pk.guard


def _ref_nf(p, reds, pk, key, sparsest=False):
    """Rational left remainder: the first divisor in listing order, or the
    first of the sparsest ones."""
    work, rem = dict(p), {}
    while work:
        lab = max(work, key=key)
        divisors = [r for r in reds if r.comp == lab >> pk.cshift
                    and _ref_divides(pk, r.lm, lab)]
        if not divisors:
            rem[lab] = work.pop(lab)
            continue
        r = min(divisors, key=lambda r: len(r.terms)) if sparsest else divisors[0]
        _term_mul_into(pk, work, -work[lab] / r.lc, lab - r.lm, r.terms)
    return rem


def _ref_groebner(gens, sig, order, pair_components=None, criteria=True, deadline=None):
    """(reduced monic basis, GBStats) by Buchberger over Q."""
    pk = sig._pk
    key = _ref_key(order, pk)
    stats = GBStats()

    def primitive(terms):
        cont = rational_content(terms.values())
        return {m: c / cont for m, c in terms.items()}

    basis = sorted((_RefRed(primitive(g), key, pk) for g in gens if g), key=lambda r: r.key)

    def lcm_of(a, b):
        return (a.comp << pk.cshift) + sum(
            max((a.lm >> sh) & 0x7FFF, (b.lm >> sh) & 0x7FFF) << sh for sh in pk.shifts)

    def splits(k, i, j, lcm):
        """The chain criterion: lm(k) divides lcm(i, j) and shares it with
        neither i nor j."""
        fk = basis[k]
        return (fk.comp == lcm >> pk.cshift and _ref_divides(pk, fk.lm, lcm)
                and lcm_of(basis[i], fk) != lcm and lcm_of(basis[j], fk) != lcm)

    pairs = []
    dead = set()      # pairs the update deleted; they stay on the heap

    def push_pairs(j):
        rj = basis[j]
        if pair_components is not None and rj.comp not in pair_components:
            return
        new = [(i, lcm_of(ri, rj)) for i, ri in enumerate(basis[:j]) if ri.comp == rj.comp]
        stats.pairs_considered += len(new)
        if criteria and pair_components is None:
            for *_, i, k, lcm in pairs:
                if (i, k) not in dead and splits(j, i, k, lcm):
                    dead.add((i, k))
                    stats.pairs_skipped += 1
            kept = [(i, lcm) for i, lcm in new
                    if not any(m != lcm and _ref_divides(pk, m, lcm) for _, m in new)
                    and not any(m == lcm and h < i for h, m in new)]
            stats.pairs_skipped += len(new) - len(kept)
            new = kept
        for i, lcm in new:
            dl = _pdeg(pk, lcm)
            sugar = max(r.sugar + dl - _pdeg(pk, r.lm) for r in (basis[i], rj))
            heapq.heappush(pairs, (sugar, key(lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise GBTimeout("reference", len(basis), len(pairs))
        *_, i, j, lcm = heapq.heappop(pairs)
        if (i, j) in dead:
            continue
        if criteria and pair_components is not None and any(
                k not in (i, j) and splits(k, i, j, lcm) for k in range(len(basis))):
            stats.pairs_skipped += 1
            continue
        fi, fj = basis[i], basis[j]
        s = {}
        _term_mul_into(pk, s, 1 / fi.lc, lcm - fi.lm, fi.terms)
        _term_mul_into(pk, s, -1 / fj.lc, lcm - fj.lm, fj.terms)
        rem = _ref_nf(s, basis, pk, key, sparsest=True)
        if rem:
            basis.append(_RefRed(primitive(rem), key, pk))
            push_pairs(len(basis) - 1)
        else:
            stats.zero_reductions += 1
    # an element stays unless another leading monomial divides its own,
    # properly or as an earlier copy (whatever their keys: a negative
    # weight can put a multiple first)
    kept = [r for a, r in enumerate(basis)
            if not any(k.comp == r.comp and _ref_divides(pk, k.lm, r.lm)
                       and (k.lm != r.lm or b < a) for b, k in enumerate(basis) if b != a)]
    reduced = []
    for r in kept:
        rem = _ref_nf(dict(r.terms), [k for k in kept if k is not r], pk, key)
        lc = rem[max(rem, key=key)]
        reduced.append({m: c / lc for m, c in rem.items()})
    reduced.sort(key=lambda t: key(max(t, key=key)))
    stats.basis_size = len(reduced)
    return reduced, stats


def _engine_and_reference(gens, sig, order, pair_components=None):
    basis = groebner_engine(gens, sig, order, pair_components=pair_components)
    return (basis, last_gb_stats()), _ref_groebner(gens, sig, order, pair_components)


_COEFFS = [QQ(1), QQ(-1), QQ(2), QQ(-3), QQ(1, 3), QQ(-5, 2), QQ(7, 4)]


def _generators(sig):
    """2-3 operators of degree at most 2 with rational coefficients of either
    sign."""
    term = st.tuples(st.sampled_from([(0,) * sig.nslots] + list(_monomials(sig, 2))),
                     st.sampled_from(_COEFFS))
    op = st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[0])
    return st.lists(op.map(lambda terms: W(sig, dict(terms))), min_size=2, max_size=3)


@pytest.mark.parametrize("sig", [d_n(("x",)), d_n(("x", "y")), d_n_s(("x", "y"))],
                         ids=["D1", "D2", "D2[s]"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_matches_rational_buchberger(sig, data):
    gens = data.draw(_generators(sig))
    order = TermOrder.grevlex(sig)
    (basis, stats), (ref_basis, ref_stats) = _engine_and_reference(
        [g.terms for g in gens], sig, order)
    assert basis == ref_basis
    assert stats == ref_stats


def test_engine_matches_rational_buchberger_rank_two_pt():
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    zero = W.zero(sig)
    vecs = [(dx * QQ(1, 3) + y, x * QQ(-5, 2)), (x * y, dy - 2), (zero, x * dx + QQ(7, 4))]
    order = TermOrder(sig, position="pt", top_comps=[1])
    pk = sig._pk
    gens = [{m + (i << pk.cshift): c for i, op in enumerate(v) for m, c in op.terms.items()}
            for v in vecs]
    (basis, stats), (ref_basis, ref_stats) = _engine_and_reference(gens, sig, order)
    assert basis == ref_basis and stats == ref_stats
    assert stats.pairs_considered > 0


def test_engine_matches_rational_buchberger_represent_payload():
    # the augmented input of represent: S-pairs only in component 0, the
    # unit-vector payload riding along; on the second ideal the
    # Gebauer–Möller update would reduce other pairs (15 skipped, not 9)
    # and leave another payload basis (7 elements, not 10)
    sig = d_n_s(("x",))
    x, dx, s = (W.gen(sig, n) for n in ("x", "dx", "s"))
    pk = sig._pk
    order = TermOrder(sig, position="pt", top_comps=[0])
    for gens in ([x * dx * QQ(2, 3) - s, x * x * QQ(-5, 2) + 1, dx * dx - x],
                 [x + s * QQ(1, 3), dx * dx, x * s * -3 + dx * s * QQ(1, 3)]):
        aug = [{**g.terms, (1 + i) << pk.cshift: QQ(1)} for i, g in enumerate(gens)]
        (basis, stats), (ref_basis, ref_stats) = _engine_and_reference(aug, sig, order, {0})
        assert basis == ref_basis and stats == ref_stats
        assert stats.pairs_considered > 0


@pytest.mark.parametrize("sig", [d_n(("x",)), d_n(("x", "y")), d_n_s(("x", "y"))],
                         ids=["D1", "D2", "D2[s]"])
@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_matches_buchberger_without_criteria(sig, rank, data):
    # the pair criteria drop only pairs a complete basis does not need: the
    # engine's basis equals that of a Buchberger run reducing every pair;
    # module entries are dropped at random, as in the colon
    columns = [data.draw(_generators(sig)) for _ in range(rank)]
    vectors = [tuple(op if rank == 1 or data.draw(st.booleans()) else W.zero(sig)
                     for op in vec) for vec in zip(*columns)]
    pk = sig._pk
    gens = [{m + (i << pk.cshift): c for i, op in enumerate(v) for m, c in op.terms.items()}
            for v in vectors]
    order = TermOrder.grevlex(sig) if rank == 1 else TermOrder(sig, position="pt")
    try:
        # a few draws in a hundred take seconds, without criteria minutes
        basis = groebner_engine(gens, sig, order, deadline=time.monotonic() + 1)
        ref = _ref_groebner(gens, sig, order, criteria=False, deadline=time.monotonic() + 5)
    except GBTimeout:
        reject()
    assert basis == ref[0]


def test_timeout_counts_live_pairs_only():
    # the third leading monomial, x y^3 dy, splits the lcm x y^3 dx dy^2 of
    # the first two, so the update deletes their pair from the queue (it
    # stays on the heap) before the deadline, already passed, is read
    sig = d_n(("x", "y"))
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    gens = [y ** 3 * dx, x * y ** 2 * dy ** 2, x * y ** 3 * dy]
    with pytest.raises(GBTimeout) as err:
        groebner_engine([g.terms for g in gens], sig, TermOrder.grevlex(sig),
                        deadline=time.monotonic() - 1)
    assert err.value.pairs_left == 2
    assert last_gb_stats() == GBStats(pairs_considered=3, pairs_skipped=1)


# ---------------------------------------------------------------------------
# Hilbert-driven Buchberger
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x_names", [("x",), ("x", "y")], ids=["5 slots", "7 slots"])
def test_hilbert_numerator_counts_monomials(x_names):
    # dim (S/I)_d read off the numerator against a count of the degree-d
    # monomials no generator divides, and the whole numerator against
    # inclusion-exclusion over the generators' lcms, on random monomial
    # ideals of the homogenized signatures and on the unit ideal
    sig = RingSignature(x_names, has_t=True, homogenized=True)
    pk, n = sig._pk, sig.nslots
    rng = random.Random(n)
    for trial in range(30):
        gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
                for _ in range(rng.randint(1, 6))]
        if trial == 0:
            gens.append((0,) * n)
        num = _hilbert_numerator(pk, [_pack(pk, g) for g in gens])
        for d in range(8):
            monos = (tuple(c.count(i) for i in range(n))
                     for c in itertools.combinations_with_replacement(range(n), d))
            free = sum(1 for m in monos
                       if not any(all(map(operator.le, g, m)) for g in gens))
            assert free == sum(c * math.comb(d - k + n - 1, n - 1)
                               for k, c in enumerate(num[:d + 1]))
        taylor = {}
        for size in range(len(gens) + 1):
            for subset in itertools.combinations(gens, size):
                deg = sum(map(max, zip((0,) * n, *subset)))
                taylor[deg] = taylor.get(deg, 0) + (-1) ** size
        assert num == [taylor.get(k, 0) for k in range(len(num))]
        assert not any(c for k, c in taylor.items() if k >= len(num))
    assert _hilbert_numerator(pk, [0, _pack(pk, (1,) * n)]) == []


def _homogenized_w_order(x_names):
    hsig = d_np1(x_names).homogenize()
    return hsig, TermOrder(hsig, weight_rows=[_w_row(hsig)])


def _grevlex_leading_monomials(gens, sig):
    order = TermOrder.grevlex(sig)
    keyf = _make_keyf(order, sig._pk)
    return [max(g, key=keyf) for g in groebner_engine(gens, sig, order)]


@pytest.mark.parametrize("x_names", [("x",), ("x", "y")], ids=["5 slots", "7 slots"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hilbert_driven_engine_matches_plain_and_reference(x_names, data):
    # Bernstein-homogenized random ideals under the w-row order, as in the
    # w-adapted basis: the run with the grevlex leading monomials as its
    # target returns the plain run's basis, and the reference's, with no
    # more zero reductions
    hsig, order = _homogenized_w_order(x_names)
    ones = dict.fromkeys(hsig.names, 1)
    gens = [g.homogenize("h", ones, hsig).terms for g in data.draw(_generators(d_np1(x_names)))]
    try:
        target = _grevlex_leading_monomials(gens, hsig)
        plain = groebner_engine(gens, hsig, order, deadline=time.monotonic() + 1)
        plain_zero = last_gb_stats().zero_reductions
        driven = groebner_engine(gens, hsig, order, deadline=time.monotonic() + 1,
                                 hilbert_target=target)
        stats = last_gb_stats()
        ref = _ref_groebner(gens, hsig, order, deadline=time.monotonic() + 2)[0]
    except GBTimeout:
        reject()
    assert driven == plain == ref
    assert stats.zero_reductions <= plain_zero


def test_minimal_basis_under_a_negative_weight():
    # 1 divides x, whose key is the lower under the w-row order: the basis
    # keeps 1 alone, where a minimalization in key order kept both
    hsig, order = _homogenized_w_order(("x",))
    one, x = W.one(hsig), W.gen(hsig, "x")
    assert groebner_engine([one.terms, x.terms], hsig, order) == [one.terms]


def test_hilbert_target_refuses_non_homogeneous_input():
    hsig, order = _homogenized_w_order(("x",))
    x, dx, h = (W.gen(hsig, n) for n in ("x", "dx", "h"))
    with pytest.raises(NonHomogeneousInput):
        groebner_engine([(x * dx + h).terms], hsig, order, hilbert_target=[])


def test_wrong_hilbert_target_raises():
    # the target of a larger ideal has fewer degree-d monomials outside its
    # leading ideal than this one ever reaches: no pair is skipped wrongly,
    # and the final check refuses to return the basis
    hsig, order = _homogenized_w_order(("x",))
    x, dx, t, dt, h = (W.gen(hsig, n) for n in ("x", "dx", "t", "dt", "h"))
    gens = [(dx * dx + x * h).terms, (t * dt - x * dx).terms]
    larger = _grevlex_leading_monomials(gens + [(t * h).terms], hsig)
    assert groebner_engine(gens, hsig, order,
                           hilbert_target=_grevlex_leading_monomials(gens, hsig))
    with pytest.raises(AssertionError, match="Hilbert target"):
        groebner_engine(gens, hsig, order, hilbert_target=larger)


@pytest.mark.parametrize("sig", [d_n(("x",)), d_n(("x", "y"))], ids=["D1", "D2"])
@pytest.mark.parametrize("rank", [2, 3])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_component_zero_ideal_rows_are_its_reduced_basis(sig, rank, data):
    # the rows with only component comp of the module basis, against a
    # second Buchberger run on them; entries are dropped at random so that
    # the ideal is often nonzero
    columns = [data.draw(_generators(sig)) for _ in range(rank)]
    vectors = [tuple(op if data.draw(st.booleans()) else W.zero(sig) for op in vec)
               for vec in zip(*columns)]
    comp = data.draw(st.integers(0, rank - 1))
    module = SubmodulePresentation.make(rank, sig, vectors)
    try:
        # a few draws in a hundred over D_2 take seconds to minutes
        ideal = component_zero_ideal(module, comp, deadline=time.monotonic() + 1)
    except GBTimeout:
        reject()
    order = TermOrder.grevlex(sig)
    assert ideal.basis() == ideal.generators
    assert ideal.basis() == IdealPresentation(sig, ideal.generators).basis()
    _assert_reduced_and_monic(ideal.basis(), order)


def test_integer_key_orders_like_tuple_key():
    sig = RingSignature(("x", "y"), extras=("s",), homogenized=True)
    pk = sig._pk
    row = [1, -2, 0, 3, 0, 0]
    rng = random.Random(5)
    labs = [_pack(pk, [rng.choice([0, 1, 2, MAX_EXPONENT]) for _ in range(sig.nslots)])
            + (rng.randrange(3) << pk.cshift) for _ in range(300)]
    for order in (TermOrder(sig, blocks=[(1, 0), (2,)], weight_rows=[row]),
                  TermOrder(sig, position="pt"),
                  TermOrder(sig, blocks=[("s",)], position="pt", top_comps=[2])):
        keyf, key = _make_keyf(order, pk), _ref_key(order, pk)
        assert sorted(labs, key=keyf) == sorted(labs, key=key)


def test_normal_form_rational_input_exact_remainder():
    # p and the divisors carry non-integer coefficients; the engine clears
    # them, and the remainder must be the rational one, not a multiple of it
    sig = d_n_s(("x", "y"))
    x, y, dx, dy, s = (W.gen(sig, n) for n in ("x", "y", "dx", "dy", "s"))
    third, five_halves = QQ(1, 3), QQ(-5, 2)
    gens = [dx * dx * third + x * five_halves, dy * five_halves - y * s * third,
            W.zero(sig), x * dy * QQ(-7, 4) + 1]
    p = (dx ** 3 * y * five_halves + dx * dy * s * third + x * x * dx * QQ(3, 7)
         + y * QQ(-1, 6))
    order = TermOrder.grevlex(sig)
    r = normal_form(p, gens, order)
    pk = sig._pk
    key = _ref_key(order, pk)
    ref = _ref_nf(p.terms, [_RefRed(g.terms, key, pk) for g in gens if g], pk, key)
    assert r.terms == ref and not r.is_zero()


def test_represent_rational_input_identity():
    sig = d_n_s(("x",))
    x, dx, s = (W.gen(sig, n) for n in ("x", "dx", "s"))
    gens = [x * dx * QQ(1, 3) - s * QQ(5, 2), x * x * QQ(-5, 2)]    # a proper ideal
    p = (dx * QQ(2, 3) + s) * gens[0] + (x * QQ(-1, 7) + 3) * gens[1]
    cof = represent(p, gens)
    assert cof is not None
    recon = W.zero(sig)
    for a, g in zip(cof, gens):
        recon = recon + a * g
    assert recon == p
    assert represent(p + QQ(1, 3), gens) is None
