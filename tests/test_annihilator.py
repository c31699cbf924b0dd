"""tau-substitution, the Malgrange ideal, homogenization/psi, and Ann(f^s)."""
import random

import pytest

from holozeta import (
    QQ,
    IdealPresentation,
    NonHomogeneousInput,
    ProblemInstance,
    WeylOperator,
    ann_fs,
    build_malgrange,
    d_n,
    d_n_s,
    d_np1,
    homogenize_w,
    psi_dehomogenize,
    tau_substitute,
)
from holozeta.annihilator import _weight_row
from holozeta.oracle import LogSection, annihilates

from conftest import is_unit, same_ideal

W = WeylOperator


def tau_to_one(P):
    """Map tau_h -> 1 and drop the unused sigma slot (inverse of homogenize_w)."""
    sig = P.sig
    sigma, tau = sig.slot("sigma"), sig.slot("tau_h")
    out = W.zero(d_np1(sig.x_names))
    for m, c in P.exponent_terms().items():
        assert not m[sigma], "operator still uses sigma"
        out = out + W(out.sig, {tuple(e for i, e in enumerate(m) if i not in (sigma, tau)): c})
    return out


def psi_embed(P, shift=0):
    """Inverse of psi: S * P'(-dt t) expanded in D_{n+1} (for round trips)."""
    sig_t = d_np1(P.sig.x_names)
    t = W.gen(sig_t, "t")
    dt = W.gen(sig_t, "dt")
    minus_dtt = -(dt * t)
    out = W.zero(sig_t)
    for (e,), part in P.coefficients(("s",), sig_t).items():
        out = out + part * minus_dtt ** e
    S = t ** shift if shift >= 0 else dt ** (-shift)
    return S * out


def rand_op(sig, rng, max_terms=3, max_deg=2):
    out = W.zero(sig)
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * sig.nslots
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(sig.nslots)] += 1
        c = rng.randint(-3, 3)
        if c:
            out = out + W(sig, {tuple(mono): QQ(c)})
    return out


def rand_poly(sig, rng, max_deg=3):
    n = sig.n_x
    out = W.zero(sig)
    for _ in range(rng.randint(1, 3)):
        mono = [0] * sig.nslots
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if c:
            out = out + W(sig, {tuple(mono): QQ(c)})
    return out


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_fixes_variables(inst_cusp):
    sig = inst_cusp.sig
    x = W.gen(sig, "x")
    assert tau_substitute(x, inst_cusp.f) == x.embed(inst_cusp.sig_t)


def test_tau_on_dx_cusp(inst_cusp):
    sig = inst_cusp.sig
    sig_t = inst_cusp.sig_t
    dx, dt = W.gen(sig, "dx"), W.gen(sig_t, "dt")
    x = W.gen(sig_t, "x")
    assert tau_substitute(dx, inst_cusp.f) == W.gen(sig_t, "dx") + 3 * x * x * dt


def test_tau_on_gaussian_generator(inst_cusp):
    sig = inst_cusp.sig
    sig_t = inst_cusp.sig_t
    dx, x = W.gen(sig, "dx"), W.gen(sig, "x")
    img = tau_substitute(dx + 2 * x, inst_cusp.f)
    x_t, dt = W.gen(sig_t, "x"), W.gen(sig_t, "dt")
    assert img == W.gen(sig_t, "dx") + 3 * x_t * x_t * dt + 2 * x_t


def test_tau_homomorphism_100_random_pairs():
    rng = random.Random(42)
    sig = d_n(("x", "y"))
    for _ in range(100):
        f = rand_poly(sig, rng)
        while f.total_degree() < 1:
            f = rand_poly(sig, rng)
        P, Q = rand_op(sig, rng), rand_op(sig, rng)
        assert tau_substitute(P * Q, f) == tau_substitute(P, f) * tau_substitute(Q, f)


# ---------------------------------------------------------------------------
# Malgrange ideal
# ---------------------------------------------------------------------------

def test_build_malgrange_assemblies(inst_x, inst_gamma, inst_cusp):
    sig_t = inst_x.sig_t
    x, t, dx, dt = (W.gen(sig_t, n) for n in ("x", "t", "dx", "dt"))
    assert list(build_malgrange(inst_x).generators) == [dx + dt, t - x]
    assert list(build_malgrange(inst_gamma).generators) == [dx + dt + 1, t - x]
    sig2t = inst_cusp.sig_t
    x2, y2, t2, dx2, dy2, dt2 = (W.gen(sig2t, n) for n in ("x", "y", "t", "dx", "dy", "dt"))
    gens = list(build_malgrange(inst_cusp).generators)
    assert gens == [dx2 + 3 * x2 * x2 * dt2, dy2 - 2 * y2 * dt2,
                    t2 - x2 ** 3 + y2 ** 2]


def test_malgrange_membership_invariants(inst_cusp):
    # t - f in J and dx_j + f_j dt in J when dx_j in I; both reduce to 0
    J = build_malgrange(inst_cusp)
    sig_t = inst_cusp.sig_t
    t = W.gen(sig_t, "t")
    assert J.contains(t - inst_cusp.f.embed(sig_t))
    dt = W.gen(sig_t, "dt")
    for name in inst_cusp.x_names:
        fj = inst_cusp.f.derivative(name).embed(sig_t)
        assert J.contains(W.gen(sig_t, "d" + name) + fj * dt)


# ---------------------------------------------------------------------------
# homogenization and psi
# ---------------------------------------------------------------------------

def test_homogenize_examples(inst_cusp):
    sig_t = inst_cusp.sig_t
    t, dt = W.gen(sig_t, "t"), W.gen(sig_t, "dt")
    x, y = W.gen(sig_t, "x"), W.gen(sig_t, "y")
    h1 = homogenize_w(t - inst_cusp.f.embed(sig_t))
    st = h1.sig
    tau = W.gen(st, "tau_h")
    assert h1 == W.gen(st, "t") - (W.gen(st, "x") ** 3 - W.gen(st, "y") ** 2) * tau
    h2 = homogenize_w(W.gen(sig_t, "dx") + 3 * x * x * dt)
    assert h2 == W.gen(st, "dx") + 3 * W.gen(st, "x") ** 2 * W.gen(st, "dt") * tau
    assert homogenize_w(dt) == W.gen(st, "dt")


def test_homogenize_random_is_homogeneous_and_roundtrips():
    rng = random.Random(9)
    sig_t = d_np1(("x",))
    row_t = _weight_row(sig_t)
    for _ in range(50):
        P = rand_op(sig_t, rng, max_terms=4, max_deg=3)
        if P.is_zero():
            continue
        H = homogenize_w(P)
        assert H.is_weight_homogeneous(_weight_row(H.sig))
        assert tau_to_one(H) == P


def test_psi_examples():
    sig_t = d_np1(("x",))
    t, dt, dx = (W.gen(sig_t, n) for n in ("t", "dt", "dx"))
    sig_s = d_n_s(("x",))
    s = W.gen(sig_s, "s")
    p, nu = psi_dehomogenize(dt * t)
    assert p == -s and nu == 0
    p, nu = psi_dehomogenize(t * dt)
    assert p == -s - 1 and nu == 0
    p, nu = psi_dehomogenize(t * dx)
    assert p == W.gen(sig_s, "dx") and nu == 1


def test_psi_rejects_inhomogeneous():
    sig_t = d_np1(("x",))
    t = W.gen(sig_t, "t")
    with pytest.raises(NonHomogeneousInput):
        psi_dehomogenize(t + 1)


def test_psi_embed_roundtrip_100_cases():
    # substituting s -> -dt t, normal ordering, then psi returns P' with nu=0
    rng = random.Random(13)
    sig_s = d_n_s(("x",))
    for _ in range(100):
        P = rand_op(sig_s, rng, max_terms=3, max_deg=2)
        if P.is_zero():
            continue
        emb = psi_embed(P, 0)
        back, nu = psi_dehomogenize(emb)
        assert nu == 0 and back == P


def test_psi_roundtrip_with_shift():
    rng = random.Random(14)
    sig_s = d_n_s(("x",))
    sig_t = d_np1(("x",))
    t, dt = W.gen(sig_t, "t"), W.gen(sig_t, "dt")
    for shift in (2, -3):
        for _ in range(10):
            P = rand_op(sig_s, rng, max_terms=2, max_deg=2)
            if P.is_zero():
                continue
            emb = psi_embed(P, shift)
            back, nu = psi_dehomogenize(emb)
            assert nu == shift
            assert psi_embed(back, nu) == emb


# ---------------------------------------------------------------------------
# ann_fs
# ---------------------------------------------------------------------------

def test_ann_fs_f_equals_x(inst_x):
    ann = ann_fs(inst_x)
    sig_s = inst_x.sig_s
    x, dx, s = (W.gen(sig_s, n) for n in ("x", "dx", "s"))
    assert same_ideal(ann, IdealPresentation(sig_s, [x * dx - s]))
    v = LogSection.fs(inst_x)
    assert annihilates(x * dx - s, v)


def test_ann_fs_cusp_matches_classical(inst_cusp):
    ann = ann_fs(inst_cusp)
    sig_s = inst_cusp.sig_s
    x, y, dx, dy, s = (W.gen(sig_s, n) for n in ("x", "y", "dx", "dy", "s"))
    euler = 2 * x * dx + 3 * y * dy - 6 * s
    tangent = 2 * y * dx + 3 * x * x * dy
    assert ann.contains(euler) and ann.contains(tangent)
    classical = IdealPresentation(sig_s, [euler, tangent])
    assert same_ideal(ann, classical)


def test_ann_fs_zero_module():
    sig = d_n(("x",))
    x = W.gen(sig, "x")
    inst = ProblemInstance.make(("x",), x, [W.one(sig)])
    assert is_unit(ann_fs(inst))


def test_ann_fs_soundness_all_regression_instances(
        inst_x, inst_xsq, inst_gamma, inst_ex3, inst_cusp, inst_cusp_gauss, inst_ex4):
    for inst in (inst_x, inst_xsq, inst_gamma, inst_ex3, inst_cusp,
                 inst_cusp_gauss, inst_ex4):
        ann = ann_fs(inst)
        section = LogSection.fs(inst)
        for g in ann.basis():
            assert annihilates(g, section), g.to_str()


def test_problem_instance_validation():
    sig = d_n(("x",))
    x, dx = W.gen(sig, "x"), W.gen(sig, "dx")
    with pytest.raises(ValueError):
        ProblemInstance.make(("x",), W.one(sig), [dx])   # constant f
    with pytest.raises(ValueError):
        ProblemInstance.make(("x",), x, [])              # empty I
    with pytest.raises(ValueError):
        ProblemInstance.make(("x",), dx, [dx])           # f not commutative
