"""Annihilator of f^s (x) u via the Malgrange ideal.

Pipeline: J = <tau(I), t - f> in D_{n+1}; homogenize each generator with
respect to the weights x:0, dx:0, t:-1, dt:+1 using the central variable
tau_h, adjoin 1 - sigma*tau_h, eliminate {sigma, tau_h}; every survivor is
weight-homogeneous, factors as t^nu * P'(-dt t) or dt^nu * P'(-dt t), and the
P' generate Ann_{D_n[s]}(f^s (x) u).
"""
from __future__ import annotations

from dataclasses import dataclass

from .upoly import UPoly
from .weyl_core import (
    IdealPresentation,
    NonHomogeneousInput,
    RingSignature,
    SignatureMismatch,
    WeylOperator,
    d_n,
    d_n_s,
    d_np1,
    eliminate,
)

# weight table for the homogenization step: x_j, dx_j weight 0;
# t: -1, dt: +1, tau_h: -1, sigma: +1
WEIGHT_TABLE = {"t": -1, "dt": 1, "tau_h": -1, "sigma": 1}


def _weight_row(sig):
    return tuple(WEIGHT_TABLE.get(name, 0) for name in sig.names)


@dataclass(frozen=True)
class ProblemInstance:
    """A polynomial f and an annihilating ideal for phi, assumed f-saturated.

    f is a non-constant commutative polynomial in the x's; I_gens generate a
    left ideal of D_n with D_n/I holonomic (use {dx_1, ..., dx_n} for phi = 1).
    Saturation (injectivity of f on D_n/I) is the caller's assertion; for a
    non-saturated module the computed ideal annihilates f^s (x) u for the
    saturation instead.
    """

    x_names: tuple
    f: WeylOperator
    I_gens: tuple

    def __post_init__(self):
        sig = self.sig
        for x in self.x_names:
            # the widest rings of the pipeline: D_n[s] and D_{n+1}[sigma, tau_h, h]
            try:
                d_n_s((x,))
                RingSignature((x,), True, ("sigma", "tau_h"), True)
            except SignatureMismatch:
                raise ValueError(f"variable name {x!r} is reserved") from None
        if self.f.sig != sig:
            raise SignatureMismatch("f must live in D_n")
        if any(g.sig != sig for g in self.I_gens):
            raise SignatureMismatch("annihilator generators must live in D_n")
        if not self.I_gens:
            raise ValueError("I_gens must be nonempty; use the dx_j for phi = 1")
        if any(self.f.uses_slot(sig.slot("d" + x)) for x in self.x_names):
            raise ValueError("f must be a commutative polynomial in the x's")
        if self.f.total_degree() < 1:
            raise ValueError("f must be non-constant")

    @property
    def n(self):
        return len(self.x_names)

    @property
    def sig(self):
        return d_n(self.x_names)

    @property
    def sig_s(self):
        return d_n_s(self.x_names)

    @property
    def sig_t(self):
        return d_np1(self.x_names)

    @classmethod
    def make(cls, x_names, f, I_gens):
        return cls(tuple(x_names), f, tuple(I_gens))


def tau_substitute(P, f):
    """tau(P) = P(x, dx_1 + f_1 dt, ..., dx_n + f_n dt) in D_{n+1}.

    The substituted derivations commute with one another and satisfy
    [dx_j + f_j dt, x_i] = delta_ij, so the map is a ring homomorphism.
    """
    sig = P.sig
    if f.sig != sig:
        raise SignatureMismatch("P and f must share the D_n signature")
    sig_t = d_np1(sig.x_names)
    dt = WeylOperator.gen(sig_t, "dt")
    subs = [WeylOperator.gen(sig_t, "d" + x) + f.derivative(x).embed(sig_t) * dt
            for x in sig.x_names]
    pows = [{0: WeylOperator.one(sig_t)} for _ in subs]

    def power(i, e):
        cache = pows[i]
        while e not in cache:
            m = max(cache)
            cache[m + 1] = cache[m] * subs[i]
        return cache[e]

    out = WeylOperator.zero(sig_t)
    for a, term in P.coefficients(tuple("d" + x for x in sig.x_names), sig_t).items():
        for i, e in enumerate(a):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def build_malgrange(inst):
    """Generators {tau(P) : P in I} together with t - f, in D_{n+1}."""
    sig_t = inst.sig_t
    t = WeylOperator.gen(sig_t, "t")
    gens = [tau_substitute(P, inst.f) for P in inst.I_gens]
    gens.append(t - inst.f.embed(sig_t))
    return IdealPresentation(sig_t, gens)


def homogenize_w(P):
    """Weight-homogenize P in D_{n+1} by padding with tau_h powers.

    Every term of weight d picks up tau_h^(d - d_min); the result has weight
    d_min throughout and recovers P under tau_h -> 1.
    """
    sig = P.sig
    out_sig = RingSignature(sig.x_names, True, sig.extras + ("sigma", "tau_h"))
    return P.homogenize("tau_h", WEIGHT_TABLE, out_sig)


def psi_dehomogenize(P):
    """Factor a weight-homogeneous P in D_{n+1} as S * P'(-dt t).

    Returns (P', shift) with P' in D_n[s]; shift >= 0 means S = t^shift,
    shift < 0 means S = dt^(-shift).  Uses t^j dt^j = (-1)^j (s+1)...(s+j)
    and, on the dt-heavy side, an extra argument shift by nu.
    """
    sig = P.sig
    if not sig.has_t:
        raise SignatureMismatch("psi expects a D_{n+1} operator")
    row = _weight_row(sig)
    sig_s = d_n_s(sig.x_names)
    if not P:
        return WeylOperator.zero(sig_s), 0
    ws = P.weights(row)
    if len(ws) > 1:
        raise NonHomogeneousInput(
            f"psi needs weight-homogeneous input, got weights {sorted(ws)}")
    (m_w,) = ws
    nu = abs(m_w)
    out = WeylOperator.zero(sig_s)
    for (a, b), part in P.coefficients(("t", "dt"), sig_s).items():
        poly = UPoly.signed_rising(0 if m_w <= 0 else nu, min(a, b))
        out = out + WeylOperator(sig_s, {sig_s.mono({"s": e}): c
                                         for e, c in enumerate(poly.c)}) * part
    return out, (nu if m_w <= 0 else -nu)


def ann_fs(inst):
    """Generators of Ann_{D_n[s]}(f^s (x) u), via sigma/tau elimination."""
    J = build_malgrange(inst)
    hom = [homogenize_w(g) for g in J.generators]
    sig_st = hom[0].sig
    sigma = WeylOperator.gen(sig_st, "sigma")
    tau = WeylOperator.gen(sig_st, "tau_h")
    Jp = IdealPresentation(sig_st, hom + [WeylOperator.one(sig_st) - sigma * tau])
    J2 = eliminate(Jp, ("sigma", "tau_h"), stage="sigma-tau-elimination")
    row = _weight_row(J2.sig)
    gens = []
    for g in J2.basis():
        if not g.is_weight_homogeneous(row):
            raise NonHomogeneousInput(
                "internal error: element of J'' is not weight-homogeneous")
        p, _shift = psi_dehomogenize(g)
        if p:
            gens.append(p)
    return IdealPresentation(inst.sig_s, gens)
