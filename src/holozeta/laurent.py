"""Holonomic systems for the Laurent coefficients of f_+^lambda phi.

At a rational expansion point lambda0, the coefficient phi_k is written as
sum_j Q_kj (f_+^(lambda0+m) (log f)^j phi) with the Q_kj Taylor data of
c(s)^{-1} P(s); its annihilator is the colon ideal of that vector into the
substituted log-tower relation module J_{l+k}|_{s = lambda0+m}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .annihilator import ProblemInstance, ann_fs
from .bfunction import BFunction, bfunction, functional_operator, shift_compose
from .upoly import UPoly, inverse_series
from .weyl_core import (
    QQ,
    IdealPresentation,
    SubmodulePresentation,
    WeylOperator,
    colon_kernel,
)


class LaurentRequestError(ValueError):
    """A Laurent request the b-function does not allow (k below -l)."""


@dataclass(frozen=True)
class LaurentRequest:
    inst: ProblemInstance
    lambda0: object      # rational; non-rational points are out of scope
    k: int

    def __post_init__(self):
        object.__setattr__(self, "lambda0", QQ(self.lambda0))


@dataclass(frozen=True)
class LaurentSystem:
    """Everything the Laurent-coefficient computation produced.

    b(s) = c(s) (s - lambda0)^l exactly with c(lambda0) != 0; Qk are the
    operators of the expansion at level k; ann_w annihilates phi_k.
    """

    lambda0: object
    k: int
    l: int
    m: int
    b: BFunction
    c: UPoly
    Qk: tuple
    Jk_sub: SubmodulePresentation
    ann_w: IdealPresentation

    def check_factorization(self):
        lin = UPoly((-self.lambda0, 1))
        return self.c * lin ** self.l == self.b.poly and self.c.eval(self.lambda0) != 0


def pole_order(b, lambda0, m=None):
    """(l, c) with b(s) = c(s) (s - lambda0)^l and c(lambda0) != 0.

    b is the m-fold shifted product b0(s)...b0(s+m-1); m is only sanity-checked
    (lambda0 + m must be positive when given).
    """
    lambda0 = QQ(lambda0)
    if m is not None and lambda0 + m <= 0:
        raise ValueError("m must satisfy lambda0 + m > 0")
    poly = b.poly if isinstance(b, BFunction) else b.monic()
    lin = UPoly((-lambda0, 1))
    l = 0
    c = poly
    while not c.eval(lambda0):
        c = c.exact_div(lin)
        l += 1
    return l, c


def laurent_operators(P, c, lambda0, l, k):
    """The operators Q_k0, ..., Q_k(l+k) of the Laurent expansion.

    Q_kj = (1/j!) [coefficient of (s-lambda0)^(l+k-j) in c(s)^{-1} P(s)],
    computed from the Taylor expansion of P at lambda0 and the inverse power
    series of c.  The result lives in D_n (no s).
    """
    lambda0 = QQ(lambda0)
    if c.eval(lambda0) == 0:
        raise ValueError("c(lambda0) must be nonzero")
    if k < -l:
        raise ValueError("k must be at least -l")
    sig_s = P.sig
    sig = sig_s.without_extras("s")
    N = l + k
    # P(s) = sum_d P_d (s - lambda0)^d
    degs = P.max_extra_degree("s")
    coeffs = [P.coeff_of_extra_power("s", e) for e in range(degs + 1)]
    P_parts = []
    for d in range(N + 1):
        part = WeylOperator.zero(sig)
        for e in range(d, degs + 1):
            part = part + coeffs[e].scale(math.comb(e, d) * lambda0 ** (e - d))
        P_parts.append(part)
    gamma = inverse_series(c, lambda0, N + 1)
    out = []
    fact = 1
    for j in range(N + 1):
        if j:
            fact *= j
        r = N - j
        T = WeylOperator.zero(sig)
        for d in range(r + 1):
            T = T + P_parts[d].scale(gamma[r - d])
        out.append(T.scale(QQ(1, fact)))
    return out


def build_Jk(ann, k):
    """The relation submodule J_k of (D_n[s])^(k+1) for the log tower.

    Generated by Q^(j) = sum_{i<=j} C(j,i) (d^(j-i)Q/ds^(j-i)) e_(i+1) for Q
    in the generators of ann and 0 <= j <= k; for k = 0 this is ann in rank 1.
    """
    sig_s = ann.sig
    zero = WeylOperator.zero(sig_s)
    gens = []
    for Q in ann.generators:
        derivs = [Q]
        for _ in range(k):
            derivs.append(derivs[-1].deriv_extra("s"))
        for j in range(k + 1):
            vec = [zero] * (k + 1)
            for i in range(j + 1):
                vec[i] = vec[i] + derivs[j - i].scale(math.comb(j, i))
            gens.append(tuple(vec))
    return SubmodulePresentation.make(k + 1, sig_s, gens)


def default_shift(lambda0):
    """Least m >= 0 with lambda0 + m > 0 for rational lambda0."""
    lambda0 = QQ(lambda0)
    if lambda0 > 0:
        return 0
    neg = -lambda0
    return int(neg.numerator // neg.denominator) + 1


def ann_laurent(req, deadline=None):
    """Holonomic annihilator of the Laurent coefficient phi_k at lambda0."""
    inst = req.inst
    lambda0 = QQ(req.lambda0)
    ann = ann_fs(inst, deadline=deadline)
    b0 = bfunction(ann, inst.f, deadline=deadline)
    eqn = functional_operator(ann, inst.f, b0, deadline=deadline)
    m = default_shift(lambda0)
    eqm = shift_compose(eqn, m)
    l, c = pole_order(eqm.b, lambda0, m)
    if req.k < -l:
        raise LaurentRequestError(f"k = {req.k} below the pole order bound -l = {-l}")
    N = l + req.k
    Qk = laurent_operators(eqm.P0, c, lambda0, l, req.k)
    Jk = build_Jk(ann, N)
    a = lambda0 + m
    sig = inst.sig
    sub_gens = [tuple(op.subs_extra("s", a, sig) for op in vec) for vec in Jk.generators]
    Jk_sub = SubmodulePresentation.make(N + 1, sig, sub_gens)
    ann_w = colon_kernel(Qk, Jk_sub, deadline=deadline, stage="laurent-colon")
    return LaurentSystem(lambda0, req.k, l, m, eqm.b, c, tuple(Qk), Jk_sub, ann_w)
