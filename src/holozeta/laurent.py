"""Holonomic systems for the Laurent coefficients of f_+^lambda phi.

At a rational expansion point lambda0, the coefficient phi_k is written as
sum_j Q_kj (f_+^(lambda0+m) (log f)^j phi) with the Q_kj Taylor data of
c(e)^{-1} P(e) in the local variable e = s - lambda0; its annihilator is the
colon ideal of that vector into the substituted log-tower relation module
J_{l+k}|_{s = lambda0+m}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .annihilator import ProblemInstance, ann_fs
from .bfunction import BFunction, bfunction, functional_operator
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

    b is b_m(s) = b(s) b(s+1) ... b(s+m-1); with e = s - lambda0,
    b_m(lambda0 + e) = c(e) e^l exactly with c(0) != 0, so c is given in e.
    Qk are the operators of the expansion at level k; ann_w annihilates phi_k.
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


def laurent_operators(P, c, l, k):
    """The operators Q_k0, ..., Q_k(l+k) of the Laurent expansion.

    P and c are given in the local variable e = s - lambda0, which P carries
    as its extra "s": Q_kj = (1/j!) [e^(l+k-j)] c(e)^{-1} P(e), read from the
    coefficients of e^0, ..., e^(l+k) of P and the inverse power series of c.
    The result lives in D_n (no s).
    """
    if not c[0]:
        raise ValueError("c(0) must be nonzero")
    if k < -l:
        raise ValueError("k must be at least -l")
    N = l + k
    sig = P.sig.without_extras("s")
    by_power = P.coefficients(("s",), sig)
    parts = [by_power.get((d,), WeylOperator.zero(sig)) for d in range(N + 1)]
    gamma = inverse_series(c, N + 1)
    out = []
    fact = 1
    for j in range(N + 1):
        if j:
            fact *= j
        r = N - j
        T = WeylOperator.zero(sig)
        for d in range(r + 1):
            T = T + parts[d].scale(gamma[r - d])
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
            derivs.append(derivs[-1].derivative("s"))
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


def ann_laurent(req):
    """Holonomic annihilator of the Laurent coefficient phi_k at lambda0.

    Works in e = s - lambda0 throughout: B(e) = b_m(lambda0 + e) = c(e) e^l,
    and P(e) = prod_{j<m} P0(lambda0 + j + e) is only needed modulo e^(l+k+1).
    """
    inst = req.inst
    lambda0 = req.lambda0
    ann = ann_fs(inst)
    b0 = bfunction(ann, inst.f)
    eqn = functional_operator(ann, inst.f, b0)
    m = default_shift(lambda0)
    bm = UPoly.one()
    for j in range(m):
        bm = bm * b0.poly.shift(j)
    B = bm.shift(lambda0)
    l = next(i for i, v in enumerate(B.c) if v)
    c = UPoly(B.c[l:])
    if req.k < -l:
        raise LaurentRequestError(f"k = {req.k} below the pole order bound -l = {-l}")
    N = l + req.k
    P = WeylOperator.one(eqn.P0.sig)
    for j in range(m):
        factor = eqn.P0.shift_extra("s", lambda0 + j).truncate_extra("s", N)
        P = (P * factor).truncate_extra("s", N)
    Qk = laurent_operators(P, c, l, req.k)
    Jk = build_Jk(ann, N)
    a = lambda0 + m
    sig = inst.sig
    sub_gens = [tuple(op.subs_extra("s", a, sig) for op in vec) for vec in Jk.generators]
    Jk_sub = SubmodulePresentation.make(N + 1, sig, sub_gens)
    ann_w = colon_kernel(Qk, Jk_sub, stage="laurent-colon")
    return LaurentSystem(lambda0, req.k, l, m, BFunction.from_upoly(bm), c, tuple(Qk),
                         Jk_sub, ann_w)
