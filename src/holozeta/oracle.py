"""Independent verification: exact operator actions on f^s log-sections, and
numeric quadrature of Z(lambda) for residual checks of difference operators.

A LogSection represents f^(-k) sum_j f^s (log f)^j (x) (op_j u) over the
module M = D_n/I; operators act exactly (the derivation rule
d_i f^s = s f_i f^{-1} f^s plus the product rule on log powers), with each
op_j reduced against a Groebner basis of I.  Every rule raises all entries
by the same power of f, so one k serves the whole section and nothing is
ever divided by f.  Zero testing: the section vanishes iff f^m op_j = 0 mod I
for some m and every j; for f-saturated M that is iff every op_j reduces to
0, and in general f^m op_j is tested for increasing m and the m used is
reported.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import mpmath

from .weyl_core import (
    QQ,
    IdealPresentation,
    SignatureMismatch,
    WeylOperator,
)


class OracleError(RuntimeError):
    pass


# largest power of f tried by the zero test on unsaturated modules
M_CAP = 8


class LogSection:
    """Exact section of the log tower over M = D_n/I.

    The section is f^(-fpow) sum_j f^e (log f)^j (x) (entries[j] u), where
    the exponent e is the symbol s (symbolic mode) or a fixed rational a
    (numeric mode).  In symbolic mode each op lives in D_n[s], in numeric
    mode in D_n; each is a nonzero normal form modulo I.
    """

    def __init__(self, inst, symbolic=True, a=None):
        self.inst = inst
        self.symbolic = symbolic
        self.a = None if symbolic else QQ(a)
        self.sig = inst.sig_s if symbolic else inst.sig
        self.f = inst.f.embed(self.sig)
        # I inside this signature (s rides along freely), with its basis
        self._gb = IdealPresentation(self.sig, [g.embed(self.sig) for g in inst.I_gens])
        self._gb.basis()
        self.fpow = 0
        self.entries = {}

    # -- construction -----------------------------------------------------------
    @classmethod
    def fs(cls, inst, j=0, mult=None, symbolic=True, a=None):
        """The section f^e (log f)^j (x) (mult * u); mult defaults to 1."""
        sec = cls(inst, symbolic=symbolic, a=a)
        op = WeylOperator.one(sec.sig) if mult is None else mult.embed(sec.sig)
        sec._put(j, op)
        return sec

    def _put(self, j, op):
        """Add op u to the log^j entry, reduced modulo I."""
        cur = self.entries.get(j)
        op = self._gb.normal_form(op if cur is None else cur + op)
        if op.is_zero():
            self.entries.pop(j, None)
        else:
            self.entries[j] = op

    def _empty(self, fpow):
        """An empty section over the same tower at f power fpow, sharing the
        basis of I."""
        out = copy.copy(self)
        out.fpow = fpow
        out.entries = {}
        return out

    # -- linear structure ---------------------------------------------------------
    def __add__(self, other):
        if (self.inst is not other.inst and self.inst != other.inst) or \
           self.symbolic != other.symbolic or self.a != other.a:
            raise OracleError("sections over different towers")
        return _sum([self, other])

    def __sub__(self, other):
        return self + _map(other, lambda op: -op)

    # -- zero testing --------------------------------------------------------------
    def is_zero(self):
        return self.vanishing_m() is not None

    def vanishing_m(self):
        """Smallest m with f^m op_j = 0 mod I for every entry, or None.

        For f-saturated input m = 0 always suffices; the search is kept for
        robustness on unsaturated modules and the bound is reported.
        """
        worst = 0
        for op in self.entries.values():
            m = 0
            while m <= M_CAP:
                if self._gb.contains(op):
                    break
                op = self.f * op
                m += 1
            if m > M_CAP:
                return None
            worst = max(worst, m)
        return worst

    def __repr__(self):
        kind = "s" if self.symbolic else str(self.a)
        inner = ", ".join(f"log^{j}: {op.to_str()}" for j, op in sorted(self.entries.items()))
        return f"<LogSection e={kind} f^-{self.fpow} (x) {{{inner}}}>"


def _sum(sections):
    """The sum of sections over one tower, each lifted once to the largest f
    power and each log power reduced once."""
    top = max(sections, key=lambda sec: sec.fpow)
    acc = {}
    for sec in sections:
        lift = top.f ** (top.fpow - sec.fpow)
        for j, op in sec.entries.items():
            op = lift * op if sec.fpow < top.fpow else op
            acc[j] = acc[j] + op if j in acc else op
    out = top._empty(top.fpow)
    for j, op in acc.items():
        out._put(j, op)
    return out


def _map(sec, fn, dk=0):
    """The section with every op replaced by fn(op) and f power raised by dk."""
    out = sec._empty(sec.fpow + dk)
    for j, op in sec.entries.items():
        out._put(j, fn(op))
    return out


def _apply_gen(sec, name):
    """Action of t, dt or the derivative called name on the section sec."""
    inst, sig, f = sec.inst, sec.sig, sec.f
    if name == "t":
        # t acts through the Mellin identification as E_s: shift s, multiply by f
        return _map(sec, lambda op: f * op.shift_extra("s", 1))
    if name == "dt":
        # dt = -s E_s^{-1}: shift s by -1, raise the f power by one, multiply by -s
        s = WeylOperator.gen(sig, "s")
        return _map(sec, lambda op: -s * op.shift_extra("s", -1), dk=1)
    # d_i (f^{-k} f^e log^j (x) op u) =
    #   f^{-(k+1)} f^e log^j (x) (f d_i + (e-k) f_i) op u
    # + j f^{-(k+1)} f^e log^(j-1) (x) f_i op u
    k = sec.fpow
    fi = inst.f.derivative(name[1:]).embed(sig)
    e = WeylOperator.gen(sig, "s") if sec.symbolic else WeylOperator.constant(sig, sec.a)
    rule = f * WeylOperator.gen(sig, name) + (e - k) * fi
    out = sec._empty(k + 1)
    for j, op in sec.entries.items():
        out._put(j, rule * op)
        if j:
            out._put(j - 1, fi.scale(j) * op)
    return out


def apply_log_section(P, v):
    """Exact action of P on the section v.

    P may live in D_n, D_n[s] or D_{n+1} (x-names must match the instance);
    numeric-exponent sections only admit operators over their own D_n.  With
    P = sum_b Q_b D^b (D^b a monomial in the d_i, t and dt; Q_b in the x's
    and s), each D^b v is built once, by the leftmost factor of D^b acting on
    the cached section of the rest, so dt acts before t and t before the d_i.
    """
    psig = P.sig
    if psig.x_names != v.inst.x_names:
        raise SignatureMismatch("operator over different x variables")
    if not v.symbolic and psig != v.sig:
        raise OracleError("s, t and dt act on symbolic sections only")
    dnames = psig.names[psig.n_x:2 * psig.n_x + 2 * psig.has_t]
    cache = {(0,) * len(dnames): v}

    def act(b):
        if b not in cache:
            i = next(i for i, e in enumerate(b) if e)
            rest = b[:i] + (b[i] - 1,) + b[i + 1:]
            cache[b] = _apply_gen(act(rest), dnames[i])
        return cache[b]

    parts = [_map(act(b), lambda op, Q=Q: Q * op)
             for b, Q in P.coefficients(dnames, v.sig).items()]
    return _sum(parts) if parts else v._empty(v.fpow)


def annihilates(P, v):
    """Convenience: does P send the section v to zero (exactly)?"""
    return apply_log_section(P, v).is_zero()


# ---------------------------------------------------------------------------
# numeric side
# ---------------------------------------------------------------------------

# phi family -> default quadrature box half-width; the exponential weights
# decay slowly, and a box of 12 clips x^lambda e^-x at the lambdas verify
# samples (up to 6 + the operator order).  No box at the default depth is
# accurate for ex4's 2-D weight; see README.
PHI_FAMILIES = {"gaussian": 12.0, "exponential": 50.0,
                "one_sided_exp_inv": 50.0, "one_sided_exp_inv_exp": 50.0}


@dataclass(frozen=True)
class PhiSpec:
    """Numeric weight phi for quadrature; each family is integrable against
    f_+^lambda for Re lambda >= 0 on its domain.

    gaussian: exp(-sum x_i^2); exponential: exp(-sum x_i);
    one_sided_exp_inv: exp(-x - 1/x) for x > 0 else 0 (n = 1);
    one_sided_exp_inv_exp: exp(-x - 1/x) [x>0] * exp(-y) (n = 2).
    """

    family: str

    def __post_init__(self):
        if self.family not in PHI_FAMILIES:
            raise ValueError(f"unknown phi family {self.family!r}; "
                             f"choose one of {tuple(PHI_FAMILIES)}")

    def callable_for(self, n):
        fam = self.family
        if fam == "gaussian":
            return lambda *xs: mpmath.exp(-sum(v * v for v in xs))
        if fam == "exponential":
            return lambda *xs: mpmath.exp(-sum(xs))
        if fam == "one_sided_exp_inv":
            if n != 1:
                raise ValueError("one_sided_exp_inv is one-dimensional")
            return lambda x: mpmath.exp(-x - 1 / x) if x > 0 else mpmath.mpf(0)
        if n != 2:
            raise ValueError("one_sided_exp_inv_exp is two-dimensional")
        return lambda x, y: (mpmath.exp(-x - 1 / x) if x > 0 else mpmath.mpf(0)) * mpmath.exp(-y)


@dataclass
class ZetaValues:
    lambdas: list
    values: list


def _split_roots(g, lo, hi, samples):
    """Sign-change brackets of g on [lo, hi], refined by bisection."""
    pts = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
    vals = [g(p) for p in pts]
    roots = []
    for i in range(samples):
        a, b, fa, fb = pts[i], pts[i + 1], vals[i], vals[i + 1]
        if fa == 0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(60):
                mid = (a + b) / 2
                fm = g(mid)
                if fa * fm <= 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            roots.append((a + b) / 2)
    return roots


def numeric_zeta(f, phi, lambdas, tol=1e-6, box=12.0, depth=14):
    """Adaptive quadrature of Z(lambda) = int_{f>0} f^lambda phi dx.

    n <= 2 and lambda >= 0 only (no numeric analytic continuation).  The
    region {f > 0} is clipped to [-box, box]^n; each line integral in x is
    split at the numerically located boundary of {f = 0} so the integrand
    stays smooth on each piece, and for n = 2 a composite Simpson rule in y
    sums the lines.  tol is accepted for callers that pass it and not read:
    mpmath.quad picks its own precision.
    """
    n = f.sig.n_x
    if n > 2:
        raise OracleError("numeric_zeta supports n <= 2")
    if any(QQ(l) < 0 for l in lambdas):
        raise OracleError("numeric_zeta needs lambda >= 0")
    if any(any(m[n:]) for m in f.exponent_terms()):
        raise OracleError("numeric_zeta needs f to be a polynomial in x")
    phif = phi.callable_for(n)
    with mpmath.workprec(80):
        lams = [mpmath.mpf(q.numerator) / q.denominator for q in map(QQ, lambdas)]
        # f as (coefficient, ((x slot, exponent), ...)) terms
        terms = [(mpmath.mpmathify(c), tuple((i, e) for i, e in enumerate(m) if e))
                 for m, c in f.exponent_terms().items()]
        zero = mpmath.mpf(0)

        def fx(*xs):
            total = 0
            for c, powers in terms:
                for i, e in powers:
                    c = c * xs[i] ** e
                total = total + c
            return total

        def line(samples, *y):
            """int_{-box}^{box} f(x, y)_+^lambda phi(x, y) dx for every lambda."""
            cuts = _split_roots(lambda x: float(fx(x, *y)), -box, box, samples)
            pts = [-box] + [c for c in cuts if -box < c < box] + [box]
            seen = {}    # x -> (f, phi) where f > 0, else None: every lambda
                         # runs quad on these cuts, so at the same nodes

            def g(x, lam):
                if x not in seen:
                    fv = fx(x, *y)
                    seen[x] = (fv, phif(x, *y)) if fv > 0 else None
                v = seen[x]
                return v[0] ** lam * v[1] if v else zero

            return [mpmath.quad(lambda x: g(x, lam), pts) for lam in lams]

        if n == 1:
            return ZetaValues(list(lambdas), [float(v) for v in line(4 * depth)])
        npts = 8 * depth + 1
        h = mpmath.mpf(2 * box) / (npts - 1)
        totals = [zero] * len(lams)
        for i in range(npts):
            wgt = 1 if i in (0, npts - 1) else (4 if i % 2 else 2)
            totals = [t + wgt * v for t, v in zip(totals, line(2 * depth, -box + i * h))]
        return ZetaValues(list(lambdas), [float(t * h / 3) for t in totals])


def residual_check(ops, grid):
    """Max over ops and admissible points of |sum a_i(lam) Z(lam+i)| / max|term|.

    grid is a list of (lambda, value) pairs spaced exactly by 1.
    """
    lams = [QQ(l) for l, _ in grid]
    vals = {str(l): v for l, v in zip(lams, (v for _, v in grid))}
    for a, b in zip(lams, lams[1:]):
        if b - a != 1:
            raise OracleError("grid must be integer-spaced with step 1")
    worst = 0.0
    for op in ops:
        order = op.max_power
        if len(lams) <= order:
            raise OracleError("grid too short for operator order")
        npts = 0
        for l0 in lams:
            if l0 + order > lams[-1]:
                break
            terms = []
            for i, p in op.coeffs.items():
                z = vals[str(l0 + i)]
                terms.append(float(p.eval(l0)) * z)
            scale = max((abs(t) for t in terms), default=0.0)
            resid = abs(sum(terms))
            if scale > 0:
                worst = max(worst, resid / scale)
            elif resid > 0:
                worst = max(worst, 1.0)
            npts += 1
        if npts == 0:
            raise OracleError("grid too short for operator order")
    return worst
