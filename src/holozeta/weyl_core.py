"""Exact sparse operator arithmetic and Groebner bases in Weyl-type algebras.

The rings handled here are generated by commuting-pair blocks
(x_1, dx_1), ..., (x_n, dx_n), an optional pair (t, dt) and a tail of central
commutative generators.  The only nontrivial relations are dx_i x_i = x_i dx_i + 1
and dt t = t dt + 1; in the homogenized variant the 1 on the right becomes h^2
for a central generator h.  Elements are kept normally ordered (all x-type
exponents recorded before d-type ones in a single exponent vector).  Operators
and every function taking or returning them use arbitrary-precision rational
coefficients (QQ); operator products, the Groebner engine and its normal form
work fraction-free on Python integers and meet QQ only at that boundary.

There is one monomial format: an exponent vector packed into a single
integer, 16 bits per slot (see _Pack), so at most MAX_EXPONENT per generator;
a product that would exceed it raises OverflowError.  The Groebner engine
works uniformly on free modules D^r, where a labelled monomial carries its
component in the bits above the slots; an operator's term dict is the rank-1
case as it stands.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
import struct
import time
from dataclasses import dataclass

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - gmpy2 is an optional accelerator
    from fractions import Fraction as QQ

QQ0 = QQ(0)
QQ1 = QQ(1)


class SignatureMismatch(ValueError):
    """Operands built over different ring signatures."""


class NonHomogeneousInput(ValueError):
    """A weight-sensitive routine was fed non weight-homogeneous input."""


class GBTimeout(RuntimeError):
    """A Groebner computation exceeded its wall-clock deadline."""

    def __init__(self, stage, basis_size, pairs_left):
        super().__init__(
            f"Groebner basis timeout at stage {stage!r} "
            f"(basis size {basis_size}, {pairs_left} pairs left)")
        self.stage = stage
        self.basis_size = basis_size
        self.pairs_left = pairs_left


def rational_content(coeffs):
    """gcd of a nonempty collection of rationals, as a positive rational."""
    num = 0
    den = 1
    for c in coeffs:
        num = math.gcd(num, int(c.numerator))
        den = math.lcm(den, int(c.denominator))
    return QQ(num, den)


def q_str(c):
    """A rational as the programs print it: n or n/d."""
    n, d = int(c.numerator), int(c.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


def add_term(terms, m, c):
    """terms[m] += c in a sparse dict, dropping the entry when it cancels."""
    v = terms[m] + c if m in terms else c
    if v:
        terms[m] = v
    else:
        terms.pop(m, None)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingSignature:
    """Shape of a Weyl-type algebra: named x/dx pairs, optional (t, dt) pair,
    central commutative extras, optional homogenization slot h."""

    x_names: tuple
    has_t: bool = False
    extras: tuple = ()
    homogenized: bool = False

    def __post_init__(self):
        names = list(self.x_names)
        names += ["d" + x for x in self.x_names]
        if self.has_t:
            names += ["t", "dt"]
        names += list(self.extras)
        if self.homogenized:
            names.append("h")
        if len(set(names)) != len(names):
            raise SignatureMismatch(f"duplicate generator names in {names}")
        if "s" in self.extras and self.has_t:
            # s is identified with -dt*t only through the Mellin map, never
            # carried alongside (t, dt) as a ring element.
            raise SignatureMismatch("s cannot coexist with (t, dt)")
        if ("sigma" in self.extras) != ("tau_h" in self.extras):
            raise SignatureMismatch("sigma and tau_h only appear together")
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        n = len(self.x_names)
        pairs = [(i, n + i) for i in range(n)]
        if self.has_t:
            pairs.append((2 * n, 2 * n + 1))
        object.__setattr__(self, "_pairs", tuple(pairs))
        object.__setattr__(self, "_pk", _Pack(self))

    # -- layout ------------------------------------------------------------
    @property
    def n_x(self):
        return len(self.x_names)

    @property
    def names(self):
        return self._names

    @property
    def nslots(self):
        return len(self._names)

    @property
    def pairs(self):
        return self._pairs

    @property
    def h_slot(self):
        return self.nslots - 1 if self.homogenized else None

    def slot(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise SignatureMismatch(f"no generator {name!r} in {self._names}") from None

    # -- derived signatures --------------------------------------------------
    def without_extras(self, *names):
        extras = tuple(e for e in self.extras if e not in names)
        return RingSignature(self.x_names, self.has_t, extras, self.homogenized)

    def homogenize(self):
        return RingSignature(self.x_names, self.has_t, self.extras, True)

    def mono(self, exps):
        """The exponent tuple of prod name^e over a {name: e} dict or pairs."""
        m = [0] * self.nslots
        for name, e in dict(exps).items():
            m[self.slot(name)] = e
        return tuple(m)


def d_n(x_names):
    return RingSignature(tuple(x_names))


def d_n_s(x_names):
    return RingSignature(tuple(x_names), extras=("s",))


def d_np1(x_names):
    return RingSignature(tuple(x_names), has_t=True)


def d_1():
    return RingSignature((), has_t=True)


# ---------------------------------------------------------------------------
# packed monomials
#
# A monomial is a single integer with 16 bits per slot (low slot first) and
# exponents at most MAX_EXPONENT, so the top bit of every field is a guard
# bit.  Monomial product without commutation corrections is one integer
# addition, and divisibility within one component is a subtraction plus a
# guard-bit test: a slot that borrows, or a sum past MAX_EXPONENT, sets its
# field's guard bit.
# ---------------------------------------------------------------------------

_PACK_BITS = 16
MAX_EXPONENT = (1 << (_PACK_BITS - 1)) - 1
_OVERFLOW = f"exponent above {MAX_EXPONENT} in a product"


class _Pack:
    """Packed layout of one signature; a labelled monomial of a free module
    carries its component in the bits from cshift up."""

    __slots__ = ("shifts", "guard", "dmask", "pairs", "h_shift", "cshift", "smask")

    def __init__(self, sig):
        n = sig.nslots
        self.shifts = tuple(i * _PACK_BITS for i in range(n))
        self.guard = sum(1 << (i * _PACK_BITS + _PACK_BITS - 1) for i in range(n))
        mask = (1 << _PACK_BITS) - 1
        dm = 0
        prs = []
        for xs, ds in sig._pairs:
            dm |= mask << (ds * _PACK_BITS)
            prs.append((xs * _PACK_BITS, ds * _PACK_BITS))
        self.dmask = dm
        self.pairs = tuple(prs)
        self.h_shift = sig.h_slot * _PACK_BITS if sig.h_slot is not None else None
        self.cshift = n * _PACK_BITS
        self.smask = (1 << self.cshift) - 1


def _pack(pk, mono):
    out = 0
    for e, sh in zip(mono, pk.shifts):
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} above {MAX_EXPONENT}")
        out += e << sh
    return out


def _unpack(pk, packed):
    return tuple((packed >> sh) & 0x7FFF for sh in pk.shifts)


def _pdeg(pk, packed):
    total = 0
    for sh in pk.shifts:
        total += (packed >> sh) & 0x7FFF
    return total


@functools.lru_cache(maxsize=4096)
def _leibniz(a, b):
    """The factors C(a,k) C(b,k) k!, k = 0 .. min(a, b), of the Leibniz rule
    d^a x^b = sum_k C(a,k) C(b,k) k! x^(b-k) d^(a-k) (h^2k); each is the
    one before times (a-k)(b-k)/(k+1), exactly."""
    out = [1]
    for k in range(min(a, b)):
        out.append(out[-1] * (a - k) * (b - k) // (k + 1))
    return tuple(out)


def _term_mul_into(pk, res, coef, quot, terms, inserted=None):
    """res += coef * (quot (x) each labelled term), in place.

    terms is a sequence of (lab, coeff); inserted (when given) collects labels
    that were newly created (updates of existing entries are not reported).
    The d-exponents of quot are read once; for each x/d pair they meet in a
    term, the k-th Leibniz term lies k * unit below the plain sum, unit being
    one x and one d less (and h^2 more).
    """
    get = res.get
    guard = pk.guard
    if quot & pk.dmask == 0:
        # no derivation exponents on the left: plain exponent addition
        for lab, c in terms:
            lab2 = lab + quot
            if lab2 & guard:
                raise OverflowError(_OVERFLOW)
            old = get(lab2)
            if old is None:
                res[lab2] = coef * c
                if inserted is not None:
                    inserted.append(lab2)
            else:
                v = old + coef * c
                if v:
                    res[lab2] = v
                else:
                    del res[lab2]
        return
    hs = pk.h_shift
    dpairs = [(xsh, a, (1 << xsh) + (1 << dsh) - (0 if hs is None else 2 << hs))
              for xsh, dsh in pk.pairs if (a := (quot >> dsh) & 0x7FFF)]
    for lab, c in terms:
        base = lab + quot
        if base & guard:
            raise OverflowError(_OVERFLOW)
        out = ((base, coef * c),)
        top = 0
        for xsh, a, unit in dpairs:
            b = (lab >> xsh) & 0x7FFF
            if b:
                fs = _leibniz(a, b)
                out = [(m - k * unit, cc * f) for m, cc in out for k, f in enumerate(fs)]
                top += len(fs) - 1
        if top and hs is not None and ((base >> hs) & 0x7FFF) + 2 * top > MAX_EXPONENT:
            raise OverflowError(_OVERFLOW)
        for lab2, v in out:
            old = get(lab2)
            if old is None:
                res[lab2] = v
                if inserted is not None:
                    inserted.append(lab2)
            else:
                v += old
                if v:
                    res[lab2] = v
                else:
                    del res[lab2]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class WeylOperator:
    """Sparse normally ordered element of a Weyl-type algebra.

    terms maps packed monomials to nonzero rational coefficients.  The
    constructor takes exponent tuples; exponent_terms() gives them back.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig, terms=None):
        self.sig = sig
        self.terms = {}
        if terms:
            pk = sig._pk
            for m, c in terms.items():
                if c:
                    self.terms[_pack(pk, m)] = QQ(c)

    # -- constructors --------------------------------------------------------
    @classmethod
    def _of(cls, sig, terms):
        """The operator owning an already packed term dict."""
        op = cls(sig)
        op.terms = terms
        return op

    @classmethod
    def zero(cls, sig):
        return cls(sig)

    @classmethod
    def constant(cls, sig, c):
        return cls._of(sig, {0: QQ(c)} if c else {})

    @classmethod
    def one(cls, sig):
        return cls.constant(sig, 1)

    @classmethod
    def gen(cls, sig, name, exp=1):
        return cls(sig, {sig.mono({name: exp}): QQ1})

    def copy(self):
        return WeylOperator._of(self.sig, dict(self.terms))

    def exponent_terms(self):
        """The terms as {exponent tuple: coefficient}."""
        pk = self.sig._pk
        return {_unpack(pk, m): c for m, c in self.terms.items()}

    # -- basics ---------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, WeylOperator):
            return self.sig == other.sig and self.terms == other.terms
        if isinstance(other, int):
            return self == WeylOperator.constant(self.sig, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def _check(self, other):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def __add__(self, other):
        if isinstance(other, (int, type(QQ0))):
            other = WeylOperator.constant(self.sig, other)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            add_term(res, m, c)
        return WeylOperator._of(self.sig, res)

    __radd__ = __add__

    def __neg__(self):
        return WeylOperator._of(self.sig, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, type(QQ0))):
            other = WeylOperator.constant(self.sig, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = QQ(c)
        return WeylOperator._of(self.sig, {m: cc * c for m, cc in self.terms.items()}
                                if c else {})

    def __mul__(self, other):
        if isinstance(other, (int, type(QQ0))):
            return self.scale(other)
        self._check(other)
        pk = self.sig._pk
        qa, left = _integral(self.terms)
        qb, right = _integral(other.terms)
        res = {}
        for m, c in left.items():
            _term_mul_into(pk, res, c, m, right.items())
        return WeylOperator._of(self.sig, _rational(res, qa * qb))

    def __rmul__(self, other):
        if isinstance(other, (int, type(QQ0))):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative operator power")
        out = WeylOperator.one(self.sig)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- structure queries ----------------------------------------------------
    def total_degree(self):
        pk = self.sig._pk
        return max((_pdeg(pk, m) for m in self.terms), default=-1)

    def _weighted(self, row):
        pk = self.sig._pk
        return {m: sum(w * e for w, e in zip(row, _unpack(pk, m))) for m in self.terms}

    def weights(self, row):
        return set(self._weighted(row).values())

    def is_weight_homogeneous(self, row):
        return len(self.weights(row)) <= 1

    def max_weight(self, row):
        return max(self._weighted(row).values())

    def initial_form(self, row):
        """Sum of the terms of maximal weight under row."""
        if not self.terms:
            return self.copy()
        weighted = self._weighted(row)
        top = max(weighted.values())
        return WeylOperator._of(self.sig, {m: c for m, c in self.terms.items()
                                           if weighted[m] == top})

    def uses_slot(self, i):
        sh = self.sig._pk.shifts[i]
        return any((m >> sh) & 0x7FFF for m in self.terms)

    def _lead(self, order):
        return max(self.terms, key=_make_keyf(order, self.sig._pk))

    def lm(self, order):
        return _unpack(self.sig._pk, self._lead(order))

    def lc(self, order):
        return self.terms[self._lead(order)]

    def sorted_terms(self, order):
        pk = self.sig._pk
        keyf = _make_keyf(order, pk)
        return [(_unpack(pk, m), self.terms[m])
                for m in sorted(self.terms, key=keyf, reverse=True)]

    # -- slot surgery -----------------------------------------------------------
    def coefficients(self, names, sig):
        """{exponents of names: operator over sig}: the terms grouped by their
        exponent tuple in the named generators, in the order given.  Each group
        drops those generators and carries every other one, by name, into sig;
        a generator that occurs but is missing from sig raises."""
        src, pk = self.sig, self.sig._pk
        picked = [pk.shifts[src.slot(n)] for n in names]
        moves = []
        lost = 0
        for n, sh in zip(src.names, pk.shifts):
            if n in names:
                continue
            if n in sig._index:
                moves.append((sh, sig._pk.shifts[sig._index[n]]))
            else:
                lost |= 0x7FFF << sh
        groups = {}
        for m, c in self.terms.items():
            if m & lost:
                raise SignatureMismatch(f"a generator in use is missing from {sig.names}")
            key = tuple((m >> sh) & 0x7FFF for sh in picked)
            m2 = 0
            for sh, sh2 in moves:
                m2 += ((m >> sh) & 0x7FFF) << sh2
            groups.setdefault(key, {})[m2] = c
        return {key: WeylOperator._of(sig, t) for key, t in groups.items()}

    def homogenize(self, name, row, sig):
        """Embed into sig and pad each term with the power of name that brings
        it to the top weight under row ({generator: weight}, 0 if absent): the
        largest weight if row[name] is +1, the smallest if it is -1."""
        op = self.embed(sig)
        if not op.terms:
            return op
        step = row[name]
        weighted = op._weighted(tuple(row.get(n, 0) for n in sig.names))
        top = max(w * step for w in weighted.values()) * step
        pk = sig._pk
        sh = pk.shifts[sig.slot(name)]
        out = {}
        for m, c in op.terms.items():
            pad = (top - weighted[m]) * step
            if pad + ((m >> sh) & 0x7FFF) > MAX_EXPONENT:
                raise OverflowError(_OVERFLOW)
            out[m + (pad << sh)] = c
        return WeylOperator._of(sig, out)

    def embed(self, sig):
        """The same operator over a signature with every generator it uses."""
        if sig == self.sig:
            return self
        return self.coefficients((), sig).get((), WeylOperator(sig))

    def subs_extra(self, name, value, new_sig=None):
        """Substitute a rational value for a central extra and drop its slot."""
        value = QQ(value)
        if new_sig is None:
            new_sig = self.sig.without_extras(name)
        res = {}
        for (e,), op in self.coefficients((name,), new_sig).items():
            v = value ** e
            for m, c in op.terms.items():
                add_term(res, m, c * v)
        return WeylOperator._of(new_sig, res)

    def shift_extra(self, name, a):
        """P(..., v, ...) -> P(..., v + a, ...) for a central extra v."""
        sh = self.sig._pk.shifts[self.sig.slot(name)]
        a = QQ(a)
        res = {}
        for m, c in self.terms.items():
            e = (m >> sh) & 0x7FFF
            for k in range(e + 1):
                c2 = c * math.comb(e, k) * a ** (e - k)
                if c2:
                    add_term(res, m - ((e - k) << sh), c2)
        return WeylOperator._of(self.sig, res)

    def truncate_extra(self, name, n):
        """The terms of degree at most n in a central extra."""
        sh = self.sig._pk.shifts[self.sig.slot(name)]
        return WeylOperator._of(self.sig, {m: c for m, c in self.terms.items()
                                           if (m >> sh) & 0x7FFF <= n})

    def derivative(self, name):
        """Formal derivative with respect to a generator that commutes with the
        operator: a central extra, or an x_i of a polynomial without d's."""
        sh = self.sig._pk.shifts[self.sig.slot(name)]
        res = {}
        for m, c in self.terms.items():
            e = (m >> sh) & 0x7FFF
            if e:
                add_term(res, m - (1 << sh), c * e)
        return WeylOperator._of(self.sig, res)

    # -- printing ---------------------------------------------------------------
    def to_str(self, order=None):
        if not self.terms:
            return "0"
        if order is None:
            order = TermOrder.grevlex(self.sig)
        names = self.sig.names
        parts = []
        for m, c in self.sorted_terms(order):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e:
                    factors.append(f"{names[i]}^{e}")
            if not factors:
                body = q_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([q_str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<WeylOperator {self.to_str()}>"


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

class TermOrder:
    """Weight rows compared first, then block-wise graded reverse lex, on
    monomials; on labelled monomials of a free module, also the component.

    blocks is an ordered cover of the slots; slots missing from the given
    blocks are appended as a final block.  Orders with a negative entry in
    some weight row are only admissible on weight-homogeneous input; the
    Groebner driver enforces this.  position "tp" = term over position, "pt"
    = position over term; between components the lower index is the larger.
    top_comps, when given with "pt", lists components that dominate all
    others (used for component elimination).
    """

    def __init__(self, sig, blocks=None, weight_rows=(), position="tp", top_comps=None):
        self.sig = sig
        rows = []
        for row in weight_rows:
            if isinstance(row, dict):
                vec = [0] * sig.nslots
                for name, w in row.items():
                    vec[sig.slot(name)] = w
                rows.append(tuple(vec))
            else:
                rows.append(tuple(row))
        self.weight_rows = tuple(rows)
        blk = []
        seen = set()
        for b in blocks or ():
            ids = tuple(sig.slot(n) if isinstance(n, str) else n for n in b)
            blk.append(ids)
            seen.update(ids)
        rest = tuple(i for i in range(sig.nslots) if i not in seen)
        if rest:
            blk.append(rest)
        self.blocks = tuple(blk)
        self.position = position
        self.top_comps = frozenset(top_comps) if top_comps is not None else None

    @classmethod
    def grevlex(cls, sig):
        return cls(sig)

    @classmethod
    def elimination(cls, sig, front):
        """Block order eliminating the named generators."""
        return cls(sig, blocks=[tuple(front)])

    @property
    def has_negative_row(self):
        return any(w < 0 for row in self.weight_rows for w in row)

    def _fields(self):
        return (self.sig, self.weight_rows, self.blocks, self.position, self.top_comps)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


# ---------------------------------------------------------------------------
# division and Buchberger on labelled packed monomials
# ---------------------------------------------------------------------------

class _Red:
    __slots__ = ("lm", "comp", "lc", "terms", "sugar", "key")

    def __init__(self, terms, keyf, pk):
        self.terms = tuple(terms.items())
        self.lm = max(terms, key=keyf)
        self.comp = self.lm >> pk.cshift
        self.lc = terms[self.lm]
        self.key = keyf(self.lm)
        self.sugar = max(_pdeg(pk, lab) for lab in terms)


def _integral(terms):
    """(q, ints): the coprime integer coefficients ints = q * terms, q > 0."""
    if not terms:
        return QQ1, {}
    content = rational_content(terms.values())
    n, d = int(content.numerator), int(content.denominator)
    return QQ(d, n), {m: int(c.numerator) * (d // int(c.denominator)) // n
                      for m, c in terms.items()}


def _rational(terms, q):
    """The term dict with every integer coefficient divided by q."""
    n, d = int(q.numerator), int(q.denominator)
    return {m: QQ(c * d, n) for m, c in terms.items()}


class _Reducers:
    """A basis as primitive integer _Reds (reds, in the order added) and, per
    leading component, the scan list in which _nf takes the first divisor:
    in the order added, or sparsest first (stable) when sparsest is set, for
    less fill-in while the Groebner engine completes a basis."""

    def __init__(self, keyf, pk, sparsest=False):
        self.keyf = keyf
        self.pk = pk
        self.sparsest = sparsest
        self.reds = []
        self.scan = {}

    @classmethod
    def of(cls, order, pk, basis):
        """The reducers of rational labelled term dicts under a TermOrder."""
        keyf = _make_keyf(order, pk)
        out = cls(keyf, pk)
        for terms in basis:
            if terms:
                out.add(_Red(_integral(terms)[1], keyf, pk))
        return out

    def add(self, red):
        self.reds.append(red)
        scan = self.scan.setdefault(red.comp, [])
        if self.sparsest:
            bisect.insort(scan, red, key=lambda r: len(r.terms))
        else:
            scan.append(red)

    def remainder(self, terms):
        """The normal form of a rational labelled term dict, exactly: _nf's
        integer remainder is mult times the rational one."""
        q, ints = _integral(terms)
        mult, rem = _nf(ints, self)
        return _rational(rem, q * mult)


def _nf(p, reducers):
    """Fraction-free left normal form of an integer labelled term dict.

    Returns (mult, remainder dict) with integer coefficients, mult > 0 and
    mult * p - remainder in the left ideal of the reducers.  A step reducing
    the term c x^l by r (lc r = u, d = gcd(c, u)) is
    p <- (|u|/d) p - sign(u) (c/d) x^(l - lm r) r, so the remainder is mult
    times the rational one, term for term.  A step's multiplier (mostly 1) is
    applied at once to the unreduced terms, but to the remainder only at the
    end, since no later step touches its terms.  The reducer is the first
    divisor in the scan list of the term's component.
    """
    pk, keyf, scan = reducers.pk, reducers.keyf, reducers.scan
    work = dict(p)
    mult = 1                   # product of the step multipliers so far
    rem = []                   # (lab, coeff, mult when it was moved)
    guard = pk.guard
    cs = pk.cshift
    heap = [(-keyf(lab), lab) for lab in work]
    heapq.heapify(heap)
    push = heapq.heappush
    touched = []
    while heap:
        _, lab = heapq.heappop(heap)
        c = work.get(lab)
        if not c:
            continue
        for red in scan.get(lab >> cs, ()):
            quot = lab - red.lm
            if quot >= 0 and not (quot & guard):
                break
        else:
            rem.append((lab, c, mult))
            del work[lab]
            continue
        u = red.lc
        g = math.gcd(c, u)
        a = abs(u) // g
        b = c // g if u > 0 else -c // g
        if a != 1:
            mult *= a
            for m in work:
                work[m] *= a
        touched.clear()
        _term_mul_into(pk, work, -b, quot, red.terms, touched)
        for lab2 in touched:
            if lab2 != lab:
                push(heap, (-keyf(lab2), lab2))
        if lab in work:  # cancellation is exact; the leading term must go
            raise AssertionError("leading term failed to cancel")
    return mult, {lab: c * (mult // then) for lab, c, then in rem}


@dataclass
class GBStats:
    pairs_considered: int = 0
    pairs_skipped: int = 0
    zero_reductions: int = 0
    basis_size: int = 0


_LAST_STATS = GBStats()


def last_gb_stats():
    return _LAST_STATS


def _check_weight_admissibility(gens, order, pk):
    """Negative-weight orders are only run on graded input.

    Acceptable gradings: total degree (the Bernstein-homogenized setting) or
    weight-homogeneity with respect to every negative row.  Either keeps the
    division loop inside finite graded pieces, which restores termination.
    """
    if not order.has_negative_row:
        return
    for g in gens:
        exps = [_unpack(pk, lab) for lab in g]
        if len({sum(m) for m in exps}) <= 1:
            continue
        for row in order.weight_rows:
            if all(w >= 0 for w in row):
                continue
            ws = {sum(w * e for w, e in zip(row, m)) for m in exps}
            if len(ws) > 1:
                raise NonHomogeneousInput(
                    "negative-weight order requires graded input; "
                    f"offending weights {sorted(ws)}")


_COMP_BITS = 32


def _make_keyf(order, pk):
    """Integer key of labelled packed monomials under a TermOrder.

    Each entry of the TermOrder (a weight row's weight, then per block its
    degree and its exponents from the last slot back, negated) is a linear
    form in the exponents, bounded by MAX_EXPONENT * (its absolute row sum).
    Read as the digits of an integer in a radix above twice that bound, the
    entries compare like the integer, which is therefore sum_i e_i * w_i for
    one weight w_i per slot.  The component takes one more digit of
    _COMP_BITS bits, last ("tp") or first ("pt"); integer keys compare
    exactly as the TermOrder does.
    """
    n = len(pk.shifts)
    rows = [tuple(r) for r in order.weight_rows]
    for blk in order.blocks:
        rows.append(tuple(int(i in blk) for i in range(n)))
        rows.extend(tuple(-int(i == k) for i in range(n)) for k in reversed(blk))
    bits = (2 * MAX_EXPONENT * max((sum(map(abs, r)) for r in rows), default=0)
            + 1).bit_length()
    weights = [0] * n
    for row in rows:
        weights = [(w << bits) + e for w, e in zip(weights, row)]
    if order.position == "tp":             # the component is the last digit
        weights = [w << _COMP_BITS for w in weights]
        comp_at, top = 0, ()
    else:                                  # the component is the first digit
        comp_at, top = bits * len(rows), order.top_comps or ()
    cs = pk.cshift
    smask = pk.smask
    nbytes = n * _PACK_BITS // 8
    exponents = struct.Struct(f"<{n}H").unpack     # one 16-bit field per slot

    def keyf(lab):
        comp = lab >> cs
        return (sum(map(operator.mul, exponents((lab & smask).to_bytes(nbytes, "little")),
                        weights)) + ((((comp in top) << _COMP_BITS) - comp) << comp_at))
    return keyf


def _lcm(pk, a, b):
    """lcm of two labelled monomials of one component: each field is the
    larger exponent, picked by one guarded subtraction for all fields (a
    field's guard bit survives a - b exactly when a >= b there)."""
    sm = pk.smask
    am, bm = a & sm, b & sm
    mask = ((((am | pk.guard) - bm) & pk.guard) >> (_PACK_BITS - 1)) * 0x7FFF
    return a - am + (am & mask) + (bm & ~mask)


def _hilbert_numerator(pk, monos):
    """Coefficients of N, trailing zeros stripped, in sum_d dim (S/I)_d t^d =
    N(t) / (1 - t)^n for the monomial ideal I of S = Q[n slots] that packed
    monomials of one component generate.

    Bigatti's pivot rule N(I) = N(I + <p>) + t^deg(p) N(I : p), with p the
    power of the slot that most mixed generators (two or more slots) use, at
    the median of their exponents there.  A minimal generator dividing p is a
    power of that slot above every mixed exponent there, so p is not in I,
    both ideals grow, and the recursion ends: at pairwise-disjoint supports,
    where N = prod (1 - t^deg m).
    """
    guard = pk.guard
    gens = []                  # the minimal generators; a divisor sorts first
    for m in sorted(set(monos)):
        if all((m - g) & guard for g in gens):
            gens.append(m)
    fill = guard - (guard >> (_PACK_BITS - 1))           # 0x7FFF in every field
    supports = [(m + fill) & guard for m in gens]        # guard bits of nonzero fields
    if sum(s.bit_count() for s in supports) == functools.reduce(
            operator.or_, supports, 0).bit_count():
        out = [1]
        for m in gens:                                   # times 1 - t^deg m
            k = _pdeg(pk, m)
            out += [0] * k
            for i in range(len(out) - 1, k - 1, -1):
                out[i] -= out[i - k]
    else:
        mixed = [m for m, s in zip(gens, supports) if s & (s - 1)]
        sh = max(pk.shifts, key=lambda sh: sum(1 for m in mixed if (m >> sh) & 0x7FFF))
        exps = sorted(e for e in ((m >> sh) & 0x7FFF for m in mixed) if e)
        e = exps[len(exps) // 2]
        out = _hilbert_numerator(pk, gens + [e << sh])
        colon = _hilbert_numerator(pk, [_lcm(pk, m, e << sh) - (e << sh) for m in gens])
        out += [0] * (e + len(colon) - len(out))
        for k, c in enumerate(colon, e):
            out[k] += c
    while out and not out[-1]:
        out.pop()
    return out


def groebner_engine(gens, sig, order, deadline=None, stage="groebner",
                    pair_components=None, hilbert_target=None):
    """Reduced monic left Groebner basis of labelled term dicts.

    Input and output dicts map labelled packed monomials (the component in
    the bits above the slots) to rational coefficients, under a TermOrder;
    an operator's term dict is a rank-1 input.  Inside, basis elements are
    primitive integer dicts: the S-polynomial of f and g is
    (lc g/d) x^a f - (lc f/d) x^b g with d = gcd(lc f, lc g), and each new
    remainder is divided by its content.  Deterministic: sugar-then-lcm
    pair selection, reduction by the first of the sparsest divisors, final
    basis sorted by leading monomial.

    Redundant S-pairs are dropped by the Gebauer–Möller update as each
    element joins the basis (the chain criterion, which holds in the Weyl
    algebra; the product criterion does not).  When pair_components is
    given, S-pairs are only formed between elements whose leading components
    lie in that set; the other components ride along as exact payload (used
    for representation tracking, where completeness is only needed in
    front), and every pair is queued and tested by the chain criterion only
    when it is popped, so the payload does not depend on the update.
    stats.pairs_considered counts the pairs formed and pairs_skipped those
    a criterion dropped; the rest were reduced.

    hilbert_target, for input homogeneous in total degree, is the packed
    leading monomials of a Groebner basis of the same ideal under another
    order (Traverso's Hilbert-driven Buchberger): the ideal's degree-d part
    has as many dimensions whatever the order, so once <lm G> holds as many
    degree-d monomials as the target, every S-pair of degree d reduces to
    zero and is skipped.  The final leading ideal must have the target's
    Hilbert numerator; the target of a larger ideal raises.
    """
    global _LAST_STATS
    stats = GBStats()
    _LAST_STATS = stats
    pk = sig._pk
    _check_weight_admissibility(gens, order, pk)
    if hilbert_target is not None:
        if any(len({_pdeg(pk, m) for m in g}) > 1 for g in gens):
            raise NonHomogeneousInput("a Hilbert target needs homogeneous input")
        target = _hilbert_numerator(pk, hilbert_target)
        gap, grown = [], -1    # N(<lm G>) - N(target), as of len(basis) == grown
    keyf = _make_keyf(order, pk)
    guard = pk.guard
    cs = pk.cshift

    reducers = _Reducers(keyf, pk, sparsest=True)
    for r in sorted((_Red(_integral(g)[1], keyf, pk) for g in gens if g),
                    key=lambda r: r.key):
        reducers.add(r)
    basis = reducers.reds

    def divides(a, b):
        d = b - a
        return d >= 0 and not (d & guard)

    queued = {}      # (i, j) -> lcm of the pairs still to reduce
    pairs = []       # their heap; a pair deleted from queued is skipped when popped

    def add_pairs(j):
        rj = basis[j]
        if pair_components is not None and rj.comp not in pair_components:
            return
        formed = [i for i in range(j) if basis[i].comp == rj.comp]
        h = rj.lm
        if pair_components is not None:
            kept = [(i, _lcm(pk, basis[i].lm, h)) for i in formed]
        else:
            # Gebauer–Möller: a queued pair whose lcm the new leading monomial
            # divides, sharing that lcm with neither end, is redundant
            for (i, k), l in list(queued.items()):
                if (l >> cs == rj.comp and divides(h, l)
                        and _lcm(pk, basis[i].lm, h) != l and _lcm(pk, basis[k].lm, h) != l):
                    del queued[i, k]
                    stats.pairs_skipped += 1
            # of the new pairs, keep the lowest i per lcm, and only the lcms
            # that no other new lcm properly divides
            new = {}
            for i in formed:
                new.setdefault(_lcm(pk, basis[i].lm, h), i)
            kept = [(i, l) for l, i in new.items()
                    if not any(m != l and divides(m, l) for m in new)]
        stats.pairs_considered += len(formed)
        stats.pairs_skipped += len(formed) - len(kept)
        for i, l in kept:
            dl = _pdeg(pk, l)
            sugar = max(r.sugar + dl - _pdeg(pk, r.lm) for r in (basis[i], rj))
            queued[i, j] = l
            heapq.heappush(pairs, (sugar, keyf(l), i, j, l))

    for j in range(len(basis)):
        add_pairs(j)

    while queued:
        if deadline is not None and time.monotonic() > deadline:
            raise GBTimeout(stage, len(basis), len(queued))
        sugar, lkey, i, j, l = heapq.heappop(pairs)
        if queued.pop((i, j), None) is None:
            continue
        if hilbert_target is not None:
            if grown != len(basis):
                grown = len(basis)
                gap = [a - b for a, b in itertools.zip_longest(
                    _hilbert_numerator(pk, [r.lm for r in basis]), target, fillvalue=0)]
            # dim (S/<lm G>)_d - dim (S/<target>)_d, from the coefficients of
            # 1 / (1 - t)^n
            n, d = len(pk.shifts), _pdeg(pk, l)
            if not sum(c * math.comb(d - k + n - 1, n - 1) for k, c in enumerate(gap[:d + 1])):
                stats.pairs_skipped += 1
                continue
        fi, fj = basis[i], basis[j]
        if pair_components is not None and any(
                k != i and k != j and fk.comp == fi.comp and divides(fk.lm, l)
                and _lcm(pk, fi.lm, fk.lm) != l and _lcm(pk, fj.lm, fk.lm) != l
                for k, fk in enumerate(basis)):
            # chain criterion, stateless proper-divisor form
            stats.pairs_skipped += 1
            continue
        d = math.gcd(fi.lc, fj.lc)
        s = {}
        _term_mul_into(pk, s, fj.lc // d, l - fi.lm, fi.terms)
        _term_mul_into(pk, s, -(fi.lc // d), l - fj.lm, fj.terms)
        rem = _nf(s, reducers)[1]
        if rem:
            g = math.gcd(*rem.values())
            reducers.add(_Red({m: c // g for m, c in rem.items()}, keyf, pk))
            add_pairs(len(basis) - 1)
        else:
            stats.zero_reductions += 1

    # minimalize: by degree, then key, keep the elements no kept one divides
    # (a divisor has the lower degree; under a negative weight, not the lower key)
    kept = _Reducers(keyf, pk)
    for r in sorted(basis, key=lambda r: (_pdeg(pk, r.lm), r.key)):
        if not any(divides(k.lm, r.lm) for k in kept.scan.get(r.comp, ())):
            kept.add(r)
    if hilbert_target is not None and _hilbert_numerator(
            pk, [r.lm for r in kept.reds]) != target:
        raise AssertionError("the leading ideal does not have the Hilbert target's numerator")
    # tail-reduce each against the others
    reduced = []
    for r in kept.reds:
        scan = kept.scan[r.comp]
        at = scan.index(r)
        del scan[at]
        rem = _nf(dict(r.terms), kept)[1]
        scan.insert(at, r)
        reduced.append(_rational(rem, QQ(rem[max(rem, key=keyf)])))
    reduced.sort(key=lambda t: keyf(max(t, key=keyf)))
    stats.basis_size = len(reduced)
    return reduced


# ---------------------------------------------------------------------------
# operator-level wrappers
# ---------------------------------------------------------------------------

def _join(pk, vec):
    """Labelled term dict of a vector of operators (component i above the slots)."""
    cs = pk.cshift
    return {m + (i << cs): c for i, op in enumerate(vec) for m, c in op.terms.items()}


def _split(pk, lab, sig, rank):
    """Inverse of _join: the vector of operators of a labelled term dict."""
    vec = [{} for _ in range(rank)]
    for m, c in lab.items():
        vec[m >> pk.cshift][m & pk.smask] = c
    return tuple(WeylOperator._of(sig, t) for t in vec)


def normal_form(p, gens, order=None):
    """Left division remainder of p by gens: p minus it lies in the left ideal
    of gens, and no term of it is divisible by a leading monomial of gens."""
    if not gens:
        raise ValueError("empty divisor list")
    sig = p.sig
    for g in gens:
        if g.sig != sig:
            raise SignatureMismatch("normal_form operands differ in signature")
    reducers = _Reducers.of(order or TermOrder.grevlex(sig), sig._pk,
                            [g.terms for g in gens])
    return WeylOperator._of(sig, reducers.remainder(p.terms))


class _Presentation:
    """Generators of a left ideal or submodule and, per TermOrder, their
    reduced Groebner basis: computed on first use, or seeded with a known
    grevlex basis.  Every normal form is taken against the grevlex basis,
    whose division reducers are built once.  A subclass says how an element
    becomes a labelled term dict (_terms) and back (_of)."""

    def __init__(self, sig, generators, grevlex_basis=None):
        self.sig = sig
        self.generators = tuple(generators)
        self._bases = {}
        self._reducers = None
        if grevlex_basis is not None:
            self._bases[TermOrder.grevlex(sig)] = tuple(grevlex_basis)

    def basis(self, order=None, deadline=None, stage="groebner", hilbert_target=None):
        """The reduced Groebner basis under order (grevlex by default);
        hilbert_target as in groebner_engine."""
        order = order or TermOrder.grevlex(self.sig)
        if order not in self._bases:
            gb = groebner_engine([self._terms(g) for g in self.generators],
                                 self.sig, order, deadline, stage,
                                 hilbert_target=hilbert_target)
            self._bases[order] = tuple(self._of(t) for t in gb)
        return self._bases[order]

    def reducers(self, deadline=None, stage="groebner"):
        """The division reducers of the grevlex basis."""
        if self._reducers is None:
            order = TermOrder.grevlex(self.sig)
            self._reducers = _Reducers.of(order, self.sig._pk, [
                self._terms(g) for g in self.basis(order, deadline, stage)])
        return self._reducers

    def contains(self, element, deadline=None):
        return not self.reducers(deadline).remainder(self._terms(element))


class IdealPresentation(_Presentation):
    """Left ideal given by operator generators."""

    def _terms(self, op):
        if op.sig != self.sig:
            raise SignatureMismatch("operands differ in signature")
        return op.terms

    def _of(self, terms):
        return WeylOperator._of(self.sig, terms)

    def normal_form(self, p):
        """The remainder of p modulo the grevlex basis."""
        return self._of(self.reducers().remainder(self._terms(p)))


class SubmodulePresentation(_Presentation):
    """Left submodule of D^rank given by generating vectors of operators."""

    def __init__(self, rank, sig, generators, grevlex_basis=None):
        self.rank = rank
        super().__init__(sig, generators, grevlex_basis)

    @classmethod
    def make(cls, rank, sig, gens):
        gens = tuple(tuple(v) for v in gens)
        for v in gens:
            if len(v) != rank:
                raise ValueError(f"generator vector of length {len(v)} != rank {rank}")
        return cls(rank, sig, gens)

    def _terms(self, vec):
        return _join(self.sig._pk, vec)

    def _of(self, terms):
        return _split(self.sig._pk, terms, self.sig, self.rank)


def eliminate(ideal, kill, deadline=None, stage="elimination"):
    """Intersect an ideal with the subalgebra omitting the named generators.

    The named generators must be central extras (the only case needed here);
    the result lives in the reduced signature.
    """
    kill = tuple(kill)
    gb = ideal.basis(TermOrder.elimination(ideal.sig, kill), deadline, stage)
    new_sig = ideal.sig.without_extras(*kill)
    free = (0,) * len(kill)
    kept = tuple(parts[free] for parts in (g.coefficients(kill, new_sig) for g in gb)
                 if parts.keys() == {free})
    return IdealPresentation(new_sig, kept, kept)


def colon_kernel(vec, module, deadline=None, stage="colon"):
    """{P : P * vec in module}: the component-0 ideal of D(1, vec) + (0, J)."""
    rank = module.rank
    if len(vec) != rank:
        raise ValueError("vector length does not match module rank")
    sig = module.sig
    zero = WeylOperator.zero(sig)
    aug = [(WeylOperator.one(sig),) + tuple(vec)]
    aug += [(zero,) + tuple(g) for g in module.generators]
    return component_zero_ideal(SubmodulePresentation.make(rank + 1, sig, aug), 0,
                                deadline, stage)


def component_zero_ideal(module, comp=0, deadline=None, stage="component-colon"):
    """{P : P e_comp in module} for a unit vector, by component elimination:
    the module basis is reduced and every other component sits above comp, so
    its rows with only component comp are the ideal's reduced grevlex basis."""
    sig = module.sig
    others = [c for c in range(module.rank) if c != comp]
    order = TermOrder(sig, position="pt", top_comps=others)
    gens = tuple(v[comp] for v in module.basis(order, deadline, stage)
                 if all(v[c].is_zero() for c in others))
    return IdealPresentation(sig, gens, gens)


def represent(p, gens, deadline=None, stage="represent"):
    """Cofactors a_i with p = sum a_i gens_i, or None if p is not a member.

    Extended Buchberger: a Groebner basis of the ideal is completed in the
    leading component of {(g_i, e_i)} while the unit-vector payload records
    exact representations; the tail of the normal form of (p, 0, ..., 0)
    against the front-headed elements is minus a representation of p.
    """
    sig = p.sig
    pk = sig._pk
    k = len(gens)
    aug = [{**g.terms, (1 + i) << pk.cshift: QQ1} for i, g in enumerate(gens)]
    order = TermOrder(sig, position="pt", top_comps=[0])
    # pair_components keeps the engine's pop-time chain criterion here, not
    # the Gebauer–Möller update: the payload rows, and so the cofactors and
    # the printed P0 of funceq, depend on which pairs are reduced
    basis = groebner_engine(aug, sig, order, deadline, stage, pair_components={0})
    # component 0 sits above the others: an element is front-headed iff it
    # has a term there
    front = _Reducers.of(order, pk, [b for b in basis
                                     if any(m >> pk.cshift == 0 for m in b)])
    vec = _split(pk, front.remainder(p.terms), sig, k + 1)
    if not vec[0].is_zero():
        return None
    return [-a for a in vec[1:]]


def _krull_dim(pk, monos):
    """Krull dimension of the monomial ideal the packed monomials generate: the
    size of the largest slot set containing no generator's support, -1 for 1."""
    supports = [sum(1 << i for i, sh in enumerate(pk.shifts) if (m >> sh) & 0x7FFF)
                for m in monos]
    return max((free.bit_count() for free in range(1 << len(pk.shifts))
                if all(sup & ~free for sup in supports)), default=-1)


def minimal_polynomial(op, ideal, deadline=None, stage="minimal-polynomial"):
    """Monic generator b of {b : b(op) in ideal}, by linear algebra over Q.

    The normal form against one grevlex basis is Q-linear and the ideal is a
    left ideal, so r_0 = NF(1), r_{i+1} = NF(op * r_i) is NF(op^i) even for a
    non-central op, and the first linear dependency among the r_i is b.
    Returns 1 for the unit ideal, and 0 when the leading monomials have Krull
    dimension above the number of x/dx pairs: the quotient is then not
    holonomic, while a holonomic quotient has a b, which ends the loop.
    """
    from .upoly import UPoly
    sig = ideal.sig
    pk = sig._pk
    reducers = ideal.reducers(deadline, stage)
    lms = [r.lm for r in reducers.reds]
    if 0 in lms:
        return UPoly.one()
    if _krull_dim(pk, lms) > len(sig.pairs):
        return UPoly.zero()
    # echelon rows [r_i | e_i] scaled to 1 at their pivot; the coefficient of
    # r_k rides on the negative key -1-k, below every packed monomial
    rows = []
    r = {0: QQ1}               # NF(1): no leading monomial divides 1
    for i in itertools.count():
        if deadline is not None and time.monotonic() > deadline:
            raise GBTimeout(stage, len(lms), 0)
        vec = {**r, -1 - i: QQ1}
        for piv, row in rows:
            c = vec.get(piv)
            if c:
                for m, a in row.items():
                    add_term(vec, m, -c * a)
        piv = max(vec)
        if piv < 0:
            return UPoly([vec.get(-1 - k, QQ0) for k in range(i + 1)])
        inv = QQ1 / vec[piv]
        rows.append((piv, {m: a * inv for m, a in vec.items()}))
        prod = {}
        for m, c in op.terms.items():
            _term_mul_into(pk, prod, c, m, r.items())
        r = reducers.remainder(prod)
