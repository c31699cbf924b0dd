"""Exact univariate polynomials over Q.

Small self-contained layer used for b-functions, Taylor/series bookkeeping of
the Laurent-coefficient operators, and difference-operator coefficients.
Coefficients are stored densely, lowest degree first; gcds and rational roots
run on integer coefficient lists.
"""
from __future__ import annotations

import math

from .weyl_core import QQ, QQ0, QQ1, q_str, rational_content, signed_sum


class UPoly:
    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [QQ(v) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots):
        p = cls.one()
        for r in roots:
            p = p * cls((-QQ(r), 1))
        return p

    @classmethod
    def signed_rising(cls, c, j):
        """(-1)^j (s+c+1)(s+c+2)...(s+c+j) for integers c and j >= 0."""
        p = cls.from_roots(range(-c - j, -c))
        return -p if j % 2 else p

    # -- basics ----------------------------------------------------------------
    @property
    def degree(self):
        return len(self.c) - 1

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.c == other.c
        if isinstance(other, (int, type(QQ0))):
            return self.c == UPoly((other,)).c
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __getitem__(self, i):
        return self.c[i] if 0 <= i < len(self.c) else QQ0

    @property
    def lead(self):
        return self.c[-1] if self.c else QQ0

    def __add__(self, other):
        if isinstance(other, (int, type(QQ0))):
            other = UPoly((other,))
        n = max(len(self.c), len(other.c))
        return UPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-v for v in self.c])

    def __sub__(self, other):
        if isinstance(other, (int, type(QQ0))):
            other = UPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, type(QQ0))):
            return UPoly([v * QQ(other) for v in self.c])
        if not self.c or not other.c:
            return UPoly.zero()
        out = [QQ0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = UPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.c)
        q = [QQ0] * max(len(r) - len(other.c) + 1, 0)
        d = other.degree
        lc = other.lead
        while len(r) - 1 >= d and any(r):
            while r and not r[-1]:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lc
            q[k] = f
            for i, b in enumerate(other.c):
                r[k + i] -= f * b
        return UPoly(q), UPoly(r)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if r:
            raise ValueError("not an exact polynomial division")
        return q

    def gcd(self, other):
        """Monic gcd, by the integer primitive remainder sequence."""
        return UPoly(_int_gcd(_int_form(self), _int_form(other))).monic()

    def monic(self):
        if not self.c:
            return self
        lc = self.lead
        return UPoly([v / lc for v in self.c])

    def content(self):
        return rational_content(self.c) if self.c else QQ0

    def primitive(self):
        """Integer-coefficient form with content 1 and positive lead."""
        if not self.c:
            return self
        cont = self.content()
        if self.lead < 0:
            cont = -cont
        return UPoly([v / cont for v in self.c])

    def eval(self, v):
        acc = QQ0 if isinstance(v, (int, type(QQ0))) else 0
        for a in reversed(self.c):
            acc = acc * v + a
        return acc

    def shift(self, a):
        """P(s) -> P(s + a), by Horner's rule in place: pass i is a synthetic
        division by s - a that leaves the coefficient of s^i final."""
        a = QQ(a)
        c = list(self.c)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += a * c[j + 1]
        return UPoly(c)

    # -- root bookkeeping --------------------------------------------------------
    def rational_roots(self):
        """All rational roots with multiplicities, plus the rootless cofactor.

        Roots are found by p-adic lifting (Loos 1983), in time polynomial in
        the degree and the coefficient size.  With q the primitive square-free
        part of the polynomial after the roots at 0 are stripped, a small
        prime P is chosen that does not divide lc(q) and at which every root
        of q mod P is simple.  A rational root u/v in lowest terms has
        v | lc(q), so it reduces to one of those roots; Newton iteration lifts
        each to P^k > 2 |q(0)| lc(q), and rational reconstruction with
        |u| <= |q(0)|, 0 < v <= lc(q) recovers u/v.  Every rational root is
        found this way.  A candidate counts only after it is verified exactly
        in Z, and its multiplicity comes from exact division of the original
        polynomial.  The roots are sorted; the rootless cofactor is returned
        integer-primitive.
        """
        if not self.c:
            raise ValueError("zero polynomial has every root")
        a = _int_form(self)
        k = 0
        while not a[k]:
            k += 1
        roots = [(QQ0, k)] if k else []
        a = a[k:]
        if len(a) > 1:
            q = _int_quo(a, _int_gcd(a, [i * a[i] for i in range(1, len(a))]))
            for u, v in _lifted_roots(q):
                m = 0
                while (quo := _int_quo(a, [-u, v])) is not None:
                    a, m = quo, m + 1
                roots.append((QQ(u, v), m))
        roots.sort(key=lambda rm: rm[0])
        # dividing by primitive factors (v s - u), v > 0, keeps a primitive
        return roots, UPoly(a)

    def integer_roots_max(self):
        """Largest root that is a nonnegative integer, or None."""
        roots, _ = self.rational_roots()
        found = [int(r) for r, _m in roots if r >= 0 and r.denominator == 1]
        return max(found) if found else None

    # -- printing ----------------------------------------------------------------
    def to_str(self, var="s", compact=False):
        parts = []
        for e in range(self.degree, -1, -1):
            c = self[e]
            if not c:
                continue
            if e == 0:
                body = q_str(abs(c))
            else:
                v = var if e == 1 else f"{var}^{e}"
                body = v if abs(c) == 1 else (f"{q_str(abs(c))}{v}" if compact
                                              else f"{q_str(abs(c))}*{v}")
            parts.append(("-" if c < 0 else "+", body))
        return signed_sum(parts, "" if compact else " ")

    def __repr__(self):
        return f"<UPoly {self.to_str()}>"


# Integer polynomials below are coefficient lists, lowest degree first.

def _int_form(p):
    """The primitive integer coefficient list of a UPoly."""
    return [int(v) for v in p.primitive().c]


def _int_primitive(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a] if g else a


def _int_gcd(a, b):
    """Primitive gcd with positive lead, by the primitive remainder sequence."""
    while b:
        r = list(a)
        lb, db = b[-1], len(b) - 1
        while len(r) > db:
            c, k = r[-1], len(r) - 1 - db
            r = [lb * x for x in r]
            for i, y in enumerate(b):
                r[k + i] -= c * y
            while r and not r[-1]:
                r.pop()
        a, b = b, _int_primitive(r)
    return _int_primitive(a)


def _int_quo(a, g):
    """a / g in Z[s], or None when g does not divide a there."""
    r = list(a)
    out = [0] * (len(a) - len(g) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(r[k + len(g) - 1], g[-1])
        if rem:
            return None
        out[k] = c
        for i, y in enumerate(g):
            r[k + i] -= c * y
    return None if any(r) else out


def _horner(a, x, m):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _lifted_roots(a):
    """Rational roots u/v (pairs (u, v), v > 0) of the square-free integer
    polynomial a, with a[0] != 0, each verified exactly."""
    d = len(a) - 1
    a0, lc = abs(a[0]), abs(a[-1])
    da = [i * a[i] for i in range(1, d + 1)]
    prime = 1
    while True:
        prime = _next_prime(prime)
        if lc % prime == 0:
            continue
        residues = [x for x in range(prime) if not _horner(a, x, prime)]
        if all(_horner(da, x, prime) for x in residues):
            break
    bound = 2 * a0 * lc
    found = []
    for r in residues:
        m = prime
        while m <= bound:
            m *= m
            r = (r - _horner(a, r, m) * pow(_horner(da, r, m), -1, m)) % m
        uv = _reconstruct(r, m, a0, lc)
        if uv is None:
            continue
        u, v = uv
        if sum(c * u ** i * v ** (d - i) for i, c in enumerate(a)) == 0:
            found.append((u, v))
    return found


def _reconstruct(r, m, num_bound, den_bound):
    """u/v with u = r v mod m, |u| <= num_bound, 0 < v <= den_bound, or None."""
    r0, t0, r1, t1 = m, 0, r, 1
    while r1 > num_bound:
        quo = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - quo * r1, t0 - quo * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if not 0 < t1 <= den_bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _next_prime(n):
    n += 1
    while any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def inverse_series(p, n):
    """First n power-series coefficients of 1/p at 0; p(0) must be nonzero."""
    if not p[0]:
        raise ValueError("pole of the inverse series at 0")
    inv = [QQ1 / p[0]]
    for r in range(1, n):
        acc = QQ0
        for i in range(1, r + 1):
            acc += p[i] * inv[r - i]
        inv.append(-acc / p[0])
    return inv
