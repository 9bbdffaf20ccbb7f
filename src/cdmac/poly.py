"""Sparse polynomials over Q in the three coefficient generators.

The coefficient ring of the whole library is Q[u, v, w] with

    u = q^(1/2),   v = t^(1/2),   w = T^(1/2),

so that q = u^2, t = v^2 and T = w^2 are Laurent-monomial expressible and the
half-integer powers required by the parameter substitutions are exact ring
elements.  A polynomial is a finitely supported map from exponent triples
(e_u, e_v, e_w) in Z>=0^3 to nonzero rationals.

Internally a polynomial is kept as a primitive integer dictionary together
with a single rational content factor; products of primitive integer
polynomials are again primitive (Gauss), so multiplication runs entirely on
machine/big integers.  The canonical term order is graded lexicographic with
u > v > w, and it fixes both the leading term and the serialization.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import gcd, lcm
from operator import or_

from .errors import UsageError

GEN_NAMES = ("q^{1/2}", "t^{1/2}", "T^{1/2}")

# exponent packing: a 21-bit field per generator holding an exponent in
# [0, 2^20), which _pack checks.  Bit 20 of each field is a guard bit that a
# valid key leaves at 0: a sum of two valid keys that overflows a field sets
# it instead of carrying into the next field, and _mul_dicts checks it
_SHIFT_U = 42
_SHIFT_V = 21
_MASK = (1 << 20) - 1
_GUARD = (1 << 20) * (1 + (1 << _SHIFT_V) + (1 << _SHIFT_U))


def _pack(eu: int, ev: int, ew: int) -> int:
    if not (0 <= eu <= _MASK and 0 <= ev <= _MASK and 0 <= ew <= _MASK):
        raise UsageError(f"generator exponents {(eu, ev, ew)} leave the 20-bit "
                         "packing range [0, 2^20)")
    return (eu << _SHIFT_U) | (ev << _SHIFT_V) | ew


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> _SHIFT_U, (key >> _SHIFT_V) & _MASK, key & _MASK


def _grlex(key: int):
    eu, ev, ew = _unpack(key)
    return (eu + ev + ew, eu, ev, ew)


def _mul_dicts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a * b on packed integer dicts, zero terms kept: a shifted copy of the
    longer by the first term of the shorter, which each other term adds to."""
    if len(a) < len(b):
        a, b = b, a
    (kb, cb), *rest = b.items()
    out = {ka + kb: ca * cb for ka, ca in a.items()}
    get = out.get
    for kb, cb in rest:
        for ka, ca in a.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    if reduce(or_, out) & _GUARD:
        raise UsageError("a product's generator exponent leaves the 20-bit "
                         "packing range [0, 2^20)")
    return out


def times_power(a: dict[int, int], p: dict[int, int], k: int) -> dict[int, int]:
    """a * p**k on packed integer dicts, zero terms dropped (a itself for
    k <= 0).  For a binomial p, p**k comes first: k + 1 passes over a, where
    k products by p take 2k."""
    if not a or k <= 0:
        return a
    b = p
    for _ in range(k - 1):
        b = _mul_dicts(b, p)
    return {m: c for m, c in _mul_dicts(a, b).items() if c}


class SparsePoly:
    """Polynomial in (u, v, w) over Q, stored as content * primitive-Z-part."""

    __slots__ = ("content", "prim")

    def __init__(self, content: Fraction, prim: dict[int, int], *, _normalized=False):
        if _normalized:
            self.content = content
            self.prim = prim
            return
        if not prim or content == 0:
            self.content = Fraction(0)
            self.prim = {}
            return
        g = 0
        for c in prim.values():
            g = gcd(g, c)
        lead = max(prim, key=_grlex)
        if prim[lead] < 0:
            g = -g
        if g != 1:
            prim = {k: c // g for k, c in prim.items()}
        self.content = content * g
        self.prim = prim

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls(Fraction(0), {}, _normalized=True)

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls(Fraction(1), {0: 1}, _normalized=True)

    @classmethod
    def const(cls, c) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            return cls.zero()
        return cls(c, {0: 1}, _normalized=True)

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int, int], Fraction]) -> "SparsePoly":
        """The polynomial sum c * u^eu v^ev w^ew over terms, built as one
        integer dict over the common denominator and normalized once."""
        if any(e < 0 for exps in terms for e in exps):
            raise ValueError("SparsePoly exponents must be nonnegative")
        coefs = {_pack(*exps): Fraction(c) for exps, c in terms.items() if c}
        scale = lcm(*(c.denominator for c in coefs.values()))
        return cls(Fraction(1, scale),
                   {k: c.numerator * (scale // c.denominator) for k, c in coefs.items()})

    @classmethod
    def from_mon(cls, m: "Mon") -> "SparsePoly":
        if any(e < 0 for e in m.exp):
            raise ValueError("monomial with negative exponent is not a SparsePoly")
        if m.coef == 0:
            return cls.zero()
        return cls(Fraction(m.coef), {_pack(*m.exp): 1}, _normalized=True)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.prim

    def __bool__(self) -> bool:
        return bool(self.prim)

    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        return {_unpack(k): self.content * c for k, c in self.prim.items()}

    def leading_key(self) -> int:
        if not self.prim:
            raise ValueError("zero polynomial has no leading term")
        return max(self.prim, key=_grlex)

    def leading_coeff(self) -> Fraction:
        return self.content * self.prim[self.leading_key()]

    def is_monomial(self) -> bool:
        return len(self.prim) == 1

    def monomial(self) -> "Mon":
        if len(self.prim) != 1:
            raise ValueError("not a monomial")
        (key, c), = self.prim.items()
        return Mon(self.content * c, _unpack(key))

    def min_exps(self) -> tuple[int, int, int]:
        """Componentwise minimum exponent over the support (monomial content)."""
        eu = ev = ew = None
        for k in self.prim:
            a, b, c = _unpack(k)
            eu = a if eu is None else min(eu, a)
            ev = b if ev is None else min(ev, b)
            ew = c if ew is None else min(ew, c)
        return (eu or 0, ev or 0, ew or 0)

    def shift(self, d: tuple[int, int, int]) -> "SparsePoly":
        """Multiply by the monomial u^d0 v^d1 w^d2 (d may be negative where support allows)."""
        out = {}
        for k, c in self.prim.items():
            a, b, cc = _unpack(k)
            out[_pack(a + d[0], b + d[1], cc + d[2])] = c
        return SparsePoly(self.content, out, _normalized=True)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        r = other.content / self.content
        rn, rd = r.numerator, r.denominator
        out = {k: c * rd for k, c in self.prim.items()}
        for k, c in other.prim.items():
            out[k] = out.get(k, 0) + c * rn
        out = {k: c for k, c in out.items() if c}
        return SparsePoly(self.content / rd, out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(-self.content, self.prim, _normalized=True)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        if self.is_zero() or other.is_zero():
            return SparsePoly.zero()
        out = _mul_dicts(self.prim, other.prim)
        # product of primitive integer polynomials is primitive; sign of the
        # leading coefficient is the product of signs, already positive here
        return SparsePoly(self.content * other.content, {k: c for k, c in out.items() if c},
                          _normalized=True)

    def scaled(self, c) -> "SparsePoly":
        c = Fraction(c)
        if c == 0 or self.is_zero():
            return SparsePoly.zero()
        return SparsePoly(self.content * c, self.prim, _normalized=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.content == other.content and self.prim == other.prim

    def __hash__(self):
        return hash((self.content, frozenset(self.prim.items())))

    def eval(self, u: Fraction, v: Fraction, w: Fraction) -> Fraction:
        """Exact evaluation at rational generator values.

        The terms are summed over the one common denominator
        ud^A vd^B wd^C, A, B, C the largest exponents: a term c u^a v^b w^c
        adds c un^a ud^(A-a) vn^b vd^(B-b) wn^c wd^(C-c), and the sum becomes
        one Fraction.
        """
        if not self.prim:
            return Fraction(0)
        exps = [_unpack(k) for k in self.prim]
        tables, den = [], self.content.denominator
        for x, column in zip((u, v, w), zip(*exps)):
            x, top = Fraction(x), max(column)
            xn, xd = x.numerator, x.denominator
            tables.append({a: xn ** a * xd ** (top - a) for a in set(column)})
            den *= xd ** top
        pu, pv, pw = tables
        tot = 0
        for (a, b, cc), c in zip(exps, self.prim.values()):
            tot += c * pu[a] * pv[b] * pw[cc]
        return Fraction(tot * self.content.numerator, den)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for key in sorted(self.prim, key=_grlex, reverse=True):
            coef = self.content * self.prim[key]
            exps = _unpack(key)
            gens = "*".join(
                f"{GEN_NAMES[i]}^{e}" if e != 1 else GEN_NAMES[i]
                for i, e in enumerate(exps) if e
            )
            mag = abs(coef)
            if gens and mag == 1:
                body = gens
            elif gens:
                body = f"{mag}*{gens}"
            else:
                body = f"{mag}"
            parts.append(("-" if coef < 0 else "+", body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    @classmethod
    def parse(cls, text: str) -> "SparsePoly":
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[tuple[int, int, int], Fraction | int] = {}
        for sign, chunk in _split_signed(text):
            coef = sign  # an int until a fraction factor comes
            exps = [0, 0, 0]
            for factor in chunk.split("*"):
                factor = factor.strip()
                gi = _gen_index(factor)
                if gi is not None:
                    name = GEN_NAMES[gi]
                    rest = factor[len(name):]
                    e = int(rest[1:]) if rest.startswith("^") else 1
                    exps[gi] += e
                else:
                    num, _, den = factor.partition("/")
                    coef *= Fraction(int(num), int(den)) if den else int(num)
            key = tuple(exps)
            terms[key] = terms[key] + coef if key in terms else coef
        return cls.from_terms(terms)


def _gen_index(tok: str):
    for i, name in enumerate(GEN_NAMES):
        if tok.startswith(name):
            return i
    return None


_SPLIT_TOKENS = re.compile(r"[({\[\]})]|(?<= )[+-](?= )")


def _split_signed(text: str):
    """Split 'a + b - c' into [(+1,'a'), (+1,'b'), (-1,'c')], braces-aware:
    a sign splits only between spaces and outside every bracket."""
    out = []
    sign = 1
    start = 0
    depth = 0
    if text.startswith("-"):
        sign = -1
        start = 1
    elif text.startswith("+"):
        start = 1
    for m in _SPLIT_TOKENS.finditer(text, start):
        tok = m.group()
        if tok in "({[":
            depth += 1
        elif tok in ")}]":
            depth -= 1
        elif depth == 0:
            out.append((sign, text[start:m.start()].strip()))
            sign = 1 if tok == "+" else -1
            start = m.end()
    out.append((sign, text[start:].strip()))
    return out


class Mon:
    """A rational multiple of a (possibly Laurent) monomial in (u, v, w).

    These are the arguments of every q-shifted factorial in the library:
    things like t^(n-l) q^(S+1) or T t^(n-1) q^(r-i).
    """

    __slots__ = ("coef", "exp")

    def __init__(self, coef, exp: tuple[int, int, int] = (0, 0, 0)):
        self.coef = Fraction(coef)
        self.exp = exp

    @classmethod
    def q(cls, k: int = 1) -> "Mon":
        return cls(1, (2 * k, 0, 0))

    @classmethod
    def t(cls, k: int = 1) -> "Mon":
        return cls(1, (0, 2 * k, 0))

    @classmethod
    def T(cls, k: int = 1) -> "Mon":
        return cls(1, (0, 0, 2 * k))

    @classmethod
    def half(cls, qh: int = 0, th: int = 0, Th: int = 0, coef=1) -> "Mon":
        return cls(coef, (qh, th, Th))

    def __mul__(self, other: "Mon") -> "Mon":
        return Mon(self.coef * other.coef,
                   tuple(a + b for a, b in zip(self.exp, other.exp)))

    def __truediv__(self, other: "Mon") -> "Mon":
        if other.coef == 0:
            raise ZeroDivisionError("division by zero monomial")
        return Mon(self.coef / other.coef,
                   tuple(a - b for a, b in zip(self.exp, other.exp)))

    def __pow__(self, k: int) -> "Mon":
        return Mon(self.coef ** k, tuple(e * k for e in self.exp))

    def inv(self) -> "Mon":
        return Mon(1, (0, 0, 0)) / self

    def is_one(self) -> bool:
        return self.coef == 1 and self.exp == (0, 0, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mon):
            return NotImplemented
        return self.coef == other.coef and self.exp == other.exp

    def __hash__(self):
        return hash((self.coef, self.exp))

    def __repr__(self):
        return f"Mon({self.coef}, {self.exp})"


# ---------------------------------------------------------------------------
# display-only gcd and division along a binomial's lattice line
#
# Scalar arithmetic never reduces by polynomial gcd (equality is decided by
# cross-multiplication).  Serialization, however, wants one canonical
# representative per value so that mathematically equal results print
# identically whichever route produced them.  Scalar.canonical reduces by a
# gcd against each binomial factor of the denominator.  A binomial is a
# monomial times c1*X^g + c2, X = x^d0 for a primitive lattice direction d0;
# Q[Z^3] is free over Q[X, 1/X] on the cosets of Z*d0, so its gcd with a is
# univariate, against every coset slice of a, and so is the division by it
# (the test oracles are a PRS gcd and a grlex division in cdmac.oracle).
# ---------------------------------------------------------------------------

def _slices(prim: dict[int, int], k1: int, k2: int):
    """(g, d0, {coset: {position: key}}) for k1 - k2 = g*d0, d0 primitive: the
    coset of Z*d0 is the cross product with d0, and exponents of one coset
    differ by d0 times the difference of their positions e[j] // d0[j]."""
    diff = [x - y for x, y in zip(_unpack(k1), _unpack(k2))]
    g = gcd(*diff)
    d0 = [x // g for x in diff]
    j = next(i for i, x in enumerate(d0) if x)
    out: dict[tuple, dict[int, int]] = {}
    for key in prim:
        e = _unpack(key)
        coset = (e[1] * d0[2] - e[2] * d0[1], e[2] * d0[0] - e[0] * d0[2],
                 e[0] * d0[1] - e[1] * d0[0])
        out.setdefault(coset, {})[e[j] // d0[j]] = key
    return g, d0, out


def _rem(a: list, b: list) -> list:
    """Remainder of a by b, coefficient lists from degree 0 up, trimmed."""
    a, db = a[:], len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = Fraction(a[i], b[-1])
            for j in range(db):
                a[i - db + j] -= c * b[j]
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return a


def poly_gcd(a: "SparsePoly", p: "SparsePoly") -> "SparsePoly":
    """gcd of a with the binomial p, primitive and free of monomial content.

    Raises ValueError unless p has exactly two terms.
    """
    if len(p.prim) != 2:
        raise ValueError("poly_gcd takes a binomial second argument")
    (k1, c1), (k2, c2) = p.prim.items()
    g, d0, slices = _slices(a.prim, k1, k2)
    # univariate Euclid against c1*X^g + c2, one slice of a at a time, each
    # reduced mod X^g = rho first
    rho, powers = Fraction(-c2, c1), {}
    f = [c2] + [0] * (g - 1) + [c1]
    for sl in slices.values():
        row = [0] * g
        for pos, key in sl.items():
            k, r = divmod(pos, g)
            if k not in powers:
                pw = rho ** k
                powers[k] = pw.numerator if pw.denominator == 1 else pw
            row[r] += a.prim[key] * powers[k]
        row = _rem(row, f)  # degree < g already: this only trims
        while row:
            f, row = row, _rem(f, row)
        if len(f) == 1:
            return SparsePoly.one()
    # back to (u, v, w): X^i = x^(i*d0), shifted to nonnegative exponents
    lo = [min(0, (len(f) - 1) * x) for x in d0]
    den = lcm(*(c.denominator for c in f))
    out = SparsePoly(Fraction(1), {_pack(*(i * x - m for x, m in zip(d0, lo))): int(c * den)
                                   for i, c in enumerate(f) if c})
    return out.scaled(1 / out.content)


def line_div(a: "SparsePoly", h: "SparsePoly") -> "SparsePoly":
    """The exact quotient a / h, for h = 1 or h with two or more terms on one
    lattice line (a binomial, or a gcd that poly_gcd returned): each coset
    slice of a is divided as a polynomial in X = x^d0, peeled sparsely from
    its lowest position.  Raises ArithmeticError when h does not divide a,
    and ValueError when h's terms leave one line."""
    if h.prim == {0: 1}:
        return a.scaled(1 / h.content)
    k1, k2, *_ = h.prim
    _, d0, hs = _slices(h.prim, k1, k2)
    (hrow,) = hs.values()
    lo = min(hrow)
    h0, elo, span = h.prim[hrow[lo]], _unpack(hrow[lo]), max(hrow) - lo
    rest = [(pos - lo, h.prim[key]) for pos, key in hrow.items() if pos != lo]
    quo: dict[int, int] = {}
    for sl in _slices(a.prim, k1, k2)[2].values():
        top, (pos0, key0) = max(sl), next(iter(sl.items()))
        rem = {pos: a.prim[key] for pos, key in sl.items()}
        heap = sorted(rem)  # a sorted list is a heap
        while heap:
            pos = heappop(heap)
            c = rem.pop(pos)
            if not c:
                continue
            qe = [x + (pos - pos0) * d - y for x, d, y in zip(_unpack(key0), d0, elo)]
            if pos + span > top or c % h0 or min(qe) < 0:
                raise ArithmeticError("not an exact divisor")
            quo[_pack(*qe)] = qc = c // h0
            for off, hc in rest:
                if pos + off not in rem:
                    heappush(heap, pos + off)
                rem[pos + off] = rem.get(pos + off, 0) - qc * hc
    # a primitive quotient of primitive polynomials (Gauss), with a positive
    # leading coefficient since the two leading terms multiply
    return SparsePoly(a.content / h.content, quo, _normalized=True)
