"""The exact coefficient field Q(u, v, w) = Q(q^(1/2), t^(1/2), T^(1/2)).

A Scalar is a fraction of two SparsePoly values.  Normalization removes the
monomial content common to numerator and denominator and the shared rational
content, and fixes the sign so the denominator's leading coefficient (in the
graded-lex order) is positive.  Arithmetic never computes a multivariate gcd:
equality is decided by cross-multiplication.  When both sides are
sum_factored results, whose denominators are a monomial times known
binomial powers, each numerator is multiplied only by the binomial copies
the other denominator has beyond its own, since the shared ones cancel
(Q[u, v, w] is an integral domain); any other pair is cross-multiplied in
full.

FactoredScalar is the workhorse for building the big sums of all three
routes (tableau terms, inversion terms and principally specialized
correlation kernels): it keeps a product of binomial factors
(1 - c*u^a v^b w^c) unexpanded, so that sums of many such products can share
a true least-common denominator instead of the naive product of
denominators.  sum_factored hands that denominator's binomial factors on
with its result, unexpanded until den is read.  Scalar.canonical (the
serialization boundary) has one reduction rule, a gcd against each binomial factor of the denominator,
divided out along the binomial's lattice line: the LCD binomials of a
sum_factored result, or the denominator itself of a plain Scalar whose
denominator is a monomial times a binomial.  poly.poly_gcd takes binomials
only, so canonical raises ValueError on any other plain Scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from . import poly
from .errors import PoleError
from .poly import Mon, SparsePoly, _pack

_ZERO_P = SparsePoly.zero()
_ONE_P = SparsePoly.one()


def _coerce_poly(x) -> SparsePoly | None:
    if isinstance(x, SparsePoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SparsePoly.const(x)
    if isinstance(x, Mon):
        return SparsePoly.from_mon(x)
    return None


class Scalar:
    """Element of the fraction field of Q[u, v, w]."""

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly = _ONE_P, *, _normalized=False):
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("Scalar with zero denominator")
        if num.is_zero():
            self.num = _ZERO_P
            self.den = _ONE_P
            return
        mu = tuple(min(a, b) for a, b in zip(num.min_exps(), den.min_exps()))
        if any(mu):
            num = num.shift(tuple(-e for e in mu))
            den = den.shift(tuple(-e for e in mu))
        s = den.content  # sign matches den's leading coefficient
        self.num = num.scaled(1 / s)
        self.den = den.scaled(1 / s)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls(_ZERO_P, _ONE_P, _normalized=True)

    @classmethod
    def one(cls) -> "Scalar":
        return cls(_ONE_P, _ONE_P, _normalized=True)

    @classmethod
    def of(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        p = _coerce_poly(x)
        if p is None:
            raise TypeError(f"cannot coerce {x!r} to Scalar")
        return cls(p)

    @classmethod
    def from_mon(cls, m: Mon) -> "Scalar":
        pos = tuple(max(e, 0) for e in m.exp)
        neg = tuple(max(-e, 0) for e in m.exp)
        num = SparsePoly.from_mon(Mon(m.coef, pos))
        den = SparsePoly.from_mon(Mon(1, neg))
        return cls(num, den)

    # -- field operations ------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, Scalar):
            return other
        p = _coerce_poly(other)
        return None if p is None else Scalar(p)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            return Scalar(self.num + o.num, self.den)
        return Scalar(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Scalar(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero Scalar")
        return Scalar(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return Scalar.one() / self ** (-k)
        out = Scalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        # cross-multiplication, never a canonical-form comparison; two
        # sum_factored results cancel their shared binomial copies first
        if isinstance(self, _FactoredDenScalar) and isinstance(o, _FactoredDenScalar):
            return _factored_eq(self, o)
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        raise TypeError("Scalar is not hashable (equality is by cross-multiplication)")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero Scalar")
        return Scalar(self.den, self.num)

    # -- extras -----------------------------------------------------------

    def sqrt(self) -> "Scalar":
        """Square root when num and den are perfect-square monomials."""
        if self.is_zero():
            return Scalar.zero()
        if not (self.num.is_monomial() and self.den.is_monomial()):
            raise ValueError("sqrt requires a monomial Scalar")
        mn, md = self.num.monomial(), self.den.monomial()
        m = Mon(mn.coef / md.coef, tuple(a - b for a, b in zip(mn.exp, md.exp)))
        if any(e % 2 for e in m.exp):
            raise ValueError("sqrt: odd generator exponent")
        c = m.coef
        if c < 0:
            raise ValueError("sqrt of a negative monomial")
        rn, rd = isqrt(c.numerator), isqrt(c.denominator)
        if rn * rn != c.numerator or rd * rd != c.denominator:
            raise ValueError("sqrt: coefficient is not a perfect square")
        return Scalar.from_mon(Mon(Fraction(rn, rd), tuple(e // 2 for e in m.exp)))

    def canonical(self) -> "Scalar":
        """The gcd-reduced representative, for serialization boundaries only.

        Arithmetic never calls this; values compare equal to their canonical
        form by cross-multiplication.  The reduction is a gcd against each
        binomial factor of den, divided out along its lattice line: a
        sum_factored result (every route's output) carries its LCD's
        binomials, and for a plain Scalar the single factor is den without
        its monomial part, which must be a binomial (ValueError otherwise).
        The reduced representative is unique, so both print the same bytes.
        """
        if self.is_zero():
            return self
        factors = getattr(self, "den_factors", None)
        if factors is None:
            mono = self.den.min_exps()
            factors = ((self.den.shift(tuple(-e for e in mono)), 1),)
        else:
            mono = self.unit[1]
        if not any(mono) and all(p.is_monomial() for p, _ in factors):
            return self  # den == 1
        return Scalar(*_cancel_den_factors(self.num, mono, factors))

    def eval(self, u, v, w) -> Fraction:
        """Instantiate the generators at exact rationals."""
        d = self.den.eval(u, v, w)
        if d == 0:
            raise PoleError("denominator vanishes at the sample point")
        return self.num.eval(u, v, w) / d

    def __str__(self) -> str:
        if self.den == _ONE_P:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        text = text.strip()
        if text.startswith("(") and ")/(" in text:
            ns, _, ds = text[1:-1].partition(")/(")
            return cls(SparsePoly.parse(ns), SparsePoly.parse(ds))
        return cls(SparsePoly.parse(text))


class _FactoredDenScalar(Scalar):
    """A sum_factored result with its denominator's factorization attached.

    den is c * x^m times prod p**need over den_factors, a tuple of
    (primitive binomial SparsePoly, need) pairs, with unit = (c, m) set by
    sum_factored.  Factored == and canonical read only those, so
    sum_factored leaves den to its first read.
    """

    __slots__ = ("den_factors", "unit")

    def __getattr__(self, name):  # called only for an empty slot
        if name != "den":
            raise AttributeError(name)
        self.den = _expand_den(*self.unit, self.den_factors)
        return self.den


def _expand_den(c: Fraction, mono, den_factors) -> SparsePoly:
    """c * x^mono * prod p**need over den_factors, multiplied out."""
    prim = {_pack(*mono): 1}
    for p, need in den_factors:
        prim = poly.times_power(prim, p.prim, need)
    return SparsePoly(c, prim, _normalized=True)


def _factored_eq(a: _FactoredDenScalar, b: _FactoredDenScalar) -> bool:
    """a == b by cross-multiplication with the shared prod p**min(need)
    cancelled: each numerator takes the other side's monomial part and
    content, and only the binomial copies the other side has beyond its own.
    Binomials are matched by their primitive prim items, as in
    FactoredScalar."""
    lhs, rhs = a.num.prim, b.num.prim
    mine = {tuple(sorted(p.prim.items())): (p, need) for p, need in a.den_factors}
    for p, need in b.den_factors:
        extra = need - mine.pop(tuple(sorted(p.prim.items())), (p, 0))[1]
        lhs, rhs = poly.times_power(lhs, p.prim, extra), poly.times_power(rhs, p.prim, -extra)
    for p, need in mine.values():
        rhs = poly.times_power(rhs, p.prim, need)
    ca, ma = a.unit
    cb, mb = b.unit
    low = tuple(map(min, ma, mb))
    return _times_unit(SparsePoly(a.num.content, lhs, _normalized=True), cb, mb, low) == \
        _times_unit(SparsePoly(b.num.content, rhs, _normalized=True), ca, ma, low)


def _times_unit(p: SparsePoly, c: Fraction, m, low) -> SparsePoly:
    """p * c * x^(m - low), without a shift by x^0."""
    d = tuple(a - b for a, b in zip(m, low))
    return p.scaled(c).shift(d) if any(d) else p.scaled(c)


def _cancel_den_factors(num: SparsePoly, mono, den_factors):
    """Reduce num/den by a gcd against each known factor of den.

    den is x^mono times the product of p**need over den_factors.  Each
    copy of p cancels gcd(num, p) from num and leaves p / gcd in the
    denominator.  Every LCD binomial is squarefree (X^g - c after a
    unimodular change of the exponent lattice), so one copy at a time leaves
    num and den coprime.  The gcd lies on p's lattice line, and poly.line_div
    divides along it.  A plain Scalar passes den without its monomial part
    as the single factor (den', 1).  Returns the reduced (num, den).
    """
    quo = SparsePoly(Fraction(1), num.prim, _normalized=True)
    left = SparsePoly.one().shift(mono)
    for p, need in den_factors:
        if p.is_monomial():  # the binomial 1 - c of a constant c
            continue
        g = p
        for _ in range(need):
            if not g.is_monomial():  # once coprime, later copies stay coprime
                g = poly.poly_gcd(quo, p)  # looked up per call, so a wrapper is seen
                quo = poly.line_div(quo, g)
            left = left * poly.line_div(p, g)
    return quo.scaled(num.content), left


def field_sqrt(x):
    """Exact square root, for Scalar and plain rational inputs alike."""
    if isinstance(x, Scalar):
        return x.sqrt()
    c = Fraction(x)
    if c < 0:
        raise ValueError("sqrt of a negative rational")
    rn, rd = isqrt(c.numerator), isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        raise ValueError("not a perfect square")
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# factored accumulation
# ---------------------------------------------------------------------------

def _binomial_parts(z: Mon):
    """Write (1 - z) as unit * primitive-polynomial.

    Returns (unit_coef, unit_exp, key, poly) with
    (1 - z) = unit_coef * X^unit_exp * poly  and poly a primitive integer
    SparsePoly with positive leading coefficient, or poly None when 1 - z == 1
    (z == 0), or ZERO when z == 1 exactly.
    """
    if z.coef == 0:
        return Fraction(1), (0, 0, 0), None, None
    if z.coef == 1 and z.exp == (0, 0, 0):
        return None, None, None, None  # the factor is identically zero
    s = tuple(max(-e, 0) for e in z.exp)
    one_term = Mon(1, s)
    z_term = Mon(-z.coef, tuple(a + b for a, b in zip(s, z.exp)))
    p = SparsePoly.from_mon(one_term) + SparsePoly.from_mon(z_term)
    unit = p.content
    prim = SparsePoly(Fraction(1), p.prim, _normalized=True)
    key = tuple(sorted(prim.prim.items()))
    return unit, tuple(-e for e in s), key, prim


class FactoredScalar:
    """Mutable accumulator for products of binomials (1 - monomial).

    Value = coef * u^a v^b w^c * prod factor^multiplicity, multiplicities in Z.
    Used to build q-shifted-factorial products and to sum them over a true
    least common denominator.  Not a public value type; confine instances to
    a single construction site.

    binomials maps (z.coef, z.exp) to _binomial_parts(z), so that each
    distinct binomial 1 - z is built once per table.  A term generator
    passes one dict to every term it builds, and drops it when its call
    returns; without one, the instance keeps its own.
    """

    __slots__ = ("coef", "mexp", "factors", "binomials")

    def __init__(self, binomials: dict | None = None):
        self.coef = Fraction(1)
        self.mexp = (0, 0, 0)
        self.factors: dict[tuple, list] = {}
        self.binomials = {} if binomials is None else binomials

    def is_zero(self) -> bool:
        return self.coef == 0

    def times_mon(self, m: Mon) -> "FactoredScalar":
        self.coef *= m.coef
        self.mexp = tuple(a + b for a, b in zip(self.mexp, m.exp))
        return self

    def _factor(self, z: Mon, mult: int) -> "FactoredScalar":
        parts = self.binomials.get((z.coef, z.exp))
        if parts is None:
            parts = self.binomials[z.coef, z.exp] = _binomial_parts(z)
        unit, uexp, key, prim = parts
        if unit is None:
            if mult > 0:
                self.coef = Fraction(0)
                return self
            raise PoleError(f"factor (1 - {z!r}) vanishes in a denominator")
        if key is None:
            return self
        self.coef *= unit ** mult
        self.mexp = tuple(a + mult * b for a, b in zip(self.mexp, uexp))
        slot = self.factors.get(key)
        if slot is None:
            self.factors[key] = [prim, mult]
        else:
            slot[1] += mult
            if slot[1] == 0:
                del self.factors[key]
        return self

    def times_poch(self, z: Mon, k: int) -> "FactoredScalar":
        """Multiply by the q-shifted factorial (z; q)_k."""
        q = Mon.q()
        if k >= 0:
            for j in range(k):
                self._factor(q ** j * z, +1)
        else:
            for j in range(1, -k + 1):
                self._factor(z / q ** j, -1)
        return self

    def div_poch(self, z: Mon, k: int) -> "FactoredScalar":
        q = Mon.q()
        if k >= 0:
            for j in range(k):
                self._factor(q ** j * z, -1)
        else:
            for j in range(1, -k + 1):
                self._factor(z / q ** j, +1)
        return self

    def times(self, other: "FactoredScalar") -> "FactoredScalar":
        """Multiply in place by another factored product."""
        self.coef *= other.coef
        self.mexp = tuple(a + b for a, b in zip(self.mexp, other.mexp))
        for key, (p, mult) in other.factors.items():
            slot = self.factors.get(key)
            if slot is None:
                self.factors[key] = [p, mult]
            else:
                slot[1] += mult
                if slot[1] == 0:
                    del self.factors[key]
        return self

    def to_scalar(self) -> Scalar:
        return sum_factored([self])


def _signature(t: FactoredScalar) -> frozenset:
    """The (key, multiplicity) pairs of a term's binomial factors: terms
    with equal signatures share their whole LCD cofactor."""
    return frozenset((key, m) for key, (_, m) in t.factors.items())


def sum_factored(terms) -> Scalar:
    """Sum FactoredScalar terms over their least common denominator.

    Terms are grouped by _signature.  Each group's coef * x^mexp parts add
    into one small integer polynomial over the common denominator of all
    coefficients, which is multiplied by the group's LCD cofactor once; every
    group lands in one integer dict, normalized once.  The denominator is
    left unexpanded (_FactoredDenScalar).
    """
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return Scalar.zero()
    lcm_den: dict[tuple, list] = {}
    for t in terms:
        for key, (p, m) in t.factors.items():
            need = -m
            if need > 0:
                slot = lcm_den.get(key)
                if slot is None:
                    lcm_den[key] = [p, need]
                elif need > slot[1]:
                    slot[1] = need
    shift = tuple(min(0, min(t.mexp[i] for t in terms)) for i in range(3))
    scale = lcm(*(t.coef.denominator for t in terms))
    groups: dict[frozenset, tuple] = {}
    for t in terms:
        sig = _signature(t)
        group = groups.get(sig)
        if group is None:
            group = groups[sig] = (t.factors, {})
        k = _pack(*(a - b for a, b in zip(t.mexp, shift)))
        group[1][k] = group[1].get(k, 0) + t.coef.numerator * (scale // t.coef.denominator)
    acc: dict[int, int] = {}
    for factors, small in groups.values():
        part = {k: c for k, c in small.items() if c}
        # the group's cofactor: p^(m + need) for each of its factors, and
        # p^need for each LCD binomial it lacks
        for key, (p, m) in factors.items():
            part = poly.times_power(part, p.prim, m + lcm_den.get(key, (None, 0))[1])
        for key, (p, need) in lcm_den.items():
            if key not in factors:
                part = poly.times_power(part, p.prim, need)
        for k, c in part.items():
            acc[k] = acc.get(k, 0) + c
    num = SparsePoly(Fraction(1, scale), {k: c for k, c in acc.items() if c})
    if num.is_zero():
        out = _FactoredDenScalar(_ZERO_P, _ONE_P, _normalized=True)
        mono = (0, 0, 0)
    else:
        # den is x^-shift times primitive binomials with positive leading
        # coefficients and no monomial factor: its content is 1 and its
        # monomial part x^-shift, so normalizing only divides out the
        # monomial x^mu that num shares with it
        low = tuple(-s for s in shift)
        mu = tuple(map(min, num.min_exps(), low))
        if any(mu):
            num = num.shift(tuple(-e for e in mu))
        mono = tuple(a - b for a, b in zip(low, mu))
        out = _FactoredDenScalar.__new__(_FactoredDenScalar)  # den is built on first read
        out.num = num
    out.den_factors = tuple((p, need) for p, need in lcm_den.values())
    out.unit = (Fraction(1), mono)
    return out
