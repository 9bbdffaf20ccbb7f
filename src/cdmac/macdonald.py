"""One-row Macdonald polynomials of types C and D.

Three independent constructions live here:

  * the tableau sums (one term per one-row tableau, with explicit
    q-shifted-factorial coefficients): a free-T sum, which is family D at
    T = 1, and a separate sum for C at T = t^2/q that certifies it,
  * the inversion route through the generating series G_r, and
  * principal specializations with their closed product forms.

Every entry point takes (family, ..., T) and reads it through one rule,
_family_T: family D takes no T (its value is 1), family C defaults to the
distinguished value T = t^2/q (the tag T_SPECIAL), and any other T is a
monomial in the generators or a rational.  The Euler-product oracle for G_r
lives in cdmac.oracle.

All symbolic output is a LaurentPoly over the Scalar field; coefficients are
accumulated through FactoredScalar so that each weight's sum is produced over
a least common denominator.  Each term generator owns two tables for the
length of its call: the letter blocks, and the binomials 1 - z that every
FactoredScalar it builds shares, so that each distinct binomial, each block
and the prefactor are built once per call.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .laurent import LaurentPoly
from .poly import Mon
from .scalar import FactoredScalar, Scalar, sum_factored
from .tableaux import Alphabet, enumerate_tableaux

T_SPECIAL = "t^2/q"  # tag for the distinguished type-C parameter value


def _as_mon(T) -> Mon:
    if isinstance(T, Mon):
        return T
    if isinstance(T, (int, Fraction)):
        return Mon(Fraction(T))
    if T == T_SPECIAL:
        return Mon(1, (-2, 4, 0))  # t^2/q
    if isinstance(T, Scalar):
        num, den = T.num, T.den
        if num.is_monomial() and den.is_monomial():
            m, d = num.monomial(), den.monomial()
            return Mon(m.coef / d.coef, tuple(a - b for a, b in zip(m.exp, d.exp)))
        raise UsageError("T must be a monomial in the generators or a rational")
    raise UsageError(f"cannot interpret T value {T!r}")


def _family_T(family: str, T) -> Mon:
    """The family/T rule of every entry point: D takes no T and has T = 1,
    C defaults to T_SPECIAL; returns T as a monomial."""
    if family == "D":
        if T is not None:
            raise UsageError("family D carries no T parameter")
        return Mon(1)
    if family != "C":
        raise UsageError(f"unknown family {family!r}")
    return _as_mon(T_SPECIAL if T is None else T)


def _T_reach(r: int, Tm: Mon) -> int:
    """The largest generator exponent that the factors in T bring into a
    route at row r: no numerator or denominator of the tableau or inversion
    route holds more than floor(r/2) binomials in T, and each adds T's
    largest exponent in one field (in half powers)."""
    return r // 2 * max(abs(e) for e in Tm.exp)


def _mon_sqrt(m: Mon) -> Mon:
    from .scalar import field_sqrt
    if any(e % 2 for e in m.exp):
        raise UsageError("no square root in the generator field")
    return Mon(field_sqrt(m.coef), tuple(e // 2 for e in m.exp))


def _from_terms(n: int, terms) -> LaurentPoly:
    """Sum (weight, FactoredScalar) terms into a Laurent polynomial, each
    weight over its least common denominator."""
    parts: dict[tuple, list] = {}
    for w, fs in terms:
        parts.setdefault(w, []).append(fs)
    out = {}
    for w, fss in parts.items():
        c = sum_factored(fss)
        if c:
            out[w] = c
    return LaurentPoly(n, out)


def _letter_block(k: int, binomials: dict) -> FactoredScalar:
    """The letter block (t;q)_k / (q;q)_k, its binomials from the table."""
    return FactoredScalar(binomials).times_poch(Mon.t(), k).div_poch(Mon.q(), k)


def _letter_factors(fs: FactoredScalar, counts, blocks: dict) -> FactoredScalar:
    """Multiply by (t;q)_k / (q;q)_k for every letter count k.  blocks maps
    k to its block: each is built once, from fs's binomial table, into the
    dict of the term generator that owns it, and merged into every term that
    has a letter count k."""
    for k in counts:
        if k:
            block = blocks.get(k)
            if block is None:
                block = blocks[k] = _letter_block(k, fs.binomials)
            fs.times(block)
    return fs


def _tq(a: int, b: int) -> Mon:
    return Mon(1, (2 * b, 2 * a, 0))  # t^a q^b


# ---------------------------------------------------------------------------
# generating series
# ---------------------------------------------------------------------------

def _g_terms(n: int, r: int, blocks: dict, binomials: dict):
    """(weight, coefficient) per weak composition of r: the terms of G_r.
    blocks is the letter-block dict of _letter_factors, binomials the
    caller's binomial table."""
    alpha = Alphabet("C", n)  # no occupancy constraint in G_r
    for tab in enumerate_tableaux(alpha, r):
        yield tab.weight(), _letter_factors(FactoredScalar(binomials), tab.theta, blocks)


def g_series(n: int, r: int) -> LaurentPoly:
    """The coefficient of u^r in prod_i ((t u x_i;q)oo (t u/x_i;q)oo) /
    ((u x_i;q)oo (u/x_i;q)oo): a sum over all weak compositions of r."""
    if n < 1 or r < 0:
        raise UsageError("need n >= 1, r >= 0")
    return _from_terms(n, _g_terms(n, r, {}, {}))


# ---------------------------------------------------------------------------
# tableau sums
# ---------------------------------------------------------------------------

def _prefactor(fs: FactoredScalar, r: int) -> FactoredScalar:
    return fs.times_poch(Mon.q(), r).div_poch(Mon.t(), r)


# In the l-loops below, Sp = sum(th[l:2n-l]) (in _terms_free_T, without the
# middle pair and with d in its place) and S = th[l-1] + Sp.  Both are
# running sums, so a term costs O(n), and an l with no letter lbar adds no
# factor, since (z;q)_0 = 1.  Every term merges the one prefactor.

def _terms_C_special(n: int, r: int):
    """(weight, coefficient) per type-C tableau at T = t^2/q."""
    blocks, binomials = {}, {}
    pref = _prefactor(FactoredScalar(binomials), r)
    for tab in enumerate_tableaux(Alphabet("C", n), r):
        th = tab.theta
        fs = _letter_factors(FactoredScalar(binomials).times(pref), th, blocks)
        Sp = r - th[0] - th[2 * n - 1]
        for l in range(1, n + 1):
            tl = th[2 * n - l]
            if tl:
                S = Sp + th[l - 1]
                fs.times_poch(_tq(n - l + 1, S), tl)
                fs.times_poch(_tq(n - l + 2, Sp - 1), tl)
                fs.div_poch(_tq(n - l + 2, S - 1), tl)
                fs.div_poch(_tq(n - l + 1, Sp), tl)
            Sp -= th[l] + th[2 * n - l - 1]
        yield tab.weight(), fs


def _terms_free_T(family: str, n: int, r: int, Tm: Mon):
    """(weight, coefficient) per tableau of the family's alphabet, free T.
    Family D is the T = 1 case: no D tableau holds both n and nbar, so its
    theta is 0 and its d is theta_n + theta_nbar."""
    blocks, binomials = {}, {}
    pref = _prefactor(FactoredScalar(binomials), r)
    for tab in enumerate_tableaux(Alphabet(family, n), r):
        th = tab.theta
        thn, thnb = th[n - 1], th[n]
        theta = min(thn, thnb)
        d = abs(thn - thnb)
        fs = _letter_factors(FactoredScalar(binomials).times(pref),
                             th[:n - 1] + th[n + 1:] + (d,), blocks)
        Sp = r - th[0] - thn - thnb - th[2 * n - 1] + d
        for l in range(1, n):
            tl = th[2 * n - l]
            if tl:
                S = Sp + th[l - 1]
                fs.times_poch(_tq(n - l - 1, S + 1), tl)
                fs.times_poch(_tq(n - l, Sp), tl)
                fs.div_poch(_tq(n - l, S), tl)
                fs.div_poch(_tq(n - l - 1, Sp + 1), tl)
            Sp -= th[l] + th[2 * n - l - 1]
        if theta:
            fs.times_poch(Tm, theta)
            fs.times_poch(_tq(n, r - 2 * theta), 2 * theta)
            fs.div_poch(Mon.q(), theta)
            fs.div_poch(Tm * _tq(n - 1, r - theta), theta)
            fs.div_poch(_tq(n - 1, r - 2 * theta + 1), theta)
        yield tab.weight(), fs


def _tableau_terms(family: str, n: int, r: int, T=None):
    """(weight, coefficient) per tableau; C at T_SPECIAL (or no T) takes the
    special sum, every other family and T the free-T sum."""
    Tm = _family_T(family, T)
    if n < 1 or r < 0:
        raise UsageError("need n >= 1, r >= 0")
    if family == "C" and (T is None or T == T_SPECIAL):
        return _terms_C_special(n, r)
    return _terms_free_T(family, n, r, Tm)


def tableau_poly(family: str, n: int, r: int, T=None) -> LaurentPoly:
    """The one-row polynomial as a sum over one-row tableaux."""
    return _from_terms(n, _tableau_terms(family, n, r, T))


def tableau_poly_D(n: int, r: int) -> LaurentPoly:
    """Type D one-row polynomial: the free-T sum at T = 1 over the D alphabet,
    whose tableaux have theta_n*theta_nbar = 0."""
    return _from_terms(n, _tableau_terms("D", n, r))


def tableau_poly_C_special(n: int, r: int) -> LaurentPoly:
    """Type C one-row polynomial at the distinguished value T = t^2/q."""
    return _from_terms(n, _tableau_terms("C", n, r))


def tableau_poly_C_general(n: int, r: int, T) -> LaurentPoly:
    """Type C one-row polynomial with a free parameter T.

    The degenerate-pair block carries (T;q)_theta with theta the smaller of
    the two middle occupancies; tableau_poly_D is the same sum at T = 1 over
    the D alphabet.  At T = t^2/q the value agrees with tableau_poly_C_special
    although the two sums differ term by term.
    """
    Tm = _family_T("C", T)
    if n < 1 or r < 0:
        raise UsageError("need n >= 1, r >= 0")
    return _from_terms(n, _terms_free_T("C", n, r, Tm))


# ---------------------------------------------------------------------------
# inversion route
# ---------------------------------------------------------------------------

def _expand_coeff(i: int, n: int, r: int, Tm: Mon) -> Scalar:
    """Coefficient of P_(r-2i) in the G_r expansion."""
    fs = FactoredScalar()
    fs.times_poch(Mon.t(), r - 2 * i).div_poch(Mon.q(), r - 2 * i)
    fs.times_mon(Tm ** i)
    fs.times_poch(Mon.t() / Tm, i)
    fs.times_poch(_tq(n, r - 2 * i), i)
    fs.div_poch(Mon.q(), i)
    fs.div_poch(Tm * _tq(n - 1, r - 2 * i + 1), i)
    return fs.to_scalar()


def _invert_block(n: int, r: int, i: int, Tm: Mon, binomials: dict) -> FactoredScalar:
    """pref * c_i * (1 - t^n q^(r-2i)) / (1 - t^n q^(r-i)): the part of an
    inversion term that does not depend on the composition."""
    fs = _prefactor(FactoredScalar(binomials), r)
    fs.times_mon(Mon.t() ** i)
    fs.times_poch(Tm / Mon.t(), i)
    fs.times_poch(_tq(n, r - i), i)
    fs.div_poch(Mon.q(), i)
    fs.div_poch(Tm * _tq(n - 1, r - i), i)
    fs.times_poch(_tq(n, r - 2 * i), 1)  # (1 - t^n q^(r-2i))
    fs.div_poch(_tq(n, r - i), 1)        # (1 - t^n q^(r-i))
    return fs


def _invert_terms(n: int, r: int, Tm: Mon):
    """(weight, coefficient) of pref * c_i * G_(r-2i) per composition and i,
    c_i the coefficient of G_(r-2i) in the inverse expansion.  The
    composition-free block of each i is built once and merged into every
    G_(r-2i) term, and every row shares one letter-block dict and one
    binomial table."""
    letters, binomials = {}, {}
    for i in range(r // 2 + 1):
        block = _invert_block(n, r, i, Tm, binomials)
        for w, fs in _g_terms(n, r - 2 * i, letters, binomials):
            yield w, fs.times(block)


def lassalle_invert(family: str, n: int, r: int, T=None) -> LaurentPoly:
    """P_(r) built from the generating-series coefficients, independently of
    the tableau sums."""
    Tm = _family_T(family, T)
    if n < 1 or r < 0:
        raise UsageError("need n >= 1, r >= 0")
    return _from_terms(n, _invert_terms(n, r, Tm))


def lassalle_expand(family: str, n: int, r: int, p_family, T=None) -> LaurentPoly:
    """The G_r expansion assembled from supplied one-row polynomials.

    p_family maps each needed row r, r-2, ... to its polynomial; subtracting
    g_series(n, r) from the result gives the residual checked in acceptance.
    """
    Tm = _family_T(family, T)
    acc = LaurentPoly.zero(n)
    for i in range(r // 2 + 1):
        row = r - 2 * i
        if row not in p_family:
            raise UsageError(f"missing polynomial for row {row}")
        acc = acc + p_family[row].scale(_expand_coeff(i, n, r, Tm))
    return acc


# ---------------------------------------------------------------------------
# principal specialization
# ---------------------------------------------------------------------------

def _principal_mons(family: str, n: int, T) -> list[Mon]:
    s = _mon_sqrt(_family_T(family, T))
    return [s * Mon.t(n - 1 - i) for i in range(n)]


def principal_point(family: str, n: int, T=None) -> list[Scalar]:
    """The evaluation point (s t^(n-1), ..., s t, s), s = T^(1/2) (s = 1 for D)."""
    return [Scalar.from_mon(m) for m in _principal_mons(family, n, T)]


def principal_specialize(family: str, n: int, r: int, T=None) -> Scalar:
    """Evaluate the tableau polynomial at the principal point, exactly.

    Equal to substituting the point into tableau_poly, but the sum is taken
    term by term over a common factored denominator (the substituted values
    are monomials, so each tableau term stays a factored product).
    """
    points = _principal_mons(family, n, T)
    terms = []
    for w, fs in _tableau_terms(family, n, r, T):
        for i, wi in enumerate(w):
            if wi:
                fs.times_mon(points[i] ** wi)
        terms.append(fs)
    return sum_factored(terms)


def principal_closed_form(family: str, n: int, r: int, T=None) -> Scalar:
    """Closed product form of the principal specialization.

    Family D is the T = 1 case; n = 1 of family D is excluded (the product
    form degenerates to (1;q)_r in the denominator there, use x^r + x^-r
    directly instead).
    """
    Tm = _family_T(family, T)
    if family == "D" and n == 1:
        raise UsageError("closed form degenerates at rank 1 of family D")
    s = _mon_sqrt(Tm)
    fs = FactoredScalar()
    fs.times_mon((s * Mon.t(n - 1)).inv() ** r)
    fs.times_poch(_tq(n, 0), r)
    fs.times_poch(Tm ** 2 * _tq(2 * (n - 1), 0), r)
    fs.div_poch(Mon.t(), r)
    fs.div_poch(Tm * _tq(n - 1, 0), r)
    return fs.to_scalar()
