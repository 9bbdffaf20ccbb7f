"""The six-parameter q-difference operator and its eigenvalue data.

The operator acts on hyperoctahedrally invariant Laurent polynomials and is
used as an independent certificate: a candidate one-row polynomial P is
accepted when D_x P = d_lambda P exactly and P is monic-triangular.

The sum over shift directions is assembled over one global product of the
simple-pole factors, and the final exact division back to a Laurent
polynomial is asserted, not assumed: failure raises NonLaurentResultError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .laurent import LaurentPoly, divide_exact
from .scalar import Scalar, field_sqrt


class KoornwinderParams:
    """Parameter tuple (a, b, c, d, q, t) with alpha = (a b c d / q)^(1/2)."""

    __slots__ = ("a", "b", "c", "d", "q", "t", "alpha")

    def __init__(self, a, b, c, d, q, t, alpha=None):
        self.a, self.b, self.c, self.d, self.q, self.t = a, b, c, d, q, t
        self.alpha = field_sqrt(a * b * c * d / q) if alpha is None else alpha
        if not self.alpha * self.alpha == a * b * c * d / q:
            raise UsageError("alpha^2 must equal a*b*c*d/q exactly")


def bc_specialize(a, b, q, t) -> KoornwinderParams:
    """Parameters for the C/D degenerations: (a, b) = (1, T) resp. (1, 1).

    Substitution: (-b^(1/2), a b^(1/2), -q^(1/2) b^(1/2), q^(1/2) a b^(1/2)).
    """
    sqb = field_sqrt(b)
    sqq = field_sqrt(q)
    return KoornwinderParams(-sqb, a * sqb, -(sqq * sqb), sqq * a * sqb, q, t,
                             alpha=a * b)


class EigenvalueData:
    __slots__ = ("d_lambda", "s")

    def __init__(self, d_lambda, s):
        self.d_lambda = d_lambda
        self.s = s


def koornwinder_eigenvalue(lam, kp: KoornwinderParams) -> EigenvalueData:
    """d_lambda = sum_j < alpha t^(n-j) q^(lambda_j) ; alpha t^(n-j) >,
    with <x;y> = x + 1/x - y - 1/y.  Needs no square roots beyond alpha."""
    n = len(lam)
    d = 0
    s = []
    for j in range(1, n + 1):
        y = kp.alpha * kp.t ** (n - j)
        x = y * kp.q ** lam[j - 1]
        s.append(x)
        if lam[j - 1]:
            d = d + (x + 1 / x - y - 1 / y)
    if isinstance(d, int):
        d = Scalar.zero() if isinstance(kp.q, Scalar) else Fraction(0)
    return EigenvalueData(d, s)


def _e(n: int, i: int, v: int) -> tuple[int, ...]:
    return tuple(v if k == i else 0 for k in range(n))


def _e2(n: int, i: int, vi: int, j: int, vj: int) -> tuple[int, ...]:
    out = [0] * n
    out[i] += vi
    out[j] += vj
    return tuple(out)


def _binom(n: int, e: tuple[int, ...], coef) -> LaurentPoly:
    """1 - coef * x^e."""
    return LaurentPoly(n, {(0,) * n: 1}) + LaurentPoly(n, {e: -coef if coef else 0})


def _apply_factors(kp: KoornwinderParams, n: int):
    """Numerator polynomials and pole-factor lists for every (i, direction)."""
    a, b, c, d, q, t = kp.a, kp.b, kp.c, kp.d, kp.q, kp.t
    plans = []
    for i in range(n):
        for sg in (+1, -1):
            num = [
                _binom(n, _e(n, i, sg), a), _binom(n, _e(n, i, sg), b),
                _binom(n, _e(n, i, sg), c), _binom(n, _e(n, i, sg), d),
            ]
            den = [
                _binom(n, _e(n, i, 2 * sg), 1), _binom(n, _e(n, i, 2 * sg), q),
            ]
            for j in range(n):
                if j == i:
                    continue
                num.append(_binom(n, _e2(n, i, sg, j, 1), t))
                num.append(_binom(n, _e2(n, i, sg, j, -1), t))
                den.append(_binom(n, _e2(n, i, sg, j, 1), 1))
                den.append(_binom(n, _e2(n, i, sg, j, -1), 1))
            plans.append((i, sg, num, den))
    return plans


def _clear_denominators(p: LaurentPoly):
    """Factor p as (1/D) * p_cleared with polynomial Scalar coefficients.

    Scalar addition never gcd-reduces, so letting fractions meet inside the
    big operator products compounds denominators; the operator commutes with
    the x-independent factor D, so it is cleared up front instead.
    """
    from .poly import SparsePoly
    from .scalar import _exact_poly_div

    dens: dict[tuple, SparsePoly] = {}
    for c in p.terms.values():
        if isinstance(c, Scalar) and not c.den.is_monomial():
            dens.setdefault(tuple(sorted(c.den.prim.items())), c.den)
    if not dens:
        return None, p
    D = SparsePoly.one()
    for den in dens.values():
        D = D * SparsePoly(Fraction(1), den.prim, _normalized=True)
    out = {}
    for e, c in p.terms.items():
        if isinstance(c, Scalar) and not c.den.is_monomial():
            cof = _exact_poly_div(D, SparsePoly(Fraction(1), c.den.prim, _normalized=True))
            out[e] = Scalar(c.num * cof.scaled(1 / c.den.content))
        else:
            out[e] = c * Scalar(D)
    return Scalar(D), LaurentPoly(p.rank, out)


def koornwinder_apply(p: LaurentPoly, kp: KoornwinderParams) -> LaurentPoly:
    """Apply the q-difference operator D_x to p, exactly.

    Each direction contributes rational coefficient * (shifted p - p); the sum
    is formed over the product of all distinct pole factors and divided back.
    """
    D, cleared = _clear_denominators(p)
    if D is not None:
        return koornwinder_apply(cleared, kp).scale(Scalar.one() / D)
    n = p.rank
    plans = _apply_factors(kp, n)
    # every pole factor occurs in exactly one direction's denominator except
    # the pair factors, shared between (+i) and (+j) resp. (-i) and (-j);
    # the set below is the true least common denominator
    delta_factors = []
    seen = set()
    for _, _, _, den in plans:
        for f in den:
            key = tuple(sorted((e, str(cf)) for e, cf in f.terms.items()))
            if key not in seen:
                seen.add(key)
                delta_factors.append(f)
    total = LaurentPoly.zero(n)
    qinv = 1 / kp.q
    for i, sg, num, den in plans:
        shifted = p.shift_variable(i, kp.q if sg > 0 else qinv)
        diff = shifted - p
        if diff.is_zero():
            continue
        den_keys = {tuple(sorted((e, str(cf)) for e, cf in f.terms.items())) for f in den}
        part = diff
        for f in num:
            part = part * f
        for f in delta_factors:
            key = tuple(sorted((e, str(cf)) for e, cf in f.terms.items()))
            if key not in den_keys:
                part = part * f
        total = total + part
    if total.is_zero():
        return total
    delta = LaurentPoly.one(n)
    for f in delta_factors:
        delta = delta * f
    out = divide_exact(total, delta)
    scale = 1 / (kp.alpha * kp.t ** (n - 1))
    return out.scale(scale)


def triangularity_check(p: LaurentPoly, r: int) -> bool:
    """Monic at (r, 0, .., 0) and every exponent dominated by it.

    Dominance on exponent vectors: sort the absolute values decreasingly;
    all partial sums must stay <= r and the total may not exceed r.
    """
    n = p.rank
    top = _e(n, 0, r)
    if not p.coefficient(top) == 1:
        return False
    for e in p.terms:
        srt = sorted((abs(x) for x in e), reverse=True)
        run = 0
        for x in srt:
            run += x
            if run > r:
                return False
    return True
