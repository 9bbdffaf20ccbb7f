"""The six-parameter q-difference operator and its eigenvalue data.

The operator acts on hyperoctahedrally invariant Laurent polynomials and is
used as an independent certificate: a candidate one-row polynomial P is
accepted when D_x P = d_lambda P exactly and P is monic-triangular.

Every factor of the operator is a binomial 1 - c x^e, kept as the pair
(c, e) and never expanded.  Each pole binomial is normalized, up to a
monomial unit, to a lexicographically positive e; the distinct normalized
binomials are the true least common denominator of the sum over shift
directions (n^2 + 2n of them at rank n).  The sum is divided back by one
binomial at a time, and each division is asserted exact, not assumed:
failure raises NonLaurentResultError.

The products, the sum and the divisions run over the coefficient ring, not
the field: integers for a sampled (rational) input, Scalars without
non-monomial denominators for a symbolic one.  cdmac.oracle keeps the same
operator over the field as field_koornwinder_apply.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add, sub

from .errors import UsageError
from .laurent import LaurentPoly, divide_exact
from .poly import SparsePoly
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


def _directions(kp: KoornwinderParams, n: int):
    """Numerator and pole binomials of each shift direction x_i -> q^sg x_i.

    A binomial is a pair (c, e) standing for 1 - c x^e.
    """
    one = kp.q ** 0  # the coefficient field's 1, so that 1 / one stays exact
    for i in range(n):
        for sg in (+1, -1):
            xi = tuple(sg if k == i else 0 for k in range(n))
            xi2 = tuple(2 * v for v in xi)
            pairs = [tuple(sj if k == j else v for k, v in enumerate(xi))
                     for j in range(n) if j != i for sj in (+1, -1)]
            num = [(c, xi) for c in (kp.a, kp.b, kp.c, kp.d)] + [(kp.t, e) for e in pairs]
            den = [(one, xi2), (kp.q, xi2)] + [(one, e) for e in pairs]
            yield i, sg, num, den


def _times(terms: dict, cn, cd, e) -> dict:
    """terms * (cd - cn x^e), on plain dicts over the coefficient ring."""
    out = dict(terms) if cd == 1 else {f: v * cd for f, v in terms.items()}
    get = out.get
    for f, v in terms.items():
        g = tuple(map(add, f, e))
        s = get(g, 0) - cn * v
        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out


def _clear_denominators(values: list):
    """(D, [v * D for v in values]) with every v * D in the coefficient ring.

    Rationals clear to integers over the lcm of their denominators, so a
    rational c comes out as (c.denominator, [c.numerator]), in lowest terms.
    Scalar addition never gcd-reduces, so letting fractions meet inside the
    big operator products would compound denominators: a Scalar's
    non-monomial denominators clear over their product, each cofactor D / den
    being the product of the others.  A monomial denominator stays, as a
    unit of the Laurent polynomials in the generators.
    """
    if not any(isinstance(v, Scalar) for v in values):
        D = lcm(*(v.denominator for v in values))
        return D, [v.numerator * (D // v.denominator) for v in values]
    # a Scalar's den is primitive with content 1, so each one is its own key
    dens = list(dict.fromkeys(v.den for v in values
                              if isinstance(v, Scalar) and not v.den.is_monomial()))
    if not dens:
        return 1, list(values)
    cofs = {d: prod((o for o in dens if o != d), start=SparsePoly.one()) for d in dens}
    D = Scalar(prod(dens, start=SparsePoly.one()))
    return D, [Scalar(v.num * cofs[v.den])
               if isinstance(v, Scalar) and not v.den.is_monomial() else v * D
               for v in values]


def koornwinder_apply(p: LaurentPoly, kp: KoornwinderParams) -> LaurentPoly:
    """Apply the q-difference operator D_x to p, exactly.

    Direction (i, sign) contributes (shifted p - p) times its numerator
    binomials over its pole binomials.  Each pole binomial is normalized up to
    a monomial unit to a lexicographically positive exponent; the distinct
    normalized binomials form the least common denominator.  The sum over it
    is divided back by one binomial at a time.

    The products, the sum and the divisions run over the coefficient ring:
    p is cleared of its denominators, each binomial 1 - c x^e is taken as
    cd - cn x^e with c = cn / cd, the q-shift is scaled to ring values, and
    the directions are brought to one common denominator before they are
    summed.  Every such x-independent factor is collected in one scalar,
    applied once at the end.
    """
    n = p.rank
    zero = (0,) * n
    Dp, coeffs = _clear_denominators(list(p.terms.values()))
    terms = dict(zip(p.terms, coeffs))
    plans, lcd = [], []
    for i, sg, num, den in _directions(kp, n):
        unit_c, unit_e, own = 1, zero, []
        for c, e in den:
            if e < zero:  # 1 - c x^e = -c x^e (1 - c^-1 x^-e)
                unit_c, unit_e = -c * unit_c, tuple(x + y for x, y in zip(unit_e, e))
                c, e = 1 / c, tuple(-v for v in e)
            own.append((c, e))
        lcd += [f for f in own if f not in lcd]
        plans.append((i, sg, num, own, unit_c, unit_e))
    # x_i -> q^sg x_i takes x^f to q^(sg f_i) x^f; over the ring that is
    # qn^(s + R) qd^(R - s) / (qn qd)^R with s = sg f_i and R = max |f_i|
    qd, (qn,) = _clear_denominators([kp.q])
    R = max((abs(x) for f in terms for x in f), default=0)
    shift_den = (qn * qd) ** R
    weight = {s: qn ** (s + R) * qd ** (R - s) - shift_den for s in range(-R, R + 1)}
    one = kp.q ** 0  # the coefficient field's 1, so that one / x stays exact
    parts, scales = [], []
    for i, sg, num, own, unit_c, unit_e in plans:
        part = {}
        for f, v in terms.items():
            w = weight[sg * f[i]]
            if w:
                part[f] = v * w
        if not part:
            continue
        # only q = 1 repeats a pole binomial within one direction, and then
        # no direction gets this far: the lcd needs no multiplicities
        denom = shift_den * unit_c
        for c, e in num + [f for f in lcd if f not in own]:
            cd, (cn,) = _clear_denominators([c])  # 1 - c x^e = (cd - cn x^e) / cd
            part = _times(part, cn, cd, e)
            denom = denom * cd
        parts.append({tuple(map(sub, f, unit_e)): v for f, v in part.items()})
        scales.append(one / denom)
    L, mults = _clear_denominators(scales)
    total = {}
    for part, m in zip(parts, mults):
        for f, v in part.items():
            s = total.get(f, 0) + m * v
            if s:
                total[f] = s
            else:
                total.pop(f, None)
    scale = one / (Dp * L * kp.alpha * kp.t ** (n - 1))
    for c, e in lcd:
        cd, (cn,) = _clear_denominators([c])
        total = divide_exact(total, cn, cd, e)
        scale = scale * cd
    return LaurentPoly(n, {f: v * scale for f, v in total.items()})


def triangularity_check(p: LaurentPoly, r: int) -> bool:
    """Monic at (r, 0, .., 0) and every exponent dominated by it.

    Dominance on exponent vectors: sort the absolute values decreasingly;
    all partial sums must stay <= r and the total may not exceed r.
    """
    n = p.rank
    top = (r,) + (0,) * (n - 1)
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
