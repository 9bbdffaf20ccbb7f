"""Terminating basic hypergeometric series and the transformation identities.

Parameters are exact field elements: Fractions for sampled verification,
Scalars for symbolic work.  The series and q-shifted factorials run on one
fraction-free kernel: each parameter is split once into a (numerator,
denominator) pair -- integers for a rational, (x, 1) for a Scalar x -- every
factor 1 - c*q^k and every term ratio is an unreduced pair, and only the
result is brought back to lowest terms, as one Fraction.  The field-valued
loops they replace are kept as test oracles in cdmac.oracle.

A very-well-poised series is stored by its defining parameters
(a1; a4, ..., a_{r+1}) and expanded to its phi form through the standard
template

    (r+1)W_r(a1; a4..a_{r+1}; q, z)
      = (r+1)phi_r[a1, q*sqrt(a1), -q*sqrt(a1), a4, ..  ;
                   sqrt(a1), -sqrt(a1), q*a1/a4, .. ; q, z].

Radical parameters only ever occur in +/- pairs, so a pair is kept as one
atomic SqrtPair(v) entry meaning the two parameters +sqrt(v) and -sqrt(v);
its q-shifted factorial is the exact rational product
(sqrt(v);q)_k * (-sqrt(v);q)_k = (v;q^2)_k.  No radicals are ever formed.

A series may be the limit of a one-parameter family: with exponents eps, each
parameter p stands for p*(1+e)^eps as e -> 0.  Every factor 1 - c*q^k that
vanishes at e = 0 is then carried as its order of vanishing in e and its
leading coefficient, so that a 0/0 term gets its limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PoleError, UsageError
from .tableaux import _compositions


# ---------------------------------------------------------------------------
# the pair kernel
# ---------------------------------------------------------------------------

def _split(x):
    """x as a (numerator, denominator) pair: integers for a rational, and
    (x, 1) for any other field element, such as a Scalar."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    return x, 1


def _join(num, den):
    """num/den back in the field: one reduced Fraction for integers."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def _add(x, y):
    """x + y of two pairs, over the product of their denominators."""
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _qpoch_pair(zn, zd, qn, qd, k: int):
    """(z;q)_k as an unreduced pair, for z = zn/zd and q = qn/qd."""
    if k < 0:  # 1/(z q^k; q)_(-k)
        den, num = _qpoch_pair(zn * qd ** -k, zd * qn ** -k, qn, qd, -k)
        if not den:
            raise PoleError("vanishing factor in a negative-index q-shifted factorial")
        return num, den
    num = den = 1
    for _ in range(k):  # the factor 1 - z q^j = (zd - zn) / zd at z q^j = zn/zd
        num, den = num * (zd - zn), den * zd
        zn, zd = zn * qn, zd * qd
    return num, den


def qpoch(z, q, k: int):
    """q-shifted factorial (z;q)_k, k any integer.

    k >= 0: prod_{j=0}^{k-1} (1 - q^j z);  k < 0: 1 / prod_{j=1}^{-k} (1 - z/q^j).
    """
    return _join(*_qpoch_pair(*_split(z), *_split(q), k))


def _quotient(ups, downs):
    """The product of the pairs in ups over that of the pairs in downs."""
    num = den = 1
    for pn, pd in ups:
        num, den = num * pn, den * pd
    for pn, pd in downs:
        num, den = num * pd, den * pn
    return num, den


def _qpoch_ratio(ups, downs, q, k: int):
    """(ups; q)_k / (downs; q)_k, one Fraction for rationals."""
    qn, qd = _split(q)
    return _join(*_quotient([_qpoch_pair(*_split(z), qn, qd, k) for z in ups],
                            [_qpoch_pair(*_split(z), qn, qd, k) for z in downs]))


def qpoch_multi(zs, q, k: int):
    """(z1, z2, ...; q)_k = prod of (z_i; q)_k."""
    return _qpoch_ratio(zs, (), q, k)


@dataclass(frozen=True)
class SqrtPair:
    """The parameter pair (+sqrt(val), -sqrt(val)), kept as one exact atom."""
    val: object


@dataclass(frozen=True)
class HypSeriesSpec:
    """A terminating (r+1)phi_r or very-well-poised (r+1)W_r series.

    For kind 'phi', upper/lower are the displayed parameter lists (entries may
    be SqrtPair atoms, each standing for two parameters).  For kind 'W', upper
    is (a1, a4, ..., a_{r+1}) and lower must be empty; the template above is
    applied before summation.

    eps, when given, holds one integer per entry of upper + lower: the series
    is the limit e -> 0 of the one whose entry p (a SqrtPair's value v) is
    p*(1+e)^eps.  The argument's own exponent never changes a limit (z^n does
    not vanish), so it has none.  An upper entry with a nonzero exponent never
    terminates the series.
    """
    upper: tuple
    lower: tuple
    base: object
    argument: object
    kind: str = "phi"  # 'phi' | 'W'
    eps: tuple = ()

    def __post_init__(self):
        if self.kind not in ("phi", "W"):
            raise UsageError(f"unknown series kind {self.kind!r}")
        if self.kind == "W" and self.lower:
            raise UsageError("W-series carry no explicit lower parameters")
        if self.eps and len(self.eps) != len(self.upper) + len(self.lower):
            raise UsageError("eps needs one exponent per upper and lower parameter")


def _entries(spec: HypSeriesSpec, qn, qd):
    """The phi form of spec as two lists of (num, den, squared, eps), one per
    upper and lower parameter; a SqrtPair entry holds its value and is
    squared.  A W-series is expanded through the template above, in pairs."""
    eps = spec.eps or (0,) * (len(spec.upper) + len(spec.lower))

    def entry(p, e):
        if isinstance(p, SqrtPair):
            return (*_split(p.val), True, e)
        return (*_split(p), False, e)
    ups = [entry(p, e) for p, e in zip(spec.upper, eps)]
    if spec.kind != "W":
        return ups, [entry(p, e) for p, e in zip(spec.lower, eps[len(spec.upper):])]
    (an, ad, _, e1), rest = ups[0], ups[1:]
    qan, qad = qn * an, qd * ad  # q*a1
    ups[1:1] = [(qn * qan, qd * qad, True, e1)]
    los = [(an, ad, True, e1)]
    for cn, cd, squared, e in rest:
        if squared:  # the pair (q*a1)^2/v
            los.append((qan * qan * cd, qad * qad * cn, True, 2 * e1 - e))
        else:  # q*a1/a
            los.append((qan * cd, qad * cn, False, e1 - e))
    return ups, los


def _termination(ups, qn, qd, cap: int = 128) -> int:
    """Smallest N with an upper entry of exponent 0 equal to q^(-N)."""
    pn = pd = 1  # q^(-n) = pn/pd
    for n in range(cap + 1):
        pn2, pd2 = pn * pn, pd * pd
        for cn, cd, squared, e in ups:
            if not e and ((cn * pd2 == cd * pn2) if squared else (cn * pd == cd * pn)):
                return n
        pn, pd = pn * qd, pd * qn
    raise UsageError("series does not terminate (no upper parameter q^-N found)")


def termination_order(spec: HypSeriesSpec, cap: int = 128) -> int:
    """Smallest N with an upper parameter equal to q^(-N)."""
    qn, qd = _split(spec.base)
    return _termination(_entries(spec, qn, qd)[0], qn, qd, cap)


def _factors(entries, powers):
    """prod of 1 - c*q^(n-1), or 1 - v*q^(2(n-1)) for a SqrtPair, over the
    entries, with powers = (q^(n-1), q^(2(n-1))) as pairs, as (num, den,
    order in e); None when a factor is exactly zero.  A factor that vanishes
    only at e = 0 is 1 - (1+e)^eps = -eps*e + O(e^2): order 1, leading
    coefficient -eps."""
    num = den = 1
    order = 0
    for cn, cd, squared, e in entries:
        pn, pd = powers[squared]
        b = cd * pd
        x = b - cn * pn
        if not x:
            if not e:
                return None
            x = -e * b
            order += 1
        num = num * x
        den = den * b
    return num, den, order


def _horner(ratios):
    """sum of the terms T_n = r_1*...*r_n, n = 0..N, from the last one down,
    as a pair; ratios[n-1] = (num, den, order) of r_n, with the order of T_n
    in e.  Only terms of order 0 count (T_0 = 1 always does)."""
    sn, sd = 0, 1
    for rn, rd, order in reversed(ratios):
        if not order:
            sn = sn + sd
        sn, sd = rn * sn, rd * sd
    return sn + sd, sd


def series_eval(spec: HypSeriesSpec, nterms: int | None = None):
    """Exact finite sum of a terminating series.

    Raises PoleError when a lower-parameter factor vanishes at an index where
    the numerator is still nonzero, or when a term of the limit (see eps) has
    a pole.
    """
    qn, qd = _split(spec.base)
    zn, zd = _split(spec.argument)
    ups, los = _entries(spec, qn, qd)
    N = _termination(ups, qn, qd) if nterms is None else nterms
    los.insert(0, (qn, qd, False, 0))  # the (q;q)_n factor
    ratios = []
    order = 0
    pn = pd = 1  # q^(n-1)
    for n in range(1, N + 1):
        powers = (pn, pd), (pn * pn, pd * pd)
        up = _factors(ups, powers)
        if up is None:
            break
        lo = _factors(los, powers)
        if lo is None or order + up[2] - lo[2] < 0:
            raise PoleError(f"lower-parameter factor vanishes at term {n}")
        order += up[2] - lo[2]
        ratios.append((up[0] * lo[1] * zn, up[1] * lo[0] * zd, order))
        pn, pd = pn * qn, pd * qd
    return _join(*_horner(ratios))


def is_vwp_balanced(spec: HypSeriesSpec) -> bool:
    """Balancing test (a4..a_{r+1}) z = (+-(a1 q)^(1/2))^(r-3), both signs."""
    if spec.kind != "W":
        raise UsageError("balancing is defined for W-series")
    a1 = spec.upper[0]
    npairs = sum(1 for a in spec.upper[1:] if isinstance(a, SqrtPair))
    r = (len(spec.upper) - 1) + npairs + 2
    prod = 1
    for a in spec.upper[1:]:
        if isinstance(a, SqrtPair):
            prod = prod * (-a.val)  # (+sqrt v)(-sqrt v)
        else:
            prod = prod * a
    lhs = prod * spec.argument
    return lhs * lhs == (a1 * spec.base) ** (r - 3)


# ---------------------------------------------------------------------------
# the transformation / summation identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformInstance:
    identity_id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.identity_id not in IDENTITY_IDS:
            raise UsageError(f"unknown identity {self.identity_id!r}")


def _phi(upper, lower, q, z, eps=()) -> HypSeriesSpec:
    return HypSeriesSpec(tuple(upper), tuple(lower), q, z, "phi", eps)


def _W(upper, q, z, eps=()) -> HypSeriesSpec:
    return HypSeriesSpec(tuple(upper), (), q, z, "W", eps)


def _check_watson(p):
    """Watson: 8W7 -> balanced 4phi3 [GR (2.5.1)]."""
    a, b, c, d, e, q, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["q"], p["n"]
    z = a * a * q ** (n + 2) / (b * c * d * e)
    lhs = series_eval(_W([a, b, c, d, e, q ** -n], q, z))
    pre = _qpoch_ratio([a * q, a * q / (d * e)], [a * q / d, a * q / e], q, n)
    rhs = pre * series_eval(_phi([q ** -n, d, e, a * q / (b * c)],
                                 [a * q / b, a * q / c, d * e * q ** -n / a], q, q))
    return lhs - rhs


def _check_saalschutz(p):
    """q-Saalschuetz summation of a balanced 3phi2 [GR (1.7.2)]."""
    a, b, c, q, n = p["a"], p["b"], p["c"], p["q"], p["n"]
    lhs = series_eval(_phi([a, b, q ** -n], [c, a * b * q ** (1 - n) / c], q, q))
    rhs = _qpoch_ratio([c / a, c / b], [c, c / (a * b)], q, n)
    return lhs - rhs


def _check_sum_6phi5(p):
    """Terminating 6W5 summation [GR (2.4.2)]."""
    a, b, c, q, n = p["a"], p["b"], p["c"], p["q"], p["n"]
    z = a * q ** (n + 1) / (b * c)
    lhs = series_eval(_W([a, b, c, q ** -n], q, z))
    rhs = _qpoch_ratio([a * q, a * q / (b * c)], [a * q / b, a * q / c], q, n)
    return lhs - rhs


def _sears_core(a, b, c, d, e, f, q, n):
    """Sears' balanced 4phi3 transformation, a^n form; needs def = abc q^(1-n)."""
    lhs = series_eval(_phi([q ** -n, a, b, c], [d, e, f], q, q))
    pre = _qpoch_ratio([e / a, f / a], [e, f], q, n) * a ** n
    rhs = pre * series_eval(_phi([q ** -n, a, d / b, d / c],
                                 [d, a * q ** (1 - n) / e, a * q ** (1 - n) / f], q, q))
    return lhs - rhs


def _check_sears_III15(p):
    a, b, c, d, e, q, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["q"], p["n"]
    f = a * b * c * q ** (1 - n) / (d * e)
    return _sears_core(a, b, c, d, e, f, q, n)


def _check_sears_2_10_4(p):
    # same Sears transformation, entered through the (e, f) side of the
    # balance condition (d is the determined parameter)
    a, b, c, e, f, q, n = p["a"], p["b"], p["c"], p["e"], p["f"], p["q"], p["n"]
    d = a * b * c * q ** (1 - n) / (e * f)
    return _sears_core(a, b, c, d, e, f, q, n)


def _check_sears_III16(p):
    """Sears' transformation, reversal form [GR (III.16)]."""
    a, b, c, d, e, q, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["q"], p["n"]
    f = a * b * c * q ** (1 - n) / (d * e)
    lhs = series_eval(_phi([q ** -n, a, b, c], [d, e, f], q, q))
    ef = e * f
    pre = _qpoch_ratio([a, ef / (a * b), ef / (a * c)], [e, f, ef / (a * b * c)], q, n)
    rhs = pre * series_eval(_phi([q ** -n, e / a, f / a, ef / (a * b * c)],
                                 [ef / (a * b), ef / (a * c), q ** (1 - n) / a], q, q))
    return lhs - rhs


def _check_ns_lemma(p):
    """(r+9)W(r+8) -> sum of (r+5)W(r+4), terminating regime."""
    a, f, q, z, theta = p["a"], p["f"], p["q"], p["z"], p["theta"]
    extra = tuple(p.get("extra", ()))
    lhs = series_eval(_W([a, q ** -theta, q ** theta * a * f, *extra,
                          SqrtPair(a * q / f), SqrtPair(a * q * q / f)], q, z))
    pre = _qpoch_ratio([a * q, f * f / q], [a * f, f], q, theta)
    ups, downs = [q / f, q ** -theta, a * q / f], [q, q ** (2 - theta) / (f * f), a * q]
    tot = 0
    for m in range(theta + 1):
        c = _qpoch_ratio(ups, downs, q, m) * q ** m
        inner = series_eval(_W([a, q ** -m, q ** m * a * q / f, *extra], q, z))
        tot = tot + c * inner
    return lhs - pre * tot


def _check_thm_2_2(p):
    """Very-well-poised balanced 12W11 -> 4phi3, under a*f = a2*a3.

    Both the 4phi3 form and its double-sum rewriting are checked; the
    residual is zero only when the W-series matches each of them.

    Both series are taken along f -> f*(1+e), with a3 = a*f/a2 following it;
    eps gives each parameter's exponent of (1+e).  At f = a*q^m a pair
    SqrtPair(a*q/f) or SqrtPair(a*q^2/f) of the W-series vanishes at the
    term where a lower factor q*a1/a does, and the term is their limit.
    """
    a, f, a2, a3, q, theta = p["a"], p["f"], p["a2"], p["a3"], p["q"], p["theta"]
    if not a * f == a2 * a3:
        raise UsageError("requires a*f = a2*a3")
    w = _W([a, q ** -theta, q ** theta * a * f, f, a2, a3,
            SqrtPair(a * q / f), SqrtPair(a * q * q / f)], q, q / f,
           eps=(0, 0, 1, 1, 0, 1, -1, -1))
    lhs = series_eval(w)
    pre = _qpoch_ratio([a * q, a3], [a * f, a * q / a2], q, theta)
    rhs = pre * series_eval(_phi(
        [q ** -theta, q ** -theta * a2 / a, f, a2],
        [q ** (1 - theta) * a2 / (a * f), q ** (1 - theta) / f, a * q / a3],
        q, q * q / (f * f), eps=(0, 0, 1, 0, -1, -1, -1)))
    r1 = lhs - rhs
    if r1 != 0:
        return r1
    pre2 = _qpoch_ratio([a * q, q], [a * f, f], q, theta)
    tot = 0
    for j in range(theta + 1):
        tot = tot + _qpoch_ratio([a3, f], [a * q / a2, q], q, theta - j) * \
            _qpoch_ratio([f, a2], [q, a * q / a3], q, j)
    return lhs - pre2 * tot


_CHECKERS = {
    "watson": _check_watson,
    "saalschutz": _check_saalschutz,
    "sears_III15": _check_sears_III15,
    "sears_III16": _check_sears_III16,
    "sears_2_10_4": _check_sears_2_10_4,
    "sum_6phi5": _check_sum_6phi5,
    "ns_lemma": _check_ns_lemma,
    "thm_2_2": _check_thm_2_2,
}

IDENTITY_IDS = tuple(sorted(_CHECKERS))


def verify_identity(inst: TransformInstance):
    """LHS - RHS of the tagged identity, exactly; zero when it holds."""
    return _CHECKERS[inst.identity_id](inst.params)


# ---------------------------------------------------------------------------
# the two multivariate transformation identities
# ---------------------------------------------------------------------------

def _power(n, d, e: int):
    """(n/d)^e as a pair."""
    return (n ** e, d ** e) if e >= 0 else (d ** -e, n ** -e)


def _poch_table(q, t):
    """(t^a q^b; q)_k as an unreduced pair, computed once per (a, b, k)."""
    qn, qd = _split(q)
    tn, td = _split(t)
    memo = {}

    def poch(a, b, k):
        if not k:
            return 1, 1
        hit = memo.get((a, b, k))
        if hit is None:
            (un, ud), (vn, vd) = _power(tn, td, a), _power(qn, qd, b)
            hit = memo[a, b, k] = _qpoch_pair(un * vn, ud * vd, qn, qd, k)
        return hit
    return poch


def _rhs_product_sum(n, K, m, q, t):
    """sum over compositions phi of K into n parts of
    prod_j (t;q)_phi_j (t;q)_{phi_j+m_j} / ((q;q)_phi_j (q;q)_{phi_j+m_j})."""
    poch = _poch_table(q, t)
    tot = (0, 1)
    for phi in _compositions(K, n):
        ks = [k for p, mj in zip(phi, m) for k in (p, p + mj)]
        tot = _add(tot, _quotient([poch(1, 0, k) for k in ks], [poch(0, 1, k) for k in ks]))
    return _join(*tot)


def verify_transform_II(n: int, K: int, m, q, t):
    """Composition-sum identity with an (n-1)+1-fold left side; residual LHS-RHS.

    Left side compositions are (phi_1..phi_{n-1}, i) summing to K; the right
    side is the plain product sum over compositions of K into n parts.
    poch(a, b, k) is (t^a q^b; q)_k.
    """
    if n < 2 or K < 0 or len(m) != n or any(x < 0 for x in m):
        raise UsageError("need n >= 2, K >= 0 and n nonnegative row shifts")
    mln = lambda l: sum(m[l - 1:n])
    poch = _poch_table(q, t)
    lhs = (0, 1)
    for comp in _compositions(K, n):
        phi, i = comp[:n - 1], comp[n - 1]
        s = 2 * K + mln(1) - 2 * i
        ups = [poch(1, 0, m[n - 1]), poch(1, 0, i), poch(n, s, i)]
        downs = [poch(0, 1, m[n - 1]), poch(0, 1, i), poch(n - 1, s + 1, i)]
        for l in range(1, n):
            pl = phi[l - 1]
            p2 = 2 * sum(phi[l:n - 1])
            ups += [poch(1, 0, pl), poch(1, 0, pl + m[l - 1]),
                    poch(n - l - 1, pl + p2 + mln(l) + 1, pl), poch(n - l, p2 + mln(l + 1), pl)]
            downs += [poch(0, 1, pl), poch(0, 1, pl + m[l - 1]),
                      poch(n - l, pl + p2 + mln(l), pl), poch(n - l - 1, p2 + mln(l + 1) + 1, pl)]
        lhs = _add(lhs, _quotient(ups, downs))
    return _join(*lhs) - _rhs_product_sum(n, K, m, q, t)


def verify_transform_III(n: int, K: int, m, q, t):
    """The companion identity whose left side carries the extra (t^2/q)^i sum."""
    if n < 2 or K < 0 or len(m) != n or any(x < 0 for x in m):
        raise UsageError("need n >= 2, K >= 0 and n nonnegative row shifts")
    mln = lambda l: sum(m[l - 1:n])
    poch = _poch_table(q, t)
    zn, zd = _split(t * t / q)
    lhs = (0, 1)
    for comp in _compositions(K, n + 1):
        phi, i = comp[:n], comp[n]
        s = 2 * K + mln(1) - 2 * i
        ups = [(zn ** i, zd ** i), poch(-1, 1, i), poch(n, s, i)]
        downs = [poch(0, 1, i), poch(n + 1, s, i)]
        for l in range(1, n + 1):
            pl = phi[l - 1]
            p2 = 2 * sum(phi[l:n])
            ups += [poch(1, 0, pl), poch(1, 0, pl + m[l - 1]),
                    poch(n - l + 1, pl + p2 + mln(l), pl), poch(n - l + 2, p2 + mln(l + 1) - 1, pl)]
            downs += [poch(0, 1, pl), poch(0, 1, pl + m[l - 1]),
                      poch(n - l + 2, pl + p2 + mln(l) - 1, pl), poch(n - l + 1, p2 + mln(l + 1), pl)]
        lhs = _add(lhs, _quotient(ups, downs))
    return _join(*lhs) - _rhs_product_sum(n, K, m, q, t)
