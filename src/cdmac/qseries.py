"""Terminating basic hypergeometric series and the transformation identities.

Everything here is duck-typed over an exact field: plain Fractions for
sampled verification, Scalar for symbolic work.  A very-well-poised series is
stored by its defining parameters (a1; a4, ..., a_{r+1}) and expanded to its
phi form through the standard template

    (r+1)W_r(a1; a4..a_{r+1}; q, z)
      = (r+1)phi_r[a1, q*sqrt(a1), -q*sqrt(a1), a4, ..  ;
                   sqrt(a1), -sqrt(a1), q*a1/a4, .. ; q, z].

Radical parameters only ever occur in +/- pairs, so a pair is kept as one
atomic SqrtPair(v) entry meaning the two parameters +sqrt(v) and -sqrt(v);
its q-shifted factorial is the exact rational product
(sqrt(v);q)_k * (-sqrt(v);q)_k = (v;q^2)_k.  No radicals are ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PoleError, UsageError
from .tableaux import _compositions


def qpoch(z, q, k: int):
    """q-shifted factorial (z;q)_k, k any integer.

    k >= 0: prod_{j=0}^{k-1} (1 - q^j z);  k < 0: 1 / prod_{j=1}^{-k} (1 - z/q^j).
    """
    one = q ** 0
    if k >= 0:
        out = one
        zj = z
        for _ in range(k):
            out = out * (1 - zj)
            zj = zj * q
        return out
    out = one
    zj = z
    for _ in range(-k):
        zj = zj / q
        f = 1 - zj
        if f == 0:
            raise PoleError("vanishing factor in a negative-index q-shifted factorial")
        out = out * f
    return one / out


def qpoch_multi(zs, q, k: int):
    """(z1, z2, ...; q)_k = prod of (z_i; q)_k."""
    out = q ** 0
    for z in zs:
        out = out * qpoch(z, q, k)
    return out


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
    """
    upper: tuple
    lower: tuple
    base: object
    argument: object
    kind: str = "phi"  # 'phi' | 'W'

    def __post_init__(self):
        if self.kind not in ("phi", "W"):
            raise UsageError(f"unknown series kind {self.kind!r}")
        if self.kind == "W" and self.lower:
            raise UsageError("W-series carry no explicit lower parameters")


def expand_w(spec: HypSeriesSpec) -> HypSeriesSpec:
    """Rewrite an (r+1)W_r spec as its (r+1)phi_r template."""
    if spec.kind != "W":
        return spec
    q = spec.base
    a1 = spec.upper[0]
    rest = spec.upper[1:]
    up = [a1, SqrtPair(q * q * a1)]
    lo = [SqrtPair(a1)]
    qa1 = q * a1
    for a in rest:
        up.append(a)
        if isinstance(a, SqrtPair):
            lo.append(SqrtPair(qa1 * qa1 / a.val))
        else:
            lo.append(qa1 / a)
    return HypSeriesSpec(tuple(up), tuple(lo), q, spec.argument, "phi")


def termination_order(spec: HypSeriesSpec, cap: int = 128) -> int:
    """Smallest N with an upper parameter equal to q^(-N)."""
    spec = expand_w(spec)
    q = spec.base
    pw = 1
    for n in range(cap + 1):
        for u in spec.upper:
            if isinstance(u, SqrtPair):
                if u.val == pw * pw:
                    return n
            elif u == pw:
                return n
        pw = pw / q
    raise UsageError("series does not terminate (no upper parameter q^-N found)")


def series_eval(spec: HypSeriesSpec, nterms: int | None = None):
    """Exact finite sum of a terminating series.

    Raises PoleError when a lower-parameter factor vanishes at an index where
    the numerator is still nonzero.
    """
    spec = expand_w(spec)
    q = spec.base
    z = spec.argument
    N = termination_order(spec) if nterms is None else nterms
    one = q ** 0
    total = 0
    num = one
    den = one
    zpow = one
    qn = one    # q^(n-1) while processing term n
    q2n = one   # q^(2(n-1))
    for n in range(N + 1):
        if n > 0:
            for u in spec.upper:
                if isinstance(u, SqrtPair):
                    num = num * (1 - q2n * u.val)
                else:
                    num = num * (1 - qn * u)
            if num == 0:
                break
            den_step = 1 - qn * q  # the (q;q)_n factor
            for l in spec.lower:
                if isinstance(l, SqrtPair):
                    den_step = den_step * (1 - q2n * l.val)
                else:
                    den_step = den_step * (1 - qn * l)
            if den_step == 0:
                raise PoleError(f"lower-parameter factor vanishes at term {n}")
            den = den * den_step
            zpow = zpow * z
            qn = qn * q
            q2n = q2n * q * q
        total = total + num / den * zpow
    return total


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


def _phi(upper, lower, q, z) -> HypSeriesSpec:
    return HypSeriesSpec(tuple(upper), tuple(lower), q, z, "phi")


def _W(upper, q, z) -> HypSeriesSpec:
    return HypSeriesSpec(tuple(upper), (), q, z, "W")


def _check_watson(p):
    """Watson: 8W7 -> balanced 4phi3 [GR (2.5.1)]."""
    a, b, c, d, e, q, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["q"], p["n"]
    z = a * a * q ** (n + 2) / (b * c * d * e)
    lhs = series_eval(_W([a, b, c, d, e, q ** -n], q, z))
    pre = qpoch_multi([a * q, a * q / (d * e)], q, n) / qpoch_multi([a * q / d, a * q / e], q, n)
    rhs = pre * series_eval(_phi([q ** -n, d, e, a * q / (b * c)],
                                 [a * q / b, a * q / c, d * e * q ** -n / a], q, q))
    return lhs - rhs


def _check_saalschutz(p):
    """q-Saalschuetz summation of a balanced 3phi2 [GR (1.7.2)]."""
    a, b, c, q, n = p["a"], p["b"], p["c"], p["q"], p["n"]
    lhs = series_eval(_phi([a, b, q ** -n], [c, a * b * q ** (1 - n) / c], q, q))
    rhs = qpoch_multi([c / a, c / b], q, n) / qpoch_multi([c, c / (a * b)], q, n)
    return lhs - rhs


def _check_sum_6phi5(p):
    """Terminating 6W5 summation [GR (2.4.2)]."""
    a, b, c, q, n = p["a"], p["b"], p["c"], p["q"], p["n"]
    z = a * q ** (n + 1) / (b * c)
    lhs = series_eval(_W([a, b, c, q ** -n], q, z))
    rhs = qpoch_multi([a * q, a * q / (b * c)], q, n) / \
        qpoch_multi([a * q / b, a * q / c], q, n)
    return lhs - rhs


def _sears_core(a, b, c, d, e, f, q, n):
    """Sears' balanced 4phi3 transformation, a^n form; needs def = abc q^(1-n)."""
    lhs = series_eval(_phi([q ** -n, a, b, c], [d, e, f], q, q))
    pre = qpoch_multi([e / a, f / a], q, n) / qpoch_multi([e, f], q, n) * a ** n
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
    pre = qpoch_multi([a, ef / (a * b), ef / (a * c)], q, n) / \
        qpoch_multi([e, f, ef / (a * b * c)], q, n)
    rhs = pre * series_eval(_phi([q ** -n, e / a, f / a, ef / (a * b * c)],
                                 [ef / (a * b), ef / (a * c), q ** (1 - n) / a], q, q))
    return lhs - rhs


def _check_ns_lemma(p):
    """(r+9)W(r+8) -> sum of (r+5)W(r+4), terminating regime."""
    a, f, q, z, theta = p["a"], p["f"], p["q"], p["z"], p["theta"]
    extra = tuple(p.get("extra", ()))
    lhs = series_eval(_W([a, q ** -theta, q ** theta * a * f, *extra,
                          SqrtPair(a * q / f), SqrtPair(a * q * q / f)], q, z))
    pre = qpoch_multi([a * q, f * f / q], q, theta) / qpoch_multi([a * f, f], q, theta)
    tot = 0
    for m in range(theta + 1):
        c = qpoch_multi([q / f, q ** -theta, a * q / f], q, m) / \
            qpoch_multi([q, q ** (2 - theta) / (f * f), a * q], q, m) * q ** m
        inner = series_eval(_W([a, q ** -m, q ** m * a * q / f, *extra], q, z))
        tot = tot + c * inner
    return lhs - pre * tot


def _check_thm_2_2(p):
    """Very-well-poised balanced 12W11 -> 4phi3, under a*f = a2*a3.

    Both the 4phi3 form and its double-sum rewriting are checked; the
    residual is zero only when the W-series matches each of them.
    """
    a, f, a2, a3, q, theta = p["a"], p["f"], p["a2"], p["a3"], p["q"], p["theta"]
    if not a * f == a2 * a3:
        raise UsageError("requires a*f = a2*a3")
    w = _W([a, q ** -theta, q ** theta * a * f, f, a2, a3,
            SqrtPair(a * q / f), SqrtPair(a * q * q / f)], q, q / f)
    lhs = series_eval(w)
    pre = qpoch_multi([a * q, a * f / a2], q, theta) / qpoch_multi([a * f, a * q / a2], q, theta)
    rhs = pre * series_eval(_phi(
        [q ** -theta, q ** -theta * a2 / a, f, a2],
        [q ** (1 - theta) * a2 / (a * f), q ** (1 - theta) / f, a * q / a3],
        q, q * q / (f * f)))
    r1 = lhs - rhs
    if r1 != 0:
        return r1
    pre2 = qpoch_multi([a * q, q], q, theta) / qpoch_multi([a * f, f], q, theta)
    tot = 0
    for j in range(theta + 1):
        tot = tot + qpoch_multi([a * f / a2, f], q, theta - j) * qpoch_multi([f, a2], q, j) / \
            (qpoch_multi([a * q / a2, q], q, theta - j) * qpoch_multi([q, a * q / a3], q, j))
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

def _ratio_tt_qq(q, t, k: int, m: int):
    """(t;q)_k (t;q)_{k+m} / ((q;q)_k (q;q)_{k+m})."""
    return qpoch(t, q, k) * qpoch(t, q, k + m) / (qpoch(q, q, k) * qpoch(q, q, m + k))


def _rhs_product_sum(n, K, m, q, t):
    tot = 0
    for phi in _compositions(K, n):
        term = 1
        for j in range(n):
            term = term * _ratio_tt_qq(q, t, phi[j], m[j])
        tot = tot + term
    return tot


def verify_transform_II(n: int, K: int, m, q, t):
    """Composition-sum identity with an (n-1)+1-fold left side; residual LHS-RHS.

    Left side compositions are (phi_1..phi_{n-1}, i) summing to K; the right
    side is the plain product sum over compositions of K into n parts.
    """
    if n < 2 or K < 0 or len(m) != n or any(x < 0 for x in m):
        raise UsageError("need n >= 2, K >= 0 and n nonnegative row shifts")
    mln = lambda l: sum(m[l - 1:n])
    lhs = 0
    for comp in _compositions(K, n):
        phi, i = comp[:n - 1], comp[n - 1]
        term = 1
        for l in range(1, n):
            pl = phi[l - 1]
            p2 = 2 * sum(phi[l:n - 1])
            term = term * _ratio_tt_qq(q, t, pl, m[l - 1])
            term = term * qpoch(t ** (n - l - 1) * q ** (pl + p2 + mln(l) + 1), q, pl) \
                * qpoch(t ** (n - l) * q ** (p2 + mln(l + 1)), q, pl) \
                / (qpoch(t ** (n - l) * q ** (pl + p2 + mln(l)), q, pl)
                   * qpoch(t ** (n - l - 1) * q ** (p2 + mln(l + 1) + 1), q, pl))
        term = term * qpoch(t, q, m[n - 1]) / qpoch(q, q, m[n - 1])
        term = term * qpoch(t, q, i) * qpoch(t ** n * q ** (2 * K + mln(1) - 2 * i), q, i) \
            / (qpoch(q, q, i) * qpoch(t ** (n - 1) * q ** (2 * K + mln(1) - 2 * i + 1), q, i))
        lhs = lhs + term
    return lhs - _rhs_product_sum(n, K, m, q, t)


def verify_transform_III(n: int, K: int, m, q, t):
    """The companion identity whose left side carries the extra (t^2/q)^i sum."""
    if n < 2 or K < 0 or len(m) != n or any(x < 0 for x in m):
        raise UsageError("need n >= 2, K >= 0 and n nonnegative row shifts")
    mln = lambda l: sum(m[l - 1:n])
    lhs = 0
    for comp in _compositions(K, n + 1):
        phi, i = comp[:n], comp[n]
        term = 1
        for k in range(n):
            term = term * _ratio_tt_qq(q, t, phi[k], m[k])
        term = term * (t * t / q) ** i * qpoch(q / t, q, i) \
            * qpoch(t ** n * q ** (2 * K + mln(1) - 2 * i), q, i) \
            / (qpoch(q, q, i) * qpoch(t ** (n + 1) * q ** (2 * K + mln(1) - 2 * i), q, i))
        for l in range(1, n + 1):
            pl = phi[l - 1]
            p2 = 2 * sum(phi[l:n])
            term = term * qpoch(t ** (n - l + 1) * q ** (pl + p2 + mln(l)), q, pl) \
                * qpoch(t ** (n - l + 2) * q ** (p2 + mln(l + 1) - 1), q, pl) \
                / (qpoch(t ** (n - l + 2) * q ** (pl + p2 + mln(l) - 1), q, pl)
                   * qpoch(t ** (n - l + 1) * q ** (p2 + mln(l + 1)), q, pl))
        lhs = lhs + term
    return lhs - _rhs_product_sum(n, K, m, q, t)
