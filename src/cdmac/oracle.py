"""Test-only oracles: independent checks of the program's constructions.

Each function here recomputes something the program computes by another
road, so that a test can compare the two.  Nothing in the program imports
this module and the package does not export it.

  * g_series_from_product -- G_0..G_r from the Euler expansions of the
    generating product, against macdonald.g_series
    (tests/test_macdonald.py::test_g_series_against_product_expansion).
  * eigenvalue_bracket_form -- the Koornwinder eigenvalue in bracket form,
    against koornwinder.koornwinder_eigenvalue
    (tests/test_koornwinder.py::test_eigenvalue_two_bracket_forms_agree).
  * field_koornwinder_apply -- the Koornwinder operator with its products,
    sum and one-binomial divisions (field_divide_exact) all over the
    coefficient field, against koornwinder.koornwinder_apply, which runs
    them over the coefficient ring and divides with laurent.divide_exact
    (tests/test_koornwinder.py, tests/test_independence.py).  Both read the
    operator's binomials from koornwinder._directions.
  * field_qpoch, field_series_eval -- the q-shifted factorial and the
    terminating series with every step a field operation (a reduced
    Fraction for sampled input), against qseries.qpoch and
    qseries.series_eval, which run on unreduced integer pairs and build one
    Fraction at the end (tests/test_qseries.py, tests/test_independence.py).
    field_series_eval expands a W-series and finds the termination order
    with its own copies of the template and the search, and it evaluates at
    e = 0 directly: it knows no limit exponents (HypSeriesSpec.eps).
  * surviving_tuples -- the support of the full (2l)^r correlation
    enumeration, against the one-row tableaux that the 'tableau' path of
    walgebra.phi_principal enumerates
    (tests/test_walgebra.py::test_surviving_support_is_tableaux).
  * _dict_exact_div, _exact_poly_div -- the general exact division over
    Z[u, v, w], peeling the grlex-leading term of the remainder, against the
    lattice-line division poly.line_div
    (tests/test_poly.py::test_line_div_matches_grlex_oracle); prs_gcd and
    prs_lowest_terms divide with it.
  * prs_gcd -- the recursive primitive-PRS gcd over Z[u, v, w] (Brown,
    J. ACM 18 (1971)), against the lattice-line gcd poly.poly_gcd
    (tests/test_poly.py::test_binomial_gcd_matches_prs_oracle).
  * prs_lowest_terms -- a Scalar in lowest terms through prs_gcd against its
    whole denominator and _exact_poly_div, against Scalar.canonical, which
    takes poly.poly_gcd against one binomial at a time and divides by
    poly.line_div (tests/test_scalar.py, tests/test_independence.py).
  * cross_multiplied_eq -- equality of two Scalars by cross-multiplying
    their expanded denominators, with no use of den_factors, against the
    factored Scalar.__eq__ of two sum_factored results
    (tests/test_factored_eq.py, tests/test_independence.py).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, prod

from .errors import NonLaurentResultError, PoleError, UsageError
from .koornwinder import KoornwinderParams, _directions
from .laurent import LaurentPoly
from .poly import _MASK, _SHIFT_U, _SHIFT_V, SparsePoly, _grlex, _unpack
from .qseries import HypSeriesSpec, SqrtPair
from .scalar import Scalar, field_sqrt
from .walgebra import GammaTable, _kernel_product, _letter_tuples, _principal_spec


def g_series_from_product(n: int, r: int, q, t) -> list[LaurentPoly]:
    """Independent oracle: G_0..G_r from the four Euler expansions of the
    generating product, as truncated power series in u (sampled q, t)."""
    def euler_num(y: LaurentPoly) -> list[LaurentPoly]:
        # (z u; q)oo = sum_j (-1)^j q^(j(j-1)/2) / (q;q)_j (z u)^j, z = t*y
        out = []
        for j in range(r + 1):
            c = Fraction(-1) ** j * q ** (j * (j - 1) // 2)
            den = q ** 0
            for i in range(1, j + 1):
                den = den * (1 - q ** i)
            zj = LaurentPoly.one(n)
            for _ in range(j):
                zj = zj * y.scale(t)
            out.append(zj.scale(c / den))
        return out

    def euler_den(y: LaurentPoly) -> list[LaurentPoly]:
        # 1/(z u; q)oo = sum_j (z u)^j / (q;q)_j, z = y
        out = []
        for j in range(r + 1):
            den = q ** 0
            for i in range(1, j + 1):
                den = den * (1 - q ** i)
            zj = LaurentPoly.one(n)
            for _ in range(j):
                zj = zj * y
            out.append(zj.scale(1 / den))
        return out

    def series_mul(a, b):
        out = [LaurentPoly.zero(n) for _ in range(r + 1)]
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j in range(r + 1 - i):
                if not b[j].is_zero():
                    out[i + j] = out[i + j] + ai * b[j]
        return out

    acc = [LaurentPoly.one(n)] + [LaurentPoly.zero(n) for _ in range(r)]
    for i in range(n):
        for sign in (1, -1):
            y = LaurentPoly.monomial(n, tuple(sign if j == i else 0 for j in range(n)),
                                     Fraction(1))
            acc = series_mul(acc, euler_num(y))
            acc = series_mul(acc, euler_den(y))
    return acc


def eigenvalue_bracket_form(lam, kp: KoornwinderParams):
    """The same eigenvalue through <a b c d q^(-1) t^(2n-2j) q^(lambda_j)> <q^(lambda_j)>,
    <x> = x^(1/2) - x^(-1/2).  Used as a cross-check of the two displays."""
    n = len(lam)
    sqq = field_sqrt(kp.q)
    d = 0
    for j in range(1, n + 1):
        half1 = kp.alpha * kp.t ** (n - j) * sqq ** lam[j - 1]
        half2 = sqq ** lam[j - 1]
        d = d + (half1 - 1 / half1) * (half2 - 1 / half2)
    if isinstance(d, int):
        d = Scalar.zero() if isinstance(kp.q, Scalar) else Fraction(0)
    return d


# ---------------------------------------------------------------------------
# the Koornwinder operator over the coefficient field
# ---------------------------------------------------------------------------

def _field_times(p: LaurentPoly, c, e) -> LaurentPoly:
    """p * (1 - c x^e)."""
    nc = -c
    return p + LaurentPoly(p.rank, {tuple(x + y for x, y in zip(f, e)): nc * v
                                    for f, v in p.terms.items()})


def _field_clear_denominators(p: LaurentPoly):
    """Factor p as (1/D) * p_cleared with polynomial Scalar coefficients.

    Scalar addition never gcd-reduces, so letting fractions meet inside the
    big operator products compounds denominators; the operator commutes with
    the x-independent factor D, so it is cleared up front instead.  D is the
    product of the distinct denominators; each cofactor D / den is the
    product of the others.
    """
    # a Scalar's den is primitive with content 1, so each one is its own key
    dens = list(dict.fromkeys(c.den for c in p.terms.values()
                              if isinstance(c, Scalar) and not c.den.is_monomial()))
    if not dens:
        return None, p
    cofs = {d: prod((o for o in dens if o != d), start=SparsePoly.one()) for d in dens}
    D = prod(dens, start=SparsePoly.one())
    out = {}
    for e, c in p.terms.items():
        if isinstance(c, Scalar) and not c.den.is_monomial():
            out[e] = Scalar(c.num * cofs[c.den])
        else:
            out[e] = c * Scalar(D)
    return Scalar(D), LaurentPoly(p.rank, out)


def field_divide_exact(p: LaurentPoly, c, e: tuple[int, ...]) -> LaurentPoly:
    """Exact division p / (1 - c x^e) by one binomial: c != 0, e lexicographically positive.

    Quotient terms are peeled off in increasing lexicographic order.  An
    exact quotient lies in p's exponent box shrunk by the segment [0, e], so
    a quotient term outside it means a remainder: NonLaurentResultError.
    """
    n = p.rank
    if p.is_zero():
        return p
    lo = [min(f[k] for f in p.terms) - min(e[k], 0) for k in range(n)]
    hi = [max(f[k] for f in p.terms) - max(e[k], 0) for k in range(n)]
    rem = dict(p.terms)
    heap = list(rem)
    heapify(heap)
    quo = {}
    while heap:
        m = heappop(heap)
        qc = rem.pop(m, 0)
        if not qc:
            continue
        if any(not lo[k] <= m[k] <= hi[k] for k in range(n)):
            raise NonLaurentResultError("denominators do not clear: remainder left")
        quo[m] = qc
        g = tuple(x + y for x, y in zip(m, e))
        if g not in rem:
            heappush(heap, g)
        s = rem.get(g, 0) + c * qc
        if s:
            rem[g] = s
        else:
            rem.pop(g, None)
    return LaurentPoly(n, quo)


def field_koornwinder_apply(p: LaurentPoly, kp: KoornwinderParams) -> LaurentPoly:
    """Apply the q-difference operator D_x to p, exactly.

    Direction (i, sign) contributes (shifted p - p) times its numerator
    binomials over its pole binomials.  Each pole binomial is normalized up to
    a monomial unit to a lexicographically positive exponent; the distinct
    normalized binomials form the least common denominator.  The sum over it
    is divided back by one binomial at a time.
    """
    D, cleared = _field_clear_denominators(p)
    if D is not None:
        return field_koornwinder_apply(cleared, kp).scale(Scalar.one() / D)
    n = p.rank
    zero = (0,) * n
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
    total = LaurentPoly.zero(n)
    for i, sg, num, own, unit_c, unit_e in plans:
        part = p.shift_variable(i, kp.q ** sg) - p
        if part.is_zero():
            continue
        # only q = 1 repeats a pole binomial within one direction, and then
        # no direction gets this far: the lcd needs no multiplicities
        for c, e in num + [f for f in lcd if f not in own]:
            part = _field_times(part, c, e)
        total = total + LaurentPoly(n, {tuple(x - y for x, y in zip(f, unit_e)): v / unit_c
                                        for f, v in part.terms.items()})
    for c, e in lcd:
        total = field_divide_exact(total, c, e)
    return total.scale(1 / (kp.alpha * kp.t ** (n - 1)))


def field_qpoch(z, q, k: int):
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


def _field_expand_w(spec: HypSeriesSpec) -> HypSeriesSpec:
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


def _field_termination_order(spec: HypSeriesSpec, cap: int = 128) -> int:
    """Smallest N with an upper parameter equal to q^(-N)."""
    spec = _field_expand_w(spec)
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


def field_series_eval(spec: HypSeriesSpec, nterms: int | None = None):
    """Exact finite sum of a terminating series.

    Raises PoleError when a lower-parameter factor vanishes at an index where
    the numerator is still nonzero.
    """
    spec = _field_expand_w(spec)
    q = spec.base
    z = spec.argument
    N = _field_termination_order(spec) if nterms is None else nterms
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


def surviving_tuples(family: str, l: int, r: int, budget: int = 50000) -> set:
    """Support of the full enumeration: tuples whose kernel product is nonzero."""
    spec = _principal_spec(family, l, r)
    table = GammaTable(family, l, spec.q, spec.t)
    return {eps for eps in _letter_tuples(l, r, budget)
            if _kernel_product(table, eps, spec.z)}


# ---------------------------------------------------------------------------
# grlex exact division over Z[u, v, w], in packed form
# ---------------------------------------------------------------------------

def _dict_exact_div(num: dict[int, int], den: dict[int, int], var: int) -> dict[int, int]:
    """Exact division of packed integer polynomials (den divides num).

    Raises ArithmeticError when den does not divide num, so it doubles as a
    divisibility test.
    """
    if not num:
        return {}
    if den == {0: 1}:
        return dict(num)
    rem = dict(num)
    quo: dict[int, int] = {}
    dl = max(den, key=_grlex)
    dc = den[dl]
    while rem:
        rl = max(rem, key=_grlex)
        qk = rl - dl
        eu, ev, ew = _unpack(rl)
        du, dv, dw = _unpack(dl)
        if eu < du or ev < dv or ew < dw or rem[rl] % dc:
            raise ArithmeticError("not an exact divisor")
        qc = rem[rl] // dc
        quo[qk] = qc
        for k, c in den.items():
            kk = k + qk
            s = rem.get(kk, 0) - qc * c
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return quo


def _exact_poly_div(num: SparsePoly, den: SparsePoly) -> SparsePoly:
    q = _dict_exact_div(num.prim, den.prim, 0)
    return SparsePoly(num.content / den.content, q)


# ---------------------------------------------------------------------------
# primitive-PRS gcd over Z[u, v, w], in packed form
# ---------------------------------------------------------------------------

def _split_by_var(terms: dict[int, int], var: int):
    """Group a packed term dict by the exponent of one generator."""
    shifts = (_SHIFT_U, _SHIFT_V, 0)
    out: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        e = (key >> shifts[var]) & _MASK if var < 2 else key & _MASK
        rest = key - (e << shifts[var] if var < 2 else e)
        out.setdefault(e, {})[rest] = c
    return out


def _join_by_var(coeffs: dict[int, dict[int, int]], var: int) -> dict[int, int]:
    shifts = (_SHIFT_U, _SHIFT_V, 0)
    out: dict[int, int] = {}
    for e, sub in coeffs.items():
        for rest, c in sub.items():
            out[rest + (e << shifts[var] if var < 2 else e)] = c
    return out


def _dict_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _dict_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _gcd_packed(a: dict[int, int], b: dict[int, int], var: int = 0) -> dict[int, int]:
    """Primitive-PRS gcd of integer polynomials in packed form."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    if var == 3:
        # both are pure integers living at key 0
        return {0: gcd(a.get(0, 0), b.get(0, 0))}
    av = _split_by_var(a, var)
    bv = _split_by_var(b, var)
    if len(av) == 1 and 0 in av and len(bv) == 1 and 0 in bv:
        return _gcd_packed(a, b, var + 1)

    def content(sv):
        g: dict[int, int] = {}
        for sub in sv.values():
            g = _gcd_packed(g, sub, var + 1)
        return g

    def primitive(sv, cont):
        out = {}
        for e, sub in sv.items():
            q = _dict_exact_div(sub, cont, var + 1)
            out[e] = q
        return out

    ca, cb = content(av), content(bv)
    pa, pb = primitive(av, ca), primitive(bv, cb)
    # primitive PRS on the main variable
    while True:
        if not pb:
            g = pa
            break
        da, db = max(pa), max(pb)
        if da < db:
            pa, pb = pb, pa
            continue
        lb = pb[db]
        # pseudo-reduce pa by pb until its degree drops below db
        work = pa
        while work and max(work) >= db:
            dw = max(work)
            lw = work[dw]
            scaled = {e: _dict_mul(sub, lb) for e, sub in work.items()}
            shift = {e + dw - db: _dict_mul(sub, lw) for e, sub in pb.items()}
            nxt: dict[int, dict[int, int]] = {}
            for e in set(scaled) | set(shift):
                s = _dict_sub(scaled.get(e, {}), shift.get(e, {}))
                if s:
                    nxt[e] = s
            work = nxt
        if not work:
            g = pb
            break
        cw = content(work)
        pa, pb = pb, primitive(work, cw)
    cg = _gcd_packed(ca, cb, var + 1)
    return _join_by_var({e: _dict_mul(sub, cg) for e, sub in g.items()}, var)


def prs_gcd(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """gcd of the primitive parts of any two polynomials (content ignored)."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    g = _gcd_packed(a.prim, b.prim, 0)
    return SparsePoly(Fraction(1), g)


def prs_lowest_terms(c: Scalar) -> Scalar:
    """c in lowest terms, by prs_gcd against its whole denominator."""
    g = prs_gcd(c.num, c.den.shift(tuple(-e for e in c.den.min_exps())))
    return Scalar(_exact_poly_div(c.num, g), _exact_poly_div(c.den, g))


def cross_multiplied_eq(a: Scalar, b: Scalar) -> bool:
    """a == b as a.num * b.den == b.num * a.den, whatever a and b carry."""
    return a.num * b.den == b.num * a.den
