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
from math import gcd

from .koornwinder import KoornwinderParams
from .laurent import LaurentPoly
from .poly import _MASK, _SHIFT_U, _SHIFT_V, SparsePoly, _grlex, _unpack
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
