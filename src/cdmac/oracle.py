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
"""

from __future__ import annotations

from fractions import Fraction

from .koornwinder import KoornwinderParams
from .laurent import LaurentPoly
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
