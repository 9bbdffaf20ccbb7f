from collections import Counter
from fractions import Fraction as F

import pytest

from cdmac import macdonald, scalar, walgebra
from cdmac.errors import UsageError
from cdmac.laurent import LaurentPoly
from cdmac.macdonald import (T_SPECIAL, g_series, lassalle_expand,
                             lassalle_invert, principal_closed_form,
                             principal_point, principal_specialize,
                             tableau_poly, tableau_poly_C_general,
                             tableau_poly_C_special, tableau_poly_D)
from cdmac.oracle import g_series_from_product
from cdmac.poly import Mon, SparsePoly
from cdmac.qseries import qpoch
from cdmac.scalar import FactoredScalar, Scalar

T = Scalar.from_mon(Mon.t())
Q = Scalar.from_mon(Mon.q())
ONE = Scalar.one()


def tq_ratio(k):
    """(t;q)_k / (q;q)_k as a Scalar."""
    return FactoredScalar().times_poch(Mon.t(), k).div_poch(Mon.q(), k).to_scalar()


# -- generating series ---------------------------------------------------------

def test_g0_is_one():
    assert g_series(2, 0) == LaurentPoly.one(2, ONE)


def test_g1_rank_one():
    g = g_series(1, 1)
    c = (1 - T) / (1 - Q)
    assert g == LaurentPoly(1, {(1,): c, (-1,): c})


def test_g2_center_coefficient():
    # single tableau theta_1 = theta_1bar = 1 contributes ((1-t)/(1-q))^2
    g = g_series(1, 2)
    assert g.coefficient((0,)) == ((1 - T) / (1 - Q)) ** 2


@pytest.mark.parametrize("n", [1, 2])
def test_g_series_against_product_expansion(n):
    # independent oracle: Euler-expanded generating product at sampled q,t
    # (generators evaluated at u, v with q = u^2, t = v^2)
    u, v = F(2, 7), F(3, 5)
    q, t = u * u, v * v
    r = 4
    oracle = g_series_from_product(n, r, q, t)
    for k in range(r + 1):
        direct = g_series(n, k).map_coefficients(lambda c: c.eval(u, v, F(1)))
        assert direct == oracle[k]


# -- tableau sums ----------------------------------------------------------------

@pytest.mark.parametrize("r", range(5))
def test_type_d_rank_one_closed_form(r):
    expect = LaurentPoly(1, {(r,): ONE, (-r,): ONE} if r else {(0,): ONE})
    assert tableau_poly_D(1, r) == expect


def test_r0_is_one():
    assert tableau_poly_D(3, 0) == LaurentPoly.one(3, ONE)
    assert tableau_poly_C_special(2, 0) == LaurentPoly.one(2, ONE)
    assert tableau_poly_C_general(2, 0, Mon.T()) == LaurentPoly.one(2, ONE)


@pytest.mark.parametrize("r", range(4))
def test_type_d_rank_two_splits_as_two_rank_one_factors(r):
    # P^(D_2) in x1, x2 equals the product of two rank-one polynomials in
    # x1^(1/2) x2^(-1/2) and x1^(1/2) x2^(1/2)
    pref = FactoredScalar().times_poch(Mon.q(), r).div_poch(Mon.t(), r).to_scalar()
    prod: dict[tuple, Scalar] = {}
    for mu in range(r + 1):
        for nu in range(r + 1):
            c = pref * pref * tq_ratio(mu) * tq_ratio(r - mu) * tq_ratio(nu) * tq_ratio(r - nu)
            e = (mu + nu - r, nu - mu)
            if e in prod:
                prod[e] = prod[e] + c
            else:
                prod[e] = c
    assert tableau_poly_D(2, r) == LaurentPoly(2, prod)


def test_type_c_rank_one_row_one():
    assert tableau_poly_C_special(1, 1) == LaurentPoly(1, {(1,): ONE, (-1,): ONE})


@pytest.mark.parametrize("r", range(5))
def test_type_c_rank_one_series_form(r):
    # x^-r * 2phi1[t^2/q, q^-r; t^-2 q^(2-r); q, (qx/t)^2] coefficientwise
    p = tableau_poly_C_special(1, r)
    a = Scalar.from_mon(Mon.t(2) * Mon.q(-1))
    b = Scalar.from_mon(Mon.q(-r))
    c = Scalar.from_mon(Mon.t(-2) * Mon.q(2 - r))
    q = Q
    ratio = Scalar.from_mon(Mon.q(2) * Mon.t(-2))  # (q/t)^2
    for k in range(r + 1):
        coeff = qpoch(a, q, k) * qpoch(b, q, k) / (qpoch(q, q, k) * qpoch(c, q, k)) \
            * ratio ** k
        assert p.coefficient((-r + 2 * k,)) == coeff


@pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (2, 3)])
def test_type_c_general_at_special_value(n, r):
    assert tableau_poly_C_general(n, r, T_SPECIAL) == tableau_poly_C_special(n, r)


def test_type_c_row_one_is_t_independent():
    # theta = min(theta_n, theta_nbar) = 0 for r = 1, so (T;q)_0 = 1
    assert tableau_poly_C_general(2, 1, Mon.T()) == tableau_poly_C_special(2, 1)


def test_family_d_equals_family_c_at_one():
    # both sides run the free-T generator, over the D and the C alphabet, so
    # this checks only that the C terms with theta > 0 vanish at T = 1
    for (n, r) in [(1, 2), (2, 2), (2, 3)]:
        assert tableau_poly_D(n, r) == tableau_poly_C_general(n, r, F(1))


def test_no_tableau_route_builds_an_empty_q_factorial(monkeypatch):
    # (z;q)_0 = 1, so a term skips each block of length 0: a tableau with
    # theta = 0, every D tableau among them, builds no degenerate-pair block
    empty = []
    for name in ("times_poch", "div_poch"):
        def counted(self, z, k, real=getattr(FactoredScalar, name)):
            if k == 0:
                empty.append(z)
            return real(self, z, k)
        monkeypatch.setattr(FactoredScalar, name, counted)
    counts = {}
    for label, build in (("D", lambda: tableau_poly("D", 3, 4)),
                         ("C t^2/q", lambda: tableau_poly("C", 3, 4, T_SPECIAL)),
                         ("C symbolic", lambda: tableau_poly("C", 2, 3, Mon.T())),
                         ("C 5/7", lambda: tableau_poly("C", 2, 3, F(5, 7))),
                         ("C general at t^2/q", lambda: tableau_poly_C_general(2, 3, T_SPECIAL))):
        empty.clear()
        build()
        counts[label] = len(empty)
    assert counts == dict.fromkeys(counts, 0)


def test_tableau_outputs_are_hyperoctahedral():
    assert tableau_poly_D(2, 2).hyperoctahedral_check()
    assert tableau_poly_C_special(2, 3).hyperoctahedral_check()
    assert tableau_poly_C_general(3, 2, Mon.T()).hyperoctahedral_check()


def test_rewriting_identity_two_product_forms():
    # (X;q)_b (q^a Y;q)_b / ((Y;q)_b (q^a X;q)_b)
    #   = (X;q)_a (X;q)_b (Y;q)_{a+b} / ((Y;q)_a (Y;q)_b (X;q)_{a+b})
    # for the sign-flip invariance of the type-D sum
    for n, r, l in [(2, 3, 1), (3, 3, 1), (3, 3, 2)]:
        from cdmac.tableaux import Alphabet, enumerate_tableaux
        for tab in enumerate_tableaux(Alphabet("D", n), r):
            th = tab.theta
            a_, b_ = th[l - 1], th[2 * n - l]
            Sp = sum(th[l:2 * n - l])
            X = Scalar.from_mon(Mon.t(n - l) * Mon.q(Sp))
            Y = Scalar.from_mon(Mon.t(n - l - 1) * Mon.q(Sp + 1))
            lhs = qpoch(X, Q, b_) * qpoch(Q ** a_ * Y, Q, b_) / \
                (qpoch(Y, Q, b_) * qpoch(Q ** a_ * X, Q, b_))
            rhs = qpoch(X, Q, a_) * qpoch(X, Q, b_) * qpoch(Y, Q, a_ + b_) / \
                (qpoch(Y, Q, a_) * qpoch(Y, Q, b_) * qpoch(X, Q, a_ + b_))
            assert lhs == rhs


# -- inversion route --------------------------------------------------------------

def test_invert_r0():
    assert lassalle_invert("D", 2, 0) == LaurentPoly.one(2, ONE)
    assert lassalle_invert("C", 2, 0, T_SPECIAL) == LaurentPoly.one(2, ONE)


def test_invert_d1_r2():
    assert lassalle_invert("D", 1, 2) == LaurentPoly(1, {(2,): ONE, (-2,): ONE})


def test_invert_matches_tableau_d2_r3():
    assert lassalle_invert("D", 2, 3) == tableau_poly_D(2, 3)


def test_expand_r0_r1():
    assert lassalle_expand("D", 2, 0, {0: tableau_poly_D(2, 0)}) == g_series(2, 0)
    assert lassalle_expand("D", 2, 1, {1: tableau_poly_D(2, 1)}) == g_series(2, 1)


def test_expand_d2_r4_full_symbolic():
    fam = {row: tableau_poly_D(2, row) for row in range(5)}
    assert (lassalle_expand("D", 2, 4, fam) - g_series(2, 4)).is_zero()


def test_expand_missing_row():
    with pytest.raises(UsageError):
        lassalle_expand("D", 2, 2, {2: tableau_poly_D(2, 2)})


def test_family_guards():
    with pytest.raises(UsageError):
        lassalle_invert("D", 2, 1, Mon.T())
    assert lassalle_invert("C", 2, 1) == lassalle_invert("C", 2, 1, T_SPECIAL)
    with pytest.raises(UsageError):
        tableau_poly("D", 2, 1, Mon.T())
    # a family other than C and D is refused on every route
    for build in (lambda: tableau_poly("X", 2, 1), lambda: lassalle_invert("X", 1, 2),
                  lambda: principal_specialize("X", 2, 1),
                  lambda: walgebra.phi_principal("X", 1, 2, path="full"),
                  lambda: walgebra.phi_principal("X", 1, 2, path="tableau"),
                  lambda: walgebra.correlation_F(
                      walgebra.CorrelationSpec("X", 1, (F(3, 4),), F(2, 7), F(3, 5)))):
        with pytest.raises(UsageError, match="unknown family"):
            build()


# -- principal specialization -------------------------------------------------------

def test_principal_point_shapes():
    pts = principal_point("D", 3)
    assert pts[0] == T * T and pts[2] == 1
    pts = principal_point("C", 2, T_SPECIAL)
    assert pts[1] * pts[1] == T * T / Q


def test_principal_d2_r1():
    got = principal_specialize("D", 2, 1)
    assert got == (1 + T) ** 2 / T
    assert got == principal_closed_form("D", 2, 1)


def test_principal_d1_direct():
    # the closed form degenerates at rank one; the value itself is plain
    assert tableau_poly_D(1, 0).substitute([ONE]) == 1
    for r in range(1, 4):
        assert tableau_poly_D(1, r).substitute([ONE]) == 2
    with pytest.raises(UsageError):
        principal_closed_form("D", 1, 2)


def test_principal_c_general_r0():
    assert principal_specialize("C", 2, 0, Mon.T()) == 1


def test_principal_matches_substitute():
    for family, n, r, Tv in [("D", 2, 2, None), ("C", 2, 2, Mon.T()),
                             ("C", 2, 3, T_SPECIAL)]:
        p = tableau_poly(family, n, r, Tv)
        direct = p.substitute(principal_point(family, n, Tv))
        assert principal_specialize(family, n, r, Tv) == direct


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2)])
def test_principal_closed_forms(n, r):
    assert principal_specialize("D", n, r) == principal_closed_form("D", n, r)
    assert principal_specialize("C", n, r, T_SPECIAL) == \
        principal_closed_form("C", n, r, T_SPECIAL)
    assert principal_specialize("C", n, r, Mon.T()) == \
        principal_closed_form("C", n, r, Mon.T())


def test_principal_c_rank_one_general_T():
    # rank-one sanity of the product form: T^(-r/2)(T^2;q)_r/(T;q)_r
    Tm = Mon.T()
    got = principal_closed_form("C", 1, 1, Tm)
    Tsc = Scalar.from_mon(Tm)
    w = Scalar.from_mon(Mon.half(Th=1))
    assert got == w + 1 / w
    assert principal_specialize("C", 1, 1, Tm) == got


def test_letter_blocks_built_once_per_call(monkeypatch):
    # each (t;q)_k / (q;q)_k is built once per call and shared by every row
    # of the inversion route; a second call builds its own
    built = Counter()
    real = macdonald._letter_block

    def counting(k, binomials):
        built[k] += 1
        return real(k, binomials)
    monkeypatch.setattr(macdonald, "_letter_block", counting)
    first = lassalle_invert("D", 3, 5)
    assert built == Counter({k: 1 for k in range(1, 6)})
    assert lassalle_invert("D", 3, 5) == first
    assert built == Counter({k: 2 for k in range(1, 6)})


@pytest.mark.parametrize("args", [("D", 3, 5), ("C", 2, 4), ("C", 2, 4, Mon.T())],
                         ids=["D", "C t^2/q", "C symbolic"])
def test_prefactor_built_once_per_call(monkeypatch, args):
    # (q;q)_r/(t;q)_r is the same for every tableau term of a call
    calls = []
    real = macdonald._prefactor

    def counting(fs, r):
        calls.append(r)
        return real(fs, r)
    monkeypatch.setattr(macdonald, "_prefactor", counting)
    tableau_poly(*args)
    assert calls == [args[2]]


@pytest.mark.parametrize("build", [
    lambda: tableau_poly("D", 3, 5),
    lambda: lassalle_invert("D", 3, 5),
    lambda: walgebra.phi_principal("D", 3, 4)], ids=["tableau", "lassalle", "walgebra"])
def test_each_binomial_built_once_per_call(monkeypatch, build):
    # every term of a call takes its binomials 1 - z from one table, which
    # the call drops when it returns
    built = Counter()
    real = scalar._binomial_parts

    def counting(z):
        built[z.coef, z.exp] += 1
        return real(z)
    monkeypatch.setattr(scalar, "_binomial_parts", counting)
    first = build()
    assert built and set(built.values()) == {1}
    once = Counter(built)
    assert build() == first
    assert built == once + once  # a second call builds its own table
    # the table changes no factor: den is its monomial part times prod p^need
    for c in first.terms.values():
        den = SparsePoly.one().shift(c.unit[1])
        for p, need in c.den_factors:
            for _ in range(need):
                den = den * p
        assert c.den == den
