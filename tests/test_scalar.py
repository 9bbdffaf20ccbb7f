import random
from fractions import Fraction as F

import pytest

from cdmac import macdonald, oracle, poly, walgebra
from cdmac.cli import main
from cdmac.poly import Mon, SparsePoly
from cdmac.errors import PoleError
from cdmac.scalar import FactoredScalar, Scalar, field_sqrt, sum_factored

T = Scalar.from_mon(Mon.t())
Q = Scalar.from_mon(Mon.q())


def rnd_scalar(rng):
    def rnd_poly(nterms):
        terms = {}
        for _ in range(nterms):
            e = (rng.randrange(4), rng.randrange(4), rng.randrange(2))
            terms[e] = F(rng.randrange(-5, 6) or 2)
        return SparsePoly.from_terms(terms)
    den = SparsePoly.zero()
    while den.is_zero():
        den = rnd_poly(rng.randrange(1, 4))
    return Scalar(rnd_poly(rng.randrange(0, 4)), den)


def test_eq_reflexive_trivial():
    assert T == T


def test_inverse_pair():
    # (1-t)/(1-q) * (1-q)/(1-t) = 1
    a = (1 - T) / (1 - Q)
    b = (1 - Q) / (1 - T)
    assert a * b == 1


def test_eq_by_cross_multiplication():
    # (1-t^2)/(1-t) equals 1+t although the representations differ
    lhs = (1 - T * T) / (1 - T)
    assert lhs == 1 + T
    assert not lhs.num == (1 + T).num  # no gcd reduction happened


def test_field_axioms_random():
    rng = random.Random(5)
    for _ in range(30):
        a, b, c = (rnd_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Scalar.zero()
        if not b.is_zero():
            assert (a / b) * b == a


def test_eq_is_an_equivalence_relation():
    # 200 seeded pairs: reflexivity, symmetry and transitivity through a
    # deliberately unreduced variant of each value
    rng = random.Random(2024)
    for _ in range(200):
        a = rnd_scalar(rng)
        m = rnd_scalar(rng)
        while m.is_zero():
            m = rnd_scalar(rng)
        b = Scalar(a.num * m.num, a.den * m.num)  # same value, different form
        c = Scalar(a.num * m.den, a.den * m.den)
        assert a == a
        assert (a == b) and (b == a)
        assert (a == b) and (b == c) and (a == c)


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        T / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


def test_normalization_invariants():
    s = rnd = Scalar(SparsePoly.from_terms({(1, 1, 0): F(2)}),
                     SparsePoly.from_terms({(1, 0, 0): F(-4)}))
    # monomial content of num/den divided out, den leading coefficient positive
    assert s.den.leading_coeff() > 0
    mn = [min(a, b) for a, b in zip(s.num.min_exps(), s.den.min_exps())]
    assert mn == [0, 0, 0]


def test_sqrt_monomials():
    tq = Scalar.from_mon(Mon(F(9, 4), (2, 4, 0)))
    r = tq.sqrt()
    assert r * r == tq
    assert field_sqrt(F(49, 64)) == F(7, 8)
    with pytest.raises(ValueError):
        (1 + T).sqrt()
    with pytest.raises(ValueError):
        field_sqrt(F(5, 7))


def test_eval():
    s = (1 - T) / (1 - Q)
    assert s.eval(F(2, 3), F(3, 5), F(1)) == (1 - F(9, 25)) / (1 - F(4, 9))


def test_scalar_serialization_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        s = rnd_scalar(rng)
        assert Scalar.parse(str(s)) == s


def test_canonical_reduces_for_display():
    lhs = (1 - T * T) / (1 - T)
    c = lhs.canonical()
    assert c == lhs
    assert str(c.den) == "1"


def test_factored_scalar_matches_direct():
    # (t;q)_3 / (q;q)_3 built through the accumulator and by hand
    fs = FactoredScalar().times_poch(Mon.t(), 3).div_poch(Mon.q(), 3)
    direct = Scalar.one()
    for j in range(3):
        direct = direct * (1 - Q ** j * T) / (1 - Q ** j * Q)
    assert fs.to_scalar() == direct


def test_sum_factored_lcm_denominator():
    # 1/(1-q) + 1/((1-q)(1-qt)) over the lcm, not the product of denominators
    a = FactoredScalar().div_poch(Mon.q(), 1)
    b = FactoredScalar().div_poch(Mon.q(), 1).div_poch(Mon.q() * Mon.t(), 1)
    s = sum_factored([a, b])
    assert s == 1 / (1 - Q) + 1 / ((1 - Q) * (1 - Q * T))
    # lcm denominator (1-q)(1-qt) has u,v-degree 6; the naive product had 8
    assert max(sum(e) for e in s.den.terms()) == 6


def test_negative_poch_factor_pole():
    fs = FactoredScalar()
    with pytest.raises(PoleError):
        fs.times_poch(Mon.q(), -1)  # (q;q)_{-1} hits (1 - q/q) in a denominator


def test_zero_times_pole_raises_in_either_order():
    # (1 - 1) in a numerator does not hide (1 - 1) in a denominator
    with pytest.raises(PoleError):
        FactoredScalar().times_poch(Mon(1), 1).div_poch(Mon(1), 1)
    with pytest.raises(PoleError):
        FactoredScalar().div_poch(Mon(1), 1).times_poch(Mon(1), 1)


# -- display reduction: a gcd against each known denominator factor ---------

def _canonical_of(numerator: Mon, denominator: Mon) -> Scalar:
    s = sum_factored([FactoredScalar().times_poch(numerator, 1).div_poch(denominator, 1)])
    r = s.canonical()
    assert r == s
    return r


@pytest.mark.parametrize("direction", [(1, 0, 0), (0, 1, 0), (2, 1, 0), (-1, 1, 0),
                                       (1, -2, 1), (-3, 0, 2)])
@pytest.mark.parametrize("c", [1, -1])
def test_binomial_gcd_cancels_divisor_binomial(direction, c):
    # (1 - c0*M^(g/k)) / (1 - c*M^g) with c0^k = c reduces to one over the
    # k-term quotient; the directions with mixed signs give binomials like
    # u^2 - v^2 (1 - t/q)
    for g in range(1, 13):
        den = Mon(c, tuple(g * e for e in direction))
        for k in range(1, g + 1):
            if g % k or (c == -1 and k % 2 == 0):
                continue
            num = Mon(c, tuple(g // k * e for e in direction))
            r = _canonical_of(num, den)
            assert r.num.is_monomial() and len(r.den.prim) == k
            assert str(r) == _prs_oracle(r)  # already in lowest terms


def test_binomial_gcd_mixed_signs():
    # 1 - t/q is u^2 - v^2 = (u - v)(u + v) after clearing the monomial
    r = _canonical_of(Mon(1, (-1, 1, 0)), Mon(1, (-2, 2, 0)))
    assert str(r.den) == "q^{1/2} + t^{1/2}"


def test_binomial_gcd_non_unit_coefficients():
    # over Q, 1 - (25/49)q^2 and 1 - (8/27)q^3 split off 1 - (5/7)q and
    # 1 - (2/3)q; neither split is cyclotomic
    assert str(_canonical_of(Mon(F(5, 7), (2, 0, 0)), Mon(F(25, 49), (4, 0, 0)))) == \
        "(7)/(5*q^{1/2}^2 + 7)"
    assert str(_canonical_of(Mon(F(2, 3), (2, 0, 0)), Mon(F(8, 27), (6, 0, 0)))) == \
        "(9)/(4*q^{1/2}^4 + 6*q^{1/2}^2 + 9)"


def _prs_oracle(c: Scalar) -> str:
    # lowest terms through the primitive-PRS gcd against the whole denominator
    return str(oracle.prs_lowest_terms(c))


_T_VALUES = {"t^2/q": macdonald.T_SPECIAL, "symbolic": Mon.T(), "t^3": Mon.t(3),
             "5/7": F(5, 7), "25/49": F(25, 49), "16/81": F(16, 81), "8/27": F(8, 27)}
_TABLEAU_GRID = [("D", None, n, r) for n in (1, 2, 3) for r in range(4)] + [
    ("C", name, n, r) for name in _T_VALUES for n in (1, 2, 3) for r in range(4)
    # the PRS oracle needs minutes on C symbolic (3, 3), for either test
    if (name, n, r) != ("symbolic", 3, 3)]


_ROUTES = {"tableau": macdonald.tableau_poly, "lassalle": macdonald.lassalle_invert,
           "walgebra": lambda family, n, r, T: walgebra.phi_principal(family, n, r)}
_ROUTE_GRID = [pytest.param("tableau", *case, id="-".join(map(str, case)))
               for case in _TABLEAU_GRID] + [
    pytest.param(route, family, T, n, r, id=f"{route}-{family}-{T}-{n}-{r}")
    for route in ("lassalle", "walgebra") for family, T in (("D", None), ("C", "t^2/q"))
    for n in (1, 2) for r in range(4)]


@pytest.mark.parametrize("route,family,T,n,r", _ROUTE_GRID)
def test_factored_canonical_matches_prs_oracle(route, family, T, n, r):
    p = _ROUTES[route](family, n, r, _T_VALUES.get(T))
    for c in p.terms.values():
        assert hasattr(c, "den_factors")
        assert str(c.canonical()) == _prs_oracle(c)


@pytest.mark.parametrize("family,T,n,r", [case for case in _TABLEAU_GRID  # sqrt(T) not in Q
                                           if case[1] not in ("5/7", "8/27")])
def test_factored_canonical_matches_prs_oracle_principal(family, T, n, r):
    c = macdonald.principal_specialize(family, n, r, _T_VALUES.get(T))
    assert str(c.canonical()) == _prs_oracle(c)


@pytest.mark.parametrize("args", [
    pytest.param(["--family", "D", "--n", "3", "--r", "4", "--via", via], id=via)
    for via in ("tableau", "lassalle", "walgebra")] + [
    pytest.param(["--family", "C", "--n", "2", "--r", "2", "--T", "5/7"], id="C-5/7")])
def test_compute_gcd_runs_against_single_binomials(monkeypatch, capsys, args):
    # canonical's only gcd is against one known denominator factor: on every
    # route's output that is a binomial, never the whole denominator
    sizes = []
    real = poly.poly_gcd

    def recording(a, b):
        sizes.append(len(b.prim))
        return real(a, b)
    monkeypatch.setattr(poly, "poly_gcd", recording)
    assert main(["compute", *args]) == 0
    assert capsys.readouterr().out.startswith("x1^")
    assert sizes and max(sizes) <= 2


# -- the grouped accumulation of sum_factored --------------------------------

# binomial arguments z of (1 - z): unit and non-unit coefficients, mixed
# signs and negative exponents (1 - t/q has a monomial unit u^-2)
_Z_POOL = [Mon.q(), Mon.t(), Mon(1, (2, 2, 0)), Mon(1, (-2, 4, 0)), Mon(F(5, 7), (2, 0, 0)),
           Mon(-1, (0, 2, 2)), Mon(F(-3, 2), (0, -2, 0))]


def _recipe_terms(rng, nterms):
    """Seeded (coef, mexp, [(z, mult)]) recipes over a few shared factor
    signatures, with multiplicities in -2..2; two signatures differ only in
    the multiplicity of one factor."""
    signatures = [[(z, rng.choice((-2, -1, 1, 2))) for z in rng.sample(_Z_POOL, rng.randrange(1, 4))]
                  for _ in range(3)] + [[]]
    (z, mult), *rest = signatures[0]
    signatures.append([(z, 3 - mult if mult > 0 else -3 - mult)] + rest)
    out = []
    for _ in range(nterms):
        coef = F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 9)))
        mexp = tuple(rng.randrange(-2, 3) for _ in range(3))
        out.append((coef, mexp, rng.choice(signatures)))
    return out


def _factored(recipe) -> FactoredScalar:
    coef, mexp, factors = recipe
    fs = FactoredScalar().times_mon(Mon(coef, mexp))
    for z, mult in factors:
        for _ in range(abs(mult)):
            fs.times_poch(z, 1) if mult > 0 else fs.div_poch(z, 1)
    return fs


def _plain(recipe) -> Scalar:
    """The same term as a plain Scalar product, as the full correlation path
    builds its values."""
    coef, mexp, factors = recipe
    out = Scalar.from_mon(Mon(coef, mexp))
    for z, mult in factors:
        out = out * (1 - Scalar.from_mon(z)) ** mult
    return out


def _negated(recipe):
    coef, mexp, factors = recipe
    return -coef, mexp, factors


@pytest.mark.parametrize("seed", range(10))
def test_sum_factored_matches_plain_scalar_sum(seed):
    rng = random.Random(seed)
    recipes = _recipe_terms(rng, rng.randrange(4, 12))
    # a group that cancels to zero: a term and its negation share a signature
    # and a monomial
    recipes.append(_negated(recipes[0]))
    recipes.append(recipes[0])
    rng.shuffle(recipes)
    expected = Scalar.zero()
    for recipe in recipes:
        expected = expected + _plain(recipe)
    s = sum_factored([_factored(recipe) for recipe in recipes])
    assert s == expected
    # den is its monomial part times prod p^need over den_factors
    c, mono = s.unit
    den = SparsePoly.const(c).shift(mono)
    for p, need in s.den_factors:
        for _ in range(need):
            den = den * p
    assert s.den == den
    # a sum that cancels entirely is zero
    whole = recipes + [_negated(recipe) for recipe in recipes]
    assert sum_factored([_factored(recipe) for recipe in whole]).is_zero()
