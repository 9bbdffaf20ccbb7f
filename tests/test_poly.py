import random
from fractions import Fraction as F

import pytest

from cdmac.errors import UsageError
from cdmac.oracle import _dict_exact_div, _exact_poly_div, prs_gcd
from cdmac.poly import Mon, SparsePoly, _unpack, line_div, poly_gcd


def rnd_poly(rng, nterms=4, deg=5):
    terms = {}
    for _ in range(nterms):
        e = (rng.randrange(deg), rng.randrange(deg), rng.randrange(3))
        terms[e] = F(rng.randrange(-6, 7) or 1, rng.randrange(1, 5))
    return SparsePoly.from_terms(terms)


def test_zero_and_one():
    assert SparsePoly.zero().is_zero()
    assert not SparsePoly.one().is_zero()
    assert str(SparsePoly.zero()) == "0"
    assert str(SparsePoly.one()) == "1"


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(40):
        a, b, c = (rnd_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == SparsePoly.zero()


def test_no_zero_coefficients_stored():
    p = SparsePoly.from_terms({(1, 0, 0): F(1)}) - SparsePoly.from_terms({(1, 0, 0): F(1)})
    assert p.prim == {}


def test_leading_term_graded_lex():
    # u > v > w, graded first: v^4 beats u^2
    p = SparsePoly.from_terms({(2, 0, 0): F(1), (0, 4, 0): F(-1)})
    assert p.leading_coeff() == F(-1)
    assert str(p) == "-t^{1/2}^4 + q^{1/2}^2"
    # same degree: u^2 beats v^2
    p = SparsePoly.from_terms({(0, 2, 0): F(3), (2, 0, 0): F(2)})
    assert p.leading_coeff() == F(2)


def test_serialization_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        p = rnd_poly(rng)
        assert SparsePoly.parse(str(p)) == p
    assert SparsePoly.parse("0") == SparsePoly.zero()
    assert SparsePoly.parse("-2/3*q^{1/2}^3*T^{1/2} + 5") == SparsePoly.from_terms(
        {(3, 0, 1): F(-2, 3), (0, 0, 0): F(5)})


def test_eval_matches_termwise():
    rng = random.Random(3)
    u, v, w = F(2, 3), F(3, 5), F(5, 7)
    for _ in range(20):
        p = rnd_poly(rng)
        expect = sum(c * u ** a * v ** b * w ** e for (a, b, e), c in p.terms().items())
        assert p.eval(u, v, w) == expect


def _eval_termwise(p: SparsePoly, u, v, w):
    """SparsePoly.eval as it was: three Fraction products and one Fraction
    sum per term."""
    tot = F(0)
    for key, c in p.prim.items():
        a, b, cc = _unpack(key)
        tot += c * F(u) ** a * F(v) ** b * F(w) ** cc
    return tot * p.content


def test_eval_over_one_denominator_on_laurent_coefficients():
    # coefficients with monomial and binomial denominators, so negative
    # exponents in q, t and T, at signed, zero and integer sample points
    from cdmac.macdonald import tableau_poly
    from cdmac.scalar import Scalar
    coeffs = [c for T in (Mon.T(), Mon.t(2) * Mon.q(-1))
              for c in tableau_poly("C", 2, 3, T).terms.values()]
    coeffs.append(Scalar.from_mon(Mon(F(-3, 4), (-2, 1, -3))))
    points = [(F(2, 3), F(3, 5), F(5, 7)), (F(-3, 4), F(2, 7), F(1)),
              (F(0), F(5, 2), F(-1, 3)), (F(3), F(1, 2), F(0))]
    for c in coeffs:
        for pt in points:
            num, den = _eval_termwise(c.num, *pt), _eval_termwise(c.den, *pt)
            assert c.num.eval(*pt) == num and c.den.eval(*pt) == den
            if den:
                assert c.eval(*pt) == num / den
    assert SparsePoly.zero().eval(F(1), F(2), F(3)) == 0


def test_mon_arithmetic():
    m = Mon.q(2) * Mon.t(-1)
    assert m.exp == (4, -2, 0)
    assert (m / m).is_one()
    assert (Mon.T() ** 2).exp == (0, 0, 4)
    assert Mon.half(qh=1, th=-1).exp == (1, -1, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        SparsePoly.from_mon(Mon(1, (-1, 0, 0)))


def test_exponent_outside_packing_rejected():
    # a field must not borrow from or carry into its neighbour
    with pytest.raises(UsageError):
        SparsePoly.from_mon(Mon(1, (1, 0, 0))).shift((0, -1, 0))
    with pytest.raises(UsageError):
        SparsePoly.from_mon(Mon(1, (0, 0, 1 << 20)))
    top = SparsePoly.from_mon(Mon(1, (0, (1 << 20) - 1, 0)))
    assert top.monomial().exp == (0, (1 << 20) - 1, 0)


def test_gcd_divides_both():
    # the primitive-PRS oracle on general pairs
    rng = random.Random(11)
    for _ in range(30):
        g = rnd_poly(rng, 2, 3)
        a = rnd_poly(rng, 3, 3) * g
        b = rnd_poly(rng, 3, 3) * g
        if a.is_zero() or b.is_zero():
            continue
        d = prs_gcd(a, b)
        _dict_exact_div(a.prim, d.prim, 0)
        _dict_exact_div(b.prim, d.prim, 0)
        # the common factor g divides the gcd
        _dict_exact_div(d.prim, g.prim, 0)


def _binomial(c, d):
    """1 - c*x^d with the monomial content cleared, primitive."""
    s = tuple(max(-e, 0) for e in d)
    p = SparsePoly.from_mon(Mon(1, s)) - SparsePoly.from_mon(
        Mon(c, tuple(a + b for a, b in zip(s, d))))
    return SparsePoly(F(1), p.prim, _normalized=True)


# p = 1 - c0^k x^(k*d) has the divisor 1 - c0^j x^(j*d) for every j | k; the
# coefficients c0^k run over +-1, 5/7, 25/49, 8/27, 16/81, 3/2 and 9/4
_BASES = [(1, 1), (1, 2), (1, 3), (1, 4), (-1, 1), (-1, 3), (F(5, 7), 1), (F(5, 7), 2),
          (F(2, 3), 3), (F(2, 3), 4), (F(3, 2), 1), (F(3, 2), 2)]


def _random_line(rng):
    """(c0, k, d): the binomial 1 - c0^k x^(k*d), d a direction in [-2, 2]^3."""
    c0, k = rng.choice(_BASES)
    d = (0, 0, 0)
    while d == (0, 0, 0):
        d = tuple(rng.randrange(-2, 3) for _ in range(3))
    return c0, k, d


def test_binomial_gcd_matches_prs_oracle():
    # a = divisor * random meets p in a nontrivial gcd
    rng = random.Random(17)
    nontrivial = 0
    for _ in range(240):
        c0, k, d = _random_line(rng)
        p = _binomial(c0 ** k, tuple(k * e for e in d))
        j = rng.choice([j for j in range(1, k + 1) if k % j == 0])
        a = rnd_poly(rng, rng.randrange(1, 4), 3)
        if rng.random() < 0.8:
            a = a * _binomial(c0 ** j, tuple(j * e for e in d))
        if rng.random() < 0.3:  # one slice that the divisor may not divide
            a = a + rnd_poly(rng, 1, 3)
        if a.is_zero():
            continue
        got, want = poly_gcd(a, p), prs_gcd(a, p)
        assert got == want or got == -want
        assert got.leading_coeff() > 0 and got.min_exps() == (0, 0, 0)
        nontrivial += not got.is_monomial()
    assert nontrivial > 100


def test_line_div_matches_grlex_oracle():
    # h divides a binomial p: a binomial 1 - c0^j x^(j*d) with j | k, or its
    # cofactor in p, which has k/j terms on the same line
    rng = random.Random(23)
    for _ in range(240):
        c0, k, d = _random_line(rng)
        j = rng.choice([j for j in range(1, k + 1) if k % j == 0])
        h = _binomial(c0 ** j, tuple(j * e for e in d))
        if j < k and rng.random() < 0.5:
            h = _exact_poly_div(_binomial(c0 ** k, tuple(k * e for e in d)), h)
        a = h * rnd_poly(rng, rng.randrange(1, 5), 4).scaled(F(3, 5))
        assert line_div(a, h) == _exact_poly_div(a, h)
        stray = a + rnd_poly(rng, 1, 4)  # no monomial is a multiple of h
        with pytest.raises(ArithmeticError):
            line_div(stray, h)
        # h times a monomial divides a only if the quotient needs no
        # negative exponent
        r = SparsePoly.one() + rnd_poly(rng, 2, 4).shift((0, 1, 0))
        with pytest.raises(ArithmeticError):
            line_div(h * r, h.shift((0, 1, 0)))
    assert line_div(h * r, SparsePoly.const(F(2, 3))) == (h * r).scaled(F(3, 2))
    u, v = SparsePoly.from_mon(Mon(1, (1, 0, 0))), SparsePoly.from_mon(Mon(1, (0, 1, 0)))
    with pytest.raises(ValueError):  # terms on no single line
        line_div(u * v, u + v + SparsePoly.one())


def test_binomial_gcd_keeps_cosets_apart():
    # v - w is X - 1 along X = v*w only if the cosets of v and w are merged
    v, w = SparsePoly.from_mon(Mon(1, (0, 1, 0))), SparsePoly.from_mon(Mon(1, (0, 0, 1)))
    assert poly_gcd(v - w, SparsePoly.one() - v * w) == SparsePoly.one()
    assert poly_gcd((v - w) * (SparsePoly.one() - v * w), v * w - SparsePoly.one()) == \
        v * w - SparsePoly.one()


def test_binomial_gcd_rejects_other_second_arguments():
    u, v = SparsePoly.from_mon(Mon(1, (1, 0, 0))), SparsePoly.from_mon(Mon(1, (0, 1, 0)))
    with pytest.raises(ValueError):
        poly_gcd(u + v, u + v + SparsePoly.one())
    with pytest.raises(ValueError):
        poly_gcd(u + v, u)


def test_product_exponent_carry_rejected():
    # (t^{1/2})^(2^20 - 1) * t^{1/2} used to come out as q^{1/2}
    top = SparsePoly.from_mon(Mon(1, (0, (1 << 20) - 1, 0)))
    with pytest.raises(UsageError):
        top * SparsePoly.from_mon(Mon(1, (0, 1, 0)))
    for e in [(1, 0, 0), (0, 0, 1), (1, 1, 1)]:
        d = SparsePoly.from_mon(Mon(1, tuple((1 << 20) - 1 if x else 0 for x in e)))
        with pytest.raises(UsageError):
            (d + SparsePoly.one()) * d
    half = SparsePoly.from_mon(Mon(1, ((1 << 19) - 1, (1 << 19) - 1, 5)))
    assert (half * half).monomial().exp == ((1 << 20) - 2, (1 << 20) - 2, 10)
