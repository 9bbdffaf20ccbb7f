import random
from fractions import Fraction as F

import pytest

from cdmac.errors import NonLaurentResultError, UsageError
from cdmac.laurent import LaurentPoly, divide_exact
from cdmac.poly import Mon
from cdmac.scalar import Scalar


def x(i, n, e=1):
    return LaurentPoly.monomial(n, tuple(e if j == i else 0 for j in range(n)), F(1))


def rnd_laurent(rng, n=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(-3, 4) for _ in range(n))
        terms[e] = F(rng.randrange(-5, 6) or 1)
    return LaurentPoly(n, terms)


def test_binomial_square():
    b = x(0, 1) + x(0, 1, -1)
    sq = b * b
    assert sq == LaurentPoly(1, {(2,): F(1), (0,): F(2), (-2,): F(1)})


def test_additive_identity():
    rng = random.Random(0)
    p = rnd_laurent(rng)
    assert p + LaurentPoly.zero(2) == p


def test_coefficient_extraction():
    p = x(0, 2) + x(1, 2) + x(1, 2, -1) + x(0, 2, -1)
    assert p.coefficient((1, 0)) == 1
    assert p.coefficient((5, 5)) == 0


def test_rank_mismatch_usage_error():
    with pytest.raises(UsageError):
        x(0, 1) + x(0, 2)
    with pytest.raises(UsageError):
        x(0, 1) * x(0, 2)


def test_substitute_trivial():
    b = x(0, 1) + x(0, 1, -1)
    assert b.substitute([F(1)]) == 2
    t = Scalar.from_mon(Mon.t())
    assert b.substitute([t]) == (t * t + 1) / t


def test_substitute_zero_negative_exponent():
    b = x(0, 1, -1)
    with pytest.raises(ZeroDivisionError):
        b.substitute([F(0)])


def test_substitute_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(15):
        p, q = rnd_laurent(rng), rnd_laurent(rng)
        vals = [F(rng.randrange(1, 7), rng.randrange(1, 5)) for _ in range(2)]
        assert (p * q).substitute(vals) == p.substitute(vals) * q.substitute(vals)
        assert (p + q).substitute(vals) == p.substitute(vals) + q.substitute(vals)


def test_hyperoctahedral_check():
    assert (x(0, 1) + x(0, 1, -1)).hyperoctahedral_check()
    assert not x(0, 1).hyperoctahedral_check()
    # permutation-symmetric but not flip-symmetric
    p = x(0, 2) + x(1, 2)
    assert not p.hyperoctahedral_check()
    full = x(0, 2) + x(1, 2) + x(0, 2, -1) + x(1, 2, -1)
    assert full.hyperoctahedral_check()


def test_shift_variable():
    q = F(3, 7)
    p = LaurentPoly(1, {(2,): F(1), (-1,): F(5)})
    s = p.shift_variable(0, q)
    assert s == LaurentPoly(1, {(2,): q * q, (-1,): 5 / q})


def test_divide_exact_round_trip():
    # (p * (1 - c x^e)) / (1 - c x^e) == p; a lexicographically negative e is
    # first normalized as 1 - c x^e = -c x^e (1 - c^-1 x^-e)
    rng = random.Random(8)
    flipped = 0
    for _ in range(40):
        p = rnd_laurent(rng)
        e = tuple(rng.randrange(-2, 3) for _ in range(2))
        if not any(e):
            continue
        c = F(rng.choice((-1, 1)) * rng.randrange(1, 6), rng.randrange(1, 6))
        prod = p * (LaurentPoly.one(2, F(1)) - LaurentPoly.monomial(2, e, c))
        if e > (0, 0):
            assert divide_exact(prod, c, e) == p
        else:
            flipped += 1
            unit = LaurentPoly.monomial(2, e, -c)
            assert divide_exact(prod, 1 / c, tuple(-v for v in e)) == p * unit
    assert flipped


def test_divide_exact_remainder_raises():
    with pytest.raises(NonLaurentResultError):
        divide_exact(x(0, 1) + LaurentPoly.one(1, F(3)), F(-1), (1,))
    # 1 + x1 over 1 - 2 x2: every x2^k stays below x1 in lex order, so only
    # the exponent box ends this division
    with pytest.raises(NonLaurentResultError):
        divide_exact(x(0, 2) + LaurentPoly.one(2, F(1)), F(2), (0, 1))


def test_str_and_parse_fraction():
    p = LaurentPoly(2, {(1, 0): F(2, 3), (0, -2): F(-1), (0, 0): F(5)})
    assert LaurentPoly.parse(2, str(p), field="fraction") == p


def test_str_and_parse_scalar():
    t = Scalar.from_mon(Mon.t())
    q = Scalar.from_mon(Mon.q())
    p = LaurentPoly(2, {(1, 0): (1 - t) / (1 - q), (0, 0): Scalar.one(),
                        (-1, 2): t * t / (1 - q * t)})
    assert LaurentPoly.parse(2, str(p)) == p


def test_str_matches_row_convention():
    p = LaurentPoly(1, {(3,): Scalar.one(), (-3,): Scalar.one()})
    assert str(p) == "x1^3 + x1^-3"
    assert str(LaurentPoly.one(1, Scalar.one())) == "1"


def test_json_and_latex_shapes():
    t = Scalar.from_mon(Mon.t())
    p = LaurentPoly(1, {(1,): t, (-1,): t})
    doc = p.to_json()
    assert doc["rank"] == 1 and len(doc["terms"]) == 2
    assert "x_{1}" in p.to_latex()
