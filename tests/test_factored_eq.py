"""Factored equality of route outputs against full cross-multiplication.

Scalar.__eq__ on two sum_factored results multiplies each numerator only by
the binomial copies that the other denominator has beyond its own, and by
the other side's monomial part and content.  oracle.cross_multiplied_eq
multiplies by the whole expanded denominators and never reads den_factors.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from cdmac import macdonald, oracle, scalar, walgebra
from cdmac.cli import main
from cdmac.poly import Mon, SparsePoly
from cdmac.scalar import FactoredScalar, _FactoredDenScalar, sum_factored

_T = {None: None, "t^2/q": macdonald.T_SPECIAL, "symbolic": Mon.T(),
      "25/49": Fraction(25, 49)}
GRID = [(family, T, n, r) for family, T in (("D", None), ("C", "t^2/q"), ("C", "symbolic"),
                                            ("C", "25/49"))
        for n in (1, 2) for r in range(4)]


@cache
def route_outputs(family, T, n, r) -> dict:
    """Each route's polynomial; the correlation route gives D and C at t^2/q only."""
    out = {"tableau": macdonald.tableau_poly(family, n, r, _T[T]),
           "inversion": macdonald.lassalle_invert(family, n, r, _T[T])}
    if T in (None, "t^2/q"):
        out["correlation"] = walgebra.phi_principal(family, n, r)
    return out


def route_values(case) -> list:
    return [c for p in route_outputs(*case).values() for c in p.terms.values()]


def disagreements(values) -> tuple[dict, list]:
    """Factored == on every ordered pair of values, against the oracle:
    the count of each verdict, and the pairs where the two differ."""
    verdicts = {True: 0, False: 0}
    misses = []
    for a in values:
        for b in values:
            got = a == b
            verdicts[got] += 1
            if got != oracle.cross_multiplied_eq(a, b):
                misses.append((a, b))
    return verdicts, misses


def _pad(z: Mon) -> list:
    """Three terms that sum to 0 over the LCD 1 - z: 1/(1-z) - z/(1-z) - 1."""
    return [FactoredScalar().div_poch(z, 1),
            FactoredScalar().times_mon(Mon(-1) * z).div_poch(z, 1),
            FactoredScalar().times_mon(Mon(-1))]


# two pools of binomial arguments whose binomials share no factor
_POOL_A = [Mon.t(1), Mon.q(1) * Mon.t(1), Mon.t(2), Mon.q(2) * Mon.t(1)]
_POOL_B = [Mon.T(1), Mon.T(1) * Mon.t(1), Mon.T(2) * Mon.q(1)]


def _random_terms(rng, pool, k: int, dens: bool = True) -> list:
    terms = []
    for _ in range(k):
        fs = FactoredScalar().times_mon(Mon(rng.choice((-3, -1, 1, 2, 5)),
                                            (rng.randrange(3), rng.randrange(3), 0)))
        for z in rng.sample(pool, 2):
            if dens and rng.random() < 0.6:
                for _ in range(rng.randrange(1, 3)):
                    fs.div_poch(z, 1)
            else:
                fs.times_poch(z, 1)
        terms.append(fs)
    return terms


def lcd(v) -> dict:
    """v's LCD binomials, keyed by their primitive prim items, to their powers."""
    return {tuple(sorted(p.prim.items())): need for p, need in v.den_factors}


def synthetic_pairs(seed: int) -> list:
    """(a, b, a equals b) for sum_factored values whose LCDs differ: b's a
    strict superset of a's, or the two disjoint."""
    rng = random.Random(seed)
    base = _random_terms(rng, _POOL_A, 3)
    plain = _random_terms(rng, _POOL_A, 2, dens=False)
    za, zb = rng.choice(_POOL_A), rng.choice(_POOL_B)
    a = sum_factored(base)
    pairs = [(a, sum_factored(base + _pad(zb)), True),           # superset, equal
             (a, sum_factored(base + _pad(zb)[:2]), False),      # superset, a + 1
             (sum_factored(plain + _pad(za)), sum_factored(plain + _pad(zb)), True),  # disjoint
             (a, sum_factored(_random_terms(rng, _POOL_B, 3)), False)]               # disjoint
    for x, y, _ in pairs:
        assert isinstance(x, _FactoredDenScalar) and isinstance(y, _FactoredDenScalar)
        kx, ky = lcd(x).keys(), lcd(y).keys()
        assert kx < ky or kx.isdisjoint(ky)
    return pairs


def synthetic_misses(seeds) -> list:
    """The synthetic pairs where factored == or the oracle gives the wrong verdict."""
    return [(a, b) for seed in seeds for a, b, same in synthetic_pairs(seed)
            if (a == b) != same or (b == a) != same
            or oracle.cross_multiplied_eq(a, b) != same]


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_route_den_is_monomial_part_times_binomial_powers(case):
    for v in route_values(case):
        assert isinstance(v, _FactoredDenScalar)
        c, m = v.unit
        expect = SparsePoly.const(c).shift(m)
        for p, need in v.den_factors:
            assert len(p.prim) <= 2 and need > 0
            for _ in range(need):
                expect = expect * p
        assert v.den == expect


def test_factored_eq_matches_cross_multiplication_on_route_outputs():
    # every ordered pair of coefficients of one case, across all its routes:
    # equal values at one weight and at its hyperoctahedral images, unequal
    # ones elsewhere
    totals = {True: 0, False: 0}
    for case in GRID:
        verdicts, misses = disagreements(route_values(case))
        assert not misses, case
        for k in totals:
            totals[k] += verdicts[k]
    assert totals == {True: 4219, False: 5612}


def test_factored_eq_matches_cross_multiplication_on_differing_lcds():
    assert not synthetic_misses(range(40))


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_perturbed_numerator_compares_unequal(case):
    outs = route_outputs(*case)
    for route, p in outs.items():
        for w, v in p.terms.items():
            bumped = _FactoredDenScalar(v.num + SparsePoly.one(), v.den, _normalized=True)
            bumped.den_factors = v.den_factors
            bumped.unit = v.unit
            for other in outs.values():  # the same value, over each route's LCD
                assert other.terms[w] == v
                assert not bumped == other.terms[w] and not other.terms[w] == bumped


# the cases of perfbench's routes workload
ROUTES = [("D", 3, 4), ("C", 3, 4), ("D", 3, 5), ("D", 4, 4), ("D", 2, 6)]


def test_compute_and_route_equality_expand_no_den(monkeypatch, capsys):
    # compute reduces through unit and den_factors, and factored == reads
    # them only, so neither multiplies an LCD binomial copy into a den
    copies = []
    real = scalar._expand_den

    def counting(c, mono, den_factors):
        copies.append(sum(need for _, need in den_factors))
        return real(c, mono, den_factors)
    monkeypatch.setattr(scalar, "_expand_den", counting)
    for via in ("tableau", "lassalle", "walgebra"):
        assert main(["compute", "--family", "D", "--n", "3", "--r", "4", "--via", via]) == 0
    assert capsys.readouterr().out
    values = []
    for family, n, r in ROUTES:
        T = macdonald.T_SPECIAL if family == "C" else None
        tab = macdonald.tableau_poly(family, n, r, T)
        assert tab == macdonald.lassalle_invert(family, n, r, T)
        assert tab == walgebra.phi_principal(family, n, r)
        values.extend(tab.terms.values())
    # compute prints a value whose den is 1 as it is, and so reads that den
    assert sum(copies) == 0
    before = len(copies)
    # a den read afterwards is built once, and is still its monomial part
    # times prod p^need
    for v in values:
        expect = SparsePoly.one().shift(v.unit[1])
        for p, need in v.den_factors:
            for _ in range(need):
                expect = expect * p
        assert v.den == expect and v.den is v.den
    assert len(copies) - before == len(values)
    assert sum(copies) == sum(need for v in values for _, need in v.den_factors)
