from fractions import Fraction as F

import pytest

from cdmac.errors import PoleError, UsageError
from cdmac.laurent import LaurentPoly
from cdmac.macdonald import tableau_poly_D
from cdmac.scalar import Scalar
from cdmac.oracle import surviving_tuples
from cdmac.tableaux import Alphabet, enumerate_tableaux
from cdmac.walgebra import (CorrelationSpec, GammaTable, correlation_F,
                            correlation_residual, gamma_base, phi_principal)

Q0, T0 = F(2, 7), F(3, 5)


def test_gamma_at_zero():
    assert gamma_base(F(0), Q0, T0) == 1


def test_gamma_degenerates_when_kernel_t_is_one():
    # at Macdonald t = q the specialized kernel parameter (q/t)^(1/2) becomes
    # 1 and every kernel factor cancels against a denominator factor
    for z in (F(1, 3), F(2, 5), F(5, 9)):
        assert gamma_base(z, Q0, F(1)) == 1
        assert gamma_base(z, Q0, F(-1)) == 1


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma_base(F(1), Q0, T0)
    with pytest.raises(PoleError):
        gamma_base(Q0 * Q0 / (T0 * T0), Q0, T0)


def test_gamma_pair_equal_letters():
    gt = GammaTable("C", 2, Q0, T0)
    assert gt.pair(1, 1, F(2), F(3)) == 1
    assert gt.pair(-2, -2, F(2), F(3)) == 1


def test_gamma_pair_plain_cases():
    gt = GammaTable("C", 2, Q0, T0)
    zi, zj = F(3, 4), F(5, 9)
    assert gt.pair(1, 2, zi, zj) == gamma_base(zj / zi, Q0, T0)
    assert gt.pair(2, 1, zi, zj) == gamma_base(zi / zj, Q0, T0)
    assert gt.pair(-2, -1, zi, zj) == gamma_base(zj / zi, Q0, T0)


def test_gamma_pair_conjugate_case():
    # the conjugate pair carries the second kernel factor
    gt = GammaTable("C", 2, Q0, T0)
    zi, zj = F(3, 4), F(5, 9)
    got = gt.pair(1, -1, zi, zj)
    extra = Q0 ** (2 - 4) * T0 ** (-2 + 4 + 2)
    assert got == gamma_base(zj / zi, Q0, T0) * gamma_base(extra * zj / zi, Q0, T0)
    # reversed order: same extra monomial against z/w
    got = gt.pair(-1, 1, zi, zj)
    assert got == gamma_base(zi / zj, Q0, T0) * gamma_base(extra * zi / zj, Q0, T0)


def test_correlation_r0_r1():
    spec = CorrelationSpec("D", 2, (), Q0, T0)
    assert correlation_F(spec) == LaurentPoly.one(2, F(1))
    spec = CorrelationSpec("D", 2, (F(3, 4),), Q0, T0)
    m1 = LaurentPoly(2, {(1, 0): F(1), (0, 1): F(1), (0, -1): F(1), (-1, 0): F(1)})
    assert correlation_F(spec) == m1


def test_correlation_r2_rank1_hand_expansion():
    # four letter pairs; conjugate-pair kernel exercised on (1, 1bar)
    z1, z2 = F(3, 4), F(5, 9)
    spec = CorrelationSpec("C", 1, (z1, z2), Q0, T0)
    gt = GammaTable("C", 1, Q0, T0)
    got = correlation_F(spec)
    expect = LaurentPoly(1, {
        (2,): F(1),
        (-2,): F(1),
        (0,): gt.pair(1, -1, z1, z2) + gt.pair(-1, 1, z1, z2),
    })
    assert got == expect


def test_correlation_z_symmetry():
    from itertools import permutations
    zs = (F(3, 4), F(5, 9), F(7, 13))
    for fam in ("C", "D"):
        for l in (1, 2):
            base = correlation_F(CorrelationSpec(fam, l, zs, Q0, T0))
            for perm in permutations(zs):
                assert correlation_F(CorrelationSpec(fam, l, perm, Q0, T0)) == base


def test_correlation_budget():
    with pytest.raises(UsageError):
        correlation_F(CorrelationSpec("C", 3, (F(1, 2),) * 8, Q0, T0), budget=1000)


def test_phi_r0_r1():
    assert phi_principal("C", 2, 0) == LaurentPoly.one(2, Scalar.one())
    m1 = {(1, 0): Scalar.one(), (0, 1): Scalar.one(),
          (0, -1): Scalar.one(), (-1, 0): Scalar.one()}
    assert phi_principal("D", 2, 1) == LaurentPoly(2, m1)


def test_phi_matches_tableau_d22():
    assert phi_principal("D", 2, 2) == tableau_poly_D(2, 2)


def test_phi_full_path_agrees():
    for fam in ("C", "D"):
        for l, r in [(1, 3), (2, 2)]:
            assert phi_principal(fam, l, r, path="full") == \
                phi_principal(fam, l, r, path="tableau")


@pytest.mark.parametrize("fam", ["C", "D"])
@pytest.mark.parametrize("l,r", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_residual_zero(fam, l, r):
    assert correlation_residual(fam, l, r).is_zero()


@pytest.mark.parametrize("fam", ["C", "D"])
def test_surviving_support_is_tableaux(fam):
    for l, r in [(1, 3), (2, 2), (2, 3)]:
        surv = surviving_tuples(fam, l, r)
        tabs = set()
        for tab in enumerate_tableaux(Alphabet(fam, l), r):
            eps = []
            for pos in range(2 * l):
                letter = pos + 1 if pos < l else pos - 2 * l
                eps.extend([letter] * tab.theta[pos])
            tabs.add(tuple(eps))
        assert surv == tabs


def test_phi_support_equals_tableau_weights():
    for fam in ("C", "D"):
        weights = {t.weight() for t in enumerate_tableaux(Alphabet(fam, 2), 3)}
        assert phi_principal(fam, 2, 3).support() == weights


def test_unknown_path():
    with pytest.raises(UsageError):
        phi_principal("C", 1, 1, path="bogus")
