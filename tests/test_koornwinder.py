import random
from fractions import Fraction as F

import pytest

from cdmac.errors import NonLaurentResultError, UsageError
from cdmac.koornwinder import (KoornwinderParams, bc_specialize,
                               koornwinder_apply, koornwinder_eigenvalue,
                               triangularity_check)
from cdmac.laurent import LaurentPoly
from cdmac.macdonald import (T_SPECIAL, _family_T, tableau_poly,
                             tableau_poly_C_special, tableau_poly_D)
from cdmac.oracle import eigenvalue_bracket_form
from cdmac.poly import Mon
from cdmac.scalar import Scalar
from cdmac.verify import _EIGEN_SAMPLES

Q = Scalar.from_mon(Mon.q())
T = Scalar.from_mon(Mon.t())
SQ = Scalar.from_mon(Mon.half(qh=1))
ONE = Scalar.one()


def rational_params(rng):
    """Random rational (a,b,c,d,q,t) with alpha forced rational."""
    a, b, c, q, t, alpha = (F(rng.randrange(2, 9), rng.randrange(3, 13))
                            for _ in range(6))
    d = alpha * alpha * q / (a * b * c)
    return KoornwinderParams(a, b, c, d, q, t, alpha=alpha)


def test_bc_specialize_trivial_parameters():
    kp = bc_specialize(ONE, ONE, Q, T)
    assert kp.a == -1 and kp.b == 1
    assert kp.c == -SQ and kp.d == SQ
    assert kp.alpha == 1


def test_bc_specialize_special_value():
    b = T * T / Q
    kp = bc_specialize(ONE, b, Q, T)
    # b^(1/2) = t/q^(1/2) lives in the generator field
    assert kp.b == Scalar.from_mon(Mon.half(qh=-1, th=2))
    assert kp.alpha * kp.alpha == kp.a * kp.b * kp.c * kp.d / kp.q


def test_alpha_mismatch_rejected():
    with pytest.raises(UsageError):
        KoornwinderParams(F(1), F(1), F(1), F(1), F(4, 9), F(1, 2), alpha=F(5))


def test_apply_to_constant_is_zero():
    kp = bc_specialize(F(1), F(1), F(4, 9), F(2, 5))
    one = LaurentPoly.one(2, F(1))
    assert koornwinder_apply(one, kp).is_zero()


def test_rank_one_triangular_action():
    # D_x(x + 1/x) = d_(1) (x + 1/x) + constant
    rng = random.Random(3)
    for _ in range(5):
        kp = rational_params(rng)
        m1 = LaurentPoly(1, {(1,): F(1), (-1,): F(1)})
        out = koornwinder_apply(m1, kp)
        d1 = koornwinder_eigenvalue((1,), kp).d_lambda
        assert out.support() <= {(1,), (-1,), (0,)}
        assert out.coefficient((1,)) == d1
        assert out.coefficient((-1,)) == d1


def test_eigencheck_symbolic_d22():
    # the certifying oracle run with a = b = 1, fully symbolic
    p = tableau_poly_D(2, 2)
    kp = bc_specialize(ONE, ONE, Q, T)
    d = koornwinder_eigenvalue((2, 0), kp).d_lambda
    assert koornwinder_apply(p, kp) == p.scale(d)
    assert triangularity_check(p, 2)


def test_eigencheck_symbolic_c_special_12():
    p = tableau_poly_C_special(1, 2)
    kp = bc_specialize(ONE, T * T / Q, Q, T)
    d = koornwinder_eigenvalue((2,), kp).d_lambda
    assert koornwinder_apply(p, kp) == p.scale(d)


def test_eigenvalue_zero_partition():
    kp = bc_specialize(F(1), F(1), F(4, 9), F(2, 5))
    assert koornwinder_eigenvalue((0, 0, 0), kp).d_lambda == 0


def test_eigenvalue_single_row_rank_one():
    kp = bc_specialize(ONE, ONE, Q, T)
    ev = koornwinder_eigenvalue((1,), kp)
    x = Q  # alpha t^0 q^1 = q
    assert ev.d_lambda == x + 1 / x - 1 - 1


def test_eigenvalue_two_bracket_forms_agree():
    rng = random.Random(8)
    for _ in range(6):
        # rational sample with rational sqrt(q)
        sq = F(rng.randrange(2, 7), rng.randrange(3, 9))
        a, b, c, alpha, t = (F(rng.randrange(2, 9), rng.randrange(3, 13))
                             for _ in range(5))
        q = sq * sq
        d = alpha * alpha * q / (a * b * c)
        kp = KoornwinderParams(a, b, c, d, q, t, alpha=alpha)
        lam = tuple(sorted((rng.randrange(0, 4) for _ in range(2)), reverse=True))
        assert koornwinder_eigenvalue(lam, kp).d_lambda == \
            eigenvalue_bracket_form(lam, kp)


def test_eigenvalue_data_recompute():
    kp = bc_specialize(F(1), F(9, 16), F(4, 9), F(2, 5))
    lam = (3, 1)
    ev = koornwinder_eigenvalue(lam, kp)
    n = len(lam)
    recomputed = sum(x + 1 / x - y - 1 / y
                     for x, y in zip(ev.s, (kp.alpha * kp.t ** (n - j)
                                            for j in range(1, n + 1))))
    assert ev.d_lambda == recomputed


def test_triangularity():
    assert triangularity_check(tableau_poly_D(2, 2), 2)
    too_big = LaurentPoly(1, {(3,): ONE, (-3,): ONE})
    assert not triangularity_check(too_big, 2)
    assert triangularity_check(LaurentPoly.one(1, ONE), 0)
    not_monic = tableau_poly_D(2, 2).scale(Scalar.of(2))
    assert not triangularity_check(not_monic, 2)


def test_asymmetric_input_reports_non_clearing():
    kp = bc_specialize(F(1), F(1), F(4, 9), F(2, 5))
    lopsided = LaurentPoly(2, {(1, 0): F(1)})
    with pytest.raises(NonLaurentResultError):
        koornwinder_apply(lopsided, kp)


@pytest.mark.parametrize("family,n,r", [("D", 2, 3), ("D", 3, 2), ("C", 2, 3)])
def test_orbit_sum_perturbation_rejected(family, n, r):
    # p + sum_i (x_i + 1/x_i) is still symmetric and triangular, so every
    # division clears, but it is no eigenfunction
    u, v, w = _EIGEN_SAMPLES[0]
    fam_T = T_SPECIAL if family == "C" else None
    p = tableau_poly(family, n, r, fam_T).map_coefficients(lambda c: c.eval(u, v, w))
    kp = bc_specialize(F(1), Scalar.from_mon(_family_T(family, fam_T)).eval(u, v, w),
                       u * u, v * v)
    d = koornwinder_eigenvalue((r,) + (0,) * (n - 1), kp).d_lambda
    assert koornwinder_apply(p, kp) == p.scale(d)
    bad = p
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        bad = bad + LaurentPoly(n, {e: F(1), tuple(-x for x in e): F(1)})
    assert bad.hyperoctahedral_check() and triangularity_check(bad, r)
    assert not koornwinder_apply(bad, kp) == bad.scale(d)


def test_sampled_matches_symbolic_apply():
    p = tableau_poly_D(2, 1)
    kp_sym = bc_specialize(ONE, ONE, Q, T)
    out_sym = koornwinder_apply(p, kp_sym)
    u, v = F(2, 3), F(3, 5)
    kp_num = bc_specialize(F(1), F(1), u * u, v * v)
    out_num = koornwinder_apply(p.map_coefficients(lambda c: c.eval(u, v, F(1))), kp_num)
    assert out_sym.map_coefficients(lambda c: c.eval(u, v, F(1))) == out_num
