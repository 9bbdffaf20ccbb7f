"""Fault injection: the routes still catch a fault in the arithmetic they share.

The tableau, inversion and principal correlation routes all sum factored
products with macdonald._from_terms / sum_factored, so a fault there could
make them agree by construction.  Each test plants one fault, checks that it
fired, and checks that a certificate which does not run the faulted code
sees it.  Two plant faults in the Koornwinder eigen certificate: its
eigenvalue, and the exact coefficient quotient of its ring division.  The
last one plants a fault in the q-series kernel that the sampled identity
suites share.
"""

import random
import sys
from fractions import Fraction

import pytest
import test_factored_eq
import test_qseries

from cdmac import (koornwinder, laurent, macdonald, oracle, poly, qseries, scalar, verify,
                   walgebra)
from cdmac.cli import main
from cdmac.errors import NonLaurentResultError
from cdmac.koornwinder import bc_specialize, koornwinder_apply
from cdmac.laurent import LaurentPoly
from cdmac.poly import SparsePoly
from cdmac.walgebra import GammaTable


def test_dropped_sum_term_caught_by_full_path(monkeypatch):
    # at l <= 2, r <= 3 only family C has weights with more than one tableau
    fired = []
    real = macdonald.sum_factored

    def drop_last(terms):
        terms = list(terms)
        if len(terms) > 1:
            fired.append(len(terms))
            terms = terms[:-1]
        return real(terms)
    monkeypatch.setattr(macdonald, "sum_factored", drop_last)
    full = walgebra.phi_principal("C", 2, 3, path="full")
    assert not fired  # the full path sums in plain Scalar arithmetic
    tableau = walgebra.phi_principal("C", 2, 3, path="tableau")
    assert fired
    assert tableau != full


@pytest.mark.parametrize("family", ["C", "D"])
def test_wrong_conjugate_kernel_caught_by_residual(monkeypatch, family):
    fired = []
    real = GammaTable._conj_extra

    def q_exponent_off_by_one(self, i):
        fired.append(i)
        return real(self, i) * self.q
    monkeypatch.setattr(GammaTable, "_conj_extra", q_exponent_off_by_one)
    residual = walgebra.correlation_residual(family, 2, 3)
    assert fired
    assert not residual.is_zero()  # tableau_poly builds no gamma kernel


def _coprime_gcd(monkeypatch):
    """Plant a fault: poly.poly_gcd answers 1 whenever the true gcd is not 1."""
    fired = []
    real = poly.poly_gcd

    def coprime(a, p):
        g = real(a, p)
        if g.is_monomial():
            return g
        fired.append(g)
        return SparsePoly.one()
    monkeypatch.setattr(poly, "poly_gcd", coprime)
    return fired


def test_skipped_display_gcd_caught_by_prs_oracle(monkeypatch):
    fired = _coprime_gcd(monkeypatch)
    p = macdonald.tableau_poly("C", 2, 3, Fraction(25, 49))
    caught = [c for c in p.terms.values()
              if str(c.canonical()) != str(oracle.prs_lowest_terms(c))]
    assert fired
    assert caught  # the PRS oracle runs no poly.poly_gcd


def test_skipped_display_gcd_against_route_byte_equality(monkeypatch, capsys):
    # data, not a requirement: the tableau and inversion routes sum over
    # different LCDs, so their unreduced outputs differ; the principal
    # correlation route has the tableau route's LCD and prints the same bytes
    fired = _coprime_gcd(monkeypatch)
    outs = {}
    for via in ("tableau", "lassalle", "walgebra"):
        assert main(["compute", "--family", "D", "--n", "2", "--r", "2", "--via", via]) == 0
        outs[via] = capsys.readouterr().out
    assert fired
    assert outs["tableau"] != outs["lassalle"]
    assert outs["tableau"] == outs["walgebra"]


def _dropped_quotient_term(monkeypatch):
    """Plant a fault: poly.line_div drops the top quotient term of one slice
    whenever that slice has more than one, and raises nothing.

    canonical divides only where the division is exact, so the real
    division's exactness check never fires there either.  The slice and the
    line's orientation are picked in sorted order, so the fault depends on
    the values only, not on the order of a route's terms.
    """
    fired = []
    real = poly.line_div

    def dropping(a, h):
        q = real(a, h)
        if len(h.prim) < 2:
            return q
        keys = sorted(h.prim)
        for _, sl in sorted(poly._slices(q.prim, keys[0], keys[-1])[2].items()):
            if len(sl) > 1:
                fired.append(sl[max(sl)])
                return SparsePoly(q.content, {k: c for k, c in q.prim.items() if k != fired[-1]})
        return q
    monkeypatch.setattr(poly, "line_div", dropping)
    return fired


def test_dropped_quotient_term_caught_by_prs_oracle(monkeypatch):
    fired = _dropped_quotient_term(monkeypatch)
    p = macdonald.tableau_poly("C", 2, 3, Fraction(25, 49))
    caught = [c for c in p.terms.values()
              if str(c.canonical()) != str(oracle.prs_lowest_terms(c))]
    assert fired
    assert caught  # the PRS oracle divides with its own grlex division


def test_dropped_quotient_term_against_route_byte_equality(monkeypatch, capsys):
    # data, not a requirement: as with the skipped gcd, the tableau and
    # inversion routes reach the faulted division with different numerators
    # and LCDs; the principal correlation route reaches it with the tableau
    # route's values and prints the same wrong bytes
    fired = _dropped_quotient_term(monkeypatch)
    outs = {}
    for via in ("tableau", "lassalle", "walgebra"):
        assert main(["compute", "--family", "D", "--n", "2", "--r", "2", "--via", via]) == 0
        outs[via] = capsys.readouterr().out
    assert fired
    assert outs["tableau"] != outs["lassalle"]
    assert outs["tableau"] == outs["walgebra"]


def _certificates(family: str, n: int, r: int) -> dict:
    """Which route equalities hold, as data: tableau = inversion, tableau =
    correlation, and the correlation route's factored path = its full path
    (plain Scalar arithmetic)."""
    T = macdonald.T_SPECIAL if family == "C" else None
    tab = macdonald.tableau_poly(family, n, r, T)
    phi = walgebra.phi_principal(family, n, r)
    return {"tableau = inversion": tab == macdonald.lassalle_invert(family, n, r, T),
            "tableau = correlation": tab == phi,
            "correlation = full path": phi == walgebra.phi_principal(family, n, r, path="full")}


def test_factored_eq_skipping_extra_copies_caught_by_oracle(monkeypatch):
    fired = []

    def skip_extra_copies(a, b):
        # the other side's monomial part and content only, no binomial copies
        if test_factored_eq.lcd(a) != test_factored_eq.lcd(b):
            fired.append((a, b))
        ca, ma = a.den_unit()
        cb, mb = b.den_unit()
        return a.num.scaled(cb).shift(mb) == b.num.scaled(ca).shift(ma)
    monkeypatch.setattr(scalar, "_factored_eq", skip_extra_copies)
    misses = [m for case in test_factored_eq.GRID
              for m in test_factored_eq.disagreements(test_factored_eq.route_values(case))[1]]
    assert fired
    assert misses  # oracle.cross_multiplied_eq reads no den_factors
    assert test_factored_eq.synthetic_misses(range(40))
    # data: tableau and correlation outputs share their LCDs, inversion's differ
    assert _certificates("D", 2, 3) == {"tableau = inversion": False,
                                        "tableau = correlation": True,
                                        "correlation = full path": True}


def test_off_by_one_inversion_block_caught_by_tableau(monkeypatch):
    fired = []
    blocks = []  # the _invert_block frames whose c_i argument was read
    real = macdonald._tq

    def r_minus_i_plus_one(a, b):
        # the first _tq(n, r - i) of a block, the argument of c_i's
        # (t^n q^(r-i); q)_i, is read as _tq(n, r - i + 1); the second, the
        # denominator 1 - t^n q^(r-i) of the pair, is left alone
        caller = sys._getframe(1)
        if caller.f_code is macdonald._invert_block.__code__ and \
                not any(f is caller for f in blocks):
            n, r, i = (caller.f_locals[k] for k in ("n", "r", "i"))
            if (a, b) == (n, r - i):
                blocks.append(caller)
                fired.append(i)
                b += 1
        return real(a, b)
    monkeypatch.setattr(macdonald, "_tq", r_minus_i_plus_one)
    certs = _certificates("D", 2, 3)
    assert 1 in fired  # at i = 0 the block's q-factorials are empty
    assert certs == {"tableau = inversion": False,  # the tableau sum builds no block
                     "tableau = correlation": True,
                     "correlation = full path": True}


class _LettersOnlyMemo(dict):
    """A pair-kernel memo keyed on the two letters without their points z."""

    def __init__(self, fired):
        super().__init__()
        self.fired, self.points = fired, {}

    def get(self, key, default=None):
        hit = super().get(key[:2], default)
        if hit is not None and self.points[key[:2]] != key[2:]:
            self.fired.append(key)
        return hit

    def __setitem__(self, key, value):
        self.points[key[:2]] = key[2:]
        super().__setitem__(key[:2], value)


def test_kernel_memo_without_points_caught_by_tableau(monkeypatch):
    fired = []
    real = walgebra._kernel_factored
    memos = {}  # keeps each call's memo alive, so that its id stays its own

    def letters_only(table, eps, z, memo):
        _, faulty = memos.setdefault(id(memo), (memo, _LettersOnlyMemo(fired)))
        return real(table, eps, z, faulty)
    monkeypatch.setattr(walgebra, "_kernel_factored", letters_only)
    certs = {family: _certificates(family, 2, 3) for family in ("C", "D")}
    assert fired
    for family in ("C", "D"):  # the tableau sum and the full path build no memo
        assert certs[family] == {"tableau = inversion": True,
                                 "tableau = correlation": False,
                                 "correlation = full path": False}


def _eigen_certificates(family: str, n: int, r: int) -> dict:
    """The route equalities of _certificates, the eigen certificate and the
    principal closed form, as data."""
    T = macdonald.T_SPECIAL if family == "C" else None
    return {**_certificates(family, n, r),
            "eigen": verify.eigen_check(family, n, r, T),
            "principal closed form": macdonald.principal_specialize(family, n, r, T)
            == macdonald.principal_closed_form(family, n, r, T)}


def test_wrong_eigenvalue_caught_by_eigen_only(monkeypatch):
    fired = []

    def t_power_off_by_one(lam, kp):
        # d_lambda with alpha t^(n-j+1) where koornwinder_eigenvalue has
        # alpha t^(n-j)
        fired.append(lam)
        n, d = len(lam), 0
        for j, part in enumerate(lam, start=1):
            y = kp.alpha * kp.t ** (n - j + 1)
            x = y * kp.q ** part
            if part:
                d = d + (x + 1 / x - y - 1 / y)
        return koornwinder.EigenvalueData(d, [])
    monkeypatch.setattr(verify, "koornwinder_eigenvalue", t_power_off_by_one)
    certs = _eigen_certificates("D", 2, 3)
    assert fired
    assert certs == {"tableau = inversion": True,  # no route reads the eigenvalue
                     "tableau = correlation": True,
                     "correlation = full path": True,
                     "eigen": False,
                     "principal closed form": True}


def test_truncating_quotient_in_the_kernel(monkeypatch):
    fired = []
    real = laurent._exact_quotient

    def truncating(a, b):
        if isinstance(a, int) and isinstance(b, int) and a % b:
            fired.append((a, b))
            return a // b
        return real(a, b)
    monkeypatch.setattr(laurent, "_exact_quotient", truncating)

    def raises(fn, *args) -> bool:
        try:
            fn(*args)
        except NonLaurentResultError:
            return True
        return False
    kp = bc_specialize(Fraction(1), Fraction(9, 16), Fraction(4, 9), Fraction(2, 5))
    certs = {"eigen": _eigen_certificates("C", 2, 3)["eigen"],
             "asymmetric input raises": raises(
                 koornwinder_apply, LaurentPoly(2, {(1, 0): Fraction(1)}), kp)}
    assert not fired  # every division of a certified polynomial is exact
    # at rank 1 and these parameters, x^3 - 8113/1296 x clears the pole
    # binomial 1 - x^2 but not 1 - q x^2, so the fault fires in the operator
    p = LaurentPoly(1, {(3,): Fraction(1), (1,): Fraction(-8113, 1296)})
    assert raises(oracle.field_koornwinder_apply, p, kp)
    certs["non-clearing rank-1 input raises"] = raises(koornwinder_apply, p, kp)
    assert fired
    # (1 + 2x - x^2) / (2 - x): the truncated peel 1 // 2 = 0 leaves a
    # remainder that the exponent box cannot see, and returns x
    certs["divide_exact remainder raises"] = raises(
        laurent.divide_exact, {(0,): 1, (1,): 2, (2,): -1}, 1, 2, (1,))
    assert certs == {"eigen": True,
                     "asymmetric input raises": True,
                     # the box check of a later peel still refuses it
                     "non-clearing rank-1 input raises": True,
                     "divide_exact remainder raises": False}


def test_dropped_last_term_in_the_series_kernel(monkeypatch):
    fired = []
    real = qseries._horner

    def drop_last_ratio(ratios):
        if ratios:
            fired.append(len(ratios))
            ratios = ratios[:-1]
        return real(ratios)
    monkeypatch.setattr(qseries, "_horner", drop_last_ratio)
    rng = random.Random(7)
    specs = [test_qseries.random_spec(rng) for _ in range(20)]

    def agree(spec, nterms):
        return test_qseries._outcome(qseries.series_eval, spec, nterms) == \
            test_qseries._outcome(oracle.field_series_eval, spec, nterms)
    certs = {"field oracle agreement": all(agree(*s) for s in specs),
             **{suite: verify.run_suite(suite, seed=0, samples=5).passed
                for suite in ("classical", "thm22", "transformII", "transformIII")}}
    assert fired
    # the oracle sums in the field, with no _horner; the multivariate
    # transformations build no terminating series
    assert certs == {"field oracle agreement": False,
                     "classical": False,
                     "thm22": False,
                     "transformII": True,
                     "transformIII": True}
