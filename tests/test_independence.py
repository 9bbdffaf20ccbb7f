"""Fault injection: the routes still catch a fault in the arithmetic they share.

The tableau, inversion and principal correlation routes all sum factored
products with macdonald._from_terms / sum_factored, so a fault there could
make them agree by construction.  Each test plants one fault, checks that it
fired, and checks that a certificate which does not run the faulted code
sees it.
"""

from fractions import Fraction

import pytest

from cdmac import macdonald, oracle, poly, walgebra
from cdmac.cli import main
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
