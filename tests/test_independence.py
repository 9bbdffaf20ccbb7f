"""Fault injection: the routes still catch a fault in the arithmetic they share.

The tableau, inversion and principal correlation routes all sum factored
products with macdonald._from_terms / sum_factored, so a fault there could
make them agree by construction.  Each test plants one fault, checks that it
fired, and checks that a certificate which does not run the faulted code
sees it.
"""

import pytest

from cdmac import macdonald, walgebra
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
