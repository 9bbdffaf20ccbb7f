"""Fault injection: the routes still catch a fault in the arithmetic they share.

The tableau, inversion and principal correlation routes all sum factored
products with macdonald._from_terms / sum_factored, so a fault there could
make them agree by construction.  Each test plants one fault, checks that it
fired, and checks that a certificate which does not run the faulted code
sees it.  Two plant faults in the Koornwinder eigen certificate: its
eigenvalue, and the exact coefficient quotient of its ring division.  A
q-series fault sits in the kernel that the sampled identity suites share.
Three more plant faults in the letter blocks of the tableau and inversion
terms, in the grouping of sum_factored and in the printer that every
route's output goes through.  Two plant faults in the per-call binomial
table of FactoredScalar and in the polynomial product that every exact sum
runs.  The last three plant faults in the lazily built denominator of a
sum_factored result, in FactoredScalar.times, which merges the shared
prefactor and blocks into every term, and in the letter counts of the G_r
terms.  One more plants a fault in the l-loop of the free-T tableau sum,
which family D and family C at every T but t^2/q share.
"""

import random
import sys
from fractions import Fraction

import pytest
import test_cli
import test_factored_eq
import test_qseries
import test_scalar

from cdmac import (koornwinder, laurent, macdonald, oracle, poly, qseries, scalar, verify,
                   walgebra)
from cdmac.cli import main
from cdmac.errors import NonLaurentResultError
from cdmac.koornwinder import bc_specialize, koornwinder_apply
from cdmac.laurent import LaurentPoly
from cdmac.poly import Mon, SparsePoly
from cdmac.scalar import FactoredScalar
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
        ca, ma = a.unit
        cb, mb = b.unit
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

    def letters_only(table, eps, z, memo, binomials):
        _, faulty = memos.setdefault(id(memo), (memo, _LettersOnlyMemo(fired)))
        return real(table, eps, z, faulty, binomials)
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


def test_short_letter_block_caught_by_correlation(monkeypatch):
    fired = []
    real = macdonald._letter_block

    def one_q_factor_short(k, binomials):
        # (t;q)_k / (q;q)_(k-1) for k >= 2
        if k < 2:
            return real(k, binomials)
        fired.append(k)
        return FactoredScalar(binomials).times_poch(Mon.t(), k).div_poch(Mon.q(), k - 1)
    monkeypatch.setattr(macdonald, "_letter_block", one_q_factor_short)
    certs = _eigen_certificates("D", 2, 3)
    assert fired
    # the correlation route and the full path build no letter block; the
    # inversion route sees the fault too, because its c_i blocks carry no
    # letter block and its G rows have other letter counts than the tableaux
    assert certs == {"tableau = inversion": False,
                     "tableau = correlation": False,
                     "correlation = full path": True,
                     "eigen": False,
                     "principal closed form": False}


def test_grouped_sum_merging_multiplicities(monkeypatch):
    fired = []
    real = scalar._signature
    real_sum = macdonald.sum_factored
    seen = {}  # binomial keys -> the first true signature, per sum

    def per_sum(terms):
        seen.clear()
        return real_sum(terms)

    def keys_only(t):
        # the signature without multiplicities: p^1 and p^2 terms merge, and
        # the group takes its first term's cofactor
        keys = frozenset(t.factors)
        if seen.setdefault(keys, real(t)) != real(t):
            fired.append(keys)
        return keys
    monkeypatch.setattr(macdonald, "sum_factored", per_sum)
    monkeypatch.setattr(scalar, "_signature", keys_only)
    certs = {**_certificates("D", 2, 3),
             "principal closed form": macdonald.principal_specialize("D", 2, 3)
             == macdonald.principal_closed_form("D", 2, 3),
             # test_scalar's oracle adds plain Scalar products, with no grouping
             "plain Scalar sums": not any(
                 _grouped_sum_misses(seed) for seed in range(10))}
    assert fired
    # data: at D (2, 3) only the principal sum, over all tableaux at once,
    # holds terms whose factors differ in multiplicity alone
    assert certs == {"tableau = inversion": True,
                     "tableau = correlation": True,
                     "correlation = full path": True,
                     "principal closed form": False,
                     "plain Scalar sums": False}


def _grouped_sum_misses(seed: int) -> bool:
    try:
        test_scalar.test_sum_factored_matches_plain_scalar_sum(seed)
    except AssertionError:
        return True
    return False


def test_printer_sign_flip_caught_by_round_trip(monkeypatch, capsys):
    fired = []
    real = SparsePoly.__str__

    def last_sign_flipped(self):
        # the sign of the last term of every polynomial of more than 6 terms
        text = real(self)
        if len(self.prim) <= 6:
            return text
        fired.append(len(self.prim))
        i = max(text.rfind(" + "), text.rfind(" - "))
        return text[:i] + (" - " if text[i + 1] == "+" else " + ") + text[i + 3:]
    monkeypatch.setattr(SparsePoly, "__str__", last_sign_flipped)
    certs = {f"{fmt} round trip": test_cli.reads_back(capsys, ("D", 2, 3, None), fmt)
             for fmt in ("text", "json")}
    outs = {}
    for via in ("tableau", "lassalle"):
        assert main(["compute", "--family", "D", "--n", "2", "--r", "3", "--via", via]) == 0
        outs[via] = capsys.readouterr().out
    certs["route byte equality"] = outs["tableau"] == outs["lassalle"]
    assert fired
    # data: every route prints through the faulted printer
    assert certs == {"text round trip": False,
                     "json round trip": False,
                     "route byte equality": True}


class _ExpOnlyTable(dict):
    """A binomial table keyed on z.exp without z.coef, so that 1 - (5/7) x^e
    and 1 - x^e share one slot."""

    def __init__(self, fired):
        super().__init__()
        self.fired, self.coefs = fired, {}

    def get(self, key, default=None):
        hit = super().get(key[1], default)
        if hit is not None and self.coefs[key[1]] != key[0]:
            self.fired.append(key)
        return hit

    def __setitem__(self, key, value):
        self.coefs[key[1]] = key[0]
        super().__setitem__(key[1], value)


def test_binomial_table_without_coefficient_caught_by_eigen(monkeypatch):
    fired = []
    real = FactoredScalar.__init__
    tables = {}  # keeps each call's table alive, so that its id stays its own

    def exp_keyed(self, binomials=None):
        if not isinstance(binomials, _ExpOnlyTable):
            binomials = _ExpOnlyTable(fired) if binomials is None else \
                tables.setdefault(id(binomials), (binomials, _ExpOnlyTable(fired)))[1]
        real(self, binomials)
    monkeypatch.setattr(FactoredScalar, "__init__", exp_keyed)

    def tableau_is_inversion(family, T):
        return macdonald.tableau_poly(family, 2, 2, T) == \
            macdonald.lassalle_invert(family, 2, 2, T)
    certs = {f"tableau = inversion, T = {label}": tableau_is_inversion(family, T)
             for label, family, T in (("1 (D)", "D", None), ("t^2/q", "C", macdonald.T_SPECIAL),
                                      ("symbolic", "C", Mon.T()), ("t^3", "C", Mon.t(3)))}
    assert not fired  # every binomial coefficient is 1 at these T
    fam = {row: macdonald.tableau_poly_C_general(2, row, Fraction(5, 7)) for row in range(3)}
    certs.update({
        "tableau = inversion, T = 5/7": tableau_is_inversion("C", Fraction(5, 7)),
        "tableau = inversion, T = 25/49": tableau_is_inversion("C", Fraction(25, 49)),
        "eigen, T = 25/49": verify.eigen_check("C", 2, 2, Fraction(25, 49)),
        "G_2 expansion, T = 5/7": (macdonald.lassalle_expand("C", 2, 2, fam, Fraction(5, 7))
                                   - macdonald.g_series(2, 2)).is_zero(),
        "principal closed form, D": macdonald.principal_specialize("D", 2, 3)
        == macdonald.principal_closed_form("D", 2, 3)})
    assert fired
    # data: the fault fires only where a call holds 1 - c x^e and 1 - x^e
    # with c != 1, at a rational T; the Koornwinder operator builds no
    # FactoredScalar, and the G rows hold no T
    assert certs == {"tableau = inversion, T = 1 (D)": True,
                     "tableau = inversion, T = t^2/q": True,
                     "tableau = inversion, T = symbolic": True,
                     "tableau = inversion, T = t^3": True,
                     "tableau = inversion, T = 5/7": False,
                     "tableau = inversion, T = 25/49": False,
                     "eigen, T = 25/49": False,
                     "G_2 expansion, T = 5/7": False,
                     "principal closed form, D": True}


def test_product_sign_flip_caught_by_eigen(monkeypatch):
    fired = []
    real = poly._mul_dicts

    def sign_flipped(a, b):
        # the sign of every product of more than 40 terms, in the kernel that
        # SparsePoly.__mul__ and the LCD cofactors of poly.times_power share
        out = real(a, b)
        if len(out) <= 40:
            return out
        fired.append(len(out))
        return {k: -c for k, c in out.items()}
    monkeypatch.setattr(poly, "_mul_dicts", sign_flipped)
    certs = {f"{family} {key}": value for family in ("D", "C")
             for key, value in _eigen_certificates(family, 2, 3).items()}
    assert fired
    # data: at D the tableau and correlation sums flip the same LCD
    # cofactors and agree; the full path's plain Scalar products flip too,
    # but differently; the eigen operator multiplies no SparsePoly
    assert certs == {"D tableau = inversion": True,
                     "D tableau = correlation": True,
                     "D correlation = full path": False,
                     "D eigen": True,
                     "D principal closed form": True,
                     "C tableau = inversion": False,
                     "C tableau = correlation": False,
                     "C correlation = full path": False,
                     "C eigen": False,
                     "C principal closed form": False}


def _compute_text(capsys, *argv) -> str:
    assert main(["compute", *argv]) == 0
    return capsys.readouterr().out


def _g2_expansion_at_5_7() -> bool:
    fam = {row: macdonald.tableau_poly_C_general(2, row, Fraction(5, 7)) for row in range(3)}
    return (macdonald.lassalle_expand("C", 2, 2, fam, Fraction(5, 7))
            - macdonald.g_series(2, 2)).is_zero()


def _den_fault_certificates(family: str, capsys) -> dict:
    """_certificates at (2, 3), the eigen check (its outcome, or the name of
    what it raises), the principal closed form and the compute bytes, which
    are compared with clean bytes taken before the fault is planted."""
    T = macdonald.T_SPECIAL if family == "C" else None
    certs = _certificates(family, 2, 3)
    try:
        certs["eigen"] = verify.eigen_check(family, 2, 3, T)
    except NonLaurentResultError:
        certs["eigen"] = "raises NonLaurentResultError"
    certs["principal closed form"] = macdonald.principal_specialize(family, 2, 3, T) == \
        macdonald.principal_closed_form(family, 2, 3, T)
    return certs


def test_den_one_copy_short_caught_by_full_path(monkeypatch, capsys):
    clean = _compute_text(capsys, "--family", "D", "--n", "2", "--r", "3")
    fired = []
    real = scalar._expand_den

    def one_copy_short(c, mono, den_factors):
        # den built with one copy fewer of its first LCD binomial
        factors = list(den_factors)
        if factors:
            fired.append(factors[0])
            factors[0] = (factors[0][0], factors[0][1] - 1)
        return real(c, mono, factors)
    monkeypatch.setattr(scalar, "_expand_den", one_copy_short)
    certs = {f"{family} {key}": value for family in ("D", "C")
             for key, value in _den_fault_certificates(family, capsys).items()}
    certs["G_2 expansion, T = 5/7"] = _g2_expansion_at_5_7()
    certs["compute bytes"] = _compute_text(capsys, "--family", "D", "--n", "2",
                                           "--r", "3") == clean
    assert fired
    # data: factored ==, canonical and so the printed bytes read no den; the
    # full path compares in plain Scalar arithmetic, and eval (eigen) and
    # the plain sums of the G_2 expansion read den
    assert certs == {"D tableau = inversion": True,
                     "D tableau = correlation": True,
                     "D correlation = full path": False,
                     "D eigen": "raises NonLaurentResultError",
                     "D principal closed form": True,
                     "C tableau = inversion": True,
                     "C tableau = correlation": True,
                     "C correlation = full path": False,
                     "C eigen": "raises NonLaurentResultError",
                     "C principal closed form": True,
                     "G_2 expansion, T = 5/7": False,
                     "compute bytes": True}


def test_times_sharing_slots_caught_by_correlation(monkeypatch, capsys):
    clean = _compute_text(capsys, "--family", "D", "--n", "2", "--r", "2")
    fired = []

    def sharing(self, other):
        # FactoredScalar.times that takes other's [p, mult] list itself
        # where it has no slot, so a later factor of the term changes the
        # shared prefactor or block for every term after it
        self.coef *= other.coef
        self.mexp = tuple(a + b for a, b in zip(self.mexp, other.mexp))
        for key, theirs in other.factors.items():
            slot = self.factors.get(key)
            if slot is None:
                fired.append(key)
                self.factors[key] = theirs
            else:
                slot[1] += theirs[1]
                if slot[1] == 0:
                    del self.factors[key]
        return self
    monkeypatch.setattr(FactoredScalar, "times", sharing)
    # at (2, 2): at (2, 3) the inversion route's inflated letter blocks
    # take about 30 s
    certs = _eigen_certificates("D", 2, 2)
    certs["compute bytes"] = _compute_text(capsys, "--family", "D", "--n", "2",
                                           "--r", "2") == clean
    assert fired
    # data: the tableau and inversion routes merge the shared prefactor and
    # letter blocks; at (2, 2) the correlation route still equals its full
    # path, which merges nothing, and so tableau = correlation fails
    assert certs == {"tableau = inversion": False,
                     "tableau = correlation": False,
                     "correlation = full path": True,
                     "eigen": False,
                     "principal closed form": False,
                     "compute bytes": False}


def test_off_by_one_g_terms_caught_by_tableau(monkeypatch):
    fired = []
    real = macdonald._letter_factors

    def first_count_plus_one(fs, counts, blocks):
        # the terms of G_r read their first letter count one too high
        if sys._getframe(1).f_code is macdonald._g_terms.__code__:
            fired.append(counts)
            counts = (counts[0] + 1, *counts[1:])
        return real(fs, counts, blocks)
    monkeypatch.setattr(macdonald, "_letter_factors", first_count_plus_one)
    certs = {f"{family} {key}": value for family in ("D", "C")
             for key, value in _eigen_certificates(family, 2, 3).items()}
    certs["G_2 expansion, T = 5/7"] = _g2_expansion_at_5_7()
    assert fired
    # data: only the inversion route and g_series build G_r terms
    assert certs == {"D tableau = inversion": False,
                     "D tableau = correlation": True,
                     "D correlation = full path": True,
                     "D eigen": True,
                     "D principal closed form": True,
                     "C tableau = inversion": False,
                     "C tableau = correlation": True,
                     "C correlation = full path": True,
                     "C eigen": True,
                     "C principal closed form": True,
                     "G_2 expansion, T = 5/7": False}


def test_off_by_one_free_T_step_caught_by_inversion(monkeypatch):
    fired = []
    last = []  # the term and l of the last read that was bumped
    real = macdonald._tq

    def s_plus_two(a, b):
        # the first factor of an l step of the free-T sum,
        # (t^(n-l-1) q^(S+1); q)_tl, is read at q^(S+2); the last one of the
        # step, at q^(Sp+1), has the same arguments when S = Sp and is left
        # alone
        caller = sys._getframe(1)
        loc = caller.f_locals
        if caller.f_code is macdonald._terms_free_T.__code__ and "S" in loc:
            fs, l = loc["fs"], loc["l"]
            if (a, b) == (loc["n"] - l - 1, loc["S"] + 1) and \
                    not (last and last[0] is fs and last[1] == l):
                last[:] = [fs, l]
                fired.append(l)
                b += 1
        return real(a, b)
    monkeypatch.setattr(macdonald, "_tq", s_plus_two)
    certs = {f"D {key}": value for key, value in _eigen_certificates("D", 2, 3).items()}
    certs["C general(t^2/q) = C special"] = \
        macdonald.tableau_poly_C_general(2, 3, macdonald.T_SPECIAL) == \
        macdonald.tableau_poly_C_special(2, 3)
    for label, T in (("t^2/q", macdonald.T_SPECIAL), ("5/7", Fraction(5, 7))):
        certs[f"C {label} tableau = inversion"] = \
            macdonald.tableau_poly("C", 2, 3, T) == macdonald.lassalle_invert("C", 2, 3, T)
    assert fired
    # data: family D and C at every T but t^2/q run the faulted sum; the
    # special sum at t^2/q, the inversion route and the correlation route's
    # two paths build no free-T term
    assert certs == {"D tableau = inversion": False,
                     "D tableau = correlation": False,
                     "D correlation = full path": True,
                     "D eigen": False,
                     "D principal closed form": False,
                     "C general(t^2/q) = C special": False,
                     "C t^2/q tableau = inversion": True,
                     "C 5/7 tableau = inversion": False}
