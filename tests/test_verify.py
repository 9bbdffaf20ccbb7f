from fractions import Fraction

import pytest

from cdmac import macdonald, verify
from cdmac.errors import UsageError
from cdmac.poly import Mon


def test_suite_names():
    assert "all" in verify.SUITES
    with pytest.raises(ValueError):
        verify.run_suite("bogus")


def test_report_json_shape_and_ordering():
    rep = verify.run_suite("thm22", seed=3, samples=4)
    doc = rep.to_json()
    assert doc["schema"] == 1
    assert doc["suite"] == "thm22" and doc["seed"] == 3
    assert doc["passed"] is True
    keys = [str(sorted(r["params"].items())) for r in doc["results"]]
    assert keys == sorted(keys)
    for r in doc["results"]:
        assert {"identity_id", "params", "residual_is_zero", "sample_seed"} <= set(r)


def test_identity_instances_deterministic():
    a = verify.run_identity_instances("saalschutz", seed=5, count=6)
    b = verify.run_identity_instances("saalschutz", seed=5, count=6)
    assert [r.params for r in a] == [r.params for r in b]
    c = verify.run_identity_instances("saalschutz", seed=6, count=6)
    assert [r.params for r in a] != [r.params for r in c]


def test_corrupted_instances_fail():
    results = verify.run_identity_instances("watson", seed=1, count=4, corrupt=True)
    assert not any(r.residual_is_zero for r in results)


def test_eigen_check_single():
    assert verify.eigen_check("D", 2, 1)
    assert verify.eigen_check("C", 1, 2, "t^2/q")
    assert verify.eigen_check("C", 2, 1, Mon.T())
    assert verify.eigen_check("C", 2, 1, Fraction(25, 49))


def test_suite_lassalle_small():
    # lassalleC: 6 special-T instances and 12 general-T ones (4 T values at n = 2)
    for suite, count in (("lassalleD", 6), ("lassalleC", 18)):
        rep = verify.run_suite(suite, seed=0, n_max=2, r_max=2)
        assert rep.passed and len(rep.results) == count


def test_run_suite_refuses_a_corrupt_identity_it_does_not_run():
    # a negative control that the suite never runs could not fail
    for suite in ("thm22", "soukan", "lassalleD"):
        with pytest.raises(UsageError):
            verify.run_suite(suite, seed=0, samples=3, corrupt="watson")
    assert not verify.run_suite("classical", seed=0, samples=3, corrupt="watson").passed
    assert not verify.run_suite("thm22", seed=0, samples=3, corrupt="thm_2_2").passed


def test_lassalleC_builds_each_g_row_once(monkeypatch):
    calls = []
    real = macdonald.g_series

    def counting(n, r):
        calls.append((n, r))
        return real(n, r)
    monkeypatch.setattr(macdonald, "g_series", counting)
    assert verify.run_suite("lassalleC", seed=0, n_max=2, r_max=2).passed
    # four general-T values read each row of n = 2
    assert sorted(calls) == [(2, 0), (2, 1), (2, 2)]


def test_lassalleC_builds_each_special_polynomial_once(monkeypatch):
    calls = []
    real = macdonald.tableau_poly_C_special

    def counting(n, r):
        calls.append((n, r))
        return real(n, r)
    monkeypatch.setattr(macdonald, "tableau_poly_C_special", counting)
    # the general-T instances build no special-T polynomial: leave them out
    monkeypatch.setattr(verify, "_general_T_values", lambda: [])
    assert verify.run_suite("lassalleC", seed=0).passed
    # 15 calls at the default n <= 3, r <= 4, one per (n, r)
    assert sorted(calls) == [(n, r) for n in range(1, 4) for r in range(5)]
