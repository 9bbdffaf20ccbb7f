from fractions import Fraction

import pytest

from cdmac import verify
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
    rep = verify.run_suite("lassalleD", seed=0, n_max=2, r_max=2)
    assert rep.passed and len(rep.results) == 6
