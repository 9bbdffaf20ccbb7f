import io
import json
import os
import random
import sys

import pytest

from cdmac.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_d1_r3_text(capsys):
    code, out, _ = run(capsys, "compute", "--family", "D", "--n", "1", "--r", "3",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "x1^3 + x1^-3"


def test_compute_c_r0(capsys):
    code, out, _ = run(capsys, "compute", "--family", "C", "--n", "1", "--r", "0")
    assert code == 0
    assert out.strip() == "1"


def test_routes_byte_equal(capsys):
    outs = []
    for via in ("tableau", "lassalle", "walgebra"):
        code, out, _ = run(capsys, "compute", "--family", "D", "--n", "2",
                           "--r", "2", "--via", via)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("case", [("D", "3", "3", None), ("D", "2", "4", None),
                                  ("C", "2", "3", "t^3"), ("C", "2", "3", "25/49")],
                         ids=lambda case: " ".join(filter(None, case)))
def test_routes_byte_equal_factored_vs_prs(capsys, case):
    # both routes reduce for display by a gcd against each binomial of their
    # own least common denominators, which differ; equal bytes hold because
    # the reduced form is unique
    family, n, r, T = case
    args = ["compute", "--family", family, "--n", n, "--r", r]
    if T is not None:
        args += ["--T", T]
    outs = []
    for via in ("tableau", "lassalle"):
        code, out, _ = run(capsys, *args, "--via", via)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("via", ["tableau", "lassalle", "walgebra"])
def test_budget_checked_on_every_route(capsys, via):
    # D (2, 2) sums 9 tableaux on every route
    code, out, err = run(capsys, "compute", "--family", "D", "--n", "2", "--r", "2",
                         "--via", via, "--budget", "8")
    assert code == 2 and out == ""
    assert err == "usage error: 9 tableaux exceed the budget 8\n"
    code, _, _ = run(capsys, "compute", "--family", "D", "--n", "2", "--r", "2",
                     "--via", via, "--budget", "9")
    assert code == 0


def test_deterministic_bytes_across_runs(capsys):
    args = ("verify", "--suite", "thm22", "--seed", "9", "--samples", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "--family", "C", "--n", "2", "--r", "1",
                       "--T", "symbolic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["family"] == "C" and doc["rank"] == 2
    assert all("exp" in t and "coeff" in t for t in doc["terms"])


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "--family", "D", "--n", "2", "--r", "1",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == "x_{1} + x_{2} + x_{2}^{-1} + x_{1}^{-1}"


def test_tableaux_listing(capsys):
    code, out, _ = run(capsys, "tableaux", "--family", "D", "--n", "2", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 9 and len(doc["tableaux"]) == 9
    code, out, _ = run(capsys, "tableaux", "--family", "D", "--n", "2", "--r", "1")
    assert json.loads(out)["count"] == 4
    code, out, _ = run(capsys, "tableaux", "--family", "C", "--n", "2", "--r", "0")
    doc = json.loads(out)
    assert doc["count"] == 1 and doc["tableaux"] == [[0, 0, 0, 0]]


def test_usage_errors_exit_2(capsys):
    code, _, _ = run(capsys, "compute", "--family", "E", "--n", "1", "--r", "1")
    assert code == 2
    code, _, _ = run(capsys, "compute", "--family", "D", "--n", "0", "--r", "1")
    assert code == 2
    code, _, _ = run(capsys, "compute", "--family", "D", "--n", "1", "--r", "1",
                     "--T", "t^2/q")
    assert code == 2  # family D has no T


@pytest.mark.parametrize("T", ["q^x", "t^x", "t^", "1/0", "five"])
def test_unparsable_T_exits_2(capsys, T):
    code, _, err = run(capsys, "compute", "--family", "C", "--n", "1", "--r", "1",
                       "--T", T)
    assert code == 2
    assert err.startswith("usage error: cannot parse T value")
    assert "Traceback" not in err


def test_T_exponent_outside_packing_exits_2(capsys):
    # 2 * 524288 half-powers of t used to carry into the q^{1/2} field
    code, out, err = run(capsys, "compute", "--family", "C", "--n", "1", "--r", "2",
                         "--T", "t^524288")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err


def test_T_exponent_product_outside_packing_exits_2(capsys):
    # every factor packs, but a product of them passes 2^20 half-powers of t
    code, out, err = run(capsys, "compute", "--family", "C", "--n", "1", "--r", "4",
                         "--T", "t^400000")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err


def test_T_exponent_range_refused_before_any_route(monkeypatch, capsys):
    # two binomials in T = t^400000 reach 1600000 half-powers of t at r = 4
    from cdmac import macdonald

    def unreachable(*args):
        raise AssertionError("the route started")
    monkeypatch.setattr(macdonald, "tableau_poly", unreachable)
    code, out, err = run(capsys, "compute", "--family", "C", "--n", "1", "--r", "4",
                         "--T", "t^400000")
    assert code == 2 and out == ""
    assert err.startswith("usage error: T = t^400000") and "Traceback" not in err


@pytest.mark.parametrize("T", ["t^200000", "q^200000", "t^-200000"])
def test_T_exponent_within_range_runs(capsys, T):
    # one binomial in T at r = 2: 400000 half-powers stay inside the range
    code, out, _ = run(capsys, "compute", "--family", "C", "--n", "2", "--r", "2",
                       "--T", T)
    assert code == 0 and out


def test_pole_exit_3(capsys):
    # T = q^-1 makes a lower q-shifted-factorial entry hit 1 at rank 1, row 2
    code, _, err = run(capsys, "compute", "--family", "C", "--n", "1", "--r", "2",
                       "--T", "q^-1")
    assert code == 3
    assert "arithmetic error" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm22", "--seed", "7",
                       "--samples", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"] is True
    rec = doc["suites"][0]["results"][0]
    assert {"identity_id", "params", "residual_is_zero", "sample_seed"} <= set(rec)


def test_verify_negative_control_corrupt_watson(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "classical", "--samples", "3",
                       "--corrupt", "watson")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    bad = [r for s in doc["suites"] for r in s["results"]
           if not r["residual_is_zero"]]
    assert bad and all(r["identity_id"] == "watson" for r in bad)


def test_verify_soukan_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "soukan", "--n", "2", "--r", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=D\nn=1\nr=3\nformat=text\n")
    code, out, _ = run(capsys, "compute", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "x1^3 + x1^-3"


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"family=\xff\n")
    code, out, err = run(capsys, "compute", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot read --config") and "Traceback" not in err


@pytest.mark.parametrize("suite", ["soukan", "thm22"])
def test_corrupt_identity_outside_the_suite_exits_2(capsys, suite):
    # a negative control that the chosen suite never runs cannot fail
    code, out, err = run(capsys, "verify", "--suite", suite, "--corrupt", "watson")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err


def test_unknown_corrupt_identity_exits_2(capsys):
    # a misspelt negative control must not pass as a clean run
    code, out, err = run(capsys, "verify", "--suite", "soukan", "--corrupt", "nope")
    assert code == 2 and out == ""
    assert "invalid choice: 'nope'" in err


_FUZZ_T = ["t^2/q", "symbolic", "t^3", "t^600000", "q^-1", "q^2", "1/0", "abc", "25/49",
           "5/7", "0", "1", "-1"]


def _fuzz_argv(rng, configs):
    argv = ["compute"]
    for flag, values, p in (
            ("--family", ["C", "D"], 0.9),
            ("--n", [str(k) for k in range(-1, 5)], 0.9),
            ("--r", [str(k) for k in range(-1, 5)], 0.9),
            ("--T", _FUZZ_T, 0.6),
            ("--budget", [str(rng.randint(-1, 250))], 0.9),  # C and D (4, 4) exceed 250
            ("--via", ["tableau", "lassalle", "walgebra"], 0.3),
            ("--format", ["text", "json", "latex"], 0.2),
            ("--config", configs, 0.2)):
        if rng.random() < p:
            argv += [flag, rng.choice(values)]
    return argv


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_fuzz_exit_codes(tmp_path, capsys, seed):
    # every input ends in the exit-code contract 0/1/2/3, never a traceback
    valid = tmp_path / "run.cfg"
    valid.write_text("family=D\nn=2\nr=2\n")
    configs = [str(valid), str(tmp_path / "missing.cfg"), str(tmp_path)]
    rng = random.Random(seed)
    for _ in range(20):
        argv = _fuzz_argv(rng, configs)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, as under `cdmac ... | head -c 150`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv,code", [
    (["compute", "--family", "D", "--n", "2", "--r", "2"], 0),
    (["verify", "--suite", "soukan", "--n", "2", "--r", "2"], 0),
    (["verify", "--suite", "classical", "--samples", "3", "--corrupt", "watson"], 1),
    (["tableaux", "--family", "C", "--n", "2", "--r", "2"], 0),
])
def test_closed_stdout_keeps_the_exit_code(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == code
    assert sys.stdout.name == os.devnull  # so the interpreter's last flush succeeds
    sys.stdout.close()
    assert capsys.readouterr().err == ""
