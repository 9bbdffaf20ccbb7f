"""Workload definitions: the fixed case lists, how each op runs and how its
output is checked.

Every op drives the program through a public entry point: `cdmac.cli.main`
in-process with stdout captured, or the `macdonald` / `walgebra` library
functions.  The modules are passed in (see `run.load_program`) so that the
set-up timing can re-import them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("compute", "compute-rational-T", "routes", "certify")

# (family, n, r, T, format) for the compute workloads; T None means the CLI
# default, format None means text.
_COMPUTE = [
    ("D", 3, 4, None, None),
    ("D", 2, 5, None, None),
    ("D", 4, 3, None, None),
    ("C", 3, 3, "t^2/q", None),
    ("C", 2, 3, "symbolic", None),
    ("C", 2, 4, "t^3", None),
    ("D", 3, 3, None, "json"),
    ("C", 3, 3, "t^3", "latex"),
]
_COMPUTE_RATIONAL_T = [("C", n, r, T, None)
                       for T in ("5/7", "25/49", "3/2") for n, r in ((2, 4), (3, 3))]
_ROUTES = [("D", 3, 4), ("C", 3, 4), ("D", 3, 5), ("D", 4, 4), ("D", 2, 6)]
# (suite, samples); None keeps the CLI default
_CERTIFY = [("eigen", None), ("principal", None), ("transformII", None),
            ("transformIII", None), ("classical", 500), ("thm22", 500)]


@dataclass(frozen=True)
class Outcome:
    """What one op produced.

    status is "ok", "known-defect" (the documented thm_2_2 false failure),
    "wrong" (an output that fails its check), "error" (an exception or an
    unexpected exit code) or "deadline" (the per-op deadline ran out).
    digest identifies the output bytes, so traced and untraced passes can be
    compared.
    """
    status: str
    digest: str = ""
    detail: str = ""
    stdout: str = ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class ComputeCase:
    """`cdmac compute`, checked byte for byte against the recorded sha256."""

    def __init__(self, family, n, r, T, fmt, reference):
        self.family, self.n, self.r, self.T, self.fmt = family, n, r, T, fmt
        self.argv = ["compute", "--family", family, "--n", str(n), "--r", str(r)]
        if T is not None:
            self.argv += ["--T", T]
        if fmt is not None:
            self.argv += ["--format", fmt]
        self.id = " ".join(self.argv)
        self.expected = reference.get(self.id)

    def run(self, mods):
        return _run_cli(mods["cli"], self.argv)

    def judge(self, result) -> Outcome:
        rc, out, err = result
        if rc != 0:
            return Outcome("error", _sha(out), f"exit {rc}: {err.strip()[-200:]}")
        digest = _sha(out)
        if digest != self.expected:
            return Outcome("wrong", digest, "stdout sha256 differs from the reference")
        return Outcome("ok", digest, stdout=out)

    def parse_back(self, mods, stdout: str) -> bool:
        """Read the printed polynomial back and compare it with the inversion
        route by `==` (an independent construction)."""
        laurent, macdonald, poly, scalar = (mods["laurent"], mods["macdonald"],
                                            mods["poly"], mods["scalar"])
        if self.fmt == "json":
            doc = json.loads(stdout)
            p = laurent.LaurentPoly(self.n, {
                tuple(t["exp"]): scalar.Scalar(poly.SparsePoly.parse(t["coeff"]["num"]),
                                               poly.SparsePoly.parse(t["coeff"]["den"]))
                for t in doc["terms"]})
        else:
            if self.fmt == "latex":
                # no LaTeX reader exists; the same case is printed as text
                argv = self.argv[:self.argv.index("--format")]
                rc, stdout, _ = _run_cli(mods["cli"], argv)
                if rc != 0:
                    return False
            p = laurent.LaurentPoly.parse(self.n, stdout)
        ref = macdonald.lassalle_invert(self.family, self.n, self.r,
                                        self._lassalle_T(mods))
        return p == ref

    def _lassalle_T(self, mods):
        macdonald, poly = mods["macdonald"], mods["poly"]
        if self.family == "D":
            return None
        if self.T in (None, "t^2/q"):
            return macdonald.T_SPECIAL
        if self.T == "symbolic":
            return poly.Mon.T()
        if self.T.startswith("t^"):
            return poly.Mon.t(int(self.T[2:]))
        return Fraction(self.T)


class RoutesCase:
    """Tableau sum, inversion route and correlation route; both `==` must hold."""

    def __init__(self, family, n, r):
        self.family, self.n, self.r = family, n, r
        self.id = f"routes {family} n={n} r={r}"

    def run(self, mods):
        macdonald, walgebra = mods["macdonald"], mods["walgebra"]
        T = macdonald.T_SPECIAL if self.family == "C" else None
        tab = macdonald.tableau_poly(self.family, self.n, self.r, T)
        inv = macdonald.lassalle_invert(self.family, self.n, self.r, T)
        phi = walgebra.phi_principal(self.family, self.n, self.r, path="tableau")
        same = (tab == inv, tab == phi)
        return (tab, inv, phi), same

    def judge(self, result) -> Outcome:
        polys, same = result
        digest = _sha("\n".join(str(p) for p in polys))
        if not all(same):
            return Outcome("wrong", digest, f"route equalities {same}")
        return Outcome("ok", digest)


class CertifyCase:
    """`cdmac verify`; needs exit 0 and "passed": true."""

    def __init__(self, suite, samples, seed):
        self.argv = ["verify", "--suite", suite]
        if samples is not None:
            self.argv += ["--samples", str(samples)]
        self.id = " ".join(self.argv)
        self.argv += ["--seed", str(seed)]

    def run(self, mods):
        return _run_cli(mods["cli"], self.argv)

    def judge(self, result) -> Outcome:
        rc, out, err = result
        digest = _sha(out)
        if rc not in (0, 1):
            return Outcome("error", digest, f"exit {rc}: {err.strip()[-200:]}")
        doc = json.loads(out)
        if rc == 0 and doc["passed"]:
            return Outcome("ok", digest)
        failing = [res for s in doc["suites"] for res in s["results"]
                   if not res["residual_is_zero"]]
        if failing and all(_is_thm22_degenerate(res) for res in failing):
            return Outcome("known-defect", digest,
                           f"{len(failing)} thm_2_2 instances with f = a*q^m")
        return Outcome("wrong", digest,
                       f"exit {rc}, {len(failing)} failing instances, first "
                       f"{failing[:1]}")


def _is_thm22_degenerate(res) -> bool:
    """The documented false failure of thm_2_2: f = a*q^m for some m >= 1.

    Then an upper pair SqrtPair(a*q/f) or SqrtPair(a*q^2/f) of the W-series
    reaches (1; q^2)_k = 0, the true term is 0/0, and series_eval stops at
    num == 0 before its pole check.
    """
    if res["identity_id"] != "thm_2_2":
        return False
    p = {k: Fraction(v) for k, v in res["params"].items()}
    x = p["a"]
    for _ in range(64):
        x *= p["q"]
        if x == p["f"]:
            return True
    return False


def build_cases(workload: str, seed: int, reference: dict):
    """The workload's fixed case list (the seed only reaches `verify --seed`)."""
    if workload == "compute":
        return [ComputeCase(*c, reference) for c in _COMPUTE]
    if workload == "compute-rational-T":
        return [ComputeCase(*c, reference) for c in _COMPUTE_RATIONAL_T]
    if workload == "routes":
        return [RoutesCase(*c) for c in _ROUTES]
    if workload == "certify":
        return [CertifyCase(suite, samples, seed) for suite, samples in _CERTIFY]
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(n_cases: int, seed: int, pass_index: int) -> list[int]:
    """Case order of one pass, shuffled from the workload seed."""
    order = list(range(n_cases))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def all_compute_cases(reference: dict):
    """Every case whose stdout has a recorded sha256."""
    return [ComputeCase(*c, reference) for c in _COMPUTE + _COMPUTE_RATIONAL_T]
