"""Verification suites: identity checks at exact rational samples and the
symbolic polynomial equalities, reported per instance.

Sampled checks draw parameters from a pool of small fractions built on
distinct primes; a draw that hits a pole is retried a bounded number of
times and then reported as a failure.  Reports are deterministic for a fixed
seed and are ordered by instance key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import macdonald, qseries, walgebra
from .errors import PoleError, UsageError
from .koornwinder import (bc_specialize, koornwinder_apply,
                          koornwinder_eigenvalue, triangularity_check)
from .laurent import LaurentPoly
from .poly import Mon
from .qseries import TransformInstance, verify_identity
from .scalar import Scalar
from .tableaux import count_up_to

SUITES = ("classical", "thm22", "transformII", "transformIII", "lassalleD",
          "lassalleC", "eigen", "principal", "soukan", "all")

_POOL = [Fraction(a, b) for a, b in
         [(2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7), (4, 7), (2, 9), (5, 9),
          (7, 9), (3, 11), (5, 11), (7, 11), (9, 11), (2, 13), (5, 13), (7, 13),
          (11, 13), (3, 8), (5, 8), (7, 8), (3, 4), (5, 6), (7, 10), (9, 13)]]

_RETRIES = 8


@dataclass(frozen=True)
class InstanceResult:
    identity_id: str
    params: dict
    residual_is_zero: bool
    sample_seed: int
    note: str = ""

    def to_json(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": {k: str(v) for k, v in self.params.items()},
            "residual_is_zero": self.residual_is_zero,
            "sample_seed": self.sample_seed,
            **({"note": self.note} if self.note else {}),
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.residual_is_zero for r in self.results)

    def to_json(self) -> dict:
        ordered = sorted(self.results, key=lambda r: (r.identity_id, str(sorted(r.params.items()))))
        return {
            "schema": 1,
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "results": [r.to_json() for r in ordered],
        }


# ---------------------------------------------------------------------------
# sampled identity instances
# ---------------------------------------------------------------------------

def _draw(rng: random.Random, k: int) -> list[Fraction]:
    return rng.sample(_POOL, k)


def _gen_instance(identity_id: str, rng: random.Random) -> TransformInstance:
    if identity_id == "watson":
        a, b, c, d, e, q = _draw(rng, 6)
        return TransformInstance("watson", {"a": a, "b": b, "c": c, "d": d, "e": e,
                                            "q": q, "n": rng.randrange(0, 5)})
    if identity_id == "saalschutz":
        a, b, c, q = _draw(rng, 4)
        return TransformInstance("saalschutz", {"a": a, "b": b, "c": c, "q": q,
                                                "n": rng.randrange(0, 6)})
    if identity_id == "sum_6phi5":
        a, b, c, q = _draw(rng, 4)
        return TransformInstance("sum_6phi5", {"a": a, "b": b, "c": c, "q": q,
                                               "n": rng.randrange(0, 6)})
    if identity_id in ("sears_III15", "sears_III16"):
        a, b, c, d, e, q = _draw(rng, 6)
        return TransformInstance(identity_id, {"a": a, "b": b, "c": c, "d": d,
                                               "e": e, "q": q, "n": rng.randrange(0, 5)})
    if identity_id == "sears_2_10_4":
        a, b, c, e, f, q = _draw(rng, 6)
        return TransformInstance(identity_id, {"a": a, "b": b, "c": c, "e": e,
                                               "f": f, "q": q, "n": rng.randrange(0, 5)})
    if identity_id == "ns_lemma":
        a, f, q, z = _draw(rng, 4)
        extra = tuple(_draw(rng, rng.randrange(0, 3)))
        return TransformInstance("ns_lemma", {"a": a, "f": f, "q": q, "z": z,
                                              "extra": extra,
                                              "theta": rng.randrange(0, 5)})
    if identity_id == "thm_2_2":
        a, f, a2, q = _draw(rng, 4)
        return TransformInstance("thm_2_2", {"a": a, "f": f, "a2": a2,
                                             "a3": a * f / a2, "q": q,
                                             "theta": rng.randrange(0, 6)})
    raise ValueError(identity_id)


def run_identity_instances(identity_id: str, seed: int, count: int,
                           corrupt: bool = False) -> list[InstanceResult]:
    out = []
    for idx in range(count):
        rng = random.Random((seed, identity_id, idx).__repr__())
        ok = False
        note = ""
        inst = None
        for _ in range(_RETRIES):
            inst = _gen_instance(identity_id, rng)
            try:
                residual = verify_identity(inst)
                if corrupt:
                    residual = _corrupted_residual(inst)
                ok = residual == 0
                break
            except PoleError:
                note = "resampled after pole"
                continue
        else:
            note = "pole retries exhausted"
        out.append(InstanceResult(identity_id, dict(inst.params), ok, seed, note))
    return out


def _corrupted_residual(inst: TransformInstance):
    """Deliberately wrong right-hand side (negative-control fixture)."""
    p = inst.params
    if inst.identity_id == "watson":
        a, b, c, d, e, q, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["q"], p["n"]
        z = a * a * q ** (n + 2) / (b * c * d * e)
        lhs = qseries.series_eval(qseries.HypSeriesSpec(
            (a, b, c, d, e, q ** -n), (), q, z, "W"))
        pre = qseries.qpoch_multi([a * q, a * q / (d * e)], q, n) / \
            qseries.qpoch_multi([a * q / d, a * q / e], q, n + 1)  # wrong index
        rhs = pre * qseries.series_eval(qseries.HypSeriesSpec(
            (q ** -n, d, e, a * q / (b * c)),
            (a * q / b, a * q / c, d * e * q ** -n / a), q, q))
        return lhs - rhs
    return verify_identity(inst) + 1


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# the sampled identities of each suite that has any; read through
# suite_identities only
SUITE_IDENTITIES = {
    "classical": ("watson", "saalschutz", "sears_III15", "sears_III16",
                  "sears_2_10_4", "sum_6phi5", "ns_lemma"),
    "thm22": ("thm_2_2",),
}


def suite_identities(name: str) -> tuple[str, ...]:
    """The sampled identities that suite `name` runs; "all" runs every one."""
    return tuple(ident for suite, idents in SUITE_IDENTITIES.items()
                 if name in (suite, "all") for ident in idents)


def _sample_qt(seed: int, count: int = 3) -> list[tuple[Fraction, Fraction]]:
    rng = random.Random((seed, "qt").__repr__())
    out = []
    while len(out) < count:
        q, t = rng.sample(_POOL, 2)
        if (q, t) not in out:
            out.append((q, t))
    return out


def _suite_transform(which: str, seed, n_max=3, k_max=3, m_max=2):
    fn = qseries.verify_transform_II if which == "II" else qseries.verify_transform_III
    out = []
    from itertools import product as iproduct
    for q, t in _sample_qt(seed):
        for n in range(2, n_max + 1):
            for K in range(k_max + 1):
                for m in iproduct(range(m_max + 1), repeat=n):
                    try:
                        ok = fn(n, K, list(m), q, t) == 0
                        note = ""
                    except PoleError:
                        ok, note = False, "pole"
                    out.append(InstanceResult(
                        f"transform_{which}",
                        {"n": n, "K": K, "m": list(m), "q": q, "t": t},
                        ok, seed, note))
    return out


def _suite_lassalleD(seed, n_max=3, r_max=4):
    out = []
    for n in range(1, n_max + 1):
        for r in range(r_max + 1):
            ok = macdonald.tableau_poly_D(n, r) == macdonald.lassalle_invert("D", n, r)
            out.append(InstanceResult("lassalle_D", {"n": n, "r": r}, ok, seed))
    return out


def _general_T_values():
    return [("symbolic", Mon.T()), ("t^3", Mon.t(3)), ("5/7", Fraction(5, 7)),
            ("25/49", Fraction(25, 49))]


def _suite_lassalleC(seed, n_max=3, r_max=4):
    out = []
    # every general-T instance at (n, r) subtracts the same G_r row
    rows = {(n, r): macdonald.g_series(n, r)
            for n in range(2, n_max + 1) for r in range(r_max + 1)}
    for n in range(1, n_max + 1):
        for r in range(r_max + 1):
            special = macdonald.tableau_poly_C_special(n, r)
            ok = special == macdonald.lassalle_invert("C", n, r, macdonald.T_SPECIAL)
            ok = ok and macdonald.tableau_poly_C_general(n, r, macdonald.T_SPECIAL) == special
            out.append(InstanceResult("lassalle_C_special", {"n": n, "r": r}, ok, seed))
    for label, T in _general_T_values():
        for n in range(2, n_max + 1):
            fam = {row: macdonald.tableau_poly_C_general(n, row, T)
                   for row in range(r_max + 1)}
            for r in range(r_max + 1):
                rhs = macdonald.lassalle_expand("C", n, r, fam, T)
                ok = (rhs - rows[n, r]).is_zero()
                out.append(InstanceResult("lassalle_C_general",
                                          {"n": n, "r": r, "T": label}, ok, seed))
    return out


_EIGEN_SAMPLES = [
    (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7)),
    (Fraction(3, 4), Fraction(2, 7), Fraction(3, 11)),
]


def _eigen_variants(n_max, r_max):
    """(family, n, r, T label, T) per certificate."""
    for n in range(1, n_max + 1):
        for r in range(r_max + 1):
            yield ("D", n, r, None, None)
            yield ("C", n, r, macdonald.T_SPECIAL, macdonald.T_SPECIAL)
    for label, T in _general_T_values():
        if label == "5/7":
            # sqrt(T) is outside the coefficient field for a non-square
            # rational; the general-T certificate runs at 25/49 instead
            continue
        for n in range(2, n_max + 1):
            for r in range(r_max + 1):
                yield ("C", n, r, label, T)


def eigen_check(family: str, n: int, r: int, T=None,
                sample: tuple[Fraction, Fraction, Fraction] | None = None) -> bool:
    """Certify one polynomial: triangular, symmetric, and an eigenfunction.

    The difference-operator identity is checked exactly at sampled rational
    generator values (x stays symbolic); triangularity and hyperoctahedral
    symmetry are checked on the symbolic polynomial.
    """
    u, v, w = sample or _EIGEN_SAMPLES[0]
    p = macdonald.tableau_poly(family, n, r, T)
    b_val = Scalar.from_mon(macdonald._family_T(family, T)).eval(u, v, w)
    if not triangularity_check(p, r):
        return False
    if not p.hyperoctahedral_check():
        return False
    ps = p.map_coefficients(lambda c: c.eval(u, v, w))
    q_val, t_val = u * u, v * v
    kp = bc_specialize(Fraction(1), b_val, q_val, t_val)
    lam = tuple([r] + [0] * (n - 1))
    d = koornwinder_eigenvalue(lam, kp).d_lambda
    return koornwinder_apply(ps, kp) == ps.scale(d)


def _suite_eigen(seed, n_max=3, r_max=4):
    out = []
    rng = random.Random((seed, "eigen").__repr__())
    for family, n, r, label, T in _eigen_variants(n_max, r_max):
        sample = _EIGEN_SAMPLES[rng.randrange(len(_EIGEN_SAMPLES))]
        try:
            ok = eigen_check(family, n, r, T, sample)
            note = ""
        except PoleError:
            ok, note = False, "pole"
        out.append(InstanceResult("eigen", {"family": family, "n": n, "r": r,
                                            "T": label, "sample": sample}, ok, seed, note))
    return out


def _suite_principal(seed, n_max=3, r_max=4):
    out = []
    for n in range(1, n_max + 1):
        for r in range(r_max + 1):
            if n == 1:
                # closed form degenerates: check against x^r + x^-r directly
                p = macdonald.tableau_poly_D(1, r)
                expect = LaurentPoly(1, {(r,): Scalar.one(), (-r,): Scalar.one()}) \
                    if r else LaurentPoly.one(1, Scalar.one())
                ok = p == expect
            else:
                ok = macdonald.principal_specialize("D", n, r) == \
                    macdonald.principal_closed_form("D", n, r)
            out.append(InstanceResult("principal_D", {"n": n, "r": r}, ok, seed))
    for n in range(2, n_max + 1):
        for r in range(r_max + 1):
            for label, T in (("special", macdonald.T_SPECIAL), ("symbolic", Mon.T())):
                ok = macdonald.principal_specialize("C", n, r, T) == \
                    macdonald.principal_closed_form("C", n, r, T)
                out.append(InstanceResult(f"principal_C_{label}", {"n": n, "r": r}, ok, seed))
    return out


def _suite_soukan(seed, l_max=3, r_max=3, budget=50000):
    out = []
    for family in ("C", "D"):
        for l in range(1, l_max + 1):
            for r in range(r_max + 1):
                res = walgebra.correlation_residual(family, l, r, path="tableau")
                ok = res.is_zero()
                both = walgebra.phi_principal(family, l, r, path="full", budget=budget) == \
                    walgebra.phi_principal(family, l, r, path="tableau")
                out.append(InstanceResult("soukan", {"family": family, "l": l, "r": r},
                                          ok and both, seed))
    return out


def _suite_builds(name: str, n_max: int, r_max: int):
    """(family, n, r) of each polynomial that suite `name` builds, once per
    build, smallest n first."""
    grid = ((n, r) for n in range(1, n_max + 1) for r in range(r_max + 1))
    if name == "lassalleD":  # tableau and inversion route
        for n, r in grid:
            yield from [("D", n, r)] * 2
    elif name == "lassalleC":  # three special-T builds, a G row and each general T
        for n, r in grid:
            yield from [("C", n, r)] * (3 + (n >= 2) * (1 + len(_general_T_values())))
    elif name == "eigen":
        for family, n, r, _, _ in _eigen_variants(n_max, r_max):
            yield family, n, r
    elif name == "principal":  # D, and C at two values of T
        for n, r in grid:
            yield from [("D", n, r)] + [("C", n, r)] * (2 * (n >= 2))
    elif name == "soukan":  # two tableau paths and the tableau sum; the full
        for family in ("C", "D"):  # path checks (2l)^r itself
            for n in range(1, min(n_max, 3) + 1):
                for r in range(min(r_max, 3) + 1):
                    yield from [(family, n, r)] * 3


def check_budget(names, n_max: int, r_max: int, budget: int, samples: int = 0) -> None:
    """Refuse, before any work, a chosen suite that would run no instance,
    more than budget sampled instances (samples per identity), or polynomial
    builds that sum more than budget tableaux (tableaux.count_up_to each)."""
    drawn = samples * sum(len(suite_identities(name)) for name in names)
    if drawn > budget:
        raise UsageError(f"{drawn} sampled instances exceed the budget {budget}")
    total = 0
    for name in names:
        if (samples < 1 if name in SUITE_IDENTITIES else
                n_max < (2 if name.startswith("transform") else 1) or r_max < 0):
            raise UsageError(f"suite {name} runs no instance at samples = {samples}, "
                             f"n <= {n_max}, r <= {r_max}")
        for family, n, r in _suite_builds(name, n_max, r_max):
            total += count_up_to(family, n, r, budget - total)
            if total > budget:
                raise UsageError(f"suite {' + '.join(names)} at n <= {n_max}, r <= {r_max} "
                                 f"needs more than {budget} tableaux, the budget")


def run_suite(name: str, seed: int = 0, samples: int = 25, n_max: int = 3,
              r_max: int = 4, budget: int = 50000, corrupt: str | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    check_budget(SUITES[:-1] if name == "all" else (name,), n_max, r_max, budget, samples)
    idents = suite_identities(name)
    if corrupt is not None and corrupt not in idents:
        # a negative control that the suite never runs cannot fail
        raise UsageError(f"suite {name} runs no identity {corrupt!r} to corrupt")
    report = SuiteReport(name, seed)
    for ident in idents:
        report.results.extend(run_identity_instances(
            ident, seed, samples, corrupt=(corrupt == ident)))
    if name in ("transformII", "all"):
        report.results.extend(_suite_transform("II", seed, n_max=min(n_max, 3)))
    if name in ("transformIII", "all"):
        report.results.extend(_suite_transform("III", seed, n_max=min(n_max, 3)))
    if name in ("lassalleD", "all"):
        report.results.extend(_suite_lassalleD(seed, n_max, r_max))
    if name in ("lassalleC", "all"):
        report.results.extend(_suite_lassalleC(seed, n_max, r_max))
    if name in ("eigen", "all"):
        report.results.extend(_suite_eigen(seed, n_max, r_max))
    if name in ("principal", "all"):
        report.results.extend(_suite_principal(seed, n_max, r_max))
    if name in ("soukan", "all"):
        report.results.extend(_suite_soukan(seed, min(n_max, 3), min(r_max, 3), budget))
    return report
