"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 arithmetic (pole or non-clearing denominator) error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import macdonald, qseries, verify, walgebra
from .errors import NonLaurentResultError, PoleError, UsageError
from .laurent import LaurentPoly
from .poly import _MASK, Mon
from .tableaux import Alphabet, count_closed_form, enumerate_tableaux

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ARITH = 3


def _parse_T(text: str):
    if text in ("t^2/q", "special"):
        return macdonald.T_SPECIAL
    if text in ("symbolic", "T"):
        return Mon.T()
    try:
        if text.startswith("t^"):
            return Mon.t(int(text[2:]))
        if text.startswith("q^"):
            return Mon.q(int(text[2:]))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse T value {text!r}; use t^2/q, symbolic, "
                         "t^K, q^K or a rational like 5/7") from None


def _compute(args) -> tuple[int, str]:
    family = args.family
    T = _parse_T(args.T) if args.T is not None else None
    Tm = macdonald._family_T(family, T)  # the family/T rule holds on every route
    if macdonald._T_reach(args.r, Tm) > _MASK:  # checked before any route starts work
        raise UsageError(f"T = {args.T} takes generator exponents at r = {args.r} past "
                         "the 20-bit packing range [0, 2^20)")
    count = count_closed_form(family, args.n, args.r)
    if count > args.budget:  # checked before any route starts work
        raise UsageError(f"{count} tableaux exceed the budget {args.budget}")
    if args.via == "tableau":
        p = macdonald.tableau_poly(family, args.n, args.r, T)
    elif args.via == "lassalle":
        p = macdonald.lassalle_invert(family, args.n, args.r, T)
    elif args.via == "walgebra":
        if T is not None and T != macdonald.T_SPECIAL:
            raise UsageError("the correlation route only produces family C at T = t^2/q")
        p = walgebra.phi_principal(family, args.n, args.r)
    else:
        raise UsageError(f"unknown route {args.via!r}")
    # reduce for display so equal values print identically on every route
    return EXIT_OK, _format_poly(p.canonical(), args)


def _format_poly(p: LaurentPoly, args) -> str:
    if args.format == "text":
        return str(p)
    if args.format == "latex":
        return p.to_latex()
    doc = {"schema": 1, "family": args.family, "n": args.n, "r": args.r,
           "via": args.via, **p.to_json()}
    if args.T is not None:
        doc["T"] = args.T
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _verify(args) -> tuple[int, str]:
    suites = verify.SUITES[:-1] if args.suite == "all" else (args.suite,)
    reports = []
    ok = True
    for name in suites:
        # under --suite all only the suite that runs the identity corrupts it;
        # a chosen suite that does not run it raises UsageError
        corrupt = args.corrupt
        if args.suite == "all" and corrupt not in verify.suite_identities(name):
            corrupt = None
        rep = verify.run_suite(name, seed=args.seed, samples=args.samples,
                               n_max=args.n, r_max=args.r, budget=args.budget,
                               corrupt=corrupt)
        reports.append(rep.to_json())
        ok = ok and rep.passed
    doc = {"schema": 1, "passed": ok, "suites": reports}
    return (EXIT_OK if ok else EXIT_VERIFY_FAILED,
            json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _tableaux(args) -> tuple[int, str]:
    alpha = Alphabet(args.family, args.n)
    rows = [list(t.theta) for t in enumerate_tableaux(alpha, args.r)]
    doc = {"schema": 1, "family": args.family, "n": args.n, "r": args.r,
           "letters": alpha.letter_names(), "count": len(rows), "tableaux": rows}
    return EXIT_OK, json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _apply_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into key=value flags placed before the rest."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise UsageError("--config needs a file path")
    extra = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read --config {path!r}: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.extend([f"--{key.strip()}", value.strip()])
    return argv[:i] + extra + argv[i + 2:]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cdmac",
                                 description="one-row Macdonald polynomials of "
                                             "types C and D, exactly")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="print a one-row polynomial")
    pc.add_argument("--family", choices=("C", "D"), required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--r", type=int, required=True)
    pc.add_argument("--T", default=None,
                    help="family C parameter: t^2/q, symbolic, t^K, q^K or a rational")
    pc.add_argument("--via", choices=("tableau", "lassalle", "walgebra"),
                    default="tableau")
    pc.add_argument("--format", choices=("text", "json", "latex"), default="text")
    pc.add_argument("--budget", type=int, default=50000)
    pc.set_defaults(fn=_compute)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=verify.SUITES, required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=25)
    pv.add_argument("--n", type=int, default=3)
    pv.add_argument("--r", type=int, default=4)
    pv.add_argument("--budget", type=int, default=50000)
    pv.add_argument("--corrupt", default=None, choices=qseries.IDENTITY_IDS, metavar="IDENTITY",
                    help="negative-control fixture: corrupt the named identity")
    pv.set_defaults(fn=_verify)

    pt = sub.add_parser("tableaux", help="list one-row tableaux as occupancy vectors")
    pt.add_argument("--family", choices=("C", "D"), required=True)
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--r", type=int, required=True)
    pt.set_defaults(fn=_tableaux)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    code = EXIT_OK
    try:
        args = parser.parse_args(_apply_config(argv))
        if getattr(args, "n", 1) < 1 or getattr(args, "r", 0) < 0:
            raise UsageError("need n >= 1 and r >= 0")
        code, text = args.fn(args)
        print(text, flush=True)
        return code
    except BrokenPipeError:
        # the reader closed stdout early: keep the exit code already decided,
        # and let the interpreter's final flush go to os.devnull
        sys.stdout = open(os.devnull, "w")
        return code
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PoleError, NonLaurentResultError, ZeroDivisionError) as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_ARITH


if __name__ == "__main__":
    sys.exit(main())
