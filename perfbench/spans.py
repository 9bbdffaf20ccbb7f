"""Outside-in layer tracing.

A Tracer wraps chosen functions and methods of the program's modules with a
span recorder, for the length of one traced pass.  Spans nest on a stack:
each records its name, its parent and its duration, and a span's self time
is its duration minus the part of that interval its child spans cover.
Spans are aggregated in memory per (parent, name) edge, since the hot layers
run hundreds of thousands of times per pass.

Count hooks run after a call returns.  Their time is charged to no span (it
is taken out of the parent's self time) and adds to the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

_SCALAR_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__")
_FORMAT = ("__str__", "to_json", "to_latex")

# span name -> (module, qualified attribute names); every binding of each
# function in any program module is patched, not only the defining one
SPANS = {
    "cli.main": ("cli", ["main"]),
    "verify.run_suite": ("verify", ["run_suite"]),
    "macdonald.tableau_poly": ("macdonald", ["tableau_poly"]),
    "macdonald.lassalle_invert": ("macdonald", ["lassalle_invert"]),
    "macdonald.g_series": ("macdonald", ["g_series"]),
    "walgebra.phi_principal": ("walgebra", ["phi_principal"]),
    "walgebra.GammaTable.pair": ("walgebra", ["GammaTable.pair"]),
    "tableaux.enumerate_tableaux": ("tableaux", ["enumerate_tableaux"]),
    "scalar.sum_factored": ("scalar", ["sum_factored"]),
    "scalar.Scalar.canonical": ("scalar", ["Scalar.canonical"]),
    "scalar.Scalar.arith": ("scalar", [f"Scalar.{m}" for m in _SCALAR_ARITH]),
    "scalar.Scalar.eq": ("scalar", ["Scalar.__eq__"]),
    "poly.poly_gcd": ("poly", ["poly_gcd"]),
    "poly.SparsePoly.mul": ("poly", ["SparsePoly.__mul__"]),
    "laurent.LaurentPoly.mul": ("laurent", ["LaurentPoly.__mul__"]),
    "laurent.divide_exact": ("laurent", ["divide_exact"]),
    "laurent.format": ("laurent", [f"LaurentPoly.{m}" for m in _FORMAT]),
    "koornwinder.koornwinder_apply": ("koornwinder", ["koornwinder_apply"]),
    "qseries.series_eval": ("qseries", ["series_eval"]),
}

COUNTS = ("tableaux.enumerated", "scalar.lcd.factors", "scalar.lcd.degree",
          "poly.poly_gcd.useful", "poly.output.coef_bits_max", "laurent.format.bytes")

ROOT = "pass"


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.hook_s = 0.0
        self._stack = [[ROOT, 0.0]]  # [name, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                slot = edges.get((parent[0], name))
                if slot is None:
                    edges[(parent[0], name)] = [1, dur, dur - frame[1]]
                else:
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame[1]
            if hook is not None:
                h0 = clock()
                hook(args, result)
                h = clock() - h0
                parent[1] += h
                self.hook_s += h
            return result
        return span

    # -- count hooks -----------------------------------------------------------

    def _on_enumerate(self, args, result):
        self.counts["tableaux.enumerated"] += len(result)

    def _on_sum_factored(self, args, result):
        # the least common denominator sum_factored builds: per binomial
        # factor, the largest multiplicity any term needs
        need: dict = {}
        for term in args[0]:
            if term.is_zero():
                continue
            for key, (p, m) in term.factors.items():
                if -m > need.get(key, (None, 0))[1]:
                    need[key] = (p, -m)
        for p, k in need.values():
            self.counts["scalar.lcd.factors"] += k
            self.counts["scalar.lcd.degree"] += k * max(sum(e) for e in p.terms())

    def _on_gcd(self, args, result):
        if not result.is_monomial():
            self.counts["poly.poly_gcd.useful"] += 1

    def _on_format(self, args, result):
        text = result if isinstance(result, str) else \
            json.dumps(result, sort_keys=True, separators=(",", ":"))
        self.counts["laurent.format.bytes"] += len(text)
        bits = self.counts["poly.output.coef_bits_max"]
        Scalar = self.mods["scalar"].Scalar
        for c in args[0].terms.values():
            polys = (c.num, c.den) if isinstance(c, Scalar) else ()
            fracs = [v for p in polys for v in p.terms().values()] or [c]
            for f in fracs:
                bits = max(bits, abs(f.numerator).bit_length(), f.denominator.bit_length())
        self.counts["poly.output.coef_bits_max"] = bits

    _HOOKS = {"tableaux.enumerate_tableaux": "_on_enumerate",
              "scalar.sum_factored": "_on_sum_factored",
              "poly.poly_gcd": "_on_gcd",
              "laurent.format": "_on_format"}

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        program_modules = [m for n, m in sys.modules.items()
                           if n == "cdmac" or n.startswith("cdmac.")]
        for name, (mod, attrs) in SPANS.items():
            hook = getattr(self, self._HOOKS[name]) if name in self._HOOKS else None
            for qual in attrs:
                owner = self.mods[mod]
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if any(o is owner and a == attr for o, a, _ in self._patches):
                    continue  # an alias patched together with its original
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = self._wrap(name, fn, hook)
                if name == "scalar.sum_factored":
                    wrapped = _listing_args(wrapped)
                if isinstance(owner, type):
                    # aliases such as __radd__ = __add__ are bound to the same function
                    for a, v in list(vars(owner).items()):
                        if v is fn:
                            self._patch(owner, a, wrapped)
                else:
                    for m in program_modules:
                        for a, v in list(vars(m).items()):
                            if v is fn:
                                self._patch(m, a, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of a span over all its parents."""
        calls = total = own = 0.0
        for (_, n), (c, t, s) in self.edges.items():
            if n == name:
                calls += c
                total += t
                own += s
        return int(calls), total, own

    def tree(self) -> list[dict]:
        return [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                for (p, n), (c, t, s) in sorted(self.edges.items())]


def _listing_args(span):
    """Hand sum_factored a list, so its count hook can read the terms again."""
    @functools.wraps(span)
    def call(terms, *args, **kwargs):
        if not isinstance(terms, list):
            terms = list(terms)
        return span(terms, *args, **kwargs)
    return call

