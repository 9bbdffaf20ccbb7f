"""Laurent polynomials in x_1..x_n with coefficients in an exact field.

Coefficients are duck-typed: the symbolic regime uses Scalar (over
Q(q^(1/2), t^(1/2), T^(1/2))), the sampled regime plain Fraction.  Zero
coefficients are never stored; the exponent order used for serialization is
descending lexicographic on the exponent vectors.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le

from .errors import NonLaurentResultError, UsageError
from .scalar import Scalar


class LaurentPoly:
    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[tuple[int, ...], object] | None = None):
        self.rank = rank
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != rank:
                    raise UsageError(f"exponent {e} does not match rank {rank}")
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int, one=1) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: one})

    @classmethod
    def monomial(cls, rank: int, e: tuple[int, ...], coeff=1) -> "LaurentPoly":
        return cls(rank, {tuple(e): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, e: tuple[int, ...]):
        """Coefficient at exponent e (a zero field element when absent)."""
        return self.terms.get(tuple(e), 0)

    def support(self) -> set[tuple[int, ...]]:
        return set(self.terms)

    def _check_rank(self, other: "LaurentPoly"):
        if self.rank != other.rank:
            raise UsageError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_rank(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return LaurentPoly(self.rank, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_rank(other)
        out: dict[tuple[int, ...], object] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                p = ca * cb
                if e in out:
                    s = out[e] + p
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif p:
                    out[e] = p
        return LaurentPoly(self.rank, out)

    def scale(self, c) -> "LaurentPoly":
        if not c:
            return LaurentPoly(self.rank)
        return LaurentPoly(self.rank, {e: v * c for e, v in self.terms.items()})

    def map_coefficients(self, fn) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: fn(c) for e, c in self.terms.items()})

    def canonical(self) -> "LaurentPoly":
        """Reduce every Scalar coefficient to lowest terms (display normalization)."""
        return self.map_coefficients(
            lambda c: c.canonical() if isinstance(c, Scalar) else c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly) or self.rank != other.rank:
            return NotImplemented
        for e in set(self.terms) | set(other.terms):
            if not self.coefficient(e) == other.coefficient(e):
                return False
        return True

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    # -- evaluation ---------------------------------------------------------

    def substitute(self, values):
        """Evaluate at x_i = values[i]; negative exponents use field inverses.

        Terms are summed pairwise (balanced fold) to keep intermediate
        fraction denominators from growing linearly with the term count.
        """
        if len(values) != self.rank:
            raise UsageError("substitute: wrong number of values")
        parts = []
        for e, c in self.terms.items():
            term = c
            for i, ei in enumerate(e):
                if ei:
                    term = term * values[i] ** ei
            parts.append(term)
        if not parts:
            return 0
        while len(parts) > 1:
            parts = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
        return parts[0]

    def shift_variable(self, i: int, c) -> "LaurentPoly":
        """Substitute x_i -> c * x_i (the q-shift used by difference operators)."""
        out = {}
        for e, coeff in self.terms.items():
            scaled = coeff * c ** e[i] if e[i] else coeff
            if scaled:
                out[e] = scaled
        return LaurentPoly(self.rank, out)

    # -- symmetry ------------------------------------------------------------

    def hyperoctahedral_check(self) -> bool:
        """Invariance under all x_i -> 1/x_i and all permutations of the x's.

        Checked on the group generators: each single sign flip and each
        adjacent transposition, term by term on the support.
        """
        n = self.rank
        for e, c in self.terms.items():
            for i in range(n):
                if e[i]:
                    f = list(e)
                    f[i] = -f[i]
                    if not self.coefficient(tuple(f)) == c:
                        return False
            for i in range(n - 1):
                if e[i] != e[i + 1]:
                    f = list(e)
                    f[i], f[i + 1] = f[i + 1], f[i]
                    if not self.coefficient(tuple(f)) == c:
                        return False
        return True

    # -- serialization --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i + 1}^{ei}" if ei != 1 else f"x{i + 1}"
                for i, ei in enumerate(e) if ei
            )
            cs = _coeff_str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self.rank}, {self})"

    @classmethod
    def parse(cls, rank: int, text: str, field: str = "scalar") -> "LaurentPoly":
        """Inverse of __str__.  field selects 'scalar' or 'fraction' coefficients."""
        from .poly import _split_signed

        text = text.strip()
        if text == "0":
            return cls(rank)
        terms = {}  # one dict of weights; a repeated weight adds up
        for sign, chunk in _split_signed(text):
            coeff, mono = _parse_lterm(chunk, rank, field)
            coeff = coeff if sign > 0 else -coeff
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return cls(rank, terms)

    def to_json(self) -> dict:
        terms = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if isinstance(c, Scalar):
                entry = {"num": str(c.num), "den": str(c.den)}
            else:
                f = Fraction(c)
                entry = {"num": str(f.numerator), "den": str(f.denominator)}
            terms.append({"exp": list(e), "coeff": entry})
        return {"rank": self.rank, "terms": terms}

    def to_latex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = " ".join(
                f"x_{{{i + 1}}}^{{{ei}}}" if ei != 1 else f"x_{{{i + 1}}}"
                for i, ei in enumerate(e) if ei
            )
            cs = _coeff_latex(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}\\, {mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _coeff_str(c) -> str:
    if isinstance(c, Scalar):
        s = str(c)
        if s.startswith("(") or " " in s or "*" in s:
            return f"({s})" if not s.startswith("(") else s
        return s
    return str(c)


def _half_power(name: str, e: int) -> str:
    if e % 2 == 0:
        k = e // 2
        return name if k == 1 else f"{name}^{{{k}}}"
    return f"{name}^{{{e}/2}}"


def _coeff_latex(c) -> str:
    if isinstance(c, Scalar):
        num = _poly_latex(c.num)
        if str(c.den) == "1":
            return num if c.num.is_monomial() else f"\\left({num}\\right)"
        return f"\\frac{{{num}}}{{{_poly_latex(c.den)}}}"
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"\\frac{{{f.numerator}}}{{{f.denominator}}}"


def _poly_latex(p) -> str:
    names = ("q", "t", "T")
    if p.is_zero():
        return "0"
    parts = []
    items = sorted(p.terms().items(), key=lambda kv: (sum(kv[0]),) + kv[0], reverse=True)
    for exps, coef in items:
        gens = " ".join(_half_power(names[i], e) for i, e in enumerate(exps) if e)
        mag = abs(coef)
        if gens and mag == 1:
            body = gens
        elif gens:
            body = f"{_frac_latex(mag)} {gens}"
        else:
            body = _frac_latex(mag)
        parts.append(("-" if coef < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"


def _balanced_end(text: str, start: int) -> int:
    """Index of the ')' closing the '(' at position start."""
    depth = 0
    for j in range(start, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    raise ValueError(f"unbalanced parentheses in {text!r}")


def _parse_lterm(chunk: str, rank: int, field: str):
    chunk = chunk.strip()
    exps = [0] * rank
    coeff = None  # a coefficient of 1 until a factor comes
    i = 0
    while i < len(chunk):
        if chunk[i] == "(":
            j = _balanced_end(chunk, i)
            if chunk[j + 1:j + 3] == "/(":
                j = _balanced_end(chunk, j + 2)
            piece = chunk[i:j + 1]
            if field == "scalar":
                factor = Scalar.parse(piece if ")/(" in piece else piece[1:-1])
            else:
                factor = Fraction(piece.strip("()"))
            coeff = factor if coeff is None else coeff * factor
            i = j + 1
        elif chunk[i] == "x":
            j = i + 1
            while j < len(chunk) and chunk[j].isdigit():
                j += 1
            var = int(chunk[i + 1:j]) - 1
            e = 1
            if j < len(chunk) and chunk[j] == "^":
                k = j + 1
                if chunk[k] == "-":
                    k += 1
                while k < len(chunk) and chunk[k].isdigit():
                    k += 1
                e = int(chunk[j + 1:k])
                j = k
            exps[var] += e
            i = j
        elif chunk[i] == "*" or chunk[i] == " ":
            i += 1
        else:
            # bare coefficient term: a single SparsePoly term or a rational
            j = i
            while j < len(chunk) and chunk[j] != "*":
                j += 1
            piece = chunk[i:j]
            factor = Scalar.parse(piece) if field == "scalar" else Fraction(piece)
            coeff = factor if coeff is None else coeff * factor
            i = j
    if coeff is None:
        coeff = Scalar.one() if field == "scalar" else Fraction(1)
    return coeff, tuple(exps)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def _exact_quotient(a, b):
    """a / b in the coefficient ring, where it must divide exactly.

    An integer quotient that leaves a remainder raises; every other
    coefficient lies in a field (Fraction or Scalar), where each quotient is
    exact.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise NonLaurentResultError("denominators do not clear: remainder left")
        return q
    return a / b


def divide_exact(terms: dict, cn, cd, e: tuple[int, ...]) -> dict:
    """Exact division terms / (cd - cn x^e) by one binomial over the coefficient
    ring: terms maps exponents to coefficients, cn != 0, and e is
    lexicographically positive.

    Quotient terms are peeled off in increasing lexicographic order, each the
    lowest remaining term over cd.  An exact quotient lies in the exponent
    box of terms shrunk by the segment [0, e], so a quotient term outside it
    means a remainder: NonLaurentResultError.  Over the integers, with cn/cd
    in lowest terms, cd - cn x^e is primitive, so by Gauss's lemma it divides
    an integer dividend over Q only with an integer quotient: a remainder of
    any coefficient quotient raises as well.
    """
    if not terms:
        return {}
    cols = list(zip(*terms))
    lo = [min(col) - min(ek, 0) for col, ek in zip(cols, e)]
    hi = [max(col) - max(ek, 0) for col, ek in zip(cols, e)]
    rem = dict(terms)
    heap = list(rem)
    heapify(heap)
    quo = {}
    unit = cd == 1
    while heap:
        m = heappop(heap)
        qc = rem.pop(m, 0)
        if not qc:
            continue
        if not (all(map(le, lo, m)) and all(map(le, m, hi))):
            raise NonLaurentResultError("denominators do not clear: remainder left")
        if not unit:
            qc = _exact_quotient(qc, cd)
        quo[m] = qc
        g = tuple(map(add, m, e))
        if g not in rem:
            heappush(heap, g)
        s = rem.get(g, 0) + cn * qc
        if s:
            rem[g] = s
        else:
            rem.pop(g, None)
    return quo
