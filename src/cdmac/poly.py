"""Sparse polynomials over Q in the three coefficient generators.

The coefficient ring of the whole library is Q[u, v, w] with

    u = q^(1/2),   v = t^(1/2),   w = T^(1/2),

so that q = u^2, t = v^2 and T = w^2 are Laurent-monomial expressible and the
half-integer powers required by the parameter substitutions are exact ring
elements.  A polynomial is a finitely supported map from exponent triples
(e_u, e_v, e_w) in Z>=0^3 to nonzero rationals.

Internally a polynomial is kept as a primitive integer dictionary together
with a single rational content factor; products of primitive integer
polynomials are again primitive (Gauss), so multiplication runs entirely on
machine/big integers.  The canonical term order is graded lexicographic with
u > v > w, and it fixes both the leading term and the serialization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import UsageError

GEN_NAMES = ("q^{1/2}", "t^{1/2}", "T^{1/2}")

# exponent packing: 20 bits per generator, exponents are nonnegative; _pack
# checks the range, SparsePoly.__mul__ adds packed keys without a check
_SHIFT_U = 40
_SHIFT_V = 20
_MASK = (1 << 20) - 1


def _pack(eu: int, ev: int, ew: int) -> int:
    if not (0 <= eu <= _MASK and 0 <= ev <= _MASK and 0 <= ew <= _MASK):
        raise UsageError(f"generator exponents {(eu, ev, ew)} leave the 20-bit "
                         "packing range [0, 2^20)")
    return (eu << _SHIFT_U) | (ev << _SHIFT_V) | ew


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> _SHIFT_U, (key >> _SHIFT_V) & _MASK, key & _MASK


def _grlex(key: int):
    eu, ev, ew = _unpack(key)
    return (eu + ev + ew, eu, ev, ew)


class SparsePoly:
    """Polynomial in (u, v, w) over Q, stored as content * primitive-Z-part."""

    __slots__ = ("content", "prim")

    def __init__(self, content: Fraction, prim: dict[int, int], *, _normalized=False):
        if _normalized:
            self.content = content
            self.prim = prim
            return
        if not prim or content == 0:
            self.content = Fraction(0)
            self.prim = {}
            return
        g = 0
        for c in prim.values():
            g = gcd(g, c)
        lead = max(prim, key=_grlex)
        if prim[lead] < 0:
            g = -g
        if g != 1:
            prim = {k: c // g for k, c in prim.items()}
        self.content = content * g
        self.prim = prim

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls(Fraction(0), {}, _normalized=True)

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls(Fraction(1), {0: 1}, _normalized=True)

    @classmethod
    def const(cls, c) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            return cls.zero()
        return cls(c, {0: 1}, _normalized=True)

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int, int], Fraction]) -> "SparsePoly":
        acc = cls.zero()
        for (eu, ev, ew), c in terms.items():
            if any(e < 0 for e in (eu, ev, ew)):
                raise ValueError("SparsePoly exponents must be nonnegative")
            acc = acc + cls(Fraction(c), {_pack(eu, ev, ew): 1})
        return acc

    @classmethod
    def from_mon(cls, m: "Mon") -> "SparsePoly":
        if any(e < 0 for e in m.exp):
            raise ValueError("monomial with negative exponent is not a SparsePoly")
        if m.coef == 0:
            return cls.zero()
        return cls(Fraction(m.coef), {_pack(*m.exp): 1}, _normalized=True)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.prim

    def __bool__(self) -> bool:
        return bool(self.prim)

    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        return {_unpack(k): self.content * c for k, c in self.prim.items()}

    def leading_key(self) -> int:
        if not self.prim:
            raise ValueError("zero polynomial has no leading term")
        return max(self.prim, key=_grlex)

    def leading_coeff(self) -> Fraction:
        return self.content * self.prim[self.leading_key()]

    def is_monomial(self) -> bool:
        return len(self.prim) == 1

    def monomial(self) -> "Mon":
        if len(self.prim) != 1:
            raise ValueError("not a monomial")
        (key, c), = self.prim.items()
        return Mon(self.content * c, _unpack(key))

    def min_exps(self) -> tuple[int, int, int]:
        """Componentwise minimum exponent over the support (monomial content)."""
        eu = ev = ew = None
        for k in self.prim:
            a, b, c = _unpack(k)
            eu = a if eu is None else min(eu, a)
            ev = b if ev is None else min(ev, b)
            ew = c if ew is None else min(ew, c)
        return (eu or 0, ev or 0, ew or 0)

    def shift(self, d: tuple[int, int, int]) -> "SparsePoly":
        """Multiply by the monomial u^d0 v^d1 w^d2 (d may be negative where support allows)."""
        out = {}
        for k, c in self.prim.items():
            a, b, cc = _unpack(k)
            out[_pack(a + d[0], b + d[1], cc + d[2])] = c
        return SparsePoly(self.content, out, _normalized=True)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        r = other.content / self.content
        rn, rd = r.numerator, r.denominator
        out = {k: c * rd for k, c in self.prim.items()}
        for k, c in other.prim.items():
            out[k] = out.get(k, 0) + c * rn
        out = {k: c for k, c in out.items() if c}
        return SparsePoly(self.content / rd, out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(-self.content, self.prim, _normalized=True)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        if self.is_zero() or other.is_zero():
            return SparsePoly.zero()
        a, b = self.prim, other.prim
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        out = {k: c for k, c in out.items() if c}
        # product of primitive integer polynomials is primitive; sign of the
        # leading coefficient is the product of signs, already positive here
        return SparsePoly(self.content * other.content, out, _normalized=True)

    def scaled(self, c) -> "SparsePoly":
        c = Fraction(c)
        if c == 0 or self.is_zero():
            return SparsePoly.zero()
        return SparsePoly(self.content * c, self.prim, _normalized=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.content == other.content and self.prim == other.prim

    def __hash__(self):
        return hash((self.content, frozenset(self.prim.items())))

    def eval(self, u: Fraction, v: Fraction, w: Fraction) -> Fraction:
        """Exact evaluation at rational generator values."""
        pu: dict[int, Fraction] = {}
        pv: dict[int, Fraction] = {}
        pw: dict[int, Fraction] = {}
        tot = Fraction(0)
        for k, c in self.prim.items():
            a, b, cc = _unpack(k)
            if a not in pu:
                pu[a] = Fraction(u) ** a
            if b not in pv:
                pv[b] = Fraction(v) ** b
            if cc not in pw:
                pw[cc] = Fraction(w) ** cc
            tot += c * pu[a] * pv[b] * pw[cc]
        return tot * self.content

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for key in sorted(self.prim, key=_grlex, reverse=True):
            coef = self.content * self.prim[key]
            exps = _unpack(key)
            gens = "*".join(
                f"{GEN_NAMES[i]}^{e}" if e != 1 else GEN_NAMES[i]
                for i, e in enumerate(exps) if e
            )
            mag = abs(coef)
            if gens and mag == 1:
                body = gens
            elif gens:
                body = f"{mag}*{gens}"
            else:
                body = f"{mag}"
            parts.append(("-" if coef < 0 else "+", body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    @classmethod
    def parse(cls, text: str) -> "SparsePoly":
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[tuple[int, int, int], Fraction] = {}
        for sign, chunk in _split_signed(text):
            coef = Fraction(sign)
            exps = [0, 0, 0]
            for factor in chunk.split("*"):
                factor = factor.strip()
                gi = _gen_index(factor)
                if gi is not None:
                    name = GEN_NAMES[gi]
                    rest = factor[len(name):]
                    e = int(rest[1:]) if rest.startswith("^") else 1
                    exps[gi] += e
                else:
                    num, _, den = factor.partition("/")
                    coef *= Fraction(int(num), int(den) if den else 1)
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coef
        return cls.from_terms({k: c for k, c in terms.items() if c})


def _gen_index(tok: str):
    for i, name in enumerate(GEN_NAMES):
        if tok.startswith(name):
            return i
    return None


def _split_signed(text: str):
    """Split 'a + b - c' into [(+1,'a'), (+1,'b'), (-1,'c')], braces-aware."""
    out = []
    sign = 1
    cur = []
    depth = 0
    i = 0
    if text.startswith("-"):
        sign = -1
        i = 1
    elif text.startswith("+"):
        i = 1
    while i < len(text):
        ch = text[i]
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if depth == 0 and ch in "+-" and i + 1 < len(text) and text[i - 1] == " " and text[i + 1] == " ":
            out.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
            i += 2
            continue
        cur.append(ch)
        i += 1
    out.append((sign, "".join(cur).strip()))
    return out


class Mon:
    """A rational multiple of a (possibly Laurent) monomial in (u, v, w).

    These are the arguments of every q-shifted factorial in the library:
    things like t^(n-l) q^(S+1) or T t^(n-1) q^(r-i).
    """

    __slots__ = ("coef", "exp")

    def __init__(self, coef, exp: tuple[int, int, int] = (0, 0, 0)):
        self.coef = Fraction(coef)
        self.exp = exp

    @classmethod
    def q(cls, k: int = 1) -> "Mon":
        return cls(1, (2 * k, 0, 0))

    @classmethod
    def t(cls, k: int = 1) -> "Mon":
        return cls(1, (0, 2 * k, 0))

    @classmethod
    def T(cls, k: int = 1) -> "Mon":
        return cls(1, (0, 0, 2 * k))

    @classmethod
    def half(cls, qh: int = 0, th: int = 0, Th: int = 0, coef=1) -> "Mon":
        return cls(coef, (qh, th, Th))

    def __mul__(self, other: "Mon") -> "Mon":
        return Mon(self.coef * other.coef,
                   tuple(a + b for a, b in zip(self.exp, other.exp)))

    def __truediv__(self, other: "Mon") -> "Mon":
        if other.coef == 0:
            raise ZeroDivisionError("division by zero monomial")
        return Mon(self.coef / other.coef,
                   tuple(a - b for a, b in zip(self.exp, other.exp)))

    def __pow__(self, k: int) -> "Mon":
        return Mon(self.coef ** k, tuple(e * k for e in self.exp))

    def inv(self) -> "Mon":
        return Mon(1, (0, 0, 0)) / self

    def is_one(self) -> bool:
        return self.coef == 1 and self.exp == (0, 0, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mon):
            return NotImplemented
        return self.coef == other.coef and self.exp == other.exp

    def __hash__(self):
        return hash((self.coef, self.exp))

    def __repr__(self):
        return f"Mon({self.coef}, {self.exp})"


# ---------------------------------------------------------------------------
# display-only gcd
#
# Scalar arithmetic never reduces by polynomial gcd (equality is decided by
# cross-multiplication).  Serialization, however, wants one canonical
# representative per value so that mathematically equal results print
# identically whichever route produced them.  Scalar.canonical reduces by a
# gcd against each known denominator factor (scalar._cancel_den_factors):
# the tableau, inversion and principal correlation routes sum over a
# factored least common denominator, so the primitive-PRS gcd over
# Z[u, v, w] below runs against one binomial at a time for them, and
# against the whole denominator for values of plain Scalar arithmetic.
# ---------------------------------------------------------------------------

def _split_by_var(terms: dict[int, int], var: int):
    """Group a packed term dict by the exponent of one generator."""
    shifts = (_SHIFT_U, _SHIFT_V, 0)
    out: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        e = (key >> shifts[var]) & _MASK if var < 2 else key & _MASK
        rest = key - (e << shifts[var] if var < 2 else e)
        out.setdefault(e, {})[rest] = c
    return out


def _join_by_var(coeffs: dict[int, dict[int, int]], var: int) -> dict[int, int]:
    shifts = (_SHIFT_U, _SHIFT_V, 0)
    out: dict[int, int] = {}
    for e, sub in coeffs.items():
        for rest, c in sub.items():
            out[rest + (e << shifts[var] if var < 2 else e)] = c
    return out


def _dict_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _dict_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _gcd_packed(a: dict[int, int], b: dict[int, int], var: int = 0) -> dict[int, int]:
    """Primitive-PRS gcd of integer polynomials in packed form."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    if var == 3:
        # both are pure integers living at key 0
        return {0: gcd(a.get(0, 0), b.get(0, 0))}
    av = _split_by_var(a, var)
    bv = _split_by_var(b, var)
    if len(av) == 1 and 0 in av and len(bv) == 1 and 0 in bv:
        return _gcd_packed(a, b, var + 1)

    def content(sv):
        g: dict[int, int] = {}
        for sub in sv.values():
            g = _gcd_packed(g, sub, var + 1)
        return g

    def primitive(sv, cont):
        out = {}
        for e, sub in sv.items():
            q = _dict_exact_div(sub, cont, var + 1)
            out[e] = q
        return out

    ca, cb = content(av), content(bv)
    pa, pb = primitive(av, ca), primitive(bv, cb)
    # primitive PRS on the main variable
    while True:
        if not pb:
            g = pa
            break
        da, db = max(pa), max(pb)
        if da < db:
            pa, pb = pb, pa
            continue
        lb = pb[db]
        # pseudo-reduce pa by pb until its degree drops below db
        work = pa
        while work and max(work) >= db:
            dw = max(work)
            lw = work[dw]
            scaled = {e: _dict_mul(sub, lb) for e, sub in work.items()}
            shift = {e + dw - db: _dict_mul(sub, lw) for e, sub in pb.items()}
            nxt: dict[int, dict[int, int]] = {}
            for e in set(scaled) | set(shift):
                s = _dict_sub(scaled.get(e, {}), shift.get(e, {}))
                if s:
                    nxt[e] = s
            work = nxt
        if not work:
            g = pb
            break
        cw = content(work)
        pa, pb = pb, primitive(work, cw)
    cg = _gcd_packed(ca, cb, var + 1)
    return _join_by_var({e: _dict_mul(sub, cg) for e, sub in g.items()}, var)


def _dict_exact_div(num: dict[int, int], den: dict[int, int], var: int) -> dict[int, int]:
    """Exact division of packed integer polynomials (den divides num).

    Raises ArithmeticError when den does not divide num, so it doubles as a
    divisibility test.
    """
    if not num:
        return {}
    if den == {0: 1}:
        return dict(num)
    rem = dict(num)
    quo: dict[int, int] = {}
    dl = max(den, key=_grlex)
    dc = den[dl]
    while rem:
        rl = max(rem, key=_grlex)
        qk = rl - dl
        eu, ev, ew = _unpack(rl)
        du, dv, dw = _unpack(dl)
        if eu < du or ev < dv or ew < dw or rem[rl] % dc:
            raise ArithmeticError("not an exact divisor")
        qc = rem[rl] // dc
        quo[qk] = qc
        for k, c in den.items():
            kk = k + qk
            s = rem.get(kk, 0) - qc * c
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return quo


def poly_gcd(a: "SparsePoly", b: "SparsePoly") -> "SparsePoly":
    """gcd of the primitive parts (display helper, content ignored)."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    g = _gcd_packed(a.prim, b.prim, 0)
    return SparsePoly(Fraction(1), g)
