"""Correlation products of the deformed current algebras of types C and D.

The r-point correlation function reduces to a closed product over a pair
kernel gamma_{ij}(z_i, z_j) built from

    gamma(z) = (1 - t^2 z)(1 - z/q^2) / ((1 - z)(1 - z t^2/q^2)),

with five cases according to the relative position of the letters i, j in
the list 1, .., l, lbar, .., 1bar and whether they form a conjugate pair.
Principally specializing z_i = q^(r-i) and the base parameters
(q, t) -> (q^(1/2), q^(1/2) t^(-1/2)) collapses the sum to the one-row
tableau sums: exactly the terms indexed by weakly increasing letter tuples
survive.

The conjugate-pair entries of the kernel table are normative as validated:
the extra factor for i <= l paired with its bar is

    C:  gamma(q^(2i-2l)   t^(-2i+2l+2) w/z)
    D:  gamma(q^(2i-2l+2) t^(-2i+2l-2) w/z)

and the reversed order uses the same monomial against z/w (this, rather than
its reciprocal, is what makes the correlation z-symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import PoleError, UsageError
from .laurent import LaurentPoly
from .macdonald import tableau_poly
from .poly import Mon
from .scalar import Scalar
from .tableaux import Alphabet, enumerate_tableaux


def gamma_base(z, q, t):
    """gamma(z) = (1 - t^2 z)(1 - z/q^2) / ((1 - z)(1 - z t^2/q^2))."""
    t2 = t * t
    q2 = q * q
    den = (1 - z) * (1 - z * t2 / q2)
    if den == 0:
        raise PoleError("gamma evaluated at a pole")
    return (1 - t2 * z) * (1 - z / q2) / den


@dataclass(frozen=True)
class GammaTable:
    """Pair kernel for one family at fixed base parameters q, t.

    Letters are signed integers: +k is the k-th unbarred letter, -k its bar.
    """
    family: str
    rank: int
    q: object
    t: object

    def _pos(self, a: int) -> int:
        return a - 1 if a > 0 else 2 * self.rank + a

    def _conj_extra(self, i: int):
        l = self.rank
        if self.family == "C":
            return self.q ** (2 * i - 2 * l) * self.t ** (-2 * i + 2 * l + 2)
        return self.q ** (2 * i - 2 * l + 2) * self.t ** (-2 * i + 2 * l - 2)

    def pair(self, a: int, b: int, za, zb):
        """gamma_{a,b}(za, zb) for list-order positions of a and b."""
        pa, pb = self._pos(a), self._pos(b)
        if pa == pb:
            return 1
        # the ratio runs from the earlier letter to the later one
        first, ratio = (a, zb / za) if pa < pb else (b, za / zb)
        g = gamma_base(ratio, self.q, self.t)
        if a == -b:
            g = g * gamma_base(self._conj_extra(first) * ratio, self.q, self.t)
        return g


@dataclass(frozen=True)
class CorrelationSpec:
    family: str
    rank: int
    z: tuple
    q: object
    t: object


def _letters(l: int) -> list[int]:
    return list(range(1, l + 1)) + [-k for k in range(l, 0, -1)]


def _weight(l: int, eps) -> tuple[int, ...]:
    w = [0] * l
    for e in eps:
        if e > 0:
            w[e - 1] += 1
        else:
            w[-e - 1] -= 1
    return tuple(w)


def _kernel_product(table: GammaTable, eps, z):
    """prod_{i<j} gamma_{eps_i, eps_j}(z_i, z_j), pairs in row-major order.

    No short cut on a zero factor: a later factor at a pole still raises.
    """
    coef = 1
    r = len(eps)
    for i in range(r):
        for j in range(i + 1, r):
            coef = coef * table.pair(eps[i], eps[j], z[i], z[j])
    return coef


def _letter_tuples(l: int, r: int, budget: int):
    """All (2l)^r letter tuples, once the count is checked against the budget."""
    if (2 * l) ** r > budget:
        raise UsageError(f"(2l)^r = {(2 * l) ** r} exceeds the budget {budget}")
    yield from iproduct(_letters(l), repeat=r)


def _correlate(spec: CorrelationSpec, tuples) -> LaurentPoly:
    """Sum the kernel products of the given letter tuples, collected by weight."""
    table = GammaTable(spec.family, spec.rank, spec.q, spec.t)
    out: dict[tuple, object] = {}
    for eps in tuples:
        coef = _kernel_product(table, eps, spec.z)
        if coef:
            w = _weight(spec.rank, eps)
            out[w] = out[w] + coef if w in out else coef
    return LaurentPoly(spec.rank, out)  # drops the weights that cancel to zero


def correlation_F(spec: CorrelationSpec, budget: int = 50000) -> LaurentPoly:
    """The full (2l)^r-term correlation sum, collected by x-exponent."""
    return _correlate(spec, _letter_tuples(spec.rank, len(spec.z), budget))


def _principal_spec(family: str, l: int, r: int) -> CorrelationSpec:
    # z_i = q^(r-i), base parameters (q^(1/2), q^(1/2) t^(-1/2))
    zs = tuple(Scalar.from_mon(Mon.q(r - i)) for i in range(1, r + 1))
    qh = Scalar.from_mon(Mon.half(qh=1))
    th = Scalar.from_mon(Mon.half(qh=1, th=-1))
    return CorrelationSpec(family, l, zs, qh, th)


def _tableau_tuple(tab) -> tuple[int, ...]:
    n = tab.alphabet.rank
    eps = []
    for pos in range(2 * n):
        letter = pos + 1 if pos < n else pos - 2 * n
        eps.extend([letter] * tab.theta[pos])
    return tuple(eps)


def phi_principal(family: str, l: int, r: int, path: str = "tableau",
                  budget: int = 50000) -> LaurentPoly:
    """The principally specialized correlation sum.

    path 'full' runs the whole (2l)^r enumeration (the oracle); 'tableau'
    enumerates only the weakly increasing tuples that survive.
    """
    if path not in ("full", "tableau"):
        raise UsageError(f"unknown path {path!r}")
    spec = _principal_spec(family, l, r)
    if path == "full":
        return correlation_F(spec, budget)
    return _correlate(spec, (_tableau_tuple(tab)
                             for tab in enumerate_tableaux(Alphabet(family, l), r)))


def correlation_residual(family: str, l: int, r: int, path: str = "tableau",
                         budget: int = 50000) -> LaurentPoly:
    """phi minus the matching tableau polynomial; identically zero when the
    specialized correlation reproduces the one-row polynomial."""
    return phi_principal(family, l, r, path=path, budget=budget) - tableau_poly(family, l, r)
