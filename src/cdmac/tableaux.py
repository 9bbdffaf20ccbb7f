"""One-row tableau combinatorics for the C and D letter alphabets.

The alphabet of rank n is I = {1, .., n, nbar, .., 1bar}, listed in that
order.  A one-row filling of length r that weakly increases along the row is
determined by its letter-occupancy vector theta, so enumeration is weak
composition enumeration.  Family D additionally forbids the letters n and
nbar from appearing together (theta_n * theta_nbar = 0): in the D ordering n
and nbar are incomparable, and no weakly increasing row can contain both.

theta is stored in list position order: index i < n holds letter i+1, index
i >= n holds letter (2n-i)bar; so theta[2n-1-k] is the count of letter kbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from operator import sub


@dataclass(frozen=True)
class Alphabet:
    family: str  # 'C' or 'D'
    rank: int

    def __post_init__(self):
        if self.family not in ("C", "D"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    def letter_names(self) -> list[str]:
        n = self.rank
        return [str(k) for k in range(1, n + 1)] + [f"{k}bar" for k in range(n, 0, -1)]


@dataclass(frozen=True)
class OneRowTableau:
    alphabet: Alphabet
    theta: tuple[int, ...]

    def weight(self) -> tuple[int, ...]:
        """Exponent vector: component i is theta_(i+1) - theta_(i+1)bar."""
        n = self.alphabet.rank
        return tuple(self.theta[i] - self.theta[2 * n - 1 - i] for i in range(n))

    def bar_involution(self, i: int) -> "OneRowTableau":
        """Swap the counts of letter i+1 and its barred partner."""
        n = self.alphabet.rank
        th = list(self.theta)
        th[i], th[2 * n - 1 - i] = th[2 * n - 1 - i], th[i]
        return OneRowTableau(self.alphabet, tuple(th))


def is_valid(t: OneRowTableau, r: int | None = None) -> bool:
    """Check the occupancy-vector invariants (and the size when r is given)."""
    n = t.alphabet.rank
    if len(t.theta) != 2 * n or any(c < 0 for c in t.theta):
        return False
    if r is not None and sum(t.theta) != r:
        return False
    if t.alphabet.family == "D" and t.theta[n - 1] * t.theta[n] != 0:
        return False
    return True


def _compositions(total: int, parts: int):
    """Weak compositions of total into parts, in lexicographic order, by
    stars and bars: the partial sums s_1 <= ... <= s_(parts-1) in [0, total]
    run in lexicographic order, and so do the differences of 0, s, total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for s in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, s + (total,), (0,) + s))


def enumerate_tableaux(alphabet: Alphabet, r: int) -> list[OneRowTableau]:
    """All one-row tableaux of size r, in lexicographic theta order."""
    n = alphabet.rank
    out = []
    for th in _compositions(r, 2 * n):
        if alphabet.family == "D" and th[n - 1] * th[n] != 0:
            continue
        out.append(OneRowTableau(alphabet, th))
    return out


def count_closed_form(family: str, n: int, r: int) -> int:
    """Weak compositions, with inclusion-exclusion on {n, nbar} for family D."""
    total = comb(r + 2 * n - 1, 2 * n - 1)
    if family == "D" and r >= 2:
        total -= comb(r - 2 + 2 * n - 1, 2 * n - 1)
    return total


def _comb_upto(m: int, k: int, cap: int) -> int:
    """comb(m, k) when it is at most cap, else cap + 1.  With k <= m - k the
    running products comb(m - k + i, i) >= 2^i never decrease, so the loop
    stops within log2(cap) + 1 steps whatever the size of comb(m, k)."""
    if not 0 <= k <= m:
        return 0
    k = min(k, m - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (m - k + i) // i
        if c > cap:
            return cap + 1
    return c


def count_up_to(family: str, n: int, r: int, cap: int) -> int:
    """count_closed_form(family, n, r) when it is at most cap, else cap + 1,
    in O(log cap) steps: the cost guard of every command, which must not
    itself build a binomial of millions of digits.  Family D counts the
    compositions with theta_nbar = 0, then those with theta_nbar > 0 and
    theta_n = 0."""
    if family == "D" and r >= 1:
        total = (_comb_upto(r + 2 * n - 2, 2 * n - 2, cap)
                 + _comb_upto(r + 2 * n - 3, 2 * n - 2, cap))
    else:
        total = _comb_upto(r + 2 * n - 1, 2 * n - 1, cap)
    return min(total, cap + 1)
