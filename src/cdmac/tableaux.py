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
from math import comb


@dataclass(frozen=True)
class Alphabet:
    family: str  # 'C' or 'D'
    rank: int

    def __post_init__(self):
        if self.family not in ("C", "D"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def size(self) -> int:
        return 2 * self.rank

    def letter_names(self) -> list[str]:
        n = self.rank
        return [str(k) for k in range(1, n + 1)] + [f"{k}bar" for k in range(n, 0, -1)]


@dataclass(frozen=True)
class OneRowTableau:
    alphabet: Alphabet
    theta: tuple[int, ...]

    def size(self) -> int:
        return sum(self.theta)

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
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
