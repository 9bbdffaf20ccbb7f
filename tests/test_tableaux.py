from math import comb

import pytest

from cdmac.tableaux import (Alphabet, OneRowTableau, count_closed_form, count_up_to,
                            enumerate_tableaux, is_valid)


def test_counts_small():
    assert len(enumerate_tableaux(Alphabet("D", 2), 1)) == 4
    assert len(enumerate_tableaux(Alphabet("D", 2), 2)) == 9
    assert len(enumerate_tableaux(Alphabet("C", 2), 2)) == 10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", range(7))
def test_counts_closed_form(n, r):
    assert len(enumerate_tableaux(Alphabet("C", n), r)) == comb(r + 2 * n - 1, 2 * n - 1)
    got = len(enumerate_tableaux(Alphabet("D", n), r))
    assert got == count_closed_form("D", n, r)


@pytest.mark.parametrize("family", ["C", "D"])
def test_count_up_to_is_the_capped_closed_form(family):
    for n in range(1, 6):
        for r in range(12):
            count = count_closed_form(family, n, r)
            for cap in (0, 1, count - 1, count, count + 1, 10 ** 9):
                assert count_up_to(family, n, r, cap) == min(count, cap + 1)
    # O(log cap) steps where comb(3 * 10^6, 10^6) would take about a minute
    assert count_up_to(family, 10 ** 6, 10 ** 6, 2 ** 64) == 2 ** 64 + 1


def test_weight():
    a = Alphabet("D", 2)
    assert OneRowTableau(a, (0, 0, 0, 0)).weight() == (0, 0)
    assert OneRowTableau(a, (3, 0, 0, 0)).weight() == (3, 0)
    assert OneRowTableau(a, (1, 0, 0, 1)).weight() == (0, 0)


def test_is_valid():
    d2 = Alphabet("D", 2)
    c2 = Alphabet("C", 2)
    both_middle = (0, 1, 1, 0)
    assert not is_valid(OneRowTableau(d2, both_middle))
    assert is_valid(OneRowTableau(c2, both_middle))
    assert not is_valid(OneRowTableau(c2, both_middle), r=3)  # size mismatch
    assert is_valid(OneRowTableau(c2, both_middle), r=2)


def test_enumeration_is_lex_sorted_and_valid():
    for fam in ("C", "D"):
        tabs = enumerate_tableaux(Alphabet(fam, 3), 4)
        thetas = [t.theta for t in tabs]
        assert thetas == sorted(thetas)
        assert all(is_valid(t, r=4) for t in tabs)


def test_bar_involution_flips_weight():
    for tab in enumerate_tableaux(Alphabet("C", 2), 3):
        flipped = tab.bar_involution(0)
        w, wf = tab.weight(), flipped.weight()
        assert wf == (-w[0], w[1])
