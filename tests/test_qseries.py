import random
from fractions import Fraction as F

import pytest

from cdmac.errors import PoleError, UsageError
from cdmac.poly import Mon
from cdmac.qseries import (HypSeriesSpec, SqrtPair, TransformInstance,
                           is_vwp_balanced, qpoch, qpoch_multi, series_eval,
                           termination_order, verify_identity,
                           verify_transform_II, verify_transform_III)
from cdmac.scalar import Scalar

Q0, T0 = F(2, 7), F(3, 5)
POOL = [F(2, 3), F(2, 5), F(3, 5), F(2, 7), F(3, 7), F(5, 7), F(3, 11),
        F(5, 11), F(7, 11), F(2, 13), F(5, 13), F(3, 8), F(5, 8)]


# -- q-shifted factorials ----------------------------------------------------

def test_qpoch_empty_product():
    assert qpoch(F(9, 2), Q0, 0) == 1


def test_qpoch_direct_expansion():
    t, q = T0, Q0
    assert qpoch(t, q, 2) == (1 - t) * (1 - q * t)


def test_qpoch_negative_index():
    z, q = F(3, 4), Q0
    # (z;q)_{-1} = 1/(1 - z/q), certified by the shift identity
    assert qpoch(z, q, -1) * (1 - z / q) == 1


@pytest.mark.parametrize("k", range(-4, 5))
def test_qpoch_shift_identity(k):
    rng = random.Random(k + 10)
    done = 0
    while done < 6:
        z, q = rng.choice(POOL), rng.choice(POOL)
        try:
            lhs = qpoch(z, q, k + 1)
            rhs = qpoch(z, q, k) * (1 - q ** k * z)
        except PoleError:
            continue  # z hit a pole of the negative-index product
        assert lhs == rhs
        done += 1


def test_qpoch_negative_pole():
    with pytest.raises(PoleError):
        qpoch(Q0, Q0, -1)  # factor (1 - q/q) vanishes


def test_qpoch_multi():
    assert qpoch_multi([], Q0, 5) == 1
    assert qpoch_multi([T0, Q0], Q0, 1) == (1 - T0) * (1 - Q0)
    rng = random.Random(1)
    for _ in range(10):
        a, b, q = (rng.choice(POOL) for _ in range(3))
        k = rng.randrange(-3, 5)
        assert qpoch_multi([a, b], q, k) == qpoch(a, q, k) * qpoch(b, q, k)


# -- series evaluation --------------------------------------------------------

def test_series_single_term():
    spec = HypSeriesSpec((F(1), F(3, 5)), (F(2, 9),), Q0, F(1, 2))
    # q^0 = 1 among the upper parameters forces termination at N = 0
    assert termination_order(spec) == 0
    assert series_eval(spec) == 1


def test_series_zero_argument_collapses():
    spec = HypSeriesSpec((Q0 ** -3, F(3, 5)), (F(2, 9),), Q0, F(0))
    assert series_eval(spec) == 1


def test_series_2phi1_two_term_expansion():
    # the rank-1 row-r=1 coefficient series, expanded by hand
    q, t, xv = F(4, 9), F(3, 5), F(2, 3)
    z = (q * xv / t) ** 2
    spec = HypSeriesSpec((t * t / q, 1 / q), (q / (t * t),), q, z)
    expect = 1 + (1 - t * t / q) * (1 - 1 / q) / ((1 - q) * (1 - q / (t * t))) * z
    assert series_eval(spec) == expect


def test_series_pole_error():
    # lower parameter q^-1 vanishes at term 2 while the numerator does not
    spec = HypSeriesSpec((Q0 ** -3, F(3, 5)), (1 / Q0,), Q0, F(1, 2))
    with pytest.raises(PoleError):
        series_eval(spec)


def test_w_series_6w5_matches_closed_product():
    # terminating very-well-poised 6W5 against its closed product form
    rng = random.Random(6)
    for _ in range(10):
        a, b, c, q = (rng.choice(POOL) for _ in range(4))
        n = rng.randrange(0, 5)
        z = a * q ** (n + 1) / (b * c)
        w = HypSeriesSpec((a, b, c, q ** -n), (), q, z, "W")
        try:
            got = series_eval(w)
        except PoleError:
            continue
        expect = qpoch_multi([a * q, a * q / (b * c)], q, n) / \
            qpoch_multi([a * q / b, a * q / c], q, n)
        assert got == expect


def test_w_series_symbolic_6w5_from_proof_step():
    # the balanced 6W5 with monomial parameters, symbolically
    T, K, theta, M, n = Mon.T(), 2, 1, 1, 2
    a1 = Scalar.from_mon(T * Mon.t(n - 1) * Mon.q(2 * theta + M))
    b = Scalar.from_mon(T)
    c = Scalar.from_mon(Mon.t(n) * Mon.q(theta + M + K))
    q = Scalar.from_mon(Mon.q())
    t = Scalar.from_mon(Mon.t())
    nn = K - theta
    z = q / t
    w = HypSeriesSpec((a1, b, c, q ** -nn), (), q, z, "W")
    assert is_vwp_balanced(w)
    got = series_eval(w)
    expect = qpoch_multi([a1 * q, a1 * q / (b * c)], q, nn) / \
        qpoch_multi([a1 * q / b, a1 * q / c], q, nn)
    assert got == expect


# -- balancing ----------------------------------------------------------------

def _thm22_w(a, f, a2, a3, q, theta):
    return HypSeriesSpec((a, q ** -theta, q ** theta * a * f, f, a2, a3,
                          SqrtPair(a * q / f), SqrtPair(a * q * q / f)),
                         (), q, q / f, "W")


def test_balanced_12w11():
    a, f, a2, q = F(2, 3), F(1, 5), F(3, 7), F(2, 11)
    w = _thm22_w(a, f, a2, a * f / a2, q, 3)
    assert is_vwp_balanced(w)


def test_balance_broken_by_perturbed_argument():
    a, f, a2, q = F(2, 3), F(1, 5), F(3, 7), F(2, 11)
    w = _thm22_w(a, f, a2, a * f / a2, q, 3)
    perturbed = HypSeriesSpec(w.upper, (), q, w.argument * 2, "W")
    assert not is_vwp_balanced(perturbed)


def test_balanced_on_phi_kind_raises():
    with pytest.raises(UsageError):
        is_vwp_balanced(HypSeriesSpec((F(1),), (), Q0, F(1)))


# -- identities ----------------------------------------------------------------

def test_thm22_theta_zero():
    inst = TransformInstance("thm_2_2", {"a": F(2, 3), "f": F(1, 5), "a2": F(3, 7),
                                         "a3": F(2, 3) * F(1, 5) / F(3, 7),
                                         "q": F(2, 11), "theta": 0})
    assert verify_identity(inst) == 0


def test_thm22_stated_instance():
    a, f, a2, q = F(2, 3), F(1, 5), F(3, 7), F(2, 11)
    inst = TransformInstance("thm_2_2", {"a": a, "f": f, "a2": a2,
                                         "a3": a * f / a2, "q": q, "theta": 3})
    assert verify_identity(inst) == 0


def test_thm22_precondition():
    with pytest.raises(UsageError):
        verify_identity(TransformInstance(
            "thm_2_2", {"a": F(2, 3), "f": F(1, 5), "a2": F(3, 7),
                        "a3": F(1, 2), "q": F(2, 11), "theta": 1}))


def test_watson_random_instances():
    rng = random.Random(13)
    done = 0
    while done < 8:
        a, b, c, d, e, q = (rng.choice(POOL) for _ in range(6))
        n = rng.randrange(0, 4)
        inst = TransformInstance("watson", {"a": a, "b": b, "c": c, "d": d,
                                            "e": e, "q": q, "n": n})
        try:
            res = verify_identity(inst)
        except PoleError:
            continue
        assert res == 0
        done += 1


@pytest.mark.parametrize("ident", ["watson", "saalschutz", "sears_III15",
                                   "sears_III16", "sears_2_10_4", "sum_6phi5",
                                   "ns_lemma", "thm_2_2"])
def test_identities_seeded_instances(ident):
    from cdmac.verify import run_identity_instances
    results = run_identity_instances(ident, seed=42, count=25)
    assert len(results) == 25
    assert all(r.residual_is_zero for r in results)


def test_unknown_identity_rejected():
    with pytest.raises(UsageError):
        TransformInstance("nope", {})


# -- multivariate transformation identities -------------------------------------

def test_transform_II_trivial_K0():
    assert verify_transform_II(2, 0, [0, 0], Q0, T0) == 0


def test_transform_II_n2_exhaustive():
    for K in range(4):
        for m1 in range(3):
            for m2 in range(3):
                assert verify_transform_II(2, K, [m1, m2], Q0, T0) == 0


def test_transform_II_stated_instance():
    assert verify_transform_II(3, 2, [1, 0, 2], F(2, 7), F(3, 5)) == 0


def test_transform_III_trivial_and_stated():
    assert verify_transform_III(2, 0, [0, 0], Q0, T0) == 0
    assert verify_transform_III(2, 1, [0, 0], Q0, T0) == 0
    assert verify_transform_III(3, 2, [1, 1, 0], F(3, 8), F(2, 9)) == 0


def test_transform_rhs_symmetric_in_m():
    from itertools import permutations
    from cdmac.qseries import _rhs_product_sum
    vals = {_rhs_product_sum(3, 2, list(m), Q0, T0) for m in permutations([0, 1, 2])}
    assert len(vals) == 1


def test_transform_II_denominator_reading():
    """The left side's pole-factor exponent must carry the m-sums, not the
    phi-sums: the misread variant fails on a generic instance."""
    from cdmac.qseries import _compositions, _rhs_product_sum

    def ratio_tt_qq(q, t, k, m):
        return qpoch(t, q, k) * qpoch(t, q, k + m) / (qpoch(q, q, k) * qpoch(q, q, m + k))

    def lhs_misread(n, K, m, q, t):
        mln = lambda l: sum(m[l - 1:n])
        tot = 0
        for comp in _compositions(K, n):
            phi, i = comp[:n - 1], comp[n - 1]
            phi_ln = lambda l: sum(phi[l - 1:n - 1]) + i  # the misreading
            term = 1
            for l in range(1, n):
                pl = phi[l - 1]
                p2 = 2 * sum(phi[l:n - 1])
                term = term * ratio_tt_qq(q, t, pl, m[l - 1])
                term = term * qpoch(t ** (n - l - 1) * q ** (pl + p2 + mln(l) + 1), q, pl) \
                    * qpoch(t ** (n - l) * q ** (p2 + mln(l + 1)), q, pl) \
                    / (qpoch(t ** (n - l) * q ** (pl + p2 + phi_ln(l)), q, pl)
                       * qpoch(t ** (n - l - 1) * q ** (p2 + mln(l + 1) + 1), q, pl))
            term = term * qpoch(t, q, m[n - 1]) / qpoch(q, q, m[n - 1])
            term = term * qpoch(t, q, i) * qpoch(t ** n * q ** (2 * K + mln(1) - 2 * i), q, i) \
                / (qpoch(q, q, i) * qpoch(t ** (n - 1) * q ** (2 * K + mln(1) - 2 * i + 1), q, i))
            tot = tot + term
        return tot

    n, K, m = 2, 2, [1, 2]
    assert verify_transform_II(n, K, m, Q0, T0) == 0
    assert lhs_misread(n, K, m, Q0, T0) - _rhs_product_sum(n, K, m, Q0, T0) != 0


def test_transform_usage_errors():
    with pytest.raises(UsageError):
        verify_transform_II(1, 1, [0], Q0, T0)
    with pytest.raises(UsageError):
        verify_transform_III(2, 1, [0], Q0, T0)


# -- the fraction-free kernel against the field oracles -----------------------

def _param(rng, q):
    """A pool value, a power q^-j (a terminator, or a pole as a lower
    parameter), or a SqrtPair of either."""
    x = rng.choice(POOL) if rng.random() < 0.7 else q ** -rng.randrange(0, 4)
    return SqrtPair(x) if rng.random() < 0.25 else x


def random_spec(rng):
    """A small phi or W spec and an nterms (None: the termination order)."""
    q = rng.choice(POOL)
    z = F(0) if rng.random() < 0.15 else rng.choice(POOL) * rng.choice((1, -1))
    nterms = rng.randrange(0, 6) if rng.random() < 0.25 else None
    N = rng.randrange(0, 5)
    if rng.random() < 0.5:
        # without q^-N the series may not terminate (UsageError) unless
        # nterms is given
        upper = [q ** -N] * (rng.random() < 0.7) + [_param(rng, q) for _ in range(3)]
        rng.shuffle(upper)
        lower = [_param(rng, q) for _ in range(rng.randrange(0, 3))]
        return HypSeriesSpec(tuple(upper), tuple(lower), q, z), nterms
    a1 = rng.choice(POOL)
    rest = [q ** -N] + [_param(rng, q) for _ in range(rng.randrange(0, 3))]
    if rng.random() < 0.3:  # a lower factor q*a1/a vanishes at term j+1
        rest.append(a1 * q ** (rng.randrange(0, 3) + 1))
    rng.shuffle(rest)
    return HypSeriesSpec((a1, *rest), (), q, z, "W"), nterms


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleError, UsageError) as exc:
        return type(exc)


def test_series_kernel_matches_field_oracle():
    from cdmac.oracle import field_series_eval
    rng = random.Random(2024)
    seen = {"W": 0, "SqrtPair": 0, "zero z": 0, "nterms": 0, PoleError: 0, UsageError: 0}
    for _ in range(240):
        spec, nterms = random_spec(rng)
        got = _outcome(series_eval, spec, nterms)
        assert got == _outcome(field_series_eval, spec, nterms), spec
        seen["W"] += spec.kind == "W"
        seen["SqrtPair"] += any(isinstance(p, SqrtPair) for p in spec.upper + spec.lower)
        seen["zero z"] += spec.argument == 0
        seen["nterms"] += nterms is not None
        if got in (PoleError, UsageError):
            seen[got] += 1
    assert min(seen.values()) >= 5, seen


def test_qpoch_kernel_matches_field_oracle():
    from cdmac.oracle import field_qpoch
    rng = random.Random(2025)
    poles = negative = 0
    for _ in range(240):
        q = rng.choice(POOL)
        z = rng.choice(POOL) if rng.random() < 0.7 else q ** rng.randrange(1, 4)
        k = rng.randrange(-4, 6)
        got = _outcome(qpoch, z, q, k)
        assert got == _outcome(field_qpoch, z, q, k), (z, q, k)
        poles += got is PoleError
        negative += k < 0
    assert poles >= 5 and negative >= 50


@pytest.mark.parametrize("suite", ["classical", "transformII"])
def test_suite_bytes_unchanged_on_field_oracles(monkeypatch, capsys, suite):
    # the kernel's q-shifted factorial sits under qpoch, qpoch_multi and the
    # transforms' factorial table, so the oracle goes in below all three
    from cdmac import oracle, qseries
    from cdmac.cli import main
    argv = ["verify", "--suite", suite, "--seed", "0", "--samples", "30"]
    assert main(argv) == 0
    fast = capsys.readouterr().out
    calls = []

    def field_pair(zn, zd, qn, qd, k):
        calls.append(k)
        return oracle.field_qpoch(F(zn, zd), F(qn, qd), k), 1

    def field_series(spec, nterms=None):
        calls.append(spec)
        return oracle.field_series_eval(spec, nterms)
    monkeypatch.setattr(qseries, "_qpoch_pair", field_pair)
    monkeypatch.setattr(qseries, "series_eval", field_series)
    assert main(argv) == 0
    assert capsys.readouterr().out == fast
    assert calls


# -- exact limits ---------------------------------------------------------------

def _limit_spec(x, y, eps, q=Q0, z=F(3, 4)):
    """2phi1[q^-2, x; y; q, z] with exponents (0, *eps)."""
    return HypSeriesSpec((q ** -2, x), (y,), q, z, eps=(0, *eps) if eps else ())


def test_limit_of_a_zero_over_zero_term():
    # x = x0 (1+e)^a and y = y0 (1+e)^b with x0 = y0 = 1: the first factors
    # vanish together, their ratio tends to a/b, and the second ones are
    # 1 - q over 1 - q
    from cdmac.oracle import field_series_eval
    q, z = Q0, F(3, 4)
    for a, b in [(1, 1), (2, -1), (-3, 2)]:
        t1 = (1 - q ** -2) / (1 - q) * F(a, b) * z
        expect = 1 + t1 + t1 * (1 - q ** -1) / (1 - q * q) * z
        got = series_eval(_limit_spec(F(1), F(1), (a, b)))
        assert got == expect
        e = F(1, 10 ** 12)  # the family itself, near e = 0
        near = field_series_eval(_limit_spec((1 + e) ** a, (1 + e) ** b, ()))
        assert abs(near - got) < F(1, 10 ** 9)


def test_limit_orders():
    # an upper factor that vanishes only at e = 0: every later term is O(e)
    assert series_eval(_limit_spec(F(1), F(1, 2), (1, 0))) == 1
    # a lower one alone: a pole of the limit
    with pytest.raises(PoleError):
        series_eval(_limit_spec(F(1, 2), F(1), (0, 1)))
    # an upper factor that is zero for every e truncates, as without eps
    assert series_eval(_limit_spec(F(1), F(1), (0, 1))) == 1
    with pytest.raises(UsageError):
        HypSeriesSpec((Q0,), (), Q0, F(1), eps=(0, 0))


# the thm_2_2 samples with f = a q^m that the e = 0 evaluation got wrong:
# verify --suite thm22 --samples 500 at seed 0 (m = 1), 5 (m = 2), 12 (m = 3)
# and 27 (m = 2)
THM22_DEGENERATE = [
    (F(5, 7), F(3, 7), F(7, 9), F(3, 5), 2, 1),
    (F(9, 11), F(5, 11), F(7, 9), F(5, 9), 4, 1),
    (F(2, 3), F(2, 5), F(5, 7), F(3, 5), 1, 1),
    (F(9, 13), F(2, 13), F(2, 5), F(2, 9), 5, 1),
    (F(2, 3), F(3, 8), F(7, 9), F(3, 4), 3, 2),
    (F(2, 3), F(3, 8), F(5, 13), F(3, 4), 4, 2),
    (F(3, 4), F(2, 9), F(7, 13), F(2, 3), 4, 3),
]


@pytest.mark.parametrize("a,f,a2,q,theta,m", THM22_DEGENERATE)
def test_thm22_degenerate_samples(monkeypatch, a, f, a2, q, theta, m):
    from cdmac import oracle, qseries
    from cdmac.verify import _corrupted_residual
    assert f == a * q ** m
    inst = TransformInstance("thm_2_2", {"a": a, "f": f, "a2": a2, "a3": a * f / a2,
                                         "q": q, "theta": theta})
    assert verify_identity(inst) == 0
    assert _corrupted_residual(inst) != 0
    # evaluated at e = 0 directly, the W-series stops at its 0/0 term
    monkeypatch.setattr(qseries, "series_eval", oracle.field_series_eval)
    assert verify_identity(inst) != 0
