"""Exact kernels: continued fractions, Dedekind sums, Farey bad set."""

import math
import random
import tracemalloc
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcovers import numth as nt
from rootcovers.errors import BudgetError, ConsistencyError

from oracles import (
    bad_set_enumeration,
    dedekind_fraction,
    euclid_lists,
    farey_convergent_walk,
    hj_stats_of_quotients,
    ncf_convergents,
    node_walk_reference,
)

PRIMES_200 = nt.primes_between(3, 200)


def test_primes_between_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert nt.primes_between(0, 2000) == [n for n in range(2001) if trial(n)]
    assert nt.primes_between(-10, 1) == [] and nt.primes_between(20, 10) == []


def test_primes_between_far_range_small_memory():
    # memory and time follow the width of the range, not its upper end
    tracemalloc.start()
    try:
        found = nt.primes_between(10**10, 10**10 + 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [10000000019, 10000000033, 10000000061, 10000000069, 10000000097]
    assert peak < 100_000
    for n in found:
        assert all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_primes_between_too_wide():
    # MAX_PRIME_RANGE + 1 integers: refused before any test is run
    with pytest.raises(BudgetError):
        nt.primes_between(10**10, 10**10 + nt.MAX_PRIME_RANGE)
    with pytest.raises(BudgetError):
        nt.primes_between(0, 10**30)


def test_is_prime_basics():
    assert nt.is_prime(2) and nt.is_prime(3) and nt.is_prime(61169)
    assert nt.is_prime(544109)
    assert not nt.is_prime(1) and not nt.is_prime(0) and not nt.is_prime(-7)
    assert not nt.is_prime(61169 * 3)
    # strong pseudoprime to several bases, caught by the witness set
    assert not nt.is_prime(3215031751)


# a factorization of each psi_t (OEIS A014233), so each is plainly composite
_PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r))


def test_witness_table_entries_are_strong_pseudoprimes_to_their_bases():
    # psi_t is composite and passes its first t bases, so a mistyped psi_t
    # fails here; it passes base t+1 exactly when psi_{t+1} = psi_t
    table = nt._WITNESSES
    assert nt._MR_BOUND == table[-1][1] and len(table) == 13
    assert [a for a, _ in table] == [a for a in range(2, 42) if nt.is_prime(a)]
    for t, (_, psi) in enumerate(table, start=1):
        factors = _PSI_FACTORS[psi]
        assert math.prod(factors) == psi and all(1 < f < psi for f in factors)
        assert all(_strong_probable_prime(psi, a) for a, _ in table[:t])
        if t < len(table):
            next_base, next_psi = table[t]
            assert _strong_probable_prime(psi, next_base) == (next_psi == psi)
    assert not _strong_probable_prime(nt._MR_BOUND, 43)


def test_is_prime_rejects_every_certified_pseudoprime():
    # psi_12 passes the twelve bases 2..37; only base 41 catches it
    for _, psi in nt._WITNESSES[:-1]:
        assert not nt.is_prime(psi), psi
    assert not nt.is_prime(318665857834031151167461)


def test_is_prime_matches_a_sieve_below_2e5():
    n = 200_000
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(n - 1) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, n, d)))
    assert [m for m in range(n) if nt.is_prime(m)] == [m for m in range(n) if sieve[m]]


def test_mod_inverse_examples():
    assert nt.mod_inverse(1, 7) == 1
    assert nt.mod_inverse(3, 7) == 5
    assert nt.mod_inverse(61168, 61169) == 61168
    with pytest.raises(ValueError):
        nt.mod_inverse(0, 7)
    with pytest.raises(ValueError):
        nt.mod_inverse(7, 7)


@pytest.mark.parametrize("p", [11, 101, 61169])
def test_mod_inverse_involutive(p):
    for q in range(1, min(p, 300)):
        assert nt.mod_inverse(nt.mod_inverse(q, p), p) == q


def test_ncf_expand_examples():
    assert nt.ncf_expand(3, 5).e == (2, 3)
    assert nt.ncf_expand(1, 7).e == (7,)
    assert nt.ncf_expand(1, 7).length == 1
    assert nt.ncf_expand(4, 5).e == (2, 2, 2, 2)
    assert nt.ncf_expand(4, 5).length == 4
    assert nt.ncf_length(1, 61169) == 1


def test_ncf_b_chain_invariants():
    for p in (7, 61, 101):
        for q in range(1, p):
            exp = nt.ncf_expand(q, p)
            b = exp.b
            assert b[0] == p and b[1] == q and b[-1] == 0 and b[-2] == 1
            assert all(b[i] > b[i + 1] for i in range(len(b) - 1))
            for i, e in enumerate(exp.e):
                assert e >= 2
                assert b[i] == b[i + 1] * e - b[i + 2]
            assert 1 <= exp.length <= p - 1
            assert (exp.length == p - 1) == all(e == 2 for e in exp.e)


def test_ncf_eval_examples():
    assert nt.ncf_eval([2, 3]) == Fraction(5, 3)
    assert nt.ncf_eval([3, 2]) == Fraction(5, 2)
    assert nt.ncf_eval([7]) == Fraction(7)
    with pytest.raises(ValueError):
        nt.ncf_eval([2, 1, 3])
    with pytest.raises(ValueError):
        nt.ncf_eval([])


@pytest.mark.parametrize("p", PRIMES_200)
def test_ncf_round_trip_and_reversal(p):
    for q in range(1, p):
        exp = nt.ncf_expand(q, p)
        assert nt.ncf_eval(exp.e) == Fraction(p, q)
        q2 = nt.mod_inverse(q, p)
        assert nt.ncf_expand(q2, p).e == tuple(reversed(exp.e))
        assert nt.ncf_length(q2, p) == exp.length
        assert nt._ncf_stats(q, p) == (exp.length, sum(exp.e))


def test_ncf_round_trip_full_range():
    for p in nt.primes_between(211, 2000):
        for q in range(1, p):
            exp = nt.ncf_expand(q, p)
            assert nt.ncf_eval(exp.e) == Fraction(p, q)
            assert nt._ncf_stats(q, p) == (exp.length, sum(exp.e))


def test_ncf_convergents_identities():
    # P_i/Q_i are the partial evaluations; the final pair is (p, q) and the
    # one before encodes the inverse: q P_{s-1} - p Q_{s-1} = 1.
    for p in (7, 97, 139):
        for q in range(1, p):
            e = nt.ncf_expand(q, p).e
            P, Q = ncf_convergents(e)
            for i in range(1, len(e) + 1):
                assert Fraction(P[i], Q[i]) == nt.ncf_eval(e[:i])
            assert (P[-1], Q[-1]) == (p, q)
            assert q * P[-2] - p * Q[-2] == 1
            assert P[-2] == nt.mod_inverse(q, p)


def test_length_examples_and_symmetry():
    assert nt.ncf_length(5, 7) == 3
    assert nt.ncf_length(3, 7) == 3
    for p in (61, 173):
        for q in range(1, p):
            assert nt.ncf_length(q, p) == nt.ncf_length(nt.mod_inverse(q, p), p)


def test_canonical_part_examples():
    assert nt.canonical_part(1, 5) == Fraction(17, 5)
    assert nt.canonical_part(5, 7) == Fraction(15, 7)
    for p in (5, 13, 61169):
        assert nt.canonical_part(p - 1, p) == Fraction(2 * (p - 1), p)


def test_dedekind_brute_examples():
    assert nt.dedekind_brute(1, 5) == Fraction(1, 5)
    assert nt.dedekind_brute(2, 5) == 0
    assert nt.dedekind_brute(5, 7) == Fraction(-1, 14)


def test_dedekind_fast_examples():
    p = 61169
    assert nt.dedekind_fast(1, p) == Fraction((p - 1) * (p - 2), 12 * p)
    assert nt.dedekind_fast(2, 7) == Fraction(1, 14)
    assert nt.dedekind_fast(60000, p) == nt.dedekind_brute(60000, p)


def test_dedekind_fast_is_an_integer_over_6p_and_matches_brute():
    # 6p s(q, p) is an integer (Rademacher-Grosswald), every q at every p < 400
    for p in nt.primes_between(3, 399):
        for q in range(1, p):
            s = nt.dedekind_fast(q, p)
            assert (6 * p * s).denominator == 1
            assert s == nt.dedekind_brute(q, p), (q, p)


def test_dedekind_from_ncf_examples():
    assert nt.dedekind_from_ncf(5, 7) == Fraction(-1, 14)
    assert nt.dedekind_from_ncf(1, 5) == Fraction(1, 5)


@pytest.mark.parametrize("p", nt.primes_between(3, 100))
def test_dedekind_three_way_small(p):
    for q in range(1, p):
        b = nt.dedekind_brute(q, p)
        assert b == nt.dedekind_fast(q, p)
        assert b == nt.dedekind_from_ncf(q, p)


@pytest.mark.parametrize("p", [61, 101, 139])
def test_dedekind_symmetries(p):
    for q in range(1, p):
        s = nt.dedekind_fast(q, p)
        assert nt.dedekind_fast(p - q, p) == -s
        assert nt.dedekind_fast(nt.mod_inverse(q, p), p) == s


def test_dedekind_nonordinary_witness():
    # m | p + 1 forces a p-proportional Dedekind sum at (p+1)/m.
    cases = [(11, 3), (11, 4), (19, 4), (29, 5), (101, 3), (419, 7)]
    for p, m in cases:
        assert (p + 1) % m == 0
        expected = Fraction(
            p * p + (m * m - 6 * m + 2) * p + m * m + 1, 12 * m * p
        )
        assert nt.dedekind_fast((p + 1) // m, p) == expected


def test_rcf_total_examples():
    assert nt.rcf_total(1, 5) == 5
    assert nt.rcf_total(3, 5) == 4
    assert nt.rcf_total(2, 7) == 5
    with pytest.raises(ValueError):
        nt.rcf_total(2, 6)
    with pytest.raises(ValueError):
        nt.rcf_total(5, 3)


def test_euclid_closed_forms_match_the_quotient_list():
    # every 0 < q < m <= 300, composite m and gcd(q, m) > 1 included
    for m in range(2, 301):
        for q in range(1, m):
            quots = euclid_lists(q, m)[1]
            assert nt._euclid(q, m)[2:4] == hj_stats_of_quotients(quots), (q, m)
            if math.gcd(q, m) == 1:
                assert nt.rcf_total(q, m) == sum(quots), (q, m)


@pytest.mark.parametrize("p", [61, 139])
def test_rcf_total_dominates_ncf_length(p):
    for q in range(1, p):
        assert nt.rcf_total(q, p) > nt.ncf_length(q, p)


def test_remainder_chain_alpha_identity():
    # With alpha_i = -1 + b_{i-1}/p + b'_{s-i}/p (b' from the inverse
    # residue), sum alpha_i (2 - e_i) = sum (e_i - 2) + (q+q')/p - 2(p-1)/p.
    for p in nt.primes_between(3, 100):
        for q in range(1, p):
            exp = nt.ncf_expand(q, p)
            q2 = nt.mod_inverse(q, p)
            b2 = nt.ncf_expand(q2, p).b
            s = exp.length
            total = Fraction(0)
            for i in range(1, s + 1):
                alpha = -1 + Fraction(exp.b[i], p) + Fraction(b2[s - i + 1], p)
                total += alpha * (2 - exp.e[i - 1])
            rhs = (
                sum(e - 2 for e in exp.e)
                + Fraction(q + q2, p)
                - Fraction(2 * (p - 1), p)
            )
            assert total == rhs, (q, p)


def test_farey_membership_examples():
    assert nt.is_farey_neighbour(1, 101)
    assert nt.is_farey_neighbour(50, 101)
    assert nt.is_farey_neighbour(0, 101)
    assert nt.is_farey_neighbour(0, 17)
    with pytest.raises(ValueError):
        nt.is_farey_neighbour(101, 101)


def test_farey_scale_dependence():
    # shrinking C empties the set down to the exact hits
    tight = nt.FareyConfig(Fraction(1, 10**6))
    assert not nt.is_farey_neighbour(1, 101, tight)
    assert nt.is_farey_neighbour(0, 101, tight)  # q = 0 is the point 0/1


FAREY_SCALES = [Fraction(1, 1000), Fraction(1, 7), Fraction(1), Fraction(3, 2), Fraction(10),
                Fraction(50)]


@pytest.mark.parametrize("C", FAREY_SCALES, ids=str)
def test_farey_remainder_walk_matches_convergent_walk_on_every_residue(C):
    # every 0 <= q < p for p < 700, composites included; the regime p <= 4C^2
    # holds for p <= 9 at C = 3/2, p <= 400 at C = 10 and every p at C = 50
    config = nt.FareyConfig(C)
    for p in range(1, 700):
        for q in range(p):
            assert nt.is_farey_neighbour(q, p, config) == farey_convergent_walk(q, p, config)


@pytest.mark.parametrize(
    "p, C",
    [
        pytest.param(p, C, id=str(p) if C == 1 else f"{p}-C{C.numerator}_{C.denominator}")
        for C in (Fraction(1), Fraction(3, 2), Fraction(1, 3), Fraction(10))
        for p in nt.primes_between(3, 200)
    ],
)
def test_bad_set_matches_membership_scan(p, C):
    # C = 10 puts every p < 400 in the regime p <= 4C^2, where all q are bad
    config = nt.FareyConfig(C)
    members = nt.bad_set(p, config)
    scan = {q for q in range(p) if nt.is_farey_neighbour(q, p, config)}
    assert members == scan
    if C == 10:
        assert members == set(range(p))


def test_bad_set_examples_and_bound():
    assert {1, 50, 100} <= nt.bad_set(101)
    for p in (17, 101, 1009):
        assert nt.badset_bound_holds(len(nt.bad_set(p)), p)
    # the p = 17 bound evaluates below 17.5, so |F| <= 17 suffices
    assert len(nt.bad_set(17)) <= 17
    # on either side of the bound: about 263.7 at p = 1009, C = 1, and
    # about 395.6 at C = 3/2
    assert nt.badset_bound_holds(263, 1009)
    assert not nt.badset_bound_holds(264, 1009)
    assert nt.badset_bound_holds(395, 1009, nt.FareyConfig(Fraction(3, 2)))
    assert not nt.badset_bound_holds(396, 1009, nt.FareyConfig(Fraction(3, 2)))


def test_an_undecided_badset_bound_is_a_consistency_error(monkeypatch):
    # log(4p) is irrational, so only a broken enclosure leaves the bound undecided
    monkeypatch.setattr(nt, "log_enclosure", lambda x, terms: (0, 10**9))
    with pytest.raises(ConsistencyError, match="failed to separate"):
        nt.badset_bound_holds(263, 1009)


def test_bad_set_budget(monkeypatch):
    monkeypatch.setattr(nt, "MAX_BADSET_P", 100)
    with pytest.raises(BudgetError):
        nt.bad_set(1009)
    # membership has no budget
    assert nt.is_farey_neighbour(0, 10**9 + 7) is True


def test_bad_set_member_budget_bounds_the_reach(monkeypatch):
    # reach min(p, sum_d (2 a(d) + 1)) at p = 1009, C = 1: 31 radii a(d) = 31 // d
    reach = sum(2 * (31 // d) + 1 for d in range(1, 32))
    monkeypatch.setattr(nt, "MAX_BADSET_MEMBERS", reach)
    assert len(nt.bad_set(1009)) == 183 <= reach
    monkeypatch.setattr(nt, "MAX_BADSET_MEMBERS", reach - 1)
    with pytest.raises(BudgetError):
        nt.bad_set(1009)
    # a C that covers Z/p has reach p
    monkeypatch.setattr(nt, "MAX_BADSET_MEMBERS", 100)
    with pytest.raises(BudgetError):
        nt.bad_set(101, nt.FareyConfig(10**12))


ORACLE_C = (
    Fraction(1), Fraction(3, 2), Fraction(1, 3), Fraction(10), Fraction(7, 5),
    Fraction(40), Fraction(1, 100), Fraction(1000), Fraction(99, 7),
)


@pytest.mark.parametrize("C", ORACLE_C, ids=lambda C: f"C{C.numerator}_{C.denominator}")
def test_bad_set_matches_enumeration_oracle(C):
    # every prime p < 3000: the images r * d^-1 against the c/d interval enumeration
    config = nt.FareyConfig(C)
    for p in nt.primes_between(3, 2999):
        assert nt.bad_set(p, config) == bad_set_enumeration(p, config), p


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(3_000, 200_000),
    C=st.fractions(min_value=Fraction(1, 100), max_value=20, max_denominator=100),
)
@example(n=199_999, C=Fraction(1))
def test_bad_set_matches_enumeration_oracle_large_p(n, C):
    p = next(m for m in range(n, 2 * n) if nt.is_prime(m))
    config = nt.FareyConfig(C)
    assert nt.bad_set(p, config) == bad_set_enumeration(p, config)


@pytest.mark.parametrize("C", [Fraction(1), Fraction(1, 3)], ids=["C1", "C1_3"])
@pytest.mark.parametrize("p", [1000003, 1999993])
def test_bad_set_matches_enumeration_oracle_at_exact_rows_sizes(p, C):
    # the primes and scales of the benchmark's bad-set requests, where the
    # rows, the columns and the mirrored half all carry members
    config = nt.FareyConfig(C)
    assert nt.bad_set(p, config) == bad_set_enumeration(p, config)


def test_bad_set_huge_C_is_everything_at_once():
    # the d = 1 images alone would be about 2 * 10^13 residues
    start = perf_counter()
    assert nt.bad_set(101, nt.FareyConfig(10**12)) == set(range(101))
    assert perf_counter() - start < 0.1


def test_bad_set_c2_wider_than_c1():
    for p in (101, 1009):
        assert nt.bad_set(p) <= nt.bad_set(p, nt.FareyConfig(Fraction(2)))


def test_log_enclosure_brackets_float_log():
    for x in (Fraction(2), Fraction(3, 2), Fraction(4036), Fraction(1, 7)):
        lo, hi = nt.log_enclosure(x)
        assert lo <= hi
        assert float(lo) <= math.log(float(x)) <= float(hi)
        assert float(hi - lo) < 1e-9


def test_lt_sqrt_bound_exactness():
    # 9 < 3*sqrt(10) + 0 but not 9 < 3*sqrt(9) (tie is not <... mult>0 wins
    # only through the irrational part, so compare squared values here)
    assert nt.lt_sqrt_bound(Fraction(9), 3, 0, 10)
    assert not nt.lt_sqrt_bound(Fraction(10), 3, 0, 10)
    assert nt.lt_sqrt_bound(Fraction(-5), 0, 0, 10)
    assert nt.lt_sqrt_bound(Fraction(5), 0, 6, 10)
    assert not nt.lt_sqrt_bound(Fraction(7), 0, 6, 10)


# ---------------------------------------------------------------------------
# Properties of the O(log p) kernels at primes up to 1e18


def _next_prime(n):
    while not nt.is_prime(n):
        n += 1
    return n


@st.composite
def _prime_and_residue(draw):
    p = _next_prime(draw(st.integers(3, 10**18)))
    return p, draw(st.integers(1, p - 1))


@settings(derandomize=True, deadline=None)
@given(_prime_and_residue())
def test_property_dedekind_routes_agree(pq):
    p, q = pq
    assert nt.dedekind_from_ncf(q, p) == nt.dedekind_fast(q, p)


@settings(derandomize=True, deadline=None)
@given(_prime_and_residue())
def test_property_ncf_stats_inverse_symmetric(pq):
    p, q = pq
    assert nt._ncf_stats(q, p) == nt._ncf_stats(nt.mod_inverse(q, p), p)


@settings(derandomize=True, deadline=None)
@given(_prime_and_residue())
def test_property_farey_reflection_symmetric(pq):
    p, q = pq
    assert nt.is_farey_neighbour(q, p) == nt.is_farey_neighbour(p - q, p)


@st.composite
def _large_prime_residue_scale(draw):
    # primes near 1e12, 1e18 and 3e24, all below is_prime's witness bound
    base = draw(st.sampled_from((10**12, 10**18, 3 * 10**24)))
    p = _next_prime(base + draw(st.integers(0, 10**6)))
    C = draw(st.fractions(Fraction(1, 1000), Fraction(50), max_denominator=1000))
    return p, draw(st.integers(2, p - 2)), nt.FareyConfig(C)


@settings(derandomize=True, deadline=None)
@given(_large_prime_residue_scale())
def test_property_farey_remainder_walk_matches_convergent_walk(pqc):
    p, q, config = pqc
    for r in (0, 1, p - 1, q):
        assert nt.is_farey_neighbour(r, p, config) == farey_convergent_walk(r, p, config)


def _squared_farey_walk(q, p, config):
    """Farey membership by the remainder walk with both bounds squared at
    every step: d^2 <= p and (r d den(C))^2 <= num(C)^2 p."""
    cd, rhs = config.C.denominator, config.C.numerator ** 2 * p
    r_prev, r, d_prev, d = p, q, 0, 1
    while d * d <= p:
        lhs = r * d * cd
        if lhs * lhs <= rhs:
            return True
        a = r_prev // r
        r_prev, r, d_prev, d = r, r_prev - a * r, d, a * d + d_prev
    return False


NODE_WALK_SCALES = [Fraction(1), Fraction(1, 3), Fraction(3, 2), Fraction(7, 2), Fraction(10**11)]


def _check_node_walk(q, p, C):
    # the one forward pass against the three loops over stored lists that it
    # replaced, and against the routes it replaces in report, each
    # recomputed independently of _euclid where the size allows it
    config = nt.FareyConfig(C)
    bounds = nt._farey_bounds(p, config)
    hit, f, length, e_sum, inverse = nt._node_walk(q, p, *bounds)
    assert (hit, f, length, e_sum) == node_walk_reference(q, p, *bounds)
    assert nt._euclid(q, p, *bounds)[1] == euclid_lists(q, p)[0]
    assert inverse == pow(q, -1, p)
    assert hit == nt.is_farey_neighbour(q, p, config) == _squared_farey_walk(q, p, config)
    assert Fraction(f, 12 * p) == dedekind_fraction(q, p)
    assert f == q + pow(q, -1, p) + p * (e_sum - 3 * length)  # 12 s = (q+q')/p + sum(e-3)
    if p < 2000:
        assert Fraction(f, 12 * p) == nt.dedekind_brute(q, p)
    if length <= 10_000:
        exp = nt.ncf_expand(q, p)
        assert (length, e_sum) == (exp.length, sum(exp.e))


@pytest.mark.parametrize("C", NODE_WALK_SCALES, ids=str)
def test_node_walk_matches_the_independent_routes_on_every_residue(C):
    for p in nt.primes_between(3, 200):
        for q in range(1, p):
            _check_node_walk(q, p, C)


@st.composite
def _node_walk_case(draw):
    p = _next_prime(draw(st.one_of(st.integers(3, 2000), st.integers(3, 3 * 10**24))))
    edge = draw(st.sampled_from((None, 1, 2, p - 2, p - 1, (p - 1) // 2, (p + 1) // 2)))
    q = edge if edge is not None else draw(st.integers(1, p - 1))
    return q, p, draw(st.sampled_from(NODE_WALK_SCALES))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_node_walk_case())
@example((1, 10**18 + 3, Fraction(1)))
@example((10**18 + 2, 10**18 + 3, Fraction(1, 3)))
@example(((10**18 + 2) // 2, 10**18 + 3, Fraction(3, 2)))
@example(((10**18 + 4) // 2, 10**18 + 3, Fraction(10**11)))
def test_property_node_walk_matches_the_independent_routes(qpc):
    _check_node_walk(*qpc)


def test_node_walk_refuses_a_residue_sharing_a_factor_with_p():
    with pytest.raises(ValueError, match=r"gcd\(6, 15\) = 3"):
        nt._node_walk(6, 15, *nt._farey_bounds(15, nt.DEFAULT_FAREY))


def _atanh_by_terms(u, terms):
    acc, power, usq = Fraction(0), u, u * u
    for j in range(terms):
        acc += power / (2 * j + 1)
        power *= usq
    return acc, acc + power / ((2 * terms + 1) * (1 - usq))


def _log_enclosure_by_halving(x, terms):
    """log_enclosure as it was first written: halve or double x into [1, 2),
    then enclose log 2 and log m by the atanh series."""
    k, m = 0, Fraction(x)
    while m >= 2:
        m /= 2
        k += 1
    while m < 1:
        m *= 2
        k -= 1
    lo2, hi2 = _atanh_by_terms(Fraction(1, 3), terms)
    lom, him = _atanh_by_terms((m - 1) / (m + 1), terms)
    if k >= 0:
        return 2 * (k * lo2 + lom), 2 * (k * hi2 + him)
    return 2 * (k * hi2 + lom), 2 * (k * lo2 + him)


def _log_points():
    rng = random.Random(26)
    below_one = [Fraction(rng.randrange(1, 10**9), rng.randrange(10**9, 10**12)) for _ in range(20)]
    one_to_two = [Fraction(n, d) for d in (rng.randrange(1, 10**9) for _ in range(20))
                  for n in [rng.randrange(d, 2 * d)]]
    powers = [Fraction(2) ** k for k in (-40, -3, -1, 0, 1, 2, 22, 200)]
    large = [Fraction(rng.randrange(1, 2**200), rng.randrange(1, 2**20)) for _ in range(8)]
    edges = [Fraction(2**k - 1, 2**k) for k in (1, 5, 60)] + [Fraction(2**60 + 1, 2**60)]
    return below_one + one_to_two + powers + large + edges + [Fraction(4 * 1999993)]


@pytest.mark.parametrize("terms", [3, 12, 24, 96])
def test_log_enclosure_equals_the_halving_loop(terms):
    for x in _log_points():
        assert nt.log_enclosure(x, terms) == _log_enclosure_by_halving(x, terms), x


def _canonical_and_chain_by_mod_inverse(q, p):
    s, tot = nt._ncf_stats(q, p)
    q2 = nt.mod_inverse(q, p)
    return Fraction(q + q2 + p * (tot - 2 * s), p), Fraction(q + q2 + p * (tot - 3 * s), 12 * p)


def test_canonical_part_and_chain_read_q_inverse_off_their_one_pass():
    cases = [(q, p) for p in PRIMES_200 for q in range(1, p)]
    rng = random.Random(8)
    for p in (1000003, 999999999989, 999999999999999989):
        cases += [(rng.randrange(1, p), p) for _ in range(200)] + [(1, p), (2, p), (p - 1, p)]
    for q, p in cases:
        want = _canonical_and_chain_by_mod_inverse(q, p)
        assert (nt.canonical_part(q, p), nt.dedekind_from_ncf(q, p)) == want, (q, p)


@pytest.mark.parametrize("kernel", [nt.canonical_part, nt.dedekind_from_ncf])
def test_canonical_part_and_chain_refuse_the_range_before_the_gcd(kernel):
    for q, p in ((0, 101), (101, 101), (0, 15), (15, 15), (-3, 15), (20, 15)):
        with pytest.raises(ValueError) as info:
            kernel(q, p)
        assert str(info.value) == f"need 0 < q < p, got q={q}, p={p}"
    for q, p, g in ((6, 15, 3), (10, 25, 5), (21, 49, 7), (12, 18, 6)):
        with pytest.raises(ValueError) as info:
            kernel(q, p)
        assert str(info.value) == f"need gcd(q, p) = 1, got gcd({q}, {p}) = {g}"


def test_kernels_refuse_inputs_outside_their_domain():
    with pytest.raises(ValueError):
        nt.log_enclosure(Fraction(0))
    with pytest.raises(ValueError, match="witness bound"):
        nt.is_prime(nt._MR_BOUND)


@pytest.mark.parametrize(
    "kernel", [nt.mod_inverse, nt.canonical_part, nt.dedekind_fast, nt.dedekind_from_ncf]
)
def test_a_residue_sharing_a_factor_with_p_gets_one_message(kernel):
    with pytest.raises(ValueError) as info:
        kernel(6, 15)
    assert str(info.value) == "need gcd(q, p) = 1, got gcd(6, 15) = 3"


@pytest.mark.parametrize("C", [Fraction(1), Fraction(3, 2), Fraction(1, 3), Fraction(7, 5)])
def test_bad_set_reads_its_radius_from_farey_bounds(C, monkeypatch):
    # the radius a(d) = floor(C sqrt(p) / d) is _farey_bounds' bound over d,
    # the same definition is_farey_neighbour and _node_walk read
    config = nt.FareyConfig(C)
    want = {p: nt.bad_set(p, config) for p in (101, 1009, 10007)}
    calls = []
    bounds = nt._farey_bounds

    def counted(p, config):
        calls.append(p)
        return bounds(p, config)

    monkeypatch.setattr(nt, "_farey_bounds", counted)
    assert {p: nt.bad_set(p, config) for p in want} == want
    assert calls == list(want)
    monkeypatch.setattr(nt, "_farey_bounds", lambda p, config: (bounds(p, config)[0], 0))
    assert nt.bad_set(101, config) == {0}


def test_rcf_total_checks_the_range_then_lowest_terms():
    with pytest.raises(ValueError, match=r"^need 0 < n < m, got n=6, m=4$"):
        nt.rcf_total(6, 4)
    for n, m in ((4, 6), (6, 9), (10, 25), (2**40, 2**41 + 2)):
        with pytest.raises(ValueError, match=rf"^{n}/{m} is not in lowest terms$"):
            nt.rcf_total(n, m)
