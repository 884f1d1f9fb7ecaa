"""Counting, exact-uniform sampling, multiplicities, goodness."""

import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, log2
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcovers import arrangements as ar
from rootcovers import partitions as pt
from rootcovers.errors import (
    BudgetError,
    ConsistencyError,
    EmptySolutionSetError,
    ExceptionalVanishes,
    ExhaustedTries,
    FileFormatError,
    ValidationError,
)
from rootcovers import numth
from rootcovers.numth import FareyConfig, primes_between

import oracles
from oracles import (
    bisect_ones,
    dp_sample,
    dp_sample_block,
    draw_ones_integer,
    iroot_integer,
    sample_good_full,
    suffix_counts_full,
)


def _ones_system(p, k):
    return pt.DiophSystem(p, (pt.DiophBlock(tuple(f"c{i}" for i in range(k)), (1,) * k),))


def _brute_count(u, p):
    # pruned depth-first enumeration; shares no code with the suffix tables
    if len(u) == 1:
        return 1 if p >= u[0] and p % u[0] == 0 else 0
    return sum(
        _brute_count(u[1:], p - u[0] * x) for x in range(1, p // u[0] + 1)
    )


def test_count_stars_and_bars():
    assert pt.count_solutions(_ones_system(7, 3)) == comb(6, 2) == 15
    assert pt.count_solutions(_ones_system(61169, 9)) == comb(61168, 8)


def test_count_weighted_example():
    sys2 = pt.DiophSystem(5, (pt.DiophBlock(("a", "b"), (1, 2)),))
    assert pt.count_solutions(sys2) == 2  # (1,2) and (3,1)


def test_count_multi_block_product():
    block = pt.DiophBlock(("a", "b", "c"), (1, 1, 1))
    sys3 = pt.DiophSystem(
        11, (block, pt.DiophBlock(("d", "e", "f"), (1, 2, 3)),)
    )
    expected = comb(10, 2) * _brute_count((1, 2, 3), 11)
    assert pt.count_solutions(sys3) == expected


def test_count_vs_brute_enumeration():
    checked = 0
    for p in primes_between(3, 60):
        for d in (3, 4):
            for u in product((1, 2, 3), repeat=d):
                g = 0
                for w in u:
                    g = gcd(g, w)
                if g != 1:
                    continue
                block = pt.DiophBlock(tuple(f"x{i}" for i in range(d)), u)
                sysd = pt.DiophSystem(p, (block,))
                assert pt.count_solutions(sysd) == _brute_count(u, p), (p, u)
                checked += 1
    assert checked > 1000


def test_count_asymptotic_leading_term():
    # count * (d-1)! * prod(u) / p^(d-1) tends to 1
    u = (1, 2, 3)
    last = None
    for p in (1009, 10007, 100003):
        sysd = pt.DiophSystem(p, (pt.DiophBlock(("a", "b", "c"), u),))
        count = pt.count_solutions(sysd)
        scaled = Fraction(count * 2 * 6, p ** 2)
        err = abs(scaled - 1)
        if last is not None:
            assert err < last
        last = err
    assert last < Fraction(1, 100)


def test_count_budget_error(monkeypatch):
    # (7, 11, 13) stores lcm x k = 1001 x 3 quasi-polynomial coefficients at
    # its first level alone, for every p from sum(u) + 3003 on
    sysd = pt.DiophSystem(10007, (pt.DiophBlock(("a", "b", "c"), (7, 11, 13)),))
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 1000)
    with pytest.raises(BudgetError):
        pt.count_solutions(sysd)


def test_count_budget_counts_stored_levels(monkeypatch):
    # (2,1,1,1,1) stores only the level before its all-ones tail, its
    # quasi-polynomial of lcm x k = 2 x 5 = 10 cells, at every p; the budget
    # is checked when they are built, so the cache is cleared before each change
    u = (2, 1, 1, 1, 1)
    sysd = pt.DiophSystem(1009, (pt.DiophBlock(tuple("abcde"), u),))
    expected = suffix_counts_full(u, 1009)[0][1009]
    pt._quasi_polynomials.cache_clear()
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 10)
    assert pt.count_solutions(sysd) == expected
    pt.validate_solution(sysd, pt._sample(sysd, random.Random(3)))
    pt._quasi_polynomials.cache_clear()
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 9)
    with pytest.raises(BudgetError, match="of 10 cells"):
        pt.count_solutions(sysd)
    small = pt.DiophSystem(13, (pt.DiophBlock(tuple("abcde"), u),))
    pt._quasi_polynomials.cache_clear()
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 10)
    assert pt.count_solutions(small) == suffix_counts_full(u, 13)[0][13]
    pt._quasi_polynomials.cache_clear()
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 9)
    with pytest.raises(BudgetError, match="of 10 cells"):
        pt.count_solutions(small)
    pt._quasi_polynomials.cache_clear()
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 0)
    assert pt.count_solutions(_ones_system(1009, 4)) == comb(1008, 3)


@pytest.mark.parametrize(
    "u", [(2, 1, 1, 1, 1), (1, 2, 3), (3, 2), (2,), (5, 3, 2, 2, 1), (7, 4, 1)]
)
def test_suffix_counts_match_oracle_on_both_sides_of_the_switch(u):
    # the quasi-polynomials are exact at every target: below
    # sum(u) + lcm(u) len(u), inside the range they are fitted on, and above it
    full = suffix_counts_full(u, 3000)
    switch = sum(u) + lcm(*u) * len(u)
    for target in (switch - 1, switch, 3000):
        levels = pt._suffix_counts(u, target)
        assert len(levels) == pt._ones_tail(u)
        for j, level in enumerate(levels):
            assert [level.count(t) for t in range(target + 1)] == full[j][: target + 1]


def test_large_lcm_counts_and_samples_like_the_oracle():
    # lcm x k = 716539 x 3 is far above p; the quasi-polynomials still give
    # every count below their period
    u, p = (97, 89, 83), 10007
    block = pt.DiophBlock(("a", "b", "c"), u)
    sysd = pt.DiophSystem(p, (block,))
    assert pt.count_solutions(sysd) == suffix_counts_full(u, p)[0][p] > 0
    for seed in range(20):
        got, want = random.Random(seed), random.Random(seed)
        assert pt._sample_block(u, p, got) == dp_sample_block(u, p, want)
        assert got.random() == want.random()
    pt._quasi_polynomials.cache_clear()  # 2,164,474 cells need not outlive the test


def test_a_long_ones_tail_builds_in_bounded_time():
    # one conic and 1000 lines in one block store only 2 x 1001 cells, and
    # the build costs no more than its Newton differences
    u, p = (2,) + (1,) * 1000, 10007
    sysd = pt.DiophSystem(p, (pt.DiophBlock(tuple(f"c{i}" for i in range(1001)), u),))
    pt._quasi_polynomials.cache_clear()
    start = perf_counter()
    count = pt.count_solutions(sysd)
    assert perf_counter() - start < 5.0
    # a conic part x leaves p - 2x to split into 1000 positive parts
    assert count == sum(comb(p - 2 * x - 1, 999) for x in range(1, p // 2 + 1))
    pt._quasi_polynomials.cache_clear()


def test_quasi_polynomials_are_built_once_per_weight_vector(monkeypatch):
    # count_solutions and sample_good at three primes share one build of each
    # level; a vector over the budget is refused before any level is built
    built = []
    real = pt._quasi_polynomial

    def counted(*args):
        built.append(args[:3])
        return real(*args)

    monkeypatch.setattr(pt, "_quasi_polynomial", counted)
    pt._quasi_polynomials.cache_clear()
    # a conic (u = 2) through two points of each of four general lines
    curves = (ar.CurveDecl("Q", 0, 4, 1, 2),) + tuple(
        ar.CurveDecl(f"L{i}", 0, 1, 1, 1) for i in range(4)
    )
    pairs = [("Q", f"L{i}") for i in range(4) for _ in range(2)]
    pairs += [(f"L{i}", f"L{j}") for i in range(4) for j in range(i + 1, 4)]
    a = ar.Arrangement(ar.P2, 1, curves, tuple(ar.PointDecl(pair) for pair in pairs))
    ra = ar.resolve(a)
    for p in (1009, 10007, 100003):
        sysd = pt.system_for(a, p)
        assert pt.count_solutions(sysd) == suffix_counts_full((2, 1, 1, 1, 1), p)[0][p]
        pt.validate_solution(sysd, pt.sample_good(sysd, ra, seed=p).solution)
    assert built == [(6, 2, 5)]
    built.clear()
    u = (7, 11, 13)
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 3301)
    with pytest.raises(BudgetError, match="of 3302 cells"):
        pt._suffix_counts(u, 10007)
    assert built == []
    monkeypatch.setattr(pt, "MAX_SUFFIX_CELLS", 3302)
    pt._suffix_counts(u, 10007)
    assert built == [(13, 13, 1), (24, 143, 2), (31, 1001, 3)]
    pt._quasi_polynomials.cache_clear()


PRIMES_2000 = primes_between(2, 2000)


def _weights(max_head, max_tail):
    """Weight vectors: a head of weights in 1..6, then 0..max_tail unit weights."""
    head = st.lists(st.integers(1, 6), min_size=1, max_size=max_head)
    tail = st.integers(0, max_tail)
    return st.builds(lambda h, t: tuple(h) + (1,) * t, head, tail)


def _block_weights(max_head, max_tail):
    # a block has u-gcd 1, and at least two curves (a lone curve would get mu = p)
    return _weights(max_head, max_tail).filter(lambda u: len(u) > 1 and gcd(*u) == 1)


@settings(derandomize=True, deadline=None)
@given(_weights(4, 3), st.sampled_from(PRIMES_2000), st.integers(0, 2**32))
@example((1, 2, 1), 13, 0)
@example((2, 3, 1, 1), 1999, 1)
@example((3,), 1999, 2)
@example((1, 5), 1997, 3)
@example((4, 7), 13, 4)  # no positive solution
def test_sample_block_matches_linear_scan_oracle(u, p, seed):
    if p < sum(u):
        return
    got, want = random.Random(seed), random.Random(seed)
    try:
        parts = pt._sample_block(u, p, got)
    except EmptySolutionSetError:
        with pytest.raises(EmptySolutionSetError):
            dp_sample_block(u, p, want)
        return
    assert parts == dp_sample_block(u, p, want)
    assert got.random() == want.random()  # same randrange calls, draw for draw


def test_inconsistent_suffix_counts_are_a_consistency_error(monkeypatch):
    # a level that counts from the wrong offset draws parts that leave the
    # last weight a remainder it cannot take: a bug, never bad input
    real = pt._quasi_polynomials

    def shifted(u):
        first, second, *rest = real(u)
        return (first, dataclasses.replace(second, sigma=second.sigma + 1), *rest)

    monkeypatch.setattr(pt, "_quasi_polynomials", shifted)
    with pytest.raises(ConsistencyError, match="remainder not attainable"):
        pt._sample_block((1, 2, 3), 10007, random.Random(1))


@settings(derandomize=True, deadline=None)
@given(
    st.lists(_block_weights(3, 2), min_size=1, max_size=3),
    st.sampled_from(PRIMES_2000),
    st.integers(0, 2**32),
)
@example([(1, 2, 1), (2, 3, 1, 1)], 1999, 5)
@example([(1, 5), (1, 1, 1)], 7, 6)
def test_sample_uniform_and_count_match_oracles(us, p, seed):
    blocks = tuple(
        pt.DiophBlock(tuple(f"b{b}c{i}" for i in range(len(u))), u)
        for b, u in enumerate(us)
    )
    sysd = pt.DiophSystem(p, blocks)
    expected = 1
    for u in us:
        expected *= suffix_counts_full(u, p)[0][p] if p >= sum(u) else 0
    assert pt.count_solutions(sysd) == expected
    try:
        want = dp_sample(sysd, seed)
    except EmptySolutionSetError:
        with pytest.raises(EmptySolutionSetError):
            pt._sample(sysd, random.Random(seed))
        return
    sol = pt._sample(sysd, random.Random(seed))
    assert [[sol.mu[c] for c in block.curve_ids] for block in sysd.blocks] == want


@settings(derandomize=True, deadline=None)
@given(
    _block_weights(3, 3).filter(lambda u: len(u) <= 4),
    st.sampled_from(primes_between(2, 100)),
)
@example((1, 2, 1), 13)
@example((2, 3, 1, 1), 97)
@example((1, 5), 97)
def test_count_matches_brute_enumeration(u, p):
    block = pt.DiophBlock(tuple(f"x{i}" for i in range(len(u))), u)
    assert pt.count_solutions(pt.DiophSystem(p, (block,))) == _brute_count(u, p)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 240), st.integers(0, 3 * 10**24), st.integers(0, 2**32))
@example(240, 3 * 10**24, 0)
@example(9, 3 * 10**24 + 7 - 9, 1)
@example(2, 0, 2)
def test_ones_tail_inversion_matches_bisection(ones, extra, seed):
    # rem = ones and ones + 1 put parts at n = k - 1, where C(n, k) = 0 and
    # the next total C(k - 1, k - 1) is 1
    for rem in (ones, ones + 1, ones + extra):
        got, want = random.Random(seed), random.Random(seed)
        assert pt._draw_ones(rem, ones, got) == bisect_ones(rem, ones, want)
        assert got.getstate() == want.getstate()


class _TargetRecorder(random.Random):
    """Records the target T = total - r of each randrange(total) draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.targets = []

    def randrange(self, total):
        r = super().randrange(total)
        self.targets.append(total - r)
        return r


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(2, 41), st.integers(0, 3 * 10**24), st.integers(0, 2**32))
@example(2, 0, 0)
@example(41, 3 * 10**24, 1)
def test_ones_tail_walk_starts_below_its_target(ones, extra, seed):
    # k = ones - 1, ..., 1 parts remain: by AM-GM each part's first C(n, k),
    # the one math.comb call after the first total, lies below its target
    values = []

    def counted(n, k):
        values.append(comb(n, k))
        return values[-1]

    rng = _TargetRecorder(seed)
    with mock.patch.object(pt, "comb", counted):
        pt._draw_ones(ones + extra, ones, rng)
    starts = values[1:]
    assert len(starts) == len(rng.targets) == ones - 1
    assert all(c < T for c, T in zip(starts, rng.targets))


def test_ones_tail_calls_comb_once_per_part(monkeypatch):
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(pt, "comb", counted)
    for ones, rem in ((9, 1000003), (9, 3 * 10**24 + 7), (2, 5), (1, 7), (40, 41)):
        calls.clear()
        parts = pt._draw_ones(rem, ones, random.Random(ones))
        assert len(parts) == ones and sum(parts) == rem and min(parts) >= 1
        assert len(calls) == ones


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8, 16, 17, 32, 240])
def test_iroot_is_the_floor_root(k):
    # even k goes through isqrt, odd k through Newton's step
    rng = random.Random(k)
    values = [rng.randrange(10 ** rng.randrange(1, 400)) for _ in range(300)] + list(range(300))
    roots = list(range(1, 40)) + [rng.randrange(2, 10 ** (400 // k + 1)) for _ in range(40)]
    values += [r**k + e for r in roots for e in (-1, 0, 1)]  # either side of a power
    for x in values:
        r = pt._iroot(x, k)
        assert r**k <= x < (r + 1) ** k


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 241), st.integers(0, 2**20000))
@example(3, 2**3100 + 1)
@example(241, 2**20000 - 1)
def test_iroot_matches_the_integer_route(k, x):
    assert pt._iroot(x, k) == iroot_integer(x, k)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 241).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 2 ** (20000 // k)))))
@example((3, 2**1030))
@example((7, 3))
def test_iroot_matches_the_integer_route_beside_a_power(k_r):
    k, r = k_r
    for x in (r**k - 1, r**k, r**k + 1):
        root = pt._iroot(x, k)
        assert root == iroot_integer(x, k) and root**k <= x < (root + 1) ** k


@pytest.mark.parametrize(
    "base, exp, add, k",
    [(2, 3000, 0, 3), (2, 3003, 5, 3), (2, 3072, -1, 3), (2, 3072, 0, 3), (3, 5000, 0, 5), (2, 20000, -1, 19)],
)
def test_iroot_scales_a_hint_that_would_overflow(base, exp, add, k):
    # 2 ** (log2(x) / k) overflows the float at 1024 and above, so the hint
    # of a root that large is scaled by a shift; the root stays exact
    x = base**exp + add
    if log2(x) / k >= 1024:
        with pytest.raises(OverflowError):
            2 ** (log2(x) / k)
    assert pt._iroot(x, k) == iroot_integer(x, k)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 240), st.integers(0, 3 * 10**24 - 240), st.integers(0, 2**32))
@example(240, 3 * 10**24 - 240, 0)
@example(9, 10103 - 9, 1)
@example(2, 0, 2)
def test_ones_tail_draws_match_the_integer_route(ones, extra, seed):
    got, want = random.Random(seed), random.Random(seed)
    assert pt._draw_ones(ones + extra, ones, got) == draw_ones_integer(ones + extra, ones, want)
    assert got.getstate() == want.getstate()


def test_weighted_sampler_scales_with_log_p():
    u = (2, 1, 1, 1, 1)
    p = 300007

    def stored_cells(target):
        return sum(level.cells for level in pt._suffix_counts(u, target))

    assert stored_cells(p) == stored_cells(10**18 + 3)
    sysd = pt.DiophSystem(p, (pt.DiophBlock(tuple("abcde"), u),))
    start = perf_counter()
    for seed in range(100):
        pt.validate_solution(sysd, pt._sample(sysd, random.Random(seed)))
    assert perf_counter() - start < 1.0


def test_sampling_membership_and_determinism():
    sysd = _ones_system(7, 3)
    seen = set()
    for seed in range(40):
        sol = pt._sample(sysd, random.Random(seed))
        pt.validate_solution(sysd, sol)
        seen.add(tuple(sol.mu.values()))
    assert pt._sample(sysd, random.Random(5)) == pt._sample(sysd, random.Random(5))
    assert len(seen) > 5


def test_sampling_weighted_membership():
    block = pt.DiophBlock(("a", "b", "c"), (1, 2, 3))
    sysd = pt.DiophSystem(61, (block,))
    for seed in range(25):
        sol = pt._sample(sysd, random.Random(seed))
        pt.validate_solution(sysd, sol)


def test_sampling_three_blocks_big_prime():
    a = ar.gen_underline_ceva(5)
    sysd = pt.system_for(a, 61169)
    sol = pt._sample(sysd, random.Random(99))
    pt.validate_solution(sysd, sol)
    assert len(sol.mu) == 15


def test_sampling_empty_set():
    sysd = _ones_system(3, 5)  # 5 positive parts cannot sum to 3
    with pytest.raises(EmptySolutionSetError):
        pt._sample(sysd, random.Random(1))


def _chi_square_uniform(counts, draws, n_outcomes):
    expected = draws / n_outcomes
    return sum((c - expected) ** 2 / expected for c in counts.values())


def test_exact_uniformity_chi_square_ones():
    # p = 13, three unit weights: 66 outcomes, 66_000 draws, alpha = 1e-3
    from scipy.stats import chi2

    sysd = _ones_system(13, 3)
    outcomes = [
        (a, b, 13 - a - b)
        for a in range(1, 12)
        for b in range(1, 12)
        if 13 - a - b >= 1
    ]
    assert len(outcomes) == 66 == pt.count_solutions(sysd)
    rng = random.Random(17)
    counts = {o: 0 for o in outcomes}
    for _ in range(66_000):
        sol = pt._sample(sysd, rng)
        counts[tuple(sol.mu.values())] += 1
    stat = _chi_square_uniform(counts, 66_000, 66)
    assert stat <= chi2.ppf(1 - 1e-3, 65)


def test_exact_uniformity_chi_square_weighted():
    # force the dynamic-programming path through a non-unit weight vector
    from scipy.stats import chi2

    block = pt.DiophBlock(("a", "b", "c"), (1, 2, 1))
    sysd = pt.DiophSystem(13, (block,))
    count = pt.count_solutions(sysd)
    solutions = [
        x
        for x in product(range(1, 13), repeat=3)
        if x[0] + 2 * x[1] + x[2] == 13
    ]
    assert len(solutions) == count
    draws = 1000 * count
    rng = random.Random(4321)
    counts = {s: 0 for s in solutions}
    for _ in range(draws):
        sol = pt._sample(sysd, rng)
        counts[tuple(sol.mu.values())] += 1
    stat = _chi_square_uniform(counts, draws, count)
    assert stat <= chi2.ppf(1 - 1e-3, count - 1)


def test_assign_dual_hesse_example():
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    sysd = pt.system_for(dh, 61169)
    sol = pt.solution_from_parts(sysd, [[1, 2, 3, 4, 5, 6, 7, 8, 61133]])
    ma = pt.assign(ra, sol)
    heavy = [p_ for p_ in dh.points if len(p_.curves) >= 3]
    ids = [div.id for div in ra.divisors]
    for k, point in enumerate(heavy):
        if set(point.curves) == {"A0", "A1", "A2"}:
            assert ma.nu[ids.index(f"E{k + 1}")] == 6
            break
    else:
        pytest.fail("pencil point not found")
    assert len(ma.nu) == len(ra.divisors)
    for nu in ma.nu:
        assert 0 < nu < 61169


def test_assign_exceptional_vanishes():
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    # a pencil of parts summing to exactly p kills its blow-up divisor
    parts = {c.id: 1 for c in dh.curves}
    parts["A0"], parts["A1"], parts["A2"] = 1, 2, 10  # 13 = p
    sol = pt.PartitionSolution(13, parts)
    with pytest.raises(ExceptionalVanishes):
        pt.assign(ra, sol)


def test_assign_missing_mu():
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    parts = {c.id: 1 for c in dh.curves if c.id != "B1"}
    with pytest.raises(ValidationError, match="no mu for curve 'B1'") as info:
        pt.assign(ra, pt.PartitionSolution(13, parts))
    assert info.value.code == "mu-missing"
    # with two missing, the first in arrangement order is named, whatever
    # order the solution lists its curves in
    parts = {c.id: 1 for c in reversed(dh.curves) if c.id not in ("A2", "C0")}
    with pytest.raises(ValidationError, match="no mu for curve 'A2'") as info:
        pt.assign(ra, pt.PartitionSolution(13, parts))
    assert info.value.code == "mu-missing"


def test_assign_triangle_identity():
    tri = ar.gen_general_lines(3)
    ra = ar.resolve(tri)
    sysd = pt.system_for(tri, 11)
    sol = pt.solution_from_parts(sysd, [[2, 4, 5]])
    ma = pt.assign(ra, sol)
    assert ma.nu == tuple(sol.mu[div.id] for div in ra.divisors)


def _flipped(ra):
    """ra with its divisor order reversed, nodes handed over out of order."""
    r = len(ra.divisors)
    return ar.ResolvedArrangement(
        surface=ra.surface,
        divisors=tuple(reversed(ra.divisors)),
        nodes={(r - 1 - j, r - 1 - i): c for (i, j), c in ra.nodes.items()},
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: ar.resolve(ar.gen_general_lines(6)),
        lambda: ar.resolve(ar.gen_ceva(3)),
        lambda: ar.resolve(ar.gen_ceva(5)),
        lambda: ar.resolve(ar.gen_pg2(5)),
        lambda: ar.resolve(ar.gen_underline_ceva(5)),
        lambda: ar.resolve(ar.gen_p1xp1(3, 4, 5)),
        lambda: _flipped(ar.resolve(ar.gen_ceva(3))),
    ],
    ids=["lines6", "ceva3", "ceva5", "pg2-5", "underline5", "p1xp1", "flipped"],
)
def test_resolution_fixes_node_order(make):
    ra = make()
    assert list(ra.nodes) == sorted(ra.nodes)
    assert ra.t2_total == sum(ra.nodes.values())
    p = 101
    nu = tuple(1 + i % (p - 1) for i in range(len(ra.divisors)))
    ma = pt.MultiplicityAssignment(p, nu)
    idx = {d.id: i for i, d in enumerate(ra.divisors)}
    pairs = [(idx[a], idx[b]) for a, b in (n.pair for n in pt.node_residues(ra, ma))]
    assert pairs == list(ra.nodes)


def test_node_residue_examples():
    tri = ar.gen_general_lines(3)
    ra = ar.resolve(tri)
    nu = {"L1": 2, "L2": 3, "L3": 1}
    ma = pt.MultiplicityAssignment(7, tuple(nu[div.id] for div in ra.divisors))
    residues = {n.pair: n.q for n in pt.node_residues(ra, ma)}
    # nu_i = nu_j = 1 would give p - 1; here (2,3): 2' = 4, 4*3 = 12 = 5, q = 2
    assert residues[("L1", "L2")] == 2
    # orientation swap gives the modular inverse
    q = residues[("L1", "L2")]
    qt = 7 - pow(3, -1, 7) * 2 % 7
    assert qt == 4 and q * qt % 7 == 1


def test_node_residues_all_ones():
    tri = ar.gen_general_lines(4)
    ra = ar.resolve(tri)
    ma = pt.MultiplicityAssignment(11, (1,) * len(ra.divisors))
    for node in pt.node_residues(ra, ma):
        assert node.q == 10  # p - 1


def test_goodness_table_partitions():
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    sysd = pt.system_for(dh, 61169)
    # 1 + 29 + 89 = 119 <= sqrt(61169): the first pencil sum parks a node
    # residue within the d = 1 neighbourhood of p, so the strict filter
    # rejects even this random-looking row.
    sol = pt.solution_from_parts(
        sysd, [[1, 29, 89, 269, 1019, 3469, 7919, 15859, 32515]]
    )
    rep = pt.is_good(ra, pt.assign(ra, sol))
    assert not rep.good
    assert any(q == 61169 - 119 for _, q in rep.offending)
    # the all-but-one-trivial partition is far from good
    sol = pt.solution_from_parts(sysd, [[1] * 8 + [61161]])
    rep = pt.is_good(ra, pt.assign(ra, sol))
    assert not rep.good
    assert len(rep.offending) > 10


def test_goodness_tiny_p_everything_bad():
    tri = ar.gen_general_lines(3)
    ra = ar.resolve(tri)
    sysd = pt.system_for(tri, 7)
    sol = pt.solution_from_parts(sysd, [[1, 2, 4]])
    rep = pt.is_good(ra, pt.assign(ra, sol))
    assert not rep.good  # at p = 7 the bad set covers every residue


def test_sample_good_succeeds_at_large_p():
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    sysd = pt.system_for(dh, 61169)
    good = pt.sample_good(sysd, ra, seed=7, max_tries=100)
    assert 1 <= good.tries <= 100
    assert pt.is_good(ra, good.assignment).good
    pt.validate_solution(sysd, good.solution)
    # determinism
    again = pt.sample_good(sysd, ra, seed=7, max_tries=100)
    assert again.solution == good.solution and again.tries == good.tries


def test_sample_good_exhausts_at_tiny_p():
    tri = ar.gen_general_lines(3)
    ra = ar.resolve(tri)
    sysd = pt.system_for(tri, 17)
    with pytest.raises(ExhaustedTries):
        pt.sample_good(sysd, ra, seed=1, max_tries=8)


# rejection-heavy cases: about 1-17% of tries are good at C = 1, fewer at C = 2
_REJECTING = [
    pytest.param(make, args, p, Fraction(C), id=f"{make}{args}-{p}-C{C}")
    for make, args, p, C in (
        ("gen_ceva", (3,), 10007, 1),
        ("gen_ceva", (3,), 30011, 2),
        ("gen_ceva", (5,), 100003, 1),
        ("gen_ceva", (5,), 100003, 2),
        ("gen_pg2", (5,), 1000003, 1),
        ("gen_pg2", (5,), 1000003, 2),
        ("gen_p1xp1", (3, 4, 5), 30011, 1),
        ("gen_p1xp1", (3, 4, 5), 100003, 2),
    )
]


# Tries here whose blow-up multiplicity vanishes mod p reach sample_good's
# `except ExceptionalVanishes` branch.  Not in _REJECTING: the early-exit test
# calls assign directly, which would raise on them.
_VANISHING = ("gen_underline_ceva", (3,), 101, Fraction(1, 10))


@pytest.mark.parametrize(
    "make, args, p, C",
    _REJECTING + [pytest.param(*_VANISHING, id="gen_underline_ceva(3,)-101-C1_10")],
)
def test_sample_good_matches_the_full_verdict_loop(make, args, p, C, monkeypatch):
    a = getattr(ar, make)(*args)
    ra = ar.resolve(a)
    sysd = pt.system_for(a, p)
    config = FareyConfig(C)
    # counted in the oracle's loop, which meets the same tries: the
    # sampler reads the vanishing sum off its own list and calls no assign
    assign, vanished = oracles.assign, []

    def counted(resolved, sol):
        try:
            return assign(resolved, sol)
        except ExceptionalVanishes:
            vanished.append(sol)
            raise

    monkeypatch.setattr(oracles, "assign", counted)
    for seed in range(4):
        want = sample_good_full(sysd, ra, seed, 40, config)
        try:
            got = pt.sample_good(sysd, ra, seed=seed, max_tries=40, config=config)
        except ExhaustedTries:
            got = None
        assert got == want
    if (make, args, p, C) == _VANISHING:
        assert vanished


@pytest.mark.parametrize(
    "make, args, p, C",
    _REJECTING + [pytest.param(*_VANISHING, id="gen_underline_ceva(3,)-101-C1_10")],
)
def test_an_accepted_sample_holds_assigns_multiplicities(make, args, p, C):
    # the sampler builds the assignment from its own list, once, for the
    # accepted try; it must be the one assign builds from the solution
    a = getattr(ar, make)(*args)
    ra = ar.resolve(a)
    sysd = pt.system_for(a, p)
    accepted = 0
    for seed in range(6):
        try:
            good = pt.sample_good(sysd, ra, seed=seed, max_tries=40, config=FareyConfig(C))
        except ExhaustedTries:
            continue
        assert good.assignment == pt.assign(ra, good.solution)
        assert len(good.assignment.nu) == len(ra.divisors)
        accepted += 1
    assert accepted


@pytest.mark.parametrize("make, args, p, C", _REJECTING)
def test_a_rejected_try_stops_at_its_first_farey_hit(make, args, p, C, monkeypatch):
    a = getattr(ar, make)(*args)
    ra = ar.resolve(a)
    sysd = pt.system_for(a, p)
    config = FareyConfig(C)
    calls = []

    def counted(q, p, droot, bound):
        calls.append(q)
        return numth._farey_hit(q, p, droot, bound)

    monkeypatch.setattr(pt, "_farey_hit", counted)
    stopped_early = 0
    for seed in range(10):
        ma = pt.assign(ra, pt._sample(sysd, random.Random(seed)))
        hits = [numth.is_farey_neighbour(n.q, p, config) for n in pt.node_residues(ra, ma)]
        calls.clear()
        try:
            pt.sample_good(sysd, ra, seed=seed, max_tries=1, config=config)
        except ExhaustedTries:
            assert len(calls) == hits.index(True) + 1
            stopped_early += len(calls) < len(hits)
        else:
            assert len(calls) == len(hits) and not any(hits)
    assert stopped_early


@pytest.mark.parametrize("make, args, p, C", _REJECTING)
def test_bad_nodes_yields_is_goods_offending_list_lazily(make, args, p, C, monkeypatch):
    # the one Farey filter: every caught node, in node order, with the
    # divisor indices of the node table; a caller that stops at the first
    # node yielded has tested no node after it
    a = getattr(ar, make)(*args)
    ra = ar.resolve(a)
    config = FareyConfig(C)
    ids = [div.id for div in ra.divisors]
    calls = []

    def counted(q, p, droot, bound):
        calls.append(q)
        return numth._farey_hit(q, p, droot, bound)

    for seed in range(5):
        ma = pt.assign(ra, pt._sample(pt.system_for(a, p), random.Random(seed)))
        nu, bounds = ma.nu, numth._farey_bounds(p, config)
        bad = list(pt._bad_nodes(ra, nu, p, *bounds))
        assert [((ids[i], ids[j]), q) for (i, j), q in bad] == list(pt.is_good(ra, ma, config).offending)
        residues = [q for _, q, _ in pt._node_table(ra, nu, p)]
        monkeypatch.setattr(pt, "_farey_hit", counted)
        calls.clear()
        first = next(pt._bad_nodes(ra, nu, p, *bounds), None)
        monkeypatch.undo()
        assert first == (bad[0] if bad else None)
        assert calls == residues[: residues.index(first[1]) + 1 if first else None]


def test_bad_nodes_takes_its_farey_bounds_once_per_walk(monkeypatch):
    # two isqrt per walk, not per node: an accepted dual-Hesse try checks
    # all 36 of its nodes against one _farey_bounds, and sample_good takes
    # them once per call, not once per try
    a = ar.gen_ceva(3)
    ra = ar.resolve(a)
    p = 1000003
    sysd = pt.system_for(a, p)
    good = pt.sample_good(sysd, ra, seed=1, max_tries=100)
    bounds, calls = numth._farey_bounds, []

    def counted(p, config):
        calls.append(p)
        return bounds(p, config)

    # counted wherever the sampler looks the bounds up
    monkeypatch.setattr(numth, "_farey_bounds", counted)
    monkeypatch.setattr(pt, "_farey_bounds", counted, raising=False)
    assert len(ra.nodes) == 36
    assert pt.is_good(ra, good.assignment).good and calls == [p]
    calls.clear()
    assert pt.sample_good(sysd, ra, seed=1, max_tries=100) == good
    assert good.tries > 1 and calls == [p]


def test_goodness_is_decided_by_one_filter():
    assert not hasattr(pt, "_all_nodes_good")
    assert [f.name for f in dataclasses.fields(pt.GoodnessReport)] == ["offending"]
    assert pt.GoodnessReport(()).good
    assert not pt.GoodnessReport(((("A", "B"), 3),)).good


def test_sample_good_budgets_tries_times_nodes(monkeypatch):
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    sysd = pt.system_for(dh, 61169)
    assert len(ra.nodes) * 500 <= pt.MAX_SAMPLING_NODES  # the largest input in use
    monkeypatch.setattr(pt, "MAX_SAMPLING_NODES", len(ra.nodes) * 100)
    assert pt.sample_good(sysd, ra, seed=7, max_tries=100).tries >= 1
    with pytest.raises(BudgetError, match="node checks"):
        pt.sample_good(sysd, ra, seed=7, max_tries=101)
    monkeypatch.setattr(pt, "MAX_SAMPLING_NODES", 0)
    with pytest.raises(ValueError, match="max_tries"):  # checked first
        pt.sample_good(sysd, ra, seed=7, max_tries=0)


def test_empirical_bad_fraction_envelope():
    # union-bound envelope: 10 sqrt(p) log(4p) C(d+k, 2) / p, against the
    # observed bad fraction over 200 uniform draws (statistical, seeded)
    import math

    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    n_pairs = comb(9 + 12, 2)
    for p in (1009, 10103, 61169):
        sysd = pt.system_for(dh, p)
        rng = random.Random(2024)
        bad = 0
        for _ in range(200):
            sol = pt._sample(sysd, rng)
            try:
                ma = pt.assign(ra, sol)
            except ExceptionalVanishes:
                bad += 1
                continue
            if not pt.is_good(ra, ma).good:
                bad += 1
        fraction = Fraction(bad, 200)
        envelope = 10 * math.sqrt(p) * math.log(4 * p) * n_pairs / p
        assert float(fraction) <= envelope


def test_solution_parts_inverts_solution_from_parts():
    a = ar.gen_p1xp1(3, 3, 3)
    sysd = pt.system_for(a, 101)
    parts = ((1, 2, 98), (3, 4, 94), (5, 6, 90))
    sol = pt.solution_from_parts(sysd, parts)
    assert pt.solution_parts(sysd, sol) == parts
    for block, block_parts in zip(sysd.blocks, parts):  # sysd.blocks order
        assert tuple(sol.mu[cid] for cid in block.curve_ids) == block_parts
    sampled = pt._sample(sysd, random.Random(3))
    assert pt.solution_from_parts(sysd, pt.solution_parts(sysd, sampled)) == sampled


def test_partition_file_round_trip():
    dh = ar.gen_ceva(3)
    sysd = pt.system_for(dh, 61169)
    sol = pt.solution_from_parts(sysd, [[1, 2, 3, 4, 5, 6, 7, 8, 61133]])
    text = "p 61169\nblock 1 2 3 4 5 6 7 8 61133\n"
    assert pt.solution_from_text(sysd, text) == sol


def test_partition_file_errors():
    dh = ar.gen_ceva(3)
    sysd = pt.system_for(dh, 61169)
    with pytest.raises(FileFormatError):
        pt.solution_from_text(sysd, "block 1 2 3\n")  # missing p
    with pytest.raises(FileFormatError) as err:
        pt.solution_from_text(sysd, "p 61169\nblock 1 2 x\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValidationError):
        pt.solution_from_text(sysd, "p 13\nblock 1 2 3 4 5 6 7 8 9\n")
    with pytest.raises(ValidationError):  # wrong sum
        pt.solution_from_text(sysd, "p 61169\nblock 1 2 3 4 5 6 7 8 9\n")


@pytest.mark.parametrize(
    "p_line", ["p \u00b2", "p " + "9" * 5000, "p", "p 61169 7", "p x"],
    ids=["superscript", "5000-digits", "no-value", "two-values", "letter"],
)
def test_partition_file_bad_p_line(p_line):
    sysd = pt.system_for(ar.gen_ceva(3), 61169)
    with pytest.raises(FileFormatError, match="line 2: expected `p <integer>`"):
        pt.solution_from_text(sysd, f"# row\n{p_line}\nblock 1 2 3 4 5 6 7 8 61133\n")


_PARTITION_LINE = st.one_of(
    st.text(max_size=30),
    st.tuples(
        st.sampled_from(["p", "block", "#", "P"]),
        st.lists(
            st.one_of(
                st.integers(-10, 70000).map(str),
                st.sampled_from(["61169", "\u00b2", "9" * 5000, "1_0", "+3", "x"]),
            ),
            max_size=10,
        ),
    ).map(lambda t: " ".join([t[0], *t[1]])),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lines=st.lists(_PARTITION_LINE, max_size=5))
def test_solution_from_text_fuzz_raises_only_format_or_validation_errors(lines):
    sysd = pt.system_for(ar.gen_ceva(3), 61169)
    try:
        pt.solution_from_text(sysd, "\n".join(lines))
    except (FileFormatError, ValidationError):
        pass


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: pt.DiophBlock(("a", "b"), (1,)), "block-shape"),
        (lambda: pt.DiophBlock(("a", "b"), (1, 0)), "block-u"),
        (lambda: pt.DiophBlock(("a", "b"), (2, 4)), "block-gcd"),
        (lambda: pt.DiophSystem(9, _ones_system(7, 3).blocks), "p-prime"),
        (lambda: pt.DiophSystem(7, ()), "no-blocks"),
        (lambda: pt.MultiplicityAssignment(7, (7,)), "nu-range"),
        (lambda: pt.validate_solution(
            _ones_system(7, 3), pt.PartitionSolution(11, {"c0": 1})), "p-mismatch"),
        (lambda: pt.validate_solution(
            _ones_system(7, 3), pt.PartitionSolution(7, {"c0": 5, "c1": 1})), "mu-missing"),
        (lambda: pt.validate_solution(
            _ones_system(7, 3),
            pt.PartitionSolution(7, {"c0": 5, "c1": 1, "c2": 1, "x": 1})), "mu-extra"),
    ],
    ids=["block-shape", "block-u", "block-gcd", "p-prime", "no-blocks", "nu-range",
         "p-mismatch", "mu-missing", "mu-extra"],
)
def test_system_and_solution_checks_raise_their_codes(make, code):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code


def test_nu_range_names_the_divisor_index():
    # nu is in divisor order, so the message names the index into it
    with pytest.raises(ValidationError, match=r"^nu\[3\] = 7 is outside \(0, 7\)$"):
        pt.MultiplicityAssignment(7, (1, 2, 3, 7))
    with pytest.raises(ValidationError, match=r"^nu\[1\] = 0 is outside \(0, 7\)$"):
        pt.MultiplicityAssignment(7, (6, 0))


def test_partition_file_duplicate_p_line():
    sysd = _ones_system(7, 3)
    with pytest.raises(FileFormatError, match="line 2: duplicate p line"):
        pt.solution_from_text(sysd, "p 7\np 7\nblock 5 1 1\n")


def test_solution_validation_errors():
    sysd = _ones_system(7, 3)
    with pytest.raises(ValidationError):
        pt.solution_from_parts(sysd, [[1, 2, 3]])  # sums to 6
    with pytest.raises(ValidationError):
        pt.solution_from_parts(sysd, [[1, 2], [4]])  # wrong shapes
    with pytest.raises(ValidationError):
        pt.PartitionSolution(7, {"a": 0})
    with pytest.raises(ValidationError):
        pt.PartitionSolution(7, {"a": 7})
