"""Counting, exact-uniform sampling, multiplicities, goodness."""

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcovers import arrangements as ar
from rootcovers import partitions as pt
from rootcovers.errors import (
    BudgetError,
    EmptySolutionSetError,
    ExceptionalVanishes,
    ExhaustedTries,
    FileFormatError,
    ValidationError,
)
from rootcovers.numth import primes_between

from oracles import dp_sample, dp_sample_block, suffix_counts_full


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
    pt.validate_solution(sysd, pt.sample_uniform(sysd, 3))
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
            pt.sample_uniform(sysd, seed)
        return
    sol = pt.sample_uniform(sysd, seed)
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


def test_weighted_sampler_scales_with_log_p():
    u = (2, 1, 1, 1, 1)
    p = 300007

    def stored_cells(target):
        return sum(level.cells for level in pt._suffix_counts(u, target))

    assert stored_cells(p) == stored_cells(10**18 + 3)
    sysd = pt.DiophSystem(p, (pt.DiophBlock(tuple("abcde"), u),))
    start = perf_counter()
    for seed in range(100):
        pt.validate_solution(sysd, pt.sample_uniform(sysd, seed))
    assert perf_counter() - start < 1.0


def test_sampling_membership_and_determinism():
    sysd = _ones_system(7, 3)
    seen = set()
    for seed in range(40):
        sol = pt.sample_uniform(sysd, seed)
        pt.validate_solution(sysd, sol)
        seen.add(tuple(sol.mu.values()))
    assert pt.sample_uniform(sysd, 5) == pt.sample_uniform(sysd, 5)
    assert len(seen) > 5


def test_sampling_weighted_membership():
    block = pt.DiophBlock(("a", "b", "c"), (1, 2, 3))
    sysd = pt.DiophSystem(61, (block,))
    for seed in range(25):
        sol = pt.sample_uniform(sysd, seed)
        pt.validate_solution(sysd, sol)


def test_sampling_three_blocks_big_prime():
    a = ar.gen_underline_ceva(5)
    sysd = pt.system_for(a, 61169)
    sol = pt.sample_uniform(sysd, 99)
    pt.validate_solution(sysd, sol)
    assert len(sol.mu) == 15


def test_sampling_empty_set():
    sysd = _ones_system(3, 5)  # 5 positive parts cannot sum to 3
    with pytest.raises(EmptySolutionSetError):
        pt.sample_uniform(sysd, 1)


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
    for k, point in enumerate(heavy):
        if set(point.curves) == {"A0", "A1", "A2"}:
            assert ma.nu[f"E{k + 1}"] == 6
            break
    else:
        pytest.fail("pencil point not found")
    for div in ra.divisors:
        assert 0 < ma.nu[div.id] < 61169


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


def test_assign_triangle_identity():
    tri = ar.gen_general_lines(3)
    ra = ar.resolve(tri)
    sysd = pt.system_for(tri, 11)
    sol = pt.solution_from_parts(sysd, [[2, 4, 5]])
    ma = pt.assign(ra, sol)
    assert ma.nu == sol.mu


def test_node_residue_examples():
    tri = ar.gen_general_lines(3)
    ra = ar.resolve(tri)
    ma = pt.MultiplicityAssignment(7, {"L1": 2, "L2": 3, "L3": 1})
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
    ma = pt.MultiplicityAssignment(11, {f"L{i}": 1 for i in range(1, 5)})
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


def test_partition_file_round_trip():
    dh = ar.gen_ceva(3)
    sysd = pt.system_for(dh, 61169)
    sol = pt.solution_from_parts(sysd, [[1, 2, 3, 4, 5, 6, 7, 8, 61133]])
    text = pt.solution_to_text(sysd, sol)
    assert pt.solution_from_text(sysd, text) == sol
    assert text == "p 61169\nblock 1 2 3 4 5 6 7 8 61133\n"


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
