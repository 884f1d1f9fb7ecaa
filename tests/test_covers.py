"""Invariant engine: exact chi, c1^2, c2, error terms, oracle, scans."""

import dataclasses
import gc
import random
import time
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootcovers import arrangements as ar
from rootcovers import covers as cv
from rootcovers import numth as nt
from rootcovers import partitions as pt
from rootcovers import tables as tb
from rootcovers.cli import EXIT_OK, main
from rootcovers.errors import BudgetError, ConsistencyError, ExceptionalVanishes, ValidationError
from rootcovers.numth import FareyConfig, dedekind_fast, is_prime, ncf_length, primes_between

from oracles import floor_sum_oracle, floor_sum_S, fraction_report, weighted_floor_sum


def _cover(a, p, parts):
    ra = ar.resolve(a)
    sysd = pt.system_for(a, p)
    sol = pt.solution_from_parts(sysd, parts)
    ma = pt.assign(ra, sol)
    return cv.CoverSpec(p, ra, ma)


def _dual_hesse_cover(p, parts):
    return _cover(ar.gen_ceva(3), p, [parts])


def test_dual_hesse_flagship_row():
    rep = cv.report(_dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133]))
    assert (rep.chi, rep.c1_sq, rep.c2) == (181282, 1441949, 733435)


def test_dual_hesse_equal_parts_row_near_1e12_is_fast():
    # meeting curves with equal mu give q = p - 1, whose expansion has p - 1 terms
    p = 999_999_999_989
    start = time.perf_counter()
    rep = cv.report(_dual_hesse_cover(p, [1] * 8 + [p - 8]))
    assert time.perf_counter() - start < 1.0
    assert rep.error_terms.lcf >= p - 1


def test_dual_hesse_good_looking_row():
    spec = _dual_hesse_cover(61169, [1, 29, 89, 269, 1019, 3469, 7919, 15859, 32515])
    rep = cv.report(spec)
    assert rep.c1_sq == 1465970 and rep.c2 == 552166
    assert cv.truncate_decimal(rep.ratio_c, 3) == "2.654"
    assert rep.bounds_ok  # bounded error terms even though strictly not good
    assert not rep.good


def test_dual_hesse_degenerate_row():
    rep = cv.report(_dual_hesse_cover(61169, [1] * 8 + [61161]))
    assert rep.c1_sq == 1386413 and rep.c2 == 1060303
    assert not rep.good and not rep.bounds_ok


def test_small_prime_row():
    rep = cv.report(_dual_hesse_cover(83, [1, 2, 3, 5, 7, 11, 13, 17, 24]))
    assert cv.truncate_decimal(rep.ratio_chi, 3) == "7.331"
    assert cv.truncate_decimal(rep.ratio_c, 3) == "1.570"


def test_underline_ceva_example():
    blocks = [
        [1, 307, 7031, 11109, 42721],
        [589, 2007, 5007, 20001, 33565],
        [1009, 3001, 13003, 17807, 26349],
    ]
    rep = cv.report(_cover(ar.gen_underline_ceva(5), 61169, blocks))
    assert rep.c1_sq == 4341016
    assert rep.c2 == 1595264
    assert rep.ratio_c == Fraction(542627, 199408)


def test_noether_ties_the_three_routes():
    rep = cv.report(_dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133]))
    assert 12 * rep.chi == rep.c1_sq + rep.c2
    terms = rep.error_terms
    assert terms.ccf == 12 * terms.scf + terms.lcf


def test_error_term_bounds_definition():
    # the three strict bounds, evaluated on a sampled good assignment
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    sysd = pt.system_for(dh, 61169)
    good = pt.sample_good(sysd, ra, seed=11, max_tries=100)
    rep = cv.report(cv.CoverSpec(61169, ra, good.assignment))
    assert rep.good and rep.bounds_ok


def test_orientation_invariance():
    # reversing the divisor order inverts every node residue; the report
    # must not change
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    sysd = pt.system_for(dh, 61169)
    sol = pt.solution_from_parts(sysd, [[1, 23, 45, 100, 1019, 3002, 16199, 20389, 20391]])
    ma = pt.assign(ra, sol)
    rep = cv.report(cv.CoverSpec(61169, ra, ma))

    r = len(ra.divisors)
    flipped = ar.ResolvedArrangement(
        surface=ra.surface,
        divisors=tuple(reversed(ra.divisors)),
        nodes={
            (r - 1 - j, r - 1 - i): count
            for (i, j), count in ra.nodes.items()
        },
    )
    rep2 = cv.report(cv.CoverSpec(61169, flipped, ma))
    assert (rep.chi, rep.c1_sq, rep.c2) == (rep2.chi, rep2.c1_sq, rep2.c2)
    assert rep.error_terms == rep2.error_terms


@pytest.mark.parametrize("p", [101, 1009])
def test_example_closed_forms_general_lines(p):
    # weights (1, ..., 1, p - q) on r general lines admit closed forms for
    # chi and c2; the engine must reproduce them for every q, r.  Only
    # q = r - 1 is a cover, so the others go through the fold alone.
    for r in range(3, 9):
        lines = ar.gen_general_lines(r)
        rl = ar.resolve(lines)
        for q in range(1, r):
            nu = {f"L{i + 1}": 1 for i in range(r - 1)}
            nu[f"L{r}"] = p - q
            ma = pt.MultiplicityAssignment(p, nu)
            terms, _ = cv._fold(rl, ma, FareyConfig())
            chi_closed = (
                p
                - Fraction((p * p - 1) * r, 12 * p)
                - Fraction((p - 1) * r * (5 - r), 8)
                + Fraction((r - 1) * (r - 2) * (p - 1) * (p - 2), 24 * p)
                + (r - 1) * dedekind_fast(p - q, p)
            )
            assert cv._invariants(rl, terms)[0] == chi_closed
            c2_closed = (
                3 * p
                + Fraction((1 - p) * r * (5 - r), 2)
                + Fraction((r - 1) * (r - 2) * (p - 1), 2)
                + (r - 1) * ncf_length(q, p)
            )
            assert cv._invariants(rl, terms)[2] == c2_closed
            if q == r - 1:  # the honest cover case: all integral
                rep = cv.report(cv.CoverSpec(p, rl, ma))
                assert (rep.chi, rep.c2) == (chi_closed, c2_closed)
            else:
                with pytest.raises(ValidationError, match="th root"):
                    cv.CoverSpec(p, rl, ma)


def test_integrality_randomized():
    rnd = random.Random(99)
    arrangements = [
        ar.gen_general_lines(3),
        ar.gen_general_lines(4),
        ar.gen_ceva(2),
        ar.gen_ceva(3),
    ]
    primes = [p for p in primes_between(5, 200)]
    for _ in range(120):
        a = rnd.choice(arrangements)
        p = rnd.choice(primes)
        ra = ar.resolve(a)
        sysd = pt.system_for(a, p)
        if pt.count_solutions(sysd) == 0:
            continue
        sol = pt.sample_uniform(sysd, rnd.randrange(1 << 30))
        try:
            ma = pt.assign(ra, sol)
        except Exception:
            continue
        rep = cv.report(cv.CoverSpec(p, ra, ma))
        assert 12 * rep.chi == rep.c1_sq + rep.c2


def test_cover_spec_refuses_nu_with_no_pth_root():
    # multiplicities that solve no block system leave B = sum nu_i D_i with
    # no p-th root: B.L1 = 1 + 2 + 3 is not 0 mod 7.  That is bad input,
    # refused before any evaluation, so a non-integer invariant is a bug
    rt = ar.resolve(ar.gen_general_lines(3))
    ma = pt.MultiplicityAssignment(7, {"L1": 1, "L2": 2, "L3": 3})
    with pytest.raises(ValidationError, match="B.L1 = 6 is not 0 mod 7") as info:
        cv.CoverSpec(7, rt, ma)
    assert info.value.code == "no-root"


def test_floor_sum_identities():
    # sum i [a i / p] in closed form through S(a, a; p); the S term carries
    # a plus sign (expand sum (a i - [a i/p] p)^2 to see it)
    for p in (7, 13, 101):
        for a in (1, 2, 3, 5):
            lhs = weighted_floor_sum(a, p)
            rhs = Fraction((a * a - 1) * (p - 1) * (2 * p - 1), 12 * a) + Fraction(
                p * floor_sum_S(a, a, p), 2 * a
            )
            assert lhs == rhs


def test_floor_sum_combination_identity():
    # -(a/b) S(b,b) - (b/a) S(a,a) + 2 S(a,b) recovers the Dedekind sum of
    # the twisted residue a' b
    for p in (11, 61):
        for a in range(1, 7):
            for b in range(1, 7):
                comb_val = (
                    -Fraction(a, b) * floor_sum_S(b, b, p)
                    - Fraction(b, a) * floor_sum_S(a, a, p)
                    + 2 * floor_sum_S(a, b, p)
                )
                closed = Fraction(
                    (1 - p)
                    * (a * a * (2 * p - 1) + b * b * (2 * p - 1) - 3 * a * b * p),
                    6 * a * b * p,
                )
                s_ab = dedekind_fast(pow(a, -1, p) * b % p, p)
                assert comb_val == closed + 2 * s_ab, (a, b, p)


def test_floor_sum_oracle_matches_engine():
    rnd = random.Random(5)
    for a in (ar.gen_general_lines(3), ar.gen_general_lines(4)):
        ra = ar.resolve(a)
        for p in (7, 31, 101):
            sysd = pt.system_for(a, p)
            for _ in range(5):
                sol = pt.sample_uniform(sysd, rnd.randrange(1 << 30))
                ma = pt.assign(ra, sol)
                rep = cv.report(cv.CoverSpec(p, ra, ma))
                chi_o, scf_o = floor_sum_oracle(ra, ma)
                assert chi_o == rep.chi
                assert scf_o == rep.error_terms.scf


def test_floor_sum_oracle_invalid_nu_rational():
    tri = ar.gen_general_lines(3)
    rt = ar.resolve(tri)
    ma = pt.MultiplicityAssignment(7, {"L1": 1, "L2": 2, "L3": 3})
    chi_o, scf_o = floor_sum_oracle(rt, ma)
    terms, _ = cv._fold(rt, ma, FareyConfig())
    assert chi_o == cv._invariants(rt, terms)[0] == Fraction(5, 7)
    assert scf_o == terms.scf


def test_floor_sum_oracle_budget():
    spec = _dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133])
    with pytest.raises(BudgetError):
        floor_sum_oracle(spec.resolved, spec.nu)


def test_leading_term_scaling():
    # c1^2/p and c2/p approach the log Chern numbers (24, 9) along the
    # biggest published row
    p = 544109
    spec = _dual_hesse_cover(
        p, [1, 1709, 3539, 7639, 15629, 31649, 62219, 150559, 271165]
    )
    rep = cv.report(spec)
    assert abs(Fraction(rep.c1_sq, p) - 24) < Fraction(24, 100)
    assert abs(Fraction(rep.c2, p) - 9) < Fraction(9, 100)


def _conic_and_four_lines():
    # hand-written divisible arrangement: one conic (u = 2) and four lines
    # in general position on the plane
    conic = ar.CurveDecl("Q", 0, 4, 1, 2)
    lines = [ar.CurveDecl(f"L{i}", 0, 1, 1, 1) for i in range(1, 5)]
    points = []
    for i in range(1, 5):
        points.append(ar.PointDecl(("Q", f"L{i}")))
        points.append(ar.PointDecl(("Q", f"L{i}")))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            points.append(ar.PointDecl((f"L{i}", f"L{j}")))
    return ar.Arrangement(ar.P2, 1, (conic, *lines), tuple(points))


def test_weighted_block_cover_end_to_end():
    # exercises non-unit weights all the way through sampling, assignment,
    # and the invariants
    a = _conic_and_four_lines()
    assert ar.validate(a).t == {2: 14}
    assert ar.log_chern_direct(a) == ar.log_chern_resolved(ar.resolve(a))

    ra = ar.resolve(a)
    for p in (101, 977):
        sysd = pt.system_for(a, p)
        assert sysd.blocks[0].u == (2, 1, 1, 1, 1)
        for seed in range(5):
            sol = pt.sample_uniform(sysd, seed)
            pt.validate_solution(sysd, sol)
            rep = cv.report(cv.CoverSpec(p, ra, pt.assign(ra, sol)))
            assert 12 * rep.chi == rep.c1_sq + rep.c2
            chi_o, scf_o = floor_sum_oracle(ra, pt.assign(ra, sol))
            assert chi_o == rep.chi
            assert scf_o == rep.error_terms.scf


@pytest.mark.parametrize("p", [40_000_003, 10**18 + 3])
def test_weighted_block_cover_at_large_p_is_bounded(p):
    # the weighted block's counts are quasi-polynomials in p, so nothing is
    # tabulated up to p; the cache is cleared so that their build is measured
    a = _conic_and_four_lines()
    ra = ar.resolve(a)
    sysd = pt.system_for(a, p)
    pt._quasi_polynomials.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        good = pt.sample_good(sysd, ra, seed=1, max_tries=100)
        rep = cv.report(cv.CoverSpec(p, ra, good.assignment))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pt.validate_solution(sysd, good.solution)
    assert rep.good and 12 * rep.chi == rep.c1_sq + rep.c2
    assert elapsed < 1.0
    assert peak < 5_000_000


def test_weighted_scan_at_1e8_runs(tmp_path):
    path = tmp_path / "conic.json"
    ar.save(_conic_and_four_lines(), str(path))
    code = main([
        "scan", "--arrangement", str(path), "--primes", "100000007",
        "--samples", "2", "--seed", "1", "--out", str(tmp_path / "scan.csv"),
    ])
    assert code == EXIT_OK


_ORACLE_ARRANGEMENTS = {
    "dual-hesse": ar.gen_ceva(3),
    "conic-and-four-lines": _conic_and_four_lines(),
    "underline-ceva": ar.gen_underline_ceva(5),
}
_LARGE_PRIMES = (1_000_000_007, 999_999_999_989, 10**18 + 3)


def _prime_from(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_ORACLE_ARRANGEMENTS)),
    p=st.one_of(st.integers(61, 10**6).map(_prime_from), st.sampled_from(_LARGE_PRIMES)),
    C=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(1, 3)]),
    data=st.data(),
)
def test_report_matches_fraction_fold_oracle(name, p, C, data):
    # the integer fold over the goodness check's node table against the
    # rational fold over node tables of its own; small parts make bad covers
    a = _ORACLE_ARRANGEMENTS[name]
    ra = ar.resolve(a)
    sysd = pt.system_for(a, p)
    parts = []
    for block in sysd.blocks:
        k, u = len(block.u), block.u
        assert u[-1] == 1
        head = [data.draw(st.integers(1, p // (2 * k * max(u)))) for _ in range(k - 1)]
        parts.append(head + [p - sum(w * m for w, m in zip(u, head))])
    sol = pt.solution_from_parts(sysd, parts)
    try:
        ma = pt.assign(ra, sol)
    except ExceptionalVanishes:
        assume(False)
    spec = cv.CoverSpec(p, ra, ma, FareyConfig(C))
    rep = cv.report(spec)
    want = fraction_report(spec)
    got = {
        "chi": rep.chi, "c1_sq": rep.c1_sq, "c2": rep.c2,
        "ratio_c": rep.ratio_c, "ratio_chi": rep.ratio_chi,
        "scf": rep.error_terms.scf, "ccf": rep.error_terms.ccf, "lcf": rep.error_terms.lcf,
        "good": rep.good, "offending": rep.offending,
        "bounds_ok": rep.bounds_ok,
    }
    assert got == want


_GENERATED = {
    "ceva-3": ar.gen_ceva(3),
    "ceva-5": ar.gen_ceva(5),
    "underline-ceva-5": ar.gen_underline_ceva(5),
    "pg2-5": ar.gen_pg2(5),
    "general-lines-6": ar.gen_general_lines(6),
    "p1xp1-3-4-5": ar.gen_p1xp1(3, 4, 5),
    "conic-and-four-lines": _conic_and_four_lines(),
}
_GENERATED_RESOLVED = {name: ar.resolve(a) for name, a in _GENERATED.items()}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_GENERATED)),
    p=st.sampled_from([10007, 61169, 1000003]),
    seed=st.integers(0, 2**32),
)
def test_cover_spec_accepts_every_sampled_cover(name, p, seed):
    # a uniform solution that assign accepts always leaves B = sum nu_i D_i
    # with B.D_j = 0 mod p, so the p-th root check refuses no real cover
    ra = _GENERATED_RESOLVED[name]
    sol = pt.sample_uniform(pt.system_for(_GENERATED[name], p), seed)
    try:
        ma = pt.assign(ra, sol)
    except ExceptionalVanishes:
        assume(False)
    cv.CoverSpec(p, ra, ma)


def _count_walks(monkeypatch):
    """Count the calls of _node_walk and of every retired per-residue route."""
    calls = Counter()
    watched = [(cv, "_node_walk")] + [
        (module, name)
        for module in (pt, cv, nt)
        for name in ("node_residues", "is_good", "is_farey_neighbour", "_ncf_stats",
                     "dedekind_fast")
        if hasattr(module, name)
    ]
    for module, name in watched:
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _residue_weights(spec):
    """q -> summed count of the nodes with residue q, in first-seen order."""
    weights = Counter()
    nu = pt._assigned_nu(spec.resolved, spec.nu)
    for _, q, count in pt._node_table(spec.resolved, nu, spec.p):
        weights[q] += count
    return weights


def test_report_builds_one_node_table(monkeypatch):
    # the one table is the walk over the resolution's nodes: one _node_walk
    # per distinct residue and nothing else per residue, so no NodeResidue,
    # no goodness check and no second Farey, NCF or Dedekind route
    spec = _dual_hesse_cover(61169, [1, 29, 89, 269, 1019, 3469, 7919, 15859, 32515])
    distinct = len(_residue_weights(spec))
    calls = _count_walks(monkeypatch)
    built = Counter()
    real_init = pt.NodeResidue.__init__

    def counted_init(self, *args):
        built["NodeResidue"] += 1
        real_init(self, *args)

    monkeypatch.setattr(pt.NodeResidue, "__init__", counted_init)
    rep = cv.report(spec)
    assert not rep.good  # every node walked, hits and misses alike
    assert calls == {"_node_walk": distinct}
    assert built == {}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_report_walks_an_equal_part_row_once_per_residue(monkeypatch, m):
    # q = p - nu_i' nu_j depends only on nu_j / nu_i, so (m, ..., m, p - 8m)
    # has 3 distinct residues over its 36 nodes
    p = 61169
    spec = _dual_hesse_cover(p, [m] * 8 + [p - 8 * m])
    assert spec.resolved.t2_total == len(spec.resolved.nodes) == 36
    calls = _count_walks(monkeypatch)
    cv.report(spec)
    assert calls == {"_node_walk": 3}


def _per_node_fold(ra, ma, config):
    """The fold with one walk per node: no residue shared between nodes."""
    p = ma.p
    droot, bound = nt._farey_bounds(p, config)
    offending = []
    scf_num = ccf_num = lcf = 0
    for node in pt.node_residues(ra, ma):
        q = node.q
        hit, f, length, e_sum, _ = nt._node_walk(q, p, droot, bound)
        if hit:
            offending.append((node.pair, q))
        scf_num += node.count * f
        ccf_num += node.count * (q + pow(q, -1, p) + p * (e_sum - 2 * length))
        lcf += node.count * length
    return cv.ErrorTerms(p, scf_num, ccf_num, lcf), tuple(offending)


def _assert_fold_matches_per_node(spec):
    got = cv._fold(spec.resolved, spec.nu, spec.farey)
    assert got == _per_node_fold(spec.resolved, spec.nu, spec.farey)
    return got


def _table_specs(name):
    doc = tb.load_table(name)
    params = dict(doc["generator"])
    a = ar.GENERATORS[params.pop("kind")](**params)
    return [_cover(a, row.get("p", doc.get("p")), row["parts"]) for row in doc["rows"]]


@pytest.mark.parametrize("name", tb.TABLE_NAMES)
def test_fold_matches_the_per_node_fold_on_every_table_row(name):
    specs = _table_specs(name)
    assert specs
    for spec in specs:
        _assert_fold_matches_per_node(spec)


@pytest.mark.parametrize("p", [61169, 1_000_003, 999_999_999_989])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fold_matches_the_per_node_fold_on_equal_part_rows(p, m):
    _, offending = _assert_fold_matches_per_node(_dual_hesse_cover(p, [m] * 8 + [p - 8 * m]))
    # every node is bad, and the residue p - 3 hits at 24 of them
    assert len(offending) == 36
    assert Counter(q for _, q in offending)[p - 3] == 24


_FOLD_ARRANGEMENTS = {"dual-hesse": ar.gen_ceva(3), "conic-and-four-lines": _conic_and_four_lines()}
_FOLD_RESOLVED = {name: ar.resolve(a) for name, a in _FOLD_ARRANGEMENTS.items()}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_FOLD_ARRANGEMENTS)),
    p=st.one_of(st.integers(61, 10**6).map(_prime_from), st.sampled_from(_LARGE_PRIMES)),
    C=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(1, 3)]),
    seed=st.integers(0, 2**32),
    pool=st.none() | st.lists(st.integers(1, 9), min_size=1, max_size=3),
    data=st.data(),
)
def test_property_fold_matches_the_per_node_fold(name, p, C, seed, pool, data):
    # uniform covers have nearly all residues distinct; parts drawn from a
    # small pool repeat multiplicities, and so residues
    a, ra = _FOLD_ARRANGEMENTS[name], _FOLD_RESOLVED[name]
    sysd = pt.system_for(a, p)
    if pool is None:
        sol = pt.sample_uniform(sysd, seed)
    else:
        parts = []
        for block in sysd.blocks:
            head = [data.draw(st.sampled_from(pool)) for _ in block.u[:-1]]
            parts.append(head + [p - sum(w * m for w, m in zip(block.u, head))])
        sol = pt.solution_from_parts(sysd, parts)
    try:
        ma = pt.assign(ra, sol)
    except ExceptionalVanishes:
        assume(False)
    _assert_fold_matches_per_node(cv.CoverSpec(p, ra, ma, FareyConfig(C)))


def test_report_keeps_the_offending_nodes_of_is_good():
    spec = _dual_hesse_cover(61169, [1, 29, 89, 269, 1019, 3469, 7919, 15859, 32515])
    rep = cv.report(spec)
    assert not rep.good
    assert rep.offending == pt.is_good(spec.resolved, spec.nu, spec.farey).offending


def test_report_keeps_every_hit_of_a_shared_residue():
    # a bad equal-part row: one residue hits at many node pairs, and each
    # of them stays in the offending list, in node order
    p = 1_000_003
    spec = _dual_hesse_cover(p, [2] * 8 + [p - 16])
    rep = cv.report(spec)
    assert Counter(q for _, q in rep.offending).most_common(1) == [(p - 3, 24)]
    assert rep.offending == pt.is_good(spec.resolved, spec.nu, spec.farey).offending


def test_scan_result_holds_no_node_table():
    # a report keeps its verdict, not the node table it was read from, so
    # what a scan holds per sample does not grow with the node count
    result = cv.convergence_scan(ar.gen_ceva(3), [10103, 61169], samples_per_prime=3, seed=1)
    assert len(result.samples) == 6
    seen, stack, tables = set(), [result], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        tables += isinstance(obj, pt.NodeResidue)
        stack.extend(gc.get_referents(obj))
    assert tables == 0


def test_wrong_ncf_sum_breaks_the_error_term_identity(monkeypatch):
    spec = _dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133])
    real = cv._node_walk

    def walk(*args):
        hit, f, length, e_sum, inverse = real(*args)
        return hit, f, length, e_sum + 1, inverse

    monkeypatch.setattr(cv, "_node_walk", walk)
    with pytest.raises(ConsistencyError, match="error-term identity"):
        cv.report(spec)


def test_wrong_reciprocity_value_breaks_the_error_term_identity(monkeypatch):
    spec = _dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133])
    real = cv._node_walk

    def walk(*args):
        hit, f, length, e_sum, inverse = real(*args)
        return hit, f + 1, length, e_sum, inverse

    monkeypatch.setattr(cv, "_node_walk", walk)
    with pytest.raises(ConsistencyError, match="error-term identity"):
        cv.report(spec)


def _corrupt_the_most_shared_residue(monkeypatch, spec, field):
    """Add 1 to one field of _node_walk's result for the residue that the
    most nodes share, and to nothing else; return that residue's weight."""
    (shared, weight), = _residue_weights(spec).most_common(1)
    real = cv._node_walk
    index = ("hit", "f", "length", "e_sum", "inverse").index(field)

    def walk(q, *args):
        result = list(real(q, *args))
        if q == shared:
            result[index] += 1
        return tuple(result)

    monkeypatch.setattr(cv, "_node_walk", walk)
    return weight


def test_wrong_ncf_sum_on_a_shared_residue_breaks_the_error_term_identity(monkeypatch):
    # the equal-part row's residue p - 3 is walked once for its 24 nodes
    p = 61169
    spec = _dual_hesse_cover(p, [2] * 8 + [p - 16])
    assert _corrupt_the_most_shared_residue(monkeypatch, spec, "e_sum") == 24
    with pytest.raises(ConsistencyError, match="error-term identity"):
        cv.report(spec)


def test_wrong_reciprocity_value_on_a_shared_residue_breaks_the_error_term_identity(monkeypatch):
    p = 61169
    spec = _dual_hesse_cover(p, [2] * 8 + [p - 16])
    assert _corrupt_the_most_shared_residue(monkeypatch, spec, "f") == 24
    with pytest.raises(ConsistencyError, match="error-term identity"):
        cv.report(spec)


def test_cover_spec_needs_a_prime_at_least_3():
    # psi_12 = 399165290221 * 798330580441 passes the twelve bases 2..37
    spec = _dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133])
    assert cv.CoverSpec(61169, spec.resolved, spec.nu) == spec
    for p in (2, 9, 318665857834031151167461):
        with pytest.raises(ValueError, match=f"modulus must be a prime >= 3, got {p}$"):
            cv.CoverSpec(p, spec.resolved, spec.nu)


def test_cover_spec_refuses_a_mismatched_or_partial_assignment():
    spec = _dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133])
    with pytest.raises(ValueError, match="differs from cover p"):
        cv.CoverSpec(61169, spec.resolved, pt.MultiplicityAssignment(61171, spec.nu.nu))
    partial = dict(spec.nu.nu)
    del partial["E12"]
    with pytest.raises(ValueError, match="E12 has no multiplicity"):
        cv.CoverSpec(61169, spec.resolved, pt.MultiplicityAssignment(61169, partial))


def test_report_raises_a_noether_mismatch(monkeypatch):
    spec = _dual_hesse_cover(61169, [1, 2, 3, 4, 5, 6, 7, 8, 61133])
    monkeypatch.setattr(cv, "_invariants", lambda ra, terms: (Fraction(1), Fraction(1), 1))
    with pytest.raises(ConsistencyError, match="independent routes disagree"):
        cv.report(spec)


def test_report_raises_a_good_cover_outside_the_bounds(monkeypatch):
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    good = pt.sample_good(pt.system_for(dh, 61169), ra, seed=11, max_tries=100)
    spec = cv.CoverSpec(61169, ra, good.assignment)
    monkeypatch.setattr(cv, "_bounds_ok", lambda terms, n_nodes, p: False)
    with pytest.raises(ConsistencyError, match="square-root error bounds"):
        cv.report(spec)


@pytest.mark.parametrize("C", [Fraction(3, 2), Fraction(5)])
def test_report_raises_a_good_cover_outside_the_bounds_at_any_c_from_1(monkeypatch, C):
    # the bad set grows with C, so a cover good at C >= 1 is good at C = 1,
    # where the square-root bounds hold for p >= 17
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    config = FareyConfig(C)
    good = pt.sample_good(pt.system_for(dh, 61169), ra, seed=11, max_tries=500, config=config)
    spec = cv.CoverSpec(61169, ra, good.assignment, config)
    assert cv.report(spec).good
    monkeypatch.setattr(cv, "_bounds_ok", lambda terms, n_nodes, p: False)
    with pytest.raises(ConsistencyError, match="square-root error bounds"):
        cv.report(spec)


def test_report_only_reports_the_bounds_below_c_1(monkeypatch):
    dh = ar.gen_ceva(3)
    ra = ar.resolve(dh)
    config = FareyConfig(Fraction(1, 3))
    good = pt.sample_good(pt.system_for(dh, 61169), ra, seed=11, max_tries=100, config=config)
    monkeypatch.setattr(cv, "_bounds_ok", lambda terms, n_nodes, p: False)
    rep = cv.report(cv.CoverSpec(61169, ra, good.assignment, config))
    assert rep.good and not rep.bounds_ok


def test_convergence_scan_small():
    dh = ar.gen_ceva(3)
    result = cv.convergence_scan(dh, [61169], samples_per_prime=3, seed=5)
    assert result.log_ratio == Fraction(8, 3)
    assert len(result.summaries) == 1
    s = result.summaries[0]
    assert s.samples == 3
    assert s.ratio_min <= s.ratio_median <= s.ratio_max
    assert abs(s.ratio_median - Fraction(8, 3)) < Fraction(1, 10)
    # deterministic
    again = cv.convergence_scan(dh, [61169], samples_per_prime=3, seed=5)
    assert again.summaries == result.summaries


@pytest.mark.parametrize("samples", [0, -1])
def test_convergence_scan_refuses_fewer_than_one_sample_per_prime(samples):
    with pytest.raises(ValueError) as exc:
        cv.convergence_scan(ar.gen_ceva(3), [61169], samples_per_prime=samples, seed=5)
    assert str(exc.value) == f"need at least 1 sample per prime, got {samples}"


def test_convergence_scan_skips_exhausted_primes():
    dh = ar.gen_ceva(3)
    result = cv.convergence_scan(dh, [17, 61169], samples_per_prime=2, seed=5, max_tries=5)
    assert result.skipped and result.skipped[0][0] == 17
    assert [s.p for s in result.summaries] == [61169]


def test_convergence_scan_skips_a_prime_with_no_solution():
    dh = ar.gen_ceva(3)
    result = cv.convergence_scan(dh, [10103, 5], samples_per_prime=2, seed=7)
    assert result.skipped == ((5, "p=5 is below the minimal block sum 9"),)
    assert [s.p for s in result.summaries] == [10103]
    alone = cv.convergence_scan(dh, [10103], samples_per_prime=2, seed=7)
    assert result.samples == alone.samples


def _break_farey_route(route, monkeypatch):
    """Make the sampler pass every node, or report flip every verdict."""
    if route == "sampler":
        monkeypatch.setattr(pt, "_farey_hit", lambda q, p, droot, bound: False)
        return
    real = cv._node_walk

    def walk(*args):
        hit, *rest = real(*args)
        return (not hit, *rest)

    monkeypatch.setattr(cv, "_node_walk", walk)


@pytest.mark.parametrize("route", ["sampler", "report"])
def test_a_sampled_cover_that_reports_bad_is_an_internal_error(route, monkeypatch):
    dh = ar.gen_ceva(3)
    _break_farey_route(route, monkeypatch)
    p, seed = 61169, 1
    good = pt.sample_good(pt.system_for(dh, p), ar.resolve(dh), seed=cv._mix_seed(seed, p, 0))
    (i, j), q = cv.report(cv.CoverSpec(p, ar.resolve(dh), good.assignment)).offending[0]
    with pytest.raises(ConsistencyError) as info:
        cv.convergence_scan(dh, [p], samples_per_prime=3, seed=seed)
    assert str(info.value) == (
        f"node {i}-{j} (q={q}) of a sampled cover: the sampler's Farey walk "
        "found it good, report's found it in the bad set"
    )


def test_convergence_scan_rejects_degenerate():
    with pytest.raises(ValueError):
        cv.convergence_scan(ar.gen_general_lines(3), [61169], 1, seed=1)


def test_truncate_decimal():
    assert cv.truncate_decimal(Fraction(1441949, 733435), 3) == "1.966"
    assert cv.truncate_decimal(Fraction(542627, 199408), 5) == "2.72118"
    assert cv.truncate_decimal(Fraction(8, 3), 3) == "2.666"
    assert cv.truncate_decimal(Fraction(-8, 3), 2) == "-2.66"
    assert cv.truncate_decimal(Fraction(5), 3) == "5.000"


def test_reports_store_no_value_they_derive():
    # the verdict follows from the offending nodes, the ratios from the
    # invariants, a table row's status from its computed and expected values
    stored = {
        cls.__name__: {f.name for f in dataclasses.fields(cls)}
        for cls in (cv.ChernReport, pt.GoodnessReport, tb.TableRow)
    }
    for names in stored.values():
        assert not names & {"good", "ratio_c", "ratio_chi", "ok"}
    rep = cv.report(_dual_hesse_cover(61169, [1, 29, 89, 269, 1019, 3469, 7919, 15859, 32515]))
    assert rep.good is (not rep.offending) is False
    assert rep.ratio_c == Fraction(rep.c1_sq, rep.c2)
    assert rep.ratio_chi == Fraction(rep.c1_sq, rep.chi)
    row = tb.run_table("remark71a").rows[0]
    assert row.ok and row.computed == row.expected


def _no_node_cover(surface, genus, p, parts):
    curves = tuple(ar.CurveDecl(f"A{i}", genus, 0, 1, 1) for i in range(3))
    return _cover(ar.Arrangement(surface, 1, curves, ()), p, [parts])


@pytest.mark.parametrize("p", [13, 17, 101])
def test_a_cover_with_no_nodes_has_nothing_to_bound(p):
    spec = _no_node_cover(ar.P1xP1, 0, p, [1, 1, p - 2])
    rep = cv.report(spec)
    assert spec.resolved.t2_total == 0 and rep.error_terms.lcf == 0 and rep.good
    assert rep.bounds_ok
    assert fraction_report(spec)["bounds_ok"]


@pytest.mark.parametrize(
    "surface, genus, p, parts",
    [(ar.SurfaceClass("ExE", 0, 0), 1, 13, [1, 2, 10]), (ar.P1xP1, 0, 3, [1, 1, 1])],
    ids=["ExE-13", "P1xP1-3"],
)
def test_a_ratio_with_denominator_zero_is_none(surface, genus, p, parts):
    spec = _no_node_cover(surface, genus, p, parts)
    rep = cv.report(spec)
    assert rep.c2 == 0 and rep.ratio_c is None
    assert (rep.ratio_chi is None) == (rep.chi == 0)
    want = fraction_report(spec)
    assert (want["ratio_c"], want["ratio_chi"]) == (rep.ratio_c, rep.ratio_chi)


def test_convergence_scan_skips_a_prime_whose_sample_has_c2_zero():
    curves = tuple(ar.CurveDecl(f"A{i}", 0, 0, 1, 1) for i in range(3))
    a = ar.Arrangement(ar.P1xP1, 1, curves, ())
    result = cv.convergence_scan(a, [3, 5], samples_per_prime=2, seed=1)
    assert result.skipped == ((3, "sample 0 has c2 = 0, so c1^2/c2 is undefined"),)
    assert [s.p for s in result.samples] == [5, 5]
    assert [s.p for s in result.summaries] == [5]
