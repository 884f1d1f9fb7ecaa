"""Acceptance gate: every exit criterion at its stated range and tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on a
green suite; pytest shows captured output for failures automatically).
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from rootcovers import arrangements as ar
from rootcovers import covers as cv
from rootcovers import numth as nt
from rootcovers import partitions as pt
from rootcovers import tables as tb

from oracles import floor_sum_oracle


def _verdict(n, label, failures, started=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    elapsed = f" [{time.time() - started:.1f}s]" if started else ""
    print(f"ACCEPTANCE {n} {status}: {label}{elapsed}")
    assert not failures, failures[:5]


def test_criterion_1_exact_table_at_fixed_prime():
    started = time.time()
    failures = []
    run = tb.run_table("remark71a")
    for row in run.rows:
        if not row.ok:
            failures.append((row.index, row.expected, row.computed))
    flagship = run.rows[0]
    if (flagship.computed["c1_sq"], flagship.computed["c2"]) != (1441949, 733435):
        failures.append(("row1", flagship.computed))
    degenerate = run.rows[6]
    if (degenerate.computed["c1_sq"], degenerate.computed["c2"]) != (1386413, 1060303):
        failures.append(("row7", degenerate.computed))
    if time.time() - started > 5:
        failures.append(("runtime", time.time() - started))
    _verdict(1, "nine exact rows at p = 61169", failures, started)


def test_criterion_2_truncated_table_across_primes():
    started = time.time()
    failures = []
    run = tb.run_table("remark71b")
    if len(run.rows) != 16:
        failures.append(("row-count", len(run.rows)))
    for row in run.rows:
        if not row.ok:
            failures.append((row.index, row.p, row.expected, row.computed))
    last = run.rows[-1]
    if (last.computed["ratio_chi"], last.computed["ratio_c"]) != ("8.726", "2.665"):
        failures.append(("p=544109", last.computed))
    if time.time() - started > 30:
        failures.append(("runtime", time.time() - started))
    _verdict(2, "sixteen rows, both columns, 3 truncated decimals", failures, started)


def test_criterion_3_blown_up_pencil_example():
    started = time.time()
    failures = []
    blocks = [
        [1, 307, 7031, 11109, 42721],
        [589, 2007, 5007, 20001, 33565],
        [1009, 3001, 13003, 17807, 26349],
    ]
    a = ar.gen_underline_ceva(5)
    ra = ar.resolve(a)
    sysd = pt.system_for(a, 61169)
    sol = pt.solution_from_parts(sysd, blocks)
    rep = cv.report(cv.CoverSpec(61169, ra, pt.assign(ra, sol)))
    if rep.c1_sq != 4341016:
        failures.append(("c1_sq", rep.c1_sq))
    if rep.c2 != 1595264:
        failures.append(("c2", rep.c2))
    if rep.ratio_c != Fraction(542627, 199408):
        failures.append(("ratio", rep.ratio_c))
    if time.time() - started > 2:
        failures.append(("runtime", time.time() - started))
    _verdict(3, "blown-up pencil example: 4341016 / 1595264", failures, started)


def test_criterion_4_identity_suite():
    started = time.time()
    failures = []
    for p in nt.primes_between(17, 1009):
        stats = {}
        svals = {}
        for q in range(1, p):
            stats[q] = nt._ncf_stats(q, p)
            svals[q] = nt.dedekind_fast(q, p)
        for q in range(1, p):
            q2 = pow(q, -1, p)
            s = svals[q]
            length, e_sum = stats[q]
            if 12 * s != Fraction(q + q2 + p * (e_sum - 3 * length), p):
                failures.append(("identity", q, p))
            if svals[q2] != s:
                failures.append(("inverse-symmetry", q, p))
            if svals[p - q] != -s:
                failures.append(("negation", q, p))
    for p in nt.primes_between(17, 1009):
        expansions = {q: nt.ncf_expand(q, p).e for q in range(1, p)}
        for q in range(1, p):
            if expansions[pow(q, -1, p)] != tuple(reversed(expansions[q])):
                failures.append(("reversal", q, p))
    # remainder-chain identity with the inverse expansion, exhaustively
    for p in nt.primes_between(3, 300):
        for q in range(1, p):
            exp = nt.ncf_expand(q, p)
            q2 = pow(q, -1, p)
            b2 = nt.ncf_expand(q2, p).b
            s_len = exp.length
            total = Fraction(0)
            for i in range(1, s_len + 1):
                alpha = -1 + Fraction(exp.b[i] + b2[s_len - i + 1], p)
                total += alpha * (2 - exp.e[i - 1])
            rhs = (
                sum(exp.e) - 2 * s_len
                + Fraction(q + q2, p)
                - Fraction(2 * (p - 1), p)
            )
            if total != rhs:
                failures.append(("alpha-identity", q, p))
    if time.time() - started > 60:
        failures.append(("runtime", time.time() - started))
    _verdict(4, "identities for all q, primes 17..1009 (chains to 300)", failures, started)


def test_criterion_5_oracle_equivalence():
    started = time.time()
    failures = []
    for p in nt.primes_between(3, 500):
        for q in range(1, p):
            b = nt.dedekind_brute(q, p)
            if b != nt.dedekind_fast(q, p) or b != nt.dedekind_from_ncf(q, p):
                failures.append(("dedekind", q, p))
    rnd = random.Random(13)
    for a in (ar.gen_general_lines(3), ar.gen_general_lines(4)):
        ra = ar.resolve(a)
        for p in nt.primes_between(5, 500):
            sysd = pt.system_for(a, p)
            for _ in range(50):
                sol = pt._sample(sysd, rnd)
                ma = pt.assign(ra, sol)
                chi_o, _ = floor_sum_oracle(ra, ma)
                if chi_o != cv.report(cv.CoverSpec(p, ra, ma)).chi:
                    failures.append(("oracle", p, tuple(sol.mu.values())))
    _verdict(5, "brute = fast = chain Dedekind (p<=500); bracket-sum chi oracle", failures, started)


def test_criterion_6_bound_suite():
    started = time.time()
    failures = []
    for p in nt.primes_between(17, 2000):
        bad = nt.bad_set(p)
        for q in range(1, p):
            if q in bad:
                continue
            length, e_sum = nt._ncf_stats(q, p)
            q2 = pow(q, -1, p)
            s = Fraction(q + q2 + p * (e_sum - 3 * length), 12 * p)
            if not nt.lt_sqrt_bound(abs(s), 3, 5, p):
                failures.append(("dedekind-bound", q, p))
            if not nt.lt_sqrt_bound(Fraction(length), 3, 2, p):
                failures.append(("length-bound", q, p))
    for p in nt.primes_between(17, 5000):
        if not nt.badset_bound_holds(len(nt.bad_set(p)), p):
            failures.append(("badset-bound", p))
    if time.time() - started > 300:
        failures.append(("runtime", time.time() - started))
    _verdict(6, "sqrt bounds for ordinary residues (p<=2000); |F| bound (p<=5000)", failures, started)


def test_criterion_7_structural_invariants():
    started = time.time()
    failures = []
    # Noether + integrality on 1000 randomized valid covers at p <= 200
    rnd = random.Random(777)
    pool = (
        [ar.gen_general_lines(d) for d in (3, 4, 5, 6)]
        + [ar.gen_ceva(m) for m in (1, 2, 3, 4)]
        + [ar.gen_pg2(2), ar.gen_pg2(3)]
        + [ar.gen_underline_ceva(3), ar.gen_underline_ceva(4)]
        + [ar.gen_p1xp1(3, 3, 3)]
    )
    resolved = [(a, ar.resolve(a)) for a in pool]
    primes = nt.primes_between(5, 200)
    done = 0
    while done < 1000:
        a, ra = rnd.choice(resolved)
        p = rnd.choice(primes)
        sysd = pt.system_for(a, p)
        if pt.count_solutions(sysd) == 0:
            continue
        sol = pt.sample_uniform(sysd, rnd.randrange(1 << 30))
        try:
            ma = pt.assign(ra, sol)
        except pt.ExceptionalVanishes:
            continue
        try:
            rep = cv.report(cv.CoverSpec(p, ra, ma))
        except Exception as exc:  # integrality or consistency failure
            failures.append(("cover", a.surface.name, p, repr(exc)))
            done += 1
            continue
        if 12 * rep.chi != rep.c1_sq + rep.c2:
            failures.append(("noether", a.surface.name, p))
        done += 1
    # the two log Chern routes agree on every generator in range
    gens = (
        [ar.gen_general_lines(d) for d in range(3, 11)]
        + [ar.gen_ceva(m) for m in range(1, 13)]
        + [ar.gen_pg2(m) for m in (2, 3, 5, 7)]
        + [ar.gen_underline_ceva(m) for m in range(3, 13)]
        + [ar.gen_p1xp1(*dims) for dims in ((3, 3, 3), (3, 4, 5), (5, 5, 5))]
    )
    for a in gens:
        if ar.log_chern_direct(a) != ar.log_chern_resolved(ar.resolve(a)):
            failures.append(("log-chern-routes", a.surface.name, a.d))
    for m in (2, 3, 5, 7):
        if ar.log_chern_direct(ar.gen_pg2(m)).ratio != 3:
            failures.append(("pg2-ratio", m))
    for m in range(2, 13):
        lc = ar.log_chern_direct(ar.gen_ceva(m))
        if lc.ratio != Fraction(5 * m * m - 6 * m - 3, 2 * m * m - 3 * m):
            failures.append(("ceva-ratio", m))
    ratios = {}
    for m in range(4, 13):
        lc = ar.log_chern_direct(ar.gen_underline_ceva(m))
        if (lc.c1bar_sq, lc.c2bar) != (5 * m * m - 12 * m + 6, 2 * m * m - 6 * m + 6):
            failures.append(("underline-formula", m))
        ratios[m] = lc.ratio
    if max(ratios.values()) != Fraction(71, 26) or ratios[5] != Fraction(71, 26):
        failures.append(("underline-max", ratios))
    _verdict(7, "Noether/integrality x1000; generator formulas and ratios", failures, started)


def test_criterion_8_convergence():
    started = time.time()
    failures = []
    dh = ar.gen_ceva(3)
    result = cv.convergence_scan(
        dh, [10103, 61169, 544109], samples_per_prime=20, seed=20240, max_tries=500
    )
    if result.skipped:
        failures.append(("skipped", result.skipped))
    by_p = {s.p: s for s in result.summaries}
    if abs(by_p[61169].ratio_median - Fraction(2654, 1000)) > Fraction(2, 100):
        failures.append(("median-61169", float(by_p[61169].ratio_median)))
    if abs(by_p[544109].ratio_median - Fraction(2665, 1000)) > Fraction(1, 100):
        failures.append(("median-544109", float(by_p[544109].ratio_median)))
    gaps = [by_p[p].gap for p in (10103, 61169, 544109)]
    if not gaps[0] > gaps[1] > gaps[2]:
        failures.append(("monotone-approach", [float(g) for g in gaps]))
    _verdict(8, "20 good samples per prime; medians near the published anchors", failures, started)


def test_criterion_9_sampler_correctness():
    started = time.time()
    failures = []
    from scipy.stats import chi2

    sysd = pt.DiophSystem(
        13, (pt.DiophBlock(("a", "b", "c"), (1, 1, 1)),)
    )
    outcomes = [
        (a, b, 13 - a - b)
        for a in range(1, 12)
        for b in range(1, 12)
        if 13 - a - b >= 1
    ]
    if len(outcomes) != 66 or pt.count_solutions(sysd) != 66:
        failures.append(("outcome-count", len(outcomes)))
    rng = random.Random(17)
    counts = {o: 0 for o in outcomes}
    for _ in range(66_000):
        sol = pt._sample(sysd, rng)
        counts[tuple(sol.mu.values())] += 1
    expected = 66_000 / 66
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi2.ppf(1 - 1e-3, 65)
    if stat > critical:
        failures.append(("chi-square", stat, critical))

    def brute(u, target):
        if len(u) == 1:
            return 1 if target >= u[0] and target % u[0] == 0 else 0
        return sum(
            brute(u[1:], target - u[0] * x) for x in range(1, target // u[0] + 1)
        )

    for p in nt.primes_between(3, 60):
        for d in (3, 4):
            for u in product((1, 2, 3), repeat=d):
                g = 0
                for w in u:
                    g = gcd(g, w)
                if g != 1:
                    continue
                block = pt.DiophBlock(tuple(f"x{i}" for i in range(d)), u)
                if pt.count_solutions(pt.DiophSystem(p, (block,))) != brute(u, p):
                    failures.append(("count", p, u))
    _verdict(9, "exact-uniform chi-square (66k draws); counts vs enumeration", failures, started)
