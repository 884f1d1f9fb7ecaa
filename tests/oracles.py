"""Slow reference routes that the package's results are tested against.

Each recomputes a quantity of the package by an independent route: naive
O(p) arithmetic, or rational arithmetic where the package folds integers;
they live beside the tests because nothing in the package needs them.
"""

import random
from fractions import Fraction
from math import comb, factorial, gcd, isqrt

from rootcovers.arrangements import ResolvedArrangement, log_chern_resolved
from rootcovers.covers import CoverSpec
from rootcovers.errors import BudgetError, EmptySolutionSetError, ExceptionalVanishes
from rootcovers.numth import (
    DEFAULT_FAREY,
    FareyConfig,
    _ncf_stats,
    _reciprocity,
    is_farey_neighbour,
    lt_sqrt_bound,
)
from rootcovers.partitions import (
    GoodSample,
    MultiplicityAssignment,
    _sample,
    assign,
    is_good,
    node_residues,
)


def ncf_convergents(e) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Numerator/denominator chains P_i, Q_i of [e_1..e_i], i = 0..s.

    P_{-1}=0, P_0=1, P_{i+1} = e_{i+1} P_i - P_{i-1}, and likewise for Q
    with Q_{-1}=-1, Q_0=0.  Returned tuples start at index 0, so
    (P_s, Q_s) sits at position s and [e_1..e_s] = P_s/Q_s.
    """
    P = [1]
    Q = [0]
    prev_p, prev_q = 0, -1
    for ei in e:
        P.append(ei * P[-1] - prev_p)
        Q.append(ei * Q[-1] - prev_q)
        prev_p, prev_q = P[-2], Q[-2]
    return tuple(P), tuple(Q)


def floor_sum_S(a: int, b: int, p: int) -> int:
    """S(a,b;p) = sum_{i=1}^{p-1} [a i / p] [b i / p], by running remainders."""
    total = 0
    ra = rb = 0
    qa = qb = 0
    for _ in range(1, p):
        ra += a
        if ra >= p:
            ra -= p
            qa += 1
        rb += b
        if rb >= p:
            rb -= p
            qb += 1
        total += qa * qb
    return total


def weighted_floor_sum(a: int, p: int) -> int:
    """sum_{i=1}^{p-1} i [a i / p]."""
    total = 0
    r = 0
    q = 0
    for i in range(1, p):
        r += a
        if r >= p:
            r -= p
            q += 1
        total += i * q
    return total


def floor_sum_oracle(
    ra: ResolvedArrangement, ma: MultiplicityAssignment, max_p: int = 10_000
) -> tuple[Fraction, Fraction]:
    """Recompute (chi, scf) from the raw bracket sums, no Dedekind machinery.

    chi comes from summing the self-products of the p twisting classes:
    with r_j(i) = nu_j i mod p,

      chi = p chi(Y) + (1/2p^2) sum_i sum_{j,k} r_j(i) r_k(i) D_j.D_k
                     + (p-1)/4 * sum_j K.D_j,

    where K.D_j = 2 g_j - 2 - D_j^2 and the middle sum runs over ordered
    pairs (the diagonal carries D_j^2).  The Dedekind part is recovered per
    node from S(a,a;p), S(b,b;p), S(a,b;p) alone.  O(p) per divisor pair,
    so gated by `max_p`.

    Both values are returned as exact rationals at p = ma.p: they equal the
    report's chi and scf whenever the multiplicities come from an actual
    solution of the block system, and the rational equality with the fold
    (covers._invariants) holds for arbitrary nu in (0, p) as well.
    """
    p = ma.p
    if p > max_p:
        raise BudgetError(f"floor-sum oracle at p={p} exceeds the budget {max_p}")
    divisors = ra.divisors
    nu = [ma.nu[d.id] for d in divisors]
    pairs = sorted(ra.nodes.items())

    # chi from the quadratic floor-sum accumulation
    acc = 0
    rem = [0] * len(divisors)
    diag = [(j, d.self_int) for j, d in enumerate(divisors)]
    for _ in range(1, p):
        for j, nj in enumerate(nu):
            t = rem[j] + nj
            if t >= p:
                t -= p
            rem[j] = t
        row = 0
        for j, self_int in diag:
            row += rem[j] * rem[j] * self_int
        for (j, k), count in pairs:
            row += 2 * rem[j] * rem[k] * count
        acc += row
    k_sum = sum(2 * d.genus - 2 - d.self_int for d in divisors)
    chi_val = (
        p * ra.surface.chi
        + Fraction(acc, 2 * p * p)
        + Fraction((p - 1) * k_sum, 4)
    )

    # Dedekind part per node from the three bracket sums
    s_cache: dict[tuple[int, int], int] = {}

    def S(a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        if key not in s_cache:
            s_cache[key] = floor_sum_S(key[0], key[1], p)
        return s_cache[key]

    scf = Fraction(0)
    for (j, k), count in pairs:
        a, b = nu[j], nu[k]
        comb_val = (
            -Fraction(a, b) * S(b, b) - Fraction(b, a) * S(a, a) + 2 * S(a, b)
        )
        closed = Fraction(
            (1 - p) * (a * a * (2 * p - 1) + b * b * (2 * p - 1) - 3 * a * b * p),
            6 * a * b * p,
        )
        s_ab = (comb_val - closed) / 2  # = s(a' b, p)
        scf += count * (-s_ab)  # s(p - a' b, p) = -s(a' b, p)
    return chi_val, scf


def dedekind_fraction(q: int, p: int) -> Fraction:
    """s(q, p) by the reciprocity recursion in rational arithmetic:
    s(a,b) = (a^2 + b^2 + 1 - 3ab)/(12ab) - s(b mod a, a), summed down the
    Euclid chain with alternating sign over one unreduced numerator and
    denominator."""
    num, den = 0, 1
    a, b, sign = q, p, 1
    while a:
        t_num = a * a + b * b + 1 - 3 * a * b
        t_den = 12 * a * b
        num = num * t_den + sign * t_num * den
        den *= t_den
        a, b, sign = b % a, a, -sign
    return Fraction(num, den)


def fraction_report(spec: CoverSpec) -> dict:
    """Every field of covers.report by the rational fold: error terms summed
    as Fractions over their own node table, and goodness from a second one.

    Returns the report's fields by name, with scf, ccf and lcf for its
    error terms and offending for its goodness.
    """
    p = spec.p
    ra = spec.resolved
    scf = ccf = Fraction(0)
    lcf = 0
    for node in node_residues(ra, spec.nu):
        q = node.q
        length, e_sum = _ncf_stats(q, p)
        scf += node.count * dedekind_fraction(q, p)
        ccf += node.count * Fraction(q + pow(q, -1, p) + p * (e_sum - 2 * length), p)
        lcf += node.count * length
    assert ccf == 12 * scf + lcf
    lc = log_chern_resolved(ra)
    node_weight = ra.t2_total + 2 * ra.sum_genus_defect
    chi = (
        p * ra.surface.chi
        - Fraction((p * p - 1) * ra.sum_self_int, 12 * p)
        + Fraction((p - 1) * node_weight, 4)
        - scf
    )
    c1_sq = p * lc.c1bar_sq - 2 * node_weight + Fraction(ra.sum_self_int, p) - ccf
    c2 = p * lc.c2bar - node_weight + lcf
    offending = tuple(
        (node.pair, node.q)
        for node in node_residues(ra, spec.nu)
        if is_farey_neighbour(node.q, p, spec.farey)
    )
    n = ra.t2_total
    bounds_ok = n == 0 or (  # no nodes, no error terms to bound
        lt_sqrt_bound(abs(scf), 3 * n, 5 * n, p)
        and lt_sqrt_bound(Fraction(lcf), 3 * n, 2 * n, p)
        and lt_sqrt_bound(abs(ccf), 6 * n, 7 * n, p)
    )
    return {
        "chi": chi, "c1_sq": c1_sq, "c2": c2,
        "ratio_c": c1_sq / c2 if c2 else None, "ratio_chi": c1_sq / chi if chi else None,
        "scf": scf, "ccf": ccf, "lcf": lcf,
        "good": not offending, "offending": offending,
        "bounds_ok": bounds_ok,
    }


def euclid_lists(q: int, p: int) -> tuple[list[int], list[int]]:
    """One Euclid pass over p/q = a_0 + 1/(a_1 + ...): the remainders
    [p, q, r_1, ..., gcd(q, p), 0] and the quotients [a_0, ..., a_n],
    a_k = r_(k-1) // r_k, both kept as lists."""
    rems, quots = [p, q], []
    while q:
        a = p // q
        p, q = q, p - a * q
        quots.append(a)
        rems.append(q)
    return rems, quots


def hj_stats_of_quotients(a: list[int]) -> tuple[int, int]:
    """(length, sum e_i) of p/q from its Euclid quotient list a
    (Hirzebruch-Jung): with n even (else a_n -> a_n - 1, 1),
    [a_0; ..., a_n] is [a_0+1, 2^(a_1-1), a_2+2, ..., 2^(a_(n-1)-1), a_n+1]."""
    fix = 1 - len(a) % 2
    n = len(a) - 1 + fix
    twos = sum(a[1::2]) - fix - n // 2
    return n // 2 + 1 + twos, sum(a[0::2]) + fix + n + 2 * twos


def node_walk_reference(q: int, p: int, droot: int, bound: int) -> tuple[bool, int, int, int]:
    """(Farey hit, 12p s(q, p), NCF length, sum e_i) by three loops over one
    stored pass (euclid_lists): the convergent denominators d of q/p from
    0/1 zipped with their remainders up to d > droot or r d <= bound, the
    reciprocity step up the remainders, and the quotient list's
    Hirzebruch-Jung sums."""
    rems, quots = euclid_lists(q, p)
    d_prev, d = 0, 1
    for r, a in zip(rems[1:], quots):
        if d > droot or r * d <= bound:
            break
        d_prev, d = d, a * d + d_prev
    return d <= droot, _reciprocity(rems), *hj_stats_of_quotients(quots)


def farey_convergent_walk(q: int, p: int, config: FareyConfig = DEFAULT_FAREY) -> bool:
    """Farey membership by the convergents c/d of q/p themselves: numerators
    and denominators from the Euclid quotients, |q d - p c| recomputed at
    each step, stopping at the first d with d^2 > p."""
    cn, cd = config.C.numerator, config.C.denominator
    rhs = cn * cn * p
    c, d, c_prev, d_prev = 1, 0, 0, 1  # the walk opens with 0/1
    for a in [0] + euclid_lists(q, p)[1]:
        c, d, c_prev, d_prev = a * c + c_prev, a * d + d_prev, c, d
        if d * d > p:
            return False
        lhs = abs(q * d - p * c) * d * cd
        if lhs * lhs <= rhs:
            return True
    return False


def bad_set_enumeration(p: int, config: FareyConfig = DEFAULT_FAREY) -> set[int]:
    """The Farey bad set by its definition: for every reduced c/d with
    0 <= c <= d <= sqrt(p), the integers q in [0, p) with
    |q d - p c| <= floor(C sqrt(p)/d).  O(p) work overall."""
    cn, cd = config.C.numerator, config.C.denominator
    root = isqrt(cn * cn * p)  # floor(C_num * sqrt(p))
    out: set[int] = set()
    for d in range(1, isqrt(p) + 1):
        a_max = root // (d * cd)  # floor of C*sqrt(p)/d in units of 1/d
        for c in range(0, d + 1):
            if gcd(c, d) != 1:
                continue
            pc = p * c
            lo = -(-(pc - a_max) // d)
            hi = (pc + a_max) // d
            lo = max(lo, 0)
            hi = min(hi, p - 1)
            if lo <= hi:
                out.update(range(lo, hi + 1))
    return out


def suffix_counts_full(u, target) -> list[list[int]]:
    """S[j][t] = number of positive solutions of u_j x_j + ... + u_k x_k = t,
    every level j tabulated by S[j][t] = S[j+1][t - u_j] + S[j][t - u_j]."""
    k = len(u)
    levels = [[]] * k
    nxt: list[int] = []
    for j in range(k - 1, -1, -1):
        w = u[j]
        cur = [0] * (target + 1)
        if j == k - 1:
            for t in range(w, target + 1, w):
                cur[t] = 1
        else:
            for t in range(w, target + 1):
                cur[t] = cur[t - w] + nxt[t - w]
        levels[j] = cur
        nxt = cur
    return levels


def dp_sample_block(u, target, rng) -> list[int]:
    """Uniform positive solution of u . mu = target by the linear marginal
    scan: part j is the smallest mu whose running sum of S[j+1][rem - u_j m],
    m = 1..mu, exceeds one randrange(S[j][rem]) draw."""
    k = len(u)
    S = suffix_counts_full(u, target)
    if S[0][target] == 0:
        raise EmptySolutionSetError(f"no positive solution of {u} . mu = {target}")
    parts = []
    rem = target
    for j in range(k - 1):
        r = rng.randrange(S[j][rem])
        acc = 0
        mu = 0
        while True:
            mu += 1
            t = rem - u[j] * mu
            if t < 0:
                raise AssertionError("ran past the support; counts inconsistent")
            acc += S[j + 1][t]
            if acc > r:
                break
        parts.append(mu)
        rem -= u[j] * mu
    if rem % u[-1] or rem < u[-1]:
        raise AssertionError("remainder not attainable; counts inconsistent")
    parts.append(rem // u[-1])
    return parts


def dp_sample(sys, seed) -> list[list[int]]:
    """Per-block parts of one draw from random.Random(seed), block by block."""
    rng = random.Random(seed)
    out = []
    for block in sys.blocks:
        if sys.p < sum(block.u):
            raise EmptySolutionSetError(f"p={sys.p} is below the minimal block sum")
        out.append(dp_sample_block(block.u, sys.p, rng))
    return out


def bisect_ones(rem, ones, rng) -> list[int]:
    """Uniform positive solution of x_1 + ... + x_ones = rem: each part
    bisects [1, rem - left + 1] for the smallest M with
    C(rem-1, left-1) - C(rem-1-M, left-1) > randrange(C(rem-1, left-1))."""
    parts = []
    for left in range(ones, 1, -1):
        total = comb(rem - 1, left - 1)
        r = rng.randrange(total)
        lo, hi = 1, rem - (left - 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if total - comb(rem - mid - 1, left - 1) > r:
                hi = mid
            else:
                lo = mid + 1
        parts.append(lo)
        rem -= lo
    parts.append(rem)
    return parts


def iroot_integer(x: int, k: int) -> int:
    """floor(x ** (1/k)) in integers alone, the package's route before its
    float start: an odd root starts Newton's descent from (y + 1) 2^s, y
    the root of x >> ks with s about half the root's bits, or from
    2^ceil(bits / k) below 64."""
    if k == 1 or x < 2:
        return x
    if k % 2 == 0:
        return iroot_integer(isqrt(x), k // 2)
    b = x.bit_length()
    s = b // (2 * k)
    r = (iroot_integer(x >> (k * s), k) + 1) << s if s > 2 else 1 << -(-b // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def draw_ones_integer(rem, ones, rng) -> list[int]:
    """The package's all-ones tail draw with iroot_integer as its start:
    each part is rem-1-n for the largest n with C(n, k) < T, walked up from
    the AM-GM start by exact ratio steps."""
    parts = []
    k = ones - 1
    total = comb(rem - 1, k)
    k_fact = factorial(k)
    while k:
        T = total - rng.randrange(total)
        n = max(k - 1, iroot_integer(T * k_fact - 1, k) + (k - 1) // 2)
        c = comb(n, k)
        while (up := c * (n + 1) // (n + 1 - k) if n >= k else 1) < T:
            n, c = n + 1, up
        parts.append(rem - 1 - n)
        rem = n + 1
        total = c * k // (n + 1 - k) if n >= k else 1
        k_fact //= k
        k -= 1
    parts.append(rem)
    return parts


def sample_good_full(sys, resolved, seed, max_tries, config=DEFAULT_FAREY):
    """sample_good's rejection loop with is_good's full verdict on every try:
    the GoodSample, or None when every try is rejected."""
    rng = random.Random(seed)
    for tries in range(1, max_tries + 1):
        sol = _sample(sys, rng)
        try:
            ma = assign(resolved, sol)
        except ExceptionalVanishes:
            continue
        if is_good(resolved, ma, config).good:
            return GoodSample(sol, ma, tries)
    return None
