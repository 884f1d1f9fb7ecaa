"""Weighted partitions of a prime and the multiplicities they induce.

A divisible arrangement turns into one linear equation per block,

    u_1 mu_1 + ... + u_k mu_k = p,        mu_i >= 1,

and a solution assigns multiplicities to every divisor of the log
resolution: proper transforms inherit their mu, each blow-up divisor gets
the sum of the mu over its point, reduced mod p into (0, p).  Sampling is
exactly uniform over all positive solutions (sequential conditional
sampling: a part before the block's all-ones tail bisects the prefix-count
identity of the suffix counts, O(log p) probes, and a part of the tail
inverts one binomial from an integer root that lies below it by AM-GM,
even roots by isqrt, odd roots by integer Newton steps from a float hint
that the steps prove, then walks up by a few exact ratio steps), and a
solution is "good" when none of its node residues p - nu_i' nu_j falls in
the Farey bad set.  nu is in divisor order, as a try's list (`_divisor_nu`)
or an assignment's tuple; the node residues come from one walk over the
resolution's nodes and nu (`_node_table`, one inverse per divisor, no
NodeResidue), which `node_residues` and `covers.report` read as it is.
One lazy filter over it (`_bad_nodes`) yields the nodes whose residue is a
Farey neighbour, by the lazy Farey walk (`numth._farey_hit`) with bounds
its caller takes once: `is_good` keeps them all as its offending list, and
the rejection sampler stops a try at the first.  A `GoodnessReport`
stores that list only; its verdict `good` is read off it.

The suffix counts of the levels before a block's all-ones tail (whose
counts are binomial) are Sylvester's denumerants: quasi-polynomials in the
target with period lcm(u[j:]) (Sylvester 1857; E. T. Bell 1943), exact at
every target.  Their integer coefficients are built once per weight vector,
so nothing is tabulated up to p.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb, factorial, gcd, isqrt, lcm, log2

from .arrangements import Arrangement, ResolvedArrangement
from .errors import (
    BudgetError,
    ConsistencyError,
    EmptySolutionSetError,
    ExceptionalVanishes,
    ExhaustedTries,
    FileFormatError,
    ValidationError,
    record,
)
from .numth import DEFAULT_FAREY, FareyConfig, _farey_bounds, _farey_hit, is_prime

# Not used here: bench/spans.py times this under this module.
from .numth import is_farey_neighbour

__all__ = [
    "DiophBlock",
    "DiophSystem",
    "PartitionSolution",
    "MultiplicityAssignment",
    "NodeResidue",
    "GoodnessReport",
    "GoodSample",
    "system_for",
    "count_solutions",
    "validate_solution",
    "solution_from_parts",
    "solution_parts",
    "assign",
    "node_residues",
    "is_good",
    "sample_good",
    "solution_from_text",
]

# Most stored cells of one block's suffix counts (quasi-polynomial
# coefficients, sum of lcm(u[j:]) len(u[j:]) over its levels), and most node
# checks one sample_good call may make (max_tries x nodes; the largest input
# in the tests, demos and benchmark is 500 tries x 36 nodes).  A build costs
# about 0.6 us and 120 B per cell: (101, 97, 83), 2,455,638 cells, takes
# 1.5 s and 290 MB peak RSS on a 2-core x86-64 host with Python 3.11.  The
# work grows as L_j k_j^2, which the cells do not see: level j takes k_j
# rounds of differences over up to L_j k_j entries, so (2, 1 x 1000), 2,002
# cells, takes 0.6 s there, and (2, 1 x 2000), 4,002 cells, 3.6 s.
# The node bound is the worst case, in which every try checks every node,
# as an accepted try does: about 2-3 us a node for gen_ceva(80) and 3-4 us
# for pg2(7) at 1000003, 10-19 us for dual Hesse at 3e24+7 (draw and assign
# included, fastest and median try of 5-200; a shared 2-core host whose
# speed drifts about 2x from run to run).  A rejected try stops at its
# first Farey hit: there, 10 rejected tries of gen_ceva(80) at 1000003 take
# 0.21-0.24 s, about three quarters of it the draw, and one rejected
# dual-Hesse try at 3e24+7 with C = 10^11 100-250 us.
MAX_SUFFIX_CELLS = 2_500_000
MAX_SAMPLING_NODES = 1_000_000

# The longest partition file `invariants --partition` reads.  A JSON curve
# object takes at least ~50 characters, so a file within
# arrangements.MAX_ARRANGEMENT_CHARS declares at most ~80,000 curves; each
# part has at most 25 digits, because p < psi_13; so every partition of an
# accepted arrangement fits in about 2.1 M characters.
MAX_PARTITION_CHARS = 4_000_000


@record
class DiophBlock:
    """One block's equation u_1 mu_1 + ... + u_k mu_k = p, by curve id."""

    curve_ids: tuple[str, ...]
    u: tuple[int, ...]

    def __post_init__(self):
        if len(self.curve_ids) != len(self.u):
            raise ValidationError("block-shape", "curve ids and u lengths differ")
        if any(w < 1 for w in self.u):
            raise ValidationError("block-u", "u weights must be positive")
        g = gcd(*self.u)
        if g != 1:
            raise ValidationError("block-gcd", f"block u-gcd is {g}, must be 1")


@record
class DiophSystem:
    """The blocks' equations at one prime p."""

    p: int
    blocks: tuple[DiophBlock, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError("p-prime", f"target {self.p} is not prime")
        if not self.blocks:
            raise ValidationError("no-blocks", "system has no blocks")


def system_for(a: Arrangement, p: int) -> DiophSystem:
    """One equation per block, curves in arrangement order (a.data.blocks)."""
    return DiophSystem(p, tuple(
        DiophBlock(tuple(c.id for c in members), tuple(c.u for c in members))
        for members in a.data.blocks
    ))


# ---------------------------------------------------------------------------
# Exact counting


def _ones_tail(u: tuple[int, ...]) -> int:
    """Index h where the all-ones tail u[h:] starts (h = len(u) if u[-1] > 1)."""
    return max((i + 1 for i, w in enumerate(u) if w != 1), default=0)


@record(slots=True)
class _SuffixCount:
    """S(t), the number of positive solutions of v . x = t, for the weights
    v = u[j:] of one level.

    With s = t - sum(v), S(t) is the number D(s) of nonnegative solutions,
    Sylvester's denumerant.  Its generating function 1/prod(1 - x^v_i) is a
    proper rational function, so at every s >= 0 on the class s = r + L n,
    L = lcm(v), D is a polynomial in n of degree < k = len(v).  In Newton's
    form, D(r + L n) = sum_{i<k} Delta^i D(r) C(n, i), the differences taken
    in steps of L; table[r] holds the integers (k-1)!/i! Delta^i D(r),
    highest i first, and `scale` is (k-1)!, so (k-1)! D is a sum of
    falling factorials n (n-1) ... (n-i+1) with those coefficients.
    """

    sigma: int
    period: int
    scale: int
    table: tuple

    @property
    def cells(self) -> int:
        return len(self.table) * len(self.table[0])

    def count(self, t: int) -> int:
        """Horner's rule over the falling factorials: acc = acc m + c for
        m = n-k+1, ..., n, then one exact division by (k-1)!."""
        s = t - self.sigma
        if s < 0:
            return 0
        n, r = divmod(s, self.period)
        row = self.table[r]
        m = n - len(row)
        acc = 0
        for c in row:
            m += 1
            acc = acc * m + c
        return acc // self.scale


def _quasi_polynomial(sigma: int, period: int, k: int, D: list[int]) -> _SuffixCount:
    """Newton's forward differences of D(r + L n) for every r < L, from D(s)
    at s < L k; each is scaled by the integer (k-1)!/i!."""
    scale = f = factorial(k - 1)
    coeffs = []  # coeffs[i][r] = (k-1)!/i! Delta^i D(r)
    row = D[: period * k]
    for i in range(k):
        coeffs.append([f * d for d in row[:period]])
        row = [b - a for a, b in zip(row, row[period:])]
        f //= i + 1
    return _SuffixCount(sigma, period, scale, tuple(zip(*reversed(coeffs))))


@lru_cache(maxsize=32)
def _quasi_polynomials(u: tuple[int, ...]) -> tuple[_SuffixCount, ...]:
    """Every level's quasi-polynomial; they depend on the weights alone.

    Level j < h (see _ones_tail; callers skip blocks with h = 0) has the
    k_j = len(u[j:]) weights u[j:], period L_j = lcm(u[j:]), and stores
    L_j k_j coefficients.  Their sum is checked against MAX_SUFFIX_CELLS
    before anything is built, once per weight vector.  The levels are fixed
    by D_j(s) at s < L_0 k_0, held in one list updated in place back to
    front with D_j(s) = D_j(s - u_j) + D_{j+1}(s), from the empty sum's
    D(s) = [s = 0]; the all-ones tail's levels are passed through, not kept.
    """
    h = _ones_tail(u)
    shapes = [(sum(u[j:]), lcm(*u[j:]), len(u) - j) for j in range(h)]
    cells = sum(L * k for _, L, k in shapes)
    if cells > MAX_SUFFIX_CELLS:
        raise BudgetError(
            f"suffix counts of {cells} cells exceed the budget {MAX_SUFFIX_CELLS}"
        )
    size = shapes[0][1] * shapes[0][2]
    D = [1] + [0] * (size - 1)
    levels: list = [None] * h
    for j in range(len(u) - 1, -1, -1):
        w = u[j]
        for s in range(w, size):
            D[s] += D[s - w]
        if j < h:
            levels[j] = _quasi_polynomial(*shapes[j], D)
    return tuple(levels)


def _suffix_counts(u: tuple[int, ...], target: int) -> tuple[_SuffixCount, ...]:
    """The counts S_j(t) of the levels before u's all-ones tail, valid at
    every target (_quasi_polynomials).  `target` is unused; the call keeps
    this signature because the benchmark's spans wrap it and read
    (u, target) from its arguments."""
    return _quasi_polynomials(u)


def _block_count(block: DiophBlock, p: int) -> int:
    if p < sum(block.u):
        return 0
    if not _ones_tail(block.u):
        return comb(p - 1, len(block.u) - 1)
    return _suffix_counts(block.u, p)[0].count(p)


def count_solutions(sys: DiophSystem) -> int:
    """Exact number of positive solutions (product over blocks).

    All-ones blocks use the closed form C(p-1, k-1); other blocks evaluate
    their first level's quasi-polynomial at p (_suffix_counts), whose
    stored cells are checked against MAX_SUFFIX_CELLS once per weight
    vector.
    """
    total = 1
    for block in sys.blocks:
        total *= _block_count(block, sys.p)
    return total


# ---------------------------------------------------------------------------
# Exact-uniform sampling


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 and k >= 1, exact at any size.

    An even root is the (k/2)-th root of isqrt(x), since floor roots
    compose: floor(y^(1/m)) = floor(floor(y)^(1/m)) for every real y >= 0.
    An odd root takes Newton's step r -> ((k-1) r + x // r^(k-1)) // k.  By
    AM-GM one step from any positive r lands at or above the floor root,
    and from there the steps descend to it and stop; so the float start
    2^(log2(x) / k) is only a hint that the integer steps then prove, and
    a start a few units off costs a step, not a wrong root.  A root above
    2^1000 nears the float's limit (2 ** 1024 overflows), so its hint keeps
    64 bits in the float and shifts the rest in.
    """
    if k == 1 or x < 2:
        return x
    if k % 2 == 0:
        return _iroot(isqrt(x), k // 2)
    e = log2(x) / k
    shift = int(e) - 64 if e > 1000 else 0
    r = (int(2 ** (e - shift)) + 1) << shift
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def _draw_ones(rem: int, ones: int, rng: random.Random) -> list[int]:
    """Uniform positive solution of x_1 + ... + x_ones = rem, one part at a time.

    With k + 1 parts left there are C(rem-1, k) solutions, and those whose
    next part exceeds M number C(rem-1-M, k).  For r = randrange of that
    total, the part is the smallest M with C(rem-1-M, k) < T = total - r,
    so it is rem-1-n for the largest n with C(n, k) < T.  The start n = k-1
    or r + (k-1)//2, r the integer k-th root of T k! - 1, lies below T (by
    AM-GM, C(n, k) <= (n - (k-1)/2)^k / k! <= r^k / k!; r is exact, so
    the float hint inside _iroot changes no draw), so the walk only
    goes up, by exact steps C(n+1, k) = C(n, k) (n+1) / (n+1-k) (C(k, k) = 1
    is taken as it is: its ratio would divide by zero).  The next total
    C(n, k-1) is one more ratio step, or 1 at n = k-1.  So math.comb runs
    once per part: for the first total, and at the start of each part.
    """
    parts = []
    k = ones - 1
    total = comb(rem - 1, k)
    k_fact = factorial(k)
    while k:
        T = total - rng.randrange(total)
        n = max(k - 1, _iroot(T * k_fact - 1, k) + (k - 1) // 2)
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


def _sample_block(u: tuple[int, ...], target: int, rng: random.Random) -> list[int]:
    """Uniform positive solution of u . mu = target, one part at a time.

    Part j is drawn from its exact marginal with one randrange: by the
    recurrence S[j][t] = sum_{m >= 1} S[j+1][t - u_j m], the solutions with
    mu_j <= M number prefix(M) = S[j][rem] - S[j][rem - u_j M], so the part
    is the smallest M with prefix(M) > r.  Levels before the all-ones tail
    find it by bisection over [1, rem // u_j], probing their suffix counts
    (_suffix_counts: one divmod, k Horner steps and one exact division per
    probe); the tail inverts its binomial counts directly (_draw_ones).
    """
    k = len(u)
    levels = _suffix_counts(u, target) if _ones_tail(u) else ()
    h = len(levels)
    first = levels[0].count(target) if h else 1  # the first part's total
    if not first:
        raise EmptySolutionSetError(f"no positive solution of {u} . mu = {target}")
    parts = []
    rem = target
    for j in range(min(h, k - 1)):
        count, w = levels[j].count, u[j]
        total = count(rem) if j else first
        r = rng.randrange(total)
        lo, hi = 1, rem // w
        while lo < hi:
            mid = (lo + hi) // 2
            if total - count(rem - w * mid) > r:
                hi = mid
            else:
                lo = mid + 1
        parts.append(lo)
        rem -= w * lo
    if h < k:
        return parts + _draw_ones(rem, k - h, rng)
    if rem % u[-1] or rem < u[-1]:
        raise ConsistencyError("remainder not attainable; suffix counts inconsistent")
    parts.append(rem // u[-1])
    return parts


@record
class PartitionSolution:
    """mu weights per curve id; per-block sums are checked by the samplers
    and by validate_solution, not here (tests build raw assignments too)."""

    p: int
    mu: dict[str, int]

    def __post_init__(self):
        for cid, value in self.mu.items():
            if not 0 < value < self.p:
                raise ValidationError(
                    "mu-range", f"mu[{cid}] = {value} is outside (0, {self.p})"
                )


def validate_solution(sys: DiophSystem, sol: PartitionSolution) -> None:
    """Check that sol solves every block equation of sys exactly."""
    if sol.p != sys.p:
        raise ValidationError("p-mismatch", f"solution p={sol.p}, system p={sys.p}")
    seen = set()
    for bi, block in enumerate(sys.blocks, start=1):
        for cid in block.curve_ids:
            if cid not in sol.mu:
                raise ValidationError("mu-missing", f"no mu for curve {cid!r}")
            seen.add(cid)
        total = sum(w * sol.mu[cid] for w, cid in zip(block.u, block.curve_ids))
        if total != sys.p:
            raise ValidationError(
                "block-sum", f"block {bi} weighted sum is {total}, expected {sys.p}"
            )
    extra = set(sol.mu) - seen
    if extra:
        raise ValidationError("mu-extra", f"solution names unknown curves {sorted(extra)}")


def solution_from_parts(sys: DiophSystem, parts_per_block) -> PartitionSolution:
    """Build and validate a solution from explicit per-block part lists."""
    mu: dict[str, int] = {}
    if len(parts_per_block) != len(sys.blocks):
        raise ValidationError(
            "block-count",
            f"got {len(parts_per_block)} part lists for {len(sys.blocks)} blocks",
        )
    for block, parts in zip(sys.blocks, parts_per_block):
        if len(parts) != len(block.curve_ids):
            raise ValidationError(
                "block-shape",
                f"got {len(parts)} parts for {len(block.curve_ids)} curves",
            )
        for cid, value in zip(block.curve_ids, parts):
            mu[cid] = value
    sol = PartitionSolution(sys.p, mu)
    validate_solution(sys, sol)
    return sol


def solution_parts(sys: DiophSystem, sol: PartitionSolution) -> tuple[tuple[int, ...], ...]:
    """sol's parts per block, blocks and curves in sys order: the inverse of
    solution_from_parts."""
    return tuple(tuple(sol.mu[cid] for cid in block.curve_ids) for block in sys.blocks)


def _sample(sys: DiophSystem, rng: random.Random) -> PartitionSolution:
    mu: dict[str, int] = {}
    for block in sys.blocks:
        if sys.p < sum(block.u):
            raise EmptySolutionSetError(
                f"p={sys.p} is below the minimal block sum {sum(block.u)}"
            )
        parts = _sample_block(block.u, sys.p, rng)
        for cid, value in zip(block.curve_ids, parts):
            mu[cid] = value
    return PartitionSolution(sys.p, mu)


# ---------------------------------------------------------------------------
# Multiplicities on the log resolution


@record
class MultiplicityAssignment:
    """nu[i] in (0, p) is the multiplicity of the resolution's i-th divisor."""

    p: int
    nu: tuple[int, ...]

    def __post_init__(self):
        for i, value in enumerate(self.nu):
            if not 0 < value < self.p:
                raise ValidationError(
                    "nu-range", f"nu[{i}] = {value} is outside (0, {self.p})"
                )


def _divisor_nu(resolved: ResolvedArrangement, sol: PartitionSolution) -> list[int]:
    """The sum of the mu over each divisor's curves mod p, in divisor order:
    a proper transform keeps its own mu, and a blow-up divisor gets the sum
    over the curves through its point.  A 0 is left in place for the
    caller to refuse."""
    p = sol.p
    mu = sol.mu.__getitem__
    try:
        return [sum(map(mu, div.curves)) % p for div in resolved.divisors]
    except KeyError as exc:
        raise ValidationError(
            "mu-missing", f"solution has no mu for curve {exc.args[0]!r}"
        ) from None


def assign(
    resolved: ResolvedArrangement, sol: PartitionSolution
) -> MultiplicityAssignment:
    """Push mu down to every divisor of the log resolution (_divisor_nu).

    A zero sum makes the cover data invalid, so the solution must be
    rejected (ExceptionalVanishes).
    """
    nu = _divisor_nu(resolved, sol)
    if 0 in nu:
        div = resolved.divisors[nu.index(0)]
        raise ExceptionalVanishes(
            f"blow-up divisor {div.id} over {div.curves} "
            f"gets multiplicity 0 mod {sol.p}"
        )
    return MultiplicityAssignment(sol.p, tuple(nu))


@record
class NodeResidue:
    """One node pair of divisors, its residue p - nu_i' nu_j and its node count."""

    pair: tuple[str, str]
    q: int
    count: int


def _node_table(resolved: ResolvedArrangement, nu, p: int):
    """Yield ((i, j), q, count) for each intersecting divisor pair, lazily,
    in node_residues order, with divisor indices and no NodeResidue; nu[i]
    is divisor i's multiplicity.  The resolution keeps the pairs in (i, j)
    order, so each divisor's inverse nu_i' is computed once, at its first
    node."""
    last = None
    for pair, count in resolved.nodes.items():
        i, j = pair
        if i != last:
            last, inverse = i, pow(nu[i], -1, p)
        yield pair, p - inverse * nu[j] % p, count


def node_residues(
    resolved: ResolvedArrangement, ma: MultiplicityAssignment
) -> list[NodeResidue]:
    """q = p - nu_i' nu_j for every intersecting divisor pair, i < j in
    divisor order.  Swapping the orientation replaces q by its inverse mod
    p, which leaves every downstream quantity unchanged."""
    divisors = resolved.divisors
    return [
        NodeResidue((divisors[i].id, divisors[j].id), q, count)
        for (i, j), q, count in _node_table(resolved, ma.nu, ma.p)
    ]


def _bad_nodes(resolved: ResolvedArrangement, nu, p: int, droot: int, bound: int):
    """Yield ((i, j), q) for each node whose residue is a Farey neighbour,
    lazily, in node order: the one Farey filter over _node_table, with
    droot and bound from _farey_bounds taken by the caller.  A caller that
    stops at the first node yielded tests none of the nodes after it."""
    for pair, q, _ in _node_table(resolved, nu, p):
        if _farey_hit(q, p, droot, bound):
            yield pair, q


@record
class GoodnessReport:
    """The nodes whose residue is a Farey neighbour; the cover is good iff none."""

    offending: tuple[tuple[tuple[str, str], int], ...]

    @property
    def good(self) -> bool:
        return not self.offending


def is_good(
    resolved: ResolvedArrangement,
    ma: MultiplicityAssignment,
    config: FareyConfig = DEFAULT_FAREY,
) -> GoodnessReport:
    """Good iff no node residue is a Farey neighbour (_bad_nodes)."""
    divisors, p = resolved.divisors, ma.p
    bad = _bad_nodes(resolved, ma.nu, p, *_farey_bounds(p, config))
    return GoodnessReport(tuple(((divisors[i].id, divisors[j].id), q) for (i, j), q in bad))


@record
class GoodSample:
    """A good solution, its multiplicities and the tries it took to sample."""

    solution: PartitionSolution
    assignment: MultiplicityAssignment
    tries: int


def sample_good(
    sys: DiophSystem,
    resolved: ResolvedArrangement,
    seed: int,
    max_tries: int = 100,
    config: FareyConfig = DEFAULT_FAREY,
) -> GoodSample:
    """Rejection-sample until a good solution appears.

    Solutions whose blow-up multiplicity vanishes mod p count as bad tries.
    The try count is an empirical estimate of the bad fraction.  For
    parallel work, split seeds as seed + worker index; a single call is
    fully deterministic in `seed`.  A try works on its multiplicities as
    one list by divisor (_divisor_nu) against Farey bounds taken once per
    call, and stops at its first node in the bad set (_bad_nodes), so only
    an accepted try checks every node, and only it freezes its list into the
    MultiplicityAssignment (as assign does) and builds the GoodSample.
    max_tries x nodes above MAX_SAMPLING_NODES, the worst case, is refused
    before the first draw.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    checks = max_tries * len(resolved.nodes)
    if checks > MAX_SAMPLING_NODES:
        raise BudgetError(
            f"{max_tries} tries x {len(resolved.nodes)} nodes = {checks} node checks; "
            f"the budget is {MAX_SAMPLING_NODES}"
        )
    rng = random.Random(seed)
    p = sys.p
    droot, bound = _farey_bounds(p, config)
    for tries in range(1, max_tries + 1):
        sol = _sample(sys, rng)
        nu = _divisor_nu(resolved, sol)
        if 0 in nu or next(_bad_nodes(resolved, nu, p, droot, bound), None) is not None:
            continue
        return GoodSample(sol, MultiplicityAssignment(p, tuple(nu)), tries)
    raise ExhaustedTries(max_tries)


# ---------------------------------------------------------------------------
# Partition file format


def solution_from_text(sys: DiophSystem, text: str) -> PartitionSolution:
    """Parse the partition format against a system; errors carry line numbers."""
    p = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if p is not None:
                raise FileFormatError(f"line {lineno}: duplicate p line")
            try:
                (p,) = [int(x) for x in fields[1:]]
            except ValueError:
                raise FileFormatError(f"line {lineno}: expected `p <integer>`")
        elif fields[0] == "block":
            try:
                rows.append([int(x) for x in fields[1:]])
            except ValueError:
                raise FileFormatError(f"line {lineno}: block entries must be integers")
        else:
            raise FileFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if p is None:
        raise FileFormatError("missing `p <integer>` line")
    if p != sys.p:
        raise ValidationError("p-mismatch", f"file has p={p}, expected {sys.p}")
    return solution_from_parts(sys, rows)
