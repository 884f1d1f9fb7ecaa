"""Weighted partitions of a prime and the multiplicities they induce.

A divisible arrangement turns into one linear equation per block,

    u_1 mu_1 + ... + u_k mu_k = p,        mu_i >= 1,

and a solution assigns multiplicities to every divisor of the log
resolution: proper transforms inherit their mu, each blow-up divisor gets
the sum of the mu over its point, reduced mod p into (0, p).  Sampling is
exactly uniform over all positive solutions (sequential conditional
sampling: each part bisects the prefix-count identity of the suffix counts,
O(k log p) per draw), and a solution is "good" when none of its node
residues p - nu_i' nu_j falls in the Farey bad set.

The suffix counts of the levels before a block's all-ones tail (whose
counts are binomial) are Sylvester's denumerants: quasi-polynomials in the
target with period lcm(u[j:]) (Sylvester 1857; E. T. Bell 1943).  Their
integer coefficients are built once per weight vector, so nothing is
tabulated up to p; only below sum(u) + lcm(u) len(u), where it is smaller,
is the DP up to p stored instead (once per weight vector and p).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .arrangements import Arrangement, ResolvedArrangement
from .errors import (
    BudgetError,
    EmptySolutionSetError,
    ExceptionalVanishes,
    ExhaustedTries,
    FileFormatError,
    ValidationError,
)
from .numth import DEFAULT_FAREY, FareyConfig, is_farey_neighbour, is_prime

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
    "sample_uniform",
    "validate_solution",
    "solution_from_parts",
    "assign",
    "node_residues",
    "is_good",
    "sample_good",
    "solution_to_text",
    "solution_from_text",
]

# Most stored cells of one block's suffix counts (quasi-polynomial
# coefficients, or the DP up to p below the switch), and most node checks one
# sample_good call may make (max_tries x nodes; the largest input in the
# tests, demos and benchmark is 500 tries x 36 nodes).
MAX_SUFFIX_CELLS = 50_000_000
MAX_SAMPLING_NODES = 1_000_000


@dataclass(frozen=True)
class DiophBlock:
    curve_ids: tuple[str, ...]
    u: tuple[int, ...]

    def __post_init__(self):
        if len(self.curve_ids) != len(self.u):
            raise ValidationError("block-shape", "curve ids and u lengths differ")
        if any(w < 1 for w in self.u):
            raise ValidationError("block-u", "u weights must be positive")
        g = 0
        for w in self.u:
            g = gcd(g, w)
        if g != 1:
            raise ValidationError("block-gcd", f"block u-gcd is {g}, must be 1")


@dataclass(frozen=True)
class DiophSystem:
    p: int
    blocks: tuple[DiophBlock, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError("p-prime", f"target {self.p} is not prime")
        if not self.blocks:
            raise ValidationError("no-blocks", "system has no blocks")


def system_for(a: Arrangement, p: int) -> DiophSystem:
    """One equation per block, curves in arrangement order."""
    blocks = []
    for b in range(1, a.blocks + 1):
        members = a.block_members(b)
        blocks.append(
            DiophBlock(
                tuple(c.id for c in members), tuple(c.u for c in members)
            )
        )
    return DiophSystem(p, tuple(blocks))


# ---------------------------------------------------------------------------
# Exact counting


def _ones_tail(u: tuple[int, ...]) -> int:
    """Index h where the all-ones tail u[h:] starts (h = len(u) if u[-1] > 1)."""
    return max((i + 1 for i, w in enumerate(u) if w != 1), default=0)


@dataclass(frozen=True, slots=True)
class _SuffixCount:
    """S(t), the number of positive solutions of v . x = t, for the weights
    v = u[j:] of one level.

    With s = t - sum(v), S(t) is the number D(s) of nonnegative solutions,
    Sylvester's denumerant: on each class s = r + L n, L = lcm(v), it is a
    polynomial in n of degree < k = len(v).  With `period` None, `table`
    holds D(s) for every s up to the target; otherwise table[r] holds the
    integer coefficients of (k-1)! D(r + L n) in n, highest degree first,
    and `scale` is (k-1)!.
    """

    sigma: int
    period: int | None
    scale: int
    table: tuple

    @property
    def cells(self) -> int:
        width = 1 if self.period is None else len(self.table[0])
        return len(self.table) * width

    def count(self, t: int) -> int:
        s = t - self.sigma
        if s < 0:
            return 0
        if self.period is None:
            return self.table[s]
        n, r = divmod(s, self.period)
        acc = 0
        for c in self.table[r]:
            acc = acc * n + c
        return acc // self.scale


def _nonneg_counts(u: tuple[int, ...], size: int):
    """Yield (j, D_j) for j = h-1 down to 0, where D_j(s) for s < size is
    the number of nonnegative solutions of u_j y_j + ... + u_k y_k = s.

    One list, updated in place back to front with D_j(s) = D_j(s - u_j) +
    D_{j+1}(s) from the all-ones tail's closed form C(s + k-h-1, k-h-1).
    """
    h = _ones_tail(u)
    ones = len(u) - h
    if ones:
        D = [comb(s + ones - 1, ones - 1) for s in range(size)]
    else:
        D = [1] + [0] * (size - 1)
    for j in range(h - 1, -1, -1):
        w = u[j]
        for s in range(w, size):
            D[s] += D[s - w]
        yield j, D


def _quasi_polynomial(sigma: int, period: int, k: int, D: list[int]) -> _SuffixCount:
    """The coefficients of D(r + L n) for every r < L, from D(s) at s < L k.

    Newton's forward differences in steps of L give D(r + L n) =
    sum_i Delta^i D(r) C(n, i); (k-1)! C(n, i) is (k-1)!/i! times the
    falling factorial n (n-1) ... (n-i+1), whose monomial coefficients are
    integers, so every stored coefficient is an integer.
    """
    scale = factorial(k - 1)
    coeffs = [[0] * period for _ in range(k)]  # coeffs[m][r] multiplies n^m
    row = D[: period * k]
    falling = [1]  # n (n-1) ... (n-i+1), lowest degree first
    for i in range(k):
        f = scale // factorial(i)
        for m, a in enumerate(falling):
            if a:
                coeffs[m] = [c + f * a * d for c, d in zip(coeffs[m], row)]
        row = [b - a for a, b in zip(row, row[period:])]
        falling = [a - i * b for a, b in zip([0] + falling, falling + [0])]
    return _SuffixCount(sigma, period, scale, tuple(zip(*reversed(coeffs))))


@lru_cache(maxsize=32)
def _level_shapes(u: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(sum(u[j:]), lcm(u[j:]), len(u[j:])) for each level j < h; cached
    because _suffix_counts reads them on every draw."""
    return tuple((sum(u[j:]), lcm(*u[j:]), len(u) - j) for j in range(_ones_tail(u)))


@lru_cache(maxsize=32)
def _quasi_polynomials(u: tuple[int, ...]) -> tuple[_SuffixCount, ...]:
    """Every level's quasi-polynomial; they depend on the weights alone."""
    shapes = _level_shapes(u)
    levels: list = [None] * len(shapes)
    for j, D in _nonneg_counts(u, shapes[0][1] * shapes[0][2]):
        levels[j] = _quasi_polynomial(*shapes[j], D)
    return tuple(levels)


@lru_cache(maxsize=32)
def _dp_levels(u: tuple[int, ...], target: int) -> tuple[_SuffixCount, ...]:
    """Every level's D_j up to the target, for targets below the switch."""
    shapes = _level_shapes(u)
    levels: list = [None] * len(shapes)
    for j, D in _nonneg_counts(u, target - shapes[-1][0] + 1):
        sigma = shapes[j][0]
        levels[j] = _SuffixCount(sigma, None, 1, tuple(D[: target - sigma + 1]))
    return tuple(levels)


def _suffix_counts(u: tuple[int, ...], target: int) -> tuple[_SuffixCount, ...]:
    """The counts S_j(t), t <= target, of the levels j < h before the
    all-ones tail u[h:] (see _ones_tail; callers skip blocks with h = 0);
    their stored cells are checked against MAX_SUFFIX_CELLS before anything
    is built or read from a cache.

    Level j, with weights u[j:], k_j of them and L_j = lcm(u[j:]), fixes
    its quasi-polynomial from D_j(s) at s < L_j k_j and stores L_j k_j
    coefficients, whatever the target; those are built once per weight
    vector.  While the target is below the switch sum(u) + L_0 k_0, the DP
    up to the target is smaller and is stored instead, one list per level,
    once per weight vector and target.
    """
    shapes = _level_shapes(u)
    sigma, period, k = shapes[0]
    small = target - sigma < period * k
    if small:
        cells = sum(max(target - s + 1, 0) for s, _, _ in shapes)
    else:
        cells = sum(L * w for _, L, w in shapes)
    if cells > MAX_SUFFIX_CELLS:
        raise BudgetError(
            f"suffix counts of {cells} cells exceed the budget {MAX_SUFFIX_CELLS}"
        )
    return _dp_levels(u, target) if small else _quasi_polynomials(u)


def _block_count(block: DiophBlock, p: int) -> int:
    if p < sum(block.u):
        return 0
    if not _ones_tail(block.u):
        return comb(p - 1, len(block.u) - 1)
    return _suffix_counts(block.u, p)[0].count(p)


def count_solutions(sys: DiophSystem) -> int:
    """Exact number of positive solutions (product over blocks).

    All-ones blocks use the closed form C(p-1, k-1); other blocks read their
    suffix counts (_suffix_counts), whose stored cells are checked against
    MAX_SUFFIX_CELLS.
    """
    total = 1
    for block in sys.blocks:
        total *= _block_count(block, sys.p)
    return total


# ---------------------------------------------------------------------------
# Exact-uniform sampling


def _sample_block(u: tuple[int, ...], target: int, rng: random.Random) -> list[int]:
    """Uniform positive solution of u . mu = target, one part at a time.

    Part j is drawn from its exact marginal with one randrange: by the
    recurrence S[j][t] = sum_{m >= 1} S[j+1][t - u_j m], the solutions with
    mu_j <= M number prefix(M) = S[j][rem] - S[j][rem - u_j M], so the part
    is the smallest M with prefix(M) > r, found by bisection over
    [1, rem // u_j].  Levels before the all-ones tail probe their suffix
    counts (_suffix_counts: one divmod and k Horner steps per probe above
    the DP switch); the tail bisects the closed form C(rem-1, left-1).
    """
    k = len(u)
    levels = _suffix_counts(u, target) if _ones_tail(u) else ()
    h = len(levels)
    if h and levels[0].count(target) == 0:
        raise EmptySolutionSetError(f"no positive solution of {u} . mu = {target}")
    parts = []
    rem = target
    for j in range(min(h, k - 1)):
        count, w = levels[j].count, u[j]
        total = count(rem)
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
    for left in range(k - h, 1, -1):
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
    if rem % u[-1] or rem < u[-1]:
        raise AssertionError("remainder not attainable; counts inconsistent")
    parts.append(rem // u[-1])
    return parts


@dataclass(frozen=True)
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


def sample_uniform(sys: DiophSystem, seed: int) -> PartitionSolution:
    """Exactly uniform positive solution; deterministic for a given seed."""
    return _sample(sys, random.Random(seed))


# ---------------------------------------------------------------------------
# Multiplicities on the log resolution


@dataclass(frozen=True)
class MultiplicityAssignment:
    p: int
    nu: dict[str, int]

    def __post_init__(self):
        for did, value in self.nu.items():
            if not 0 < value < self.p:
                raise ValidationError(
                    "nu-range", f"nu[{did}] = {value} is outside (0, {self.p})"
                )


def assign(
    resolved: ResolvedArrangement, sol: PartitionSolution
) -> MultiplicityAssignment:
    """Push mu down to every divisor of the log resolution.

    Each divisor gets the sum of the mu over its curves mod p: a proper
    transform keeps its own mu, and a blow-up divisor gets the sum over the
    curves through its point.  A zero sum makes the cover data invalid, so
    the solution must be rejected (ExceptionalVanishes).
    """
    p = sol.p
    nu: dict[str, int] = {}
    for div in resolved.divisors:
        for cid in div.curves:
            if cid not in sol.mu:
                raise ValidationError(
                    "mu-missing", f"solution has no mu for curve {cid!r}"
                )
        total = sum(sol.mu[cid] for cid in div.curves) % p
        if total == 0:
            raise ExceptionalVanishes(
                f"blow-up divisor {div.id} over {div.curves} "
                f"gets multiplicity 0 mod {p}"
            )
        nu[div.id] = total
    return MultiplicityAssignment(p, nu)


@dataclass(frozen=True)
class NodeResidue:
    pair: tuple[str, str]
    q: int
    count: int


def node_residues(
    resolved: ResolvedArrangement, ma: MultiplicityAssignment
) -> list[NodeResidue]:
    """q = p - nu_i' nu_j for every intersecting divisor pair, i < j in
    divisor order.  Swapping the orientation replaces q by its inverse mod
    p, which leaves every downstream quantity unchanged."""
    p = ma.p
    out = []
    divisors = resolved.divisors
    for (i, j), count in sorted(resolved.nodes.items()):
        ni = ma.nu[divisors[i].id]
        nj = ma.nu[divisors[j].id]
        q = p - pow(ni, -1, p) * nj % p
        out.append(NodeResidue((divisors[i].id, divisors[j].id), q, count))
    return out


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    offending: tuple[tuple[tuple[str, str], int], ...]
    nodes: tuple[NodeResidue, ...]  # the node table the verdict was read from


def is_good(
    resolved: ResolvedArrangement,
    ma: MultiplicityAssignment,
    config: FareyConfig = DEFAULT_FAREY,
) -> GoodnessReport:
    """Good iff no node residue is a Farey neighbour."""
    nodes = tuple(node_residues(resolved, ma))
    offending = tuple(
        (node.pair, node.q) for node in nodes if is_farey_neighbour(node.q, ma.p, config)
    )
    return GoodnessReport(not offending, offending, nodes)


@dataclass(frozen=True)
class GoodSample:
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
    fully deterministic in `seed`.  Each try checks every node, so
    max_tries x nodes above MAX_SAMPLING_NODES is refused before the first draw.
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
    for tries in range(1, max_tries + 1):
        sol = _sample(sys, rng)
        try:
            ma = assign(resolved, sol)
        except ExceptionalVanishes:
            continue
        if is_good(resolved, ma, config).good:
            return GoodSample(sol, ma, tries)
    raise ExhaustedTries(max_tries)


# ---------------------------------------------------------------------------
# Partition file format


def solution_to_text(sys: DiophSystem, sol: PartitionSolution) -> str:
    """Canonical text form: `p <prime>` then one `block ...` line per block."""
    lines = [f"p {sys.p}"]
    for block in sys.blocks:
        parts = " ".join(str(sol.mu[cid]) for cid in block.curve_ids)
        lines.append(f"block {parts}")
    return "\n".join(lines) + "\n"


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
