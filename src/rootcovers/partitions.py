"""Weighted partitions of a prime and the multiplicities they induce.

A divisible arrangement turns into one linear equation per block,

    u_1 mu_1 + ... + u_k mu_k = p,        mu_i >= 1,

and a solution assigns multiplicities to every divisor of the log
resolution: proper transforms inherit their mu, each blow-up divisor gets
the sum of the mu over its point, reduced mod p into (0, p).  Sampling is
exactly uniform over all positive solutions (sequential conditional
sampling: each part bisects the prefix-count identity of the suffix counts,
O(k log p) per draw, and a table stores only the levels before a block's
all-ones tail, whose counts are binomial), and a solution is "good" when
none of its node residues p - nu_i' nu_j falls in the Farey bad set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

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

# Most stored cells of one suffix-count table, and most node checks one
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


@lru_cache(maxsize=32)
def _suffix_counts(u: tuple[int, ...], target: int) -> tuple[tuple[int, ...], ...]:
    """S[j][t] = number of positive solutions of u_j x_j + ... + u_k x_k = t,
    for the levels j < h before the all-ones tail u[h:] (see _ones_tail).

    Built back to front with S[j][t] = S[j+1][t - u_j] + S[j][t - u_j]
    (take x_j = 1, or reduce x_j by one).  The tail's own counts are the
    closed form C(t-1, k-h-1), so it stores nothing.
    """
    k = len(u)
    h = _ones_tail(u)
    levels: list[tuple[int, ...]] = [()] * h
    nxt: list[int] = []
    for j in range(h - 1, -1, -1):
        w = u[j]
        cur = [0] * (target + 1)
        if j == k - 1:
            for t in range(w, target + 1, w):
                cur[t] = 1
        elif j == h - 1:
            for t in range(w + 1, target + 1):
                cur[t] = cur[t - w] + comb(t - w - 1, k - h - 1)
        else:
            for t in range(w, target + 1):
                cur[t] = cur[t - w] + nxt[t - w]
        levels[j] = tuple(cur)
        nxt = cur
    return tuple(levels)


def _suffix_table(u: tuple[int, ...], target: int):
    """_suffix_counts(u, target), refused when its stored cells exceed MAX_SUFFIX_CELLS."""
    h = _ones_tail(u)
    if h * (target + 1) > MAX_SUFFIX_CELLS:
        raise BudgetError(
            f"suffix table of {h}x{target + 1} cells exceeds the budget {MAX_SUFFIX_CELLS}"
        )
    return _suffix_counts(u, target) if h else ()


def _block_count(block: DiophBlock, p: int) -> int:
    if p < sum(block.u):
        return 0
    S = _suffix_table(block.u, p)
    return S[0][p] if S else comb(p - 1, len(block.u) - 1)


def count_solutions(sys: DiophSystem) -> int:
    """Exact number of positive solutions (product over blocks).

    All-ones blocks use the closed form C(p-1, k-1); other blocks read the
    suffix-count table, whose stored cells are checked against MAX_SUFFIX_CELLS.
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
    [1, rem // u_j].  Levels before the all-ones tail read the suffix
    table; the tail bisects the closed form C(rem-1, left-1) instead.
    """
    k = len(u)
    S = _suffix_table(u, target)
    h = len(S)
    if h and S[0][target] == 0:
        raise EmptySolutionSetError(f"no positive solution of {u} . mu = {target}")
    parts = []
    rem = target
    for j in range(min(h, k - 1)):
        Sj, w = S[j], u[j]
        total = Sj[rem]
        r = rng.randrange(total)
        lo, hi = 1, rem // w
        while lo < hi:
            mid = (lo + hi) // 2
            if total - Sj[rem - w * mid] > r:
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
