"""Exact Chern invariants of degree-p cyclic root covers.

Given a resolved arrangement and nu in (0, p) by divisor index, the cover's
invariants decompose into a leading term proportional to p (the log Chern
data of the base) plus per-node corrections indexed by the residues
q = p - nu_i' nu_j.  The three invariants consume three different
arithmetic functions of those residues, computed along independent routes:

    chi    <- Dedekind sums s(q, p), via the reciprocity recursion;
    c1^2   <- canonical parts c(q, p), via continued-fraction expansions;
    c2     <- lengths l(q, p) of the same expansions.

`report` is the one evaluator.  A `CoverSpec` refuses cover data whose
weighted branch divisor B = sum nu_i D_i has no p-th root (B.D_j must vanish
mod p for every divisor D_j), so every evaluation is of a genuine cover.
`report` walks the resolution's nodes once: each distinct residue gets one
Euclid pass (`numth._node_walk`), which feeds its Farey verdict, its NCF
length and sum, its inverse q' and its reciprocity Dedekind sum; nodes that
share a residue share its pass and add their counts to its weight.  It
folds them in exact integers (12p s and p c are integers) and checks
12 chi = c1^2 + c2, the per-node identity c = 12 s + l, and that each
invariant comes out integral; a failure of any of them is an internal bug,
never bad input.
A cover that `sample_good` accepted goes through `_sampled_report`, which
raises ConsistencyError if `report` finds any node in the bad set: the
sampler's Farey walk and `report`'s are two routes to one verdict.
A `ChernReport` stores what `report` computed (the invariants, the error
terms, the offending nodes, the bound check); its verdict `good` and its
ratios are read off those, and a ratio with denominator 0 is None.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangements import (
    Arrangement,
    ResolvedArrangement,
    log_chern_direct,
    log_chern_resolved,
    resolve,
)
from .errors import (
    BudgetError,
    ConsistencyError,
    EmptySolutionSetError,
    ExhaustedTries,
    NonIntegral,
    ValidationError,
    record,
)
from .numth import (
    DEFAULT_FAREY,
    FareyConfig,
    _farey_bounds,
    _node_walk,
    is_prime,
    lt_sqrt_bound,
)
from .partitions import (
    MultiplicityAssignment,
    _node_table,
    sample_good,
    solution_parts,
    system_for,
)

# Not used here: bench/spans.py times these under this module.
from .numth import _ncf_stats, dedekind_fast
from .partitions import is_good, node_residues

__all__ = [
    "CoverSpec",
    "ErrorTerms",
    "ChernReport",
    "report",
    "convergence_scan",
    "ScanSample",
    "ScanSummary",
    "ScanResult",
    "truncate_decimal",
]


@record
class CoverSpec:
    """All data needed to evaluate one cover: prime, resolution, nu, C."""

    p: int
    resolved: ResolvedArrangement
    nu: MultiplicityAssignment
    farey: FareyConfig = DEFAULT_FAREY

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"modulus must be a prime >= 3, got {self.p}")
        if self.nu.p != self.p:
            raise ValueError(f"assignment p={self.nu.p} differs from cover p={self.p}")
        divisors, nu = self.resolved.divisors, self.nu.nu
        if len(nu) != len(divisors):
            raise ValueError(f"{len(nu)} multiplicities for {len(divisors)} divisors")
        # B = sum nu_i D_i has a p-th root only if B.D_j = 0 mod p for every j
        dots = [n * div.self_int for n, div in zip(nu, divisors)]
        for (i, j), count in self.resolved.nodes.items():
            dots[i] += count * nu[j]
            dots[j] += count * nu[i]
        for div, dot in zip(divisors, dots):
            if dot % self.p:
                raise ValidationError(
                    "no-root",
                    f"B.{div.id} = {dot} is not 0 mod {self.p}: the branch divisor "
                    f"sum nu_i D_i has no {self.p}-th root",
                )


@record
class ErrorTerms:
    """Node-residue sums weighted by intersection counts, as integers.

    scf = sum s(q, p) * D_i.D_j,  ccf = sum c(q, p) * D_i.D_j,
    lcf = sum l(q, p) * D_i.D_j over all node residues q = p - nu_i' nu_j,
    kept as scf_num = 12p scf and ccf_num = p ccf; ccf = 12 scf + lcf is checked.
    """

    p: int
    scf_num: int
    ccf_num: int
    lcf: int

    def __post_init__(self):
        if self.ccf_num != self.scf_num + self.p * self.lcf:
            raise ConsistencyError(
                "error-term identity ccf = 12 scf + lcf failed; "
                "the Dedekind and continued-fraction routes disagree"
            )

    @property
    def scf(self) -> Fraction:
        return Fraction(self.scf_num, 12 * self.p)

    @property
    def ccf(self) -> Fraction:
        return Fraction(self.ccf_num, self.p)


def _fold(
    ra: ResolvedArrangement, ma: MultiplicityAssignment, config: FareyConfig
) -> tuple[ErrorTerms, tuple[tuple[tuple[str, str], int], ...]]:
    """Walk each distinct node residue once (_node_walk, O(log p) steps, which
    also yields q') and fold its s, c, l into the sums once per node that
    has it, weighted by the node's count; also return the (divisor pair, q)
    of every Farey hit, in node order.

    q = p - nu_i' nu_j depends only on the ratio nu_j / nu_i, so covers
    with repeated multiplicities (the equal-part rows) share residues."""
    p = ma.p
    droot, bound = _farey_bounds(p, config)
    divisors = ra.divisors
    offending = []
    walked = {}  # q -> (hit, 12p s, p c, l)
    scf_num = ccf_num = lcf = 0
    for (i, j), q, count in _node_table(ra, ma.nu, p):
        terms = walked.get(q)
        if terms is None:
            hit, f, length, e_sum, inverse = _node_walk(q, p, droot, bound)
            c = q + inverse + p * (e_sum - 2 * length)
            terms = walked[q] = (hit, f, c, length)
        hit, f, c, length = terms
        if hit:
            offending.append(((divisors[i].id, divisors[j].id), q))
        scf_num += count * f
        ccf_num += count * c
        lcf += count * length
    return ErrorTerms(p, scf_num, ccf_num, lcf), tuple(offending)


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegral(f"{what} evaluated to the non-integer {value}")
    return int(value)


def _invariants(
    ra: ResolvedArrangement, terms: ErrorTerms
) -> tuple[Fraction, Fraction, int]:
    """(chi, c1^2, c2) at p = terms.p, before the integrality assertions.

    chi and c1^2 stay rational here.  On a CoverSpec they are integers, so a
    non-integer there is a bug; multiplicities with no p-th root of the
    weighted divisor, which only a test can hand in, may give fractions.
    """
    p = terms.p
    lc = log_chern_resolved(ra)
    node_weight = ra.t2_total + 2 * ra.sum_genus_defect
    chi_num = 12 * p * p * ra.surface.chi - (p * p - 1) * ra.sum_self_int
    chi_num += 3 * p * (p - 1) * node_weight - terms.scf_num  # 12p chi
    c1_num = p * p * lc.c1bar_sq - 2 * p * node_weight + ra.sum_self_int - terms.ccf_num
    c2_v = p * lc.c2bar - node_weight + terms.lcf
    return Fraction(chi_num, 12 * p), Fraction(c1_num, p), c2_v


@record
class ChernReport:
    """What report computed; the ratios and the verdict are read off it.
    A ratio whose denominator is 0 is None."""

    chi: int
    c1_sq: int
    c2: int
    error_terms: ErrorTerms
    offending: tuple[tuple[tuple[str, str], int], ...]  # (divisor pair, q) in the bad set
    bounds_ok: bool

    @property
    def ratio_c(self) -> Fraction | None:
        return Fraction(self.c1_sq, self.c2) if self.c2 else None

    @property
    def ratio_chi(self) -> Fraction | None:
        return Fraction(self.c1_sq, self.chi) if self.chi else None

    @property
    def good(self) -> bool:
        return not self.offending


def _bounds_ok(terms: ErrorTerms, n_nodes: int, p: int) -> bool:
    # the scf and ccf bounds scaled by 12p and p onto the integer numerators;
    # with no nodes every term is 0 and there is nothing to bound
    return not n_nodes or (
        lt_sqrt_bound(abs(terms.scf_num), 36 * p * n_nodes, 60 * p * n_nodes, p)
        and lt_sqrt_bound(terms.lcf, 3 * n_nodes, 2 * n_nodes, p)
        and lt_sqrt_bound(abs(terms.ccf_num), 6 * p * n_nodes, 7 * p * n_nodes, p)
    )


def report(spec: CoverSpec) -> ChernReport:
    """Full evaluation: invariants, ratios, goodness verdict, error-term bounds.

    At p >= 17, an assignment good at C = 1 must satisfy
    |scf| < N(3 sqrt p + 5), lcf < N(3 sqrt p + 2), |ccf| < N(6 sqrt p + 7)
    with N the node count.  The bad set only grows with C, so an assignment
    good at any C >= 1 is good at C = 1, and a violation there is raised as
    an internal error.  Otherwise (not good, or C < 1) the bounds are
    reported only.
    """
    terms, offending = _fold(spec.resolved, spec.nu, spec.farey)
    chi_q, c1_q, c2_v = _invariants(spec.resolved, terms)
    chi_v = _as_int(chi_q, "chi")
    c1_v = _as_int(c1_q, "c1^2")
    if 12 * chi_v != c1_v + c2_v:
        raise ConsistencyError(
            f"12 chi = {12 * chi_v} but c1^2 + c2 = {c1_v + c2_v}; "
            "independent routes disagree"
        )
    bounds = _bounds_ok(terms, spec.resolved.t2_total, spec.p)
    if not offending and not bounds and spec.p >= 17 and spec.farey.C >= 1:
        raise ConsistencyError(
            "a good assignment violated the square-root error bounds"
        )
    return ChernReport(
        chi=chi_v,
        c1_sq=c1_v,
        c2=c2_v,
        error_terms=terms,
        offending=offending,
        bounds_ok=bounds,
    )


def _sampled_report(spec: CoverSpec) -> ChernReport:
    """report of a cover that sample_good accepted, which must come out good.

    The sampler's lazy Farey walk (numth._farey_hit) and report's
    (numth._node_walk) are two routes to one verdict, so a node that report
    finds in the bad set here is a bug, raised as ConsistencyError.  A
    cover read from a partition file has no sampler verdict; report it as
    it is.
    """
    rep = report(spec)
    if rep.offending:
        (i, j), q = rep.offending[0]
        raise ConsistencyError(
            f"node {i}-{j} (q={q}) of a sampled cover: the sampler's Farey walk "
            "found it good, report's found it in the bad set"
        )
    return rep


# ---------------------------------------------------------------------------
# Convergence experiments

# Most samples (primes x samples per prime) one convergence_scan may hold.
# On dual Hesse at 1000003 a sample costs about 0.36-0.57 ms (perf_counter
# over eight scans of 2,000 samples, seeds 1-8, on a shared 2-core x86-64
# host with Python 3.11, whose speed drifts about 2x from run to run) and
# 1.1 KB held (tracemalloc, 1,000 samples at 1000003 and 4000037), so the
# largest accepted scan takes about 11-17 s (one at seed 1 took 11.6 s) and
# 32 MB.  A report keeps no node table and no ratio, so pg2(7), with 456
# nodes to dual Hesse's 36, holds about 3.0 KB a sample.
MAX_SCAN_SAMPLES = 30_000
# Most node checks (primes x max_tries x nodes) one convergence_scan may
# spend when every prime exhausts its tries and is skipped.  Such scans just
# under the bound take 3.7-4.9 s and 24-25 MB peak RSS for gen_ceva(80) at
# four primes near 1e6 (51 tries each, about 1 us a check) and 3.8-6.0 s
# for dual Hesse at primes 11-100 (5,291 tries each, 1-1.5 us a check), on
# the host above: a rejected try stops at its first Farey hit.  The bound
# stays a worst case, since an accepted try checks every node (draw, assign
# and Farey tests: about 2-3 us a node for gen_ceva(80) at 1000003, 10-19 us
# for dual Hesse at 3e24+7, where each draw works on bigger integers).
MAX_SCAN_NODE_CHECKS = 4_000_000


@record
class ScanSample:
    """One good cover sampled by convergence_scan, with its seed, tries and report."""

    p: int
    index: int
    seed: int
    tries: int
    parts: tuple[tuple[int, ...], ...]
    report: ChernReport


@record
class ScanSummary:
    """The ratio c1^2/c2 over one prime's samples: least, median, greatest, gap."""

    p: int
    samples: int
    ratio_min: Fraction
    ratio_median: Fraction
    ratio_max: Fraction
    gap: Fraction  # |median - log Chern ratio|


@record
class ScanResult:
    """What convergence_scan found: every sample, one summary per prime, the skips."""

    log_ratio: Fraction
    samples: tuple[ScanSample, ...]
    summaries: tuple[ScanSummary, ...]
    skipped: tuple[tuple[int, str], ...]


def _mix_seed(seed: int, p: int, index: int) -> int:
    return (seed * 1_000_003 + p) * 1_000_003 + index


def convergence_scan(
    arrangement: Arrangement,
    primes,
    samples_per_prime: int,
    seed: int,
    config: FareyConfig = DEFAULT_FAREY,
    max_tries: int = 200,
) -> ScanResult:
    """Sample good covers at each prime and track the ratio c1^2/c2.

    Deterministic in `seed`: sample k at prime p uses the derived seed
    (seed * 1000003 + p) * 1000003 + k.  A prime where sampling exhausts
    its tries, with no positive solution (p below a block's minimal sum,
    or a weighted block with none at p), or with a sample whose c2 is 0 (no
    ratio), is skipped with its reason.  More
    than MAX_SCAN_SAMPLES samples in all, or more than MAX_SCAN_NODE_CHECKS
    node checks as primes x max_tries x nodes, are refused before the first
    draw.  That product is the cost if every prime is skipped at its first
    sample; later samples are bounded only per call, by sample_good's
    MAX_SAMPLING_NODES.
    """
    from statistics import median

    if samples_per_prime < 1:
        raise ValueError(f"need at least 1 sample per prime, got {samples_per_prime}")
    primes = list(primes)
    total = len(primes) * samples_per_prime
    if total > MAX_SCAN_SAMPLES:
        raise BudgetError(
            f"{len(primes)} primes x {samples_per_prime} samples = {total} samples; "
            f"the budget is {MAX_SCAN_SAMPLES}"
        )
    resolved = resolve(arrangement)
    checks = len(primes) * max_tries * len(resolved.nodes)
    if checks > MAX_SCAN_NODE_CHECKS:
        raise BudgetError(
            f"{len(primes)} primes x {max_tries} tries x {len(resolved.nodes)} nodes = "
            f"{checks} node checks; the budget is {MAX_SCAN_NODE_CHECKS}"
        )
    lc = log_chern_direct(arrangement)
    if lc.c2bar == 0:
        raise ValueError("the log Chern ratio is undefined (c2bar = 0)")
    log_ratio = lc.ratio
    samples: list[ScanSample] = []
    summaries: list[ScanSummary] = []
    skipped: list[tuple[int, str]] = []
    for p in primes:
        sysd = system_for(arrangement, p)
        collected: list[ScanSample] = []
        reason = None
        try:
            for k in range(samples_per_prime):
                sseed = _mix_seed(seed, p, k)
                good = sample_good(
                    sysd, resolved, seed=sseed, max_tries=max_tries, config=config
                )
                rep = _sampled_report(CoverSpec(p, resolved, good.assignment, config))
                if rep.c2 == 0:
                    reason = f"sample {k} has c2 = 0, so c1^2/c2 is undefined"
                    break
                parts = solution_parts(sysd, good.solution)
                collected.append(ScanSample(p, k, sseed, good.tries, parts, rep))
        except (ExhaustedTries, EmptySolutionSetError) as exc:
            reason = str(exc)
        if reason:
            skipped.append((p, reason))
            continue
        samples.extend(collected)
        ratios = [s.report.ratio_c for s in collected]
        med = median(ratios)
        summaries.append(
            ScanSummary(p, len(ratios), min(ratios), med, max(ratios), abs(med - log_ratio))
        )
    return ScanResult(log_ratio, tuple(samples), tuple(summaries), tuple(skipped))


def truncate_decimal(value: Fraction, places: int) -> str:
    """Decimal rendering truncated toward zero, e.g. 1.9669 -> '1.966'."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, rem = divmod(value.numerator, value.denominator)
    digits = rem * 10**places // value.denominator
    return f"{sign}{whole}.{digits:0{places}d}" if places else f"{sign}{whole}"
