"""Exact Chern invariants of degree-p cyclic root covers.

Given a resolved arrangement with multiplicities nu in (0, p), the cover's
invariants decompose into a leading term proportional to p (the log Chern
data of the base) plus per-node corrections indexed by the residues
q = p - nu_i' nu_j.  The three invariants consume three different
arithmetic functions of those residues, computed along independent routes:

    chi    <- Dedekind sums s(q, p), via the reciprocity recursion;
    c1^2   <- canonical parts c(q, p), via continued-fraction expansions;
    c2     <- lengths l(q, p) of the same expansions.

They are tied together by 12 chi = c1^2 + c2 and by the per-node identity
c = 12 s + l, both verified on every evaluation; a failure of either is an
internal bug, never bad input.  One node table is folded in exact integers
(12p s and p c are integers), and each invariant must come out integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import (
    Arrangement,
    ResolvedArrangement,
    log_chern_direct,
    log_chern_resolved,
    resolve,
)
from .errors import BudgetError, ConsistencyError, ExhaustedTries, NonIntegral
from .numth import (
    DEFAULT_FAREY,
    FareyConfig,
    PrimeModulus,
    _ncf_stats,
    dedekind_fast,
    lt_sqrt_bound,
)
from .partitions import (
    GoodnessReport,
    MultiplicityAssignment,
    is_good,
    node_residues,
    sample_good,
    system_for,
)

__all__ = [
    "CoverSpec",
    "ErrorTerms",
    "ChernReport",
    "chi",
    "c1_sq",
    "c2",
    "report",
    "convergence_scan",
    "ScanSample",
    "ScanSummary",
    "ScanResult",
    "truncate_decimal",
]


@dataclass(frozen=True)
class CoverSpec:
    """All data needed to evaluate one cover: prime, resolution, nu, C."""

    p: int
    resolved: ResolvedArrangement
    nu: MultiplicityAssignment
    farey: FareyConfig = DEFAULT_FAREY

    def __post_init__(self):
        PrimeModulus(self.p)  # raises unless p is a prime >= 3
        if self.nu.p != self.p:
            raise ValueError(f"assignment p={self.nu.p} differs from cover p={self.p}")
        for div in self.resolved.divisors:
            value = self.nu.nu.get(div.id)
            if value is None:
                raise ValueError(f"divisor {div.id} has no multiplicity")
            if not 0 < value < self.p:
                raise ValueError(f"nu[{div.id}] = {value} outside (0, {self.p})")


@dataclass(frozen=True)
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


def _fold(nodes, p: int) -> ErrorTerms:
    """Evaluate s, c, l per node (O(log p) each) and fold over the nodes."""
    scf_num = ccf_num = lcf = 0
    for node in nodes:
        q, count = node.q, node.count
        length, e_sum = _ncf_stats(q, p)
        s = dedekind_fast(q, p)
        scf_num += count * s.numerator * (12 * p // s.denominator)
        ccf_num += count * (q + pow(q, -1, p) + p * (e_sum - 2 * length))
        lcf += count * length
    return ErrorTerms(p, scf_num, ccf_num, lcf)


def _error_terms(spec: CoverSpec) -> ErrorTerms:
    return _fold(node_residues(spec.resolved, spec.nu), spec.p)


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegral(f"{what} evaluated to the non-integer {value}")
    return int(value)


def _invariants(spec: CoverSpec, terms: ErrorTerms) -> tuple[Fraction, Fraction, int]:
    """(chi, c1^2, c2) before the integrality assertions.

    chi and c1^2 stay rational here: for invalid cover data (no p-th root
    of the weighted divisor exists) they need not be integers.
    """
    p = spec.p
    ra = spec.resolved
    lc = log_chern_resolved(ra)
    node_weight = ra.t2_total + 2 * ra.sum_genus_defect
    chi_num = 12 * p * p * ra.surface.chi - (p * p - 1) * ra.sum_self_int
    chi_num += 3 * p * (p - 1) * node_weight - terms.scf_num  # 12p chi
    c1_num = p * p * lc.c1bar_sq - 2 * p * node_weight + ra.sum_self_int - terms.ccf_num
    c2_v = p * lc.c2bar - node_weight + terms.lcf
    return Fraction(chi_num, 12 * p), Fraction(c1_num, p), c2_v


def chi(spec: CoverSpec) -> int:
    """Holomorphic Euler characteristic of the cover (exact, integral)."""
    return _as_int(_invariants(spec, _error_terms(spec))[0], "chi")


def c1_sq(spec: CoverSpec) -> int:
    """First Chern number of the cover (exact, integral)."""
    return _as_int(_invariants(spec, _error_terms(spec))[1], "c1^2")


def c2(spec: CoverSpec) -> int:
    """Second Chern number (topological Euler number) of the cover."""
    return _invariants(spec, _error_terms(spec))[2]


@dataclass(frozen=True)
class ChernReport:
    chi: int
    c1_sq: int
    c2: int
    ratio_c: Fraction
    ratio_chi: Fraction
    error_terms: ErrorTerms
    good: bool
    goodness: GoodnessReport
    bounds_ok: bool
    n_nodes: int


def _bounds_ok(terms: ErrorTerms, n_nodes: int, p: int) -> bool:
    # the scf and ccf bounds scaled by 12p and p onto the integer numerators
    return (
        lt_sqrt_bound(abs(terms.scf_num), 36 * p * n_nodes, 60 * p * n_nodes, p)
        and lt_sqrt_bound(terms.lcf, 3 * n_nodes, 2 * n_nodes, p)
        and lt_sqrt_bound(abs(terms.ccf_num), 6 * p * n_nodes, 7 * p * n_nodes, p)
    )


def report(spec: CoverSpec) -> ChernReport:
    """Full evaluation: invariants, ratios, goodness, error-term bounds.

    With the default C = 1 and p >= 17, a good assignment must satisfy
    |scf| < N(3 sqrt p + 5), lcf < N(3 sqrt p + 2), |ccf| < N(6 sqrt p + 7)
    with N the node count; a violation there is raised as an internal
    error.  For non-good assignments the bounds are reported only.
    """
    goodness = is_good(spec.resolved, spec.nu, spec.farey)
    terms = _fold(goodness.nodes, spec.p)
    chi_q, c1_q, c2_v = _invariants(spec, terms)
    chi_v = _as_int(chi_q, "chi")
    c1_v = _as_int(c1_q, "c1^2")
    if 12 * chi_v != c1_v + c2_v:
        raise ConsistencyError(
            f"12 chi = {12 * chi_v} but c1^2 + c2 = {c1_v + c2_v}; "
            "independent routes disagree"
        )
    n_nodes = spec.resolved.t2_total
    bounds = _bounds_ok(terms, n_nodes, spec.p)
    if goodness.good and not bounds and spec.p >= 17 and spec.farey.C == 1:
        raise ConsistencyError(
            "a good assignment violated the square-root error bounds"
        )
    return ChernReport(
        chi=chi_v,
        c1_sq=c1_v,
        c2=c2_v,
        ratio_c=Fraction(c1_v, c2_v),
        ratio_chi=Fraction(c1_v, chi_v),
        error_terms=terms,
        good=goodness.good,
        goodness=goodness,
        bounds_ok=bounds,
        n_nodes=n_nodes,
    )


# ---------------------------------------------------------------------------
# Convergence experiments

# Most samples (primes x samples per prime) one convergence_scan may hold.
# On dual Hesse at 1000003 a sample costs about 1.8 ms and 9.5 KB (scans of
# 2,000 and 6,000 samples on a 2-core x86-64 host with Python 3.11), so the
# largest accepted scan takes about 55 s and 300 MB.
MAX_SCAN_SAMPLES = 30_000


@dataclass(frozen=True)
class ScanSample:
    p: int
    index: int
    seed: int
    tries: int
    parts: tuple[tuple[int, ...], ...]
    report: ChernReport


@dataclass(frozen=True)
class ScanSummary:
    p: int
    samples: int
    ratio_min: Fraction
    ratio_median: Fraction
    ratio_max: Fraction
    gap: Fraction  # |median - log Chern ratio|


@dataclass(frozen=True)
class ScanResult:
    log_ratio: Fraction
    samples: tuple[ScanSample, ...]
    summaries: tuple[ScanSummary, ...]
    skipped: tuple[tuple[int, str], ...]


def _mix_seed(seed: int, p: int, index: int) -> int:
    return (seed * 1_000_003 + p) * 1_000_003 + index


def _median(values: list[Fraction]) -> Fraction:
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


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
    its tries is skipped with a record.  More than MAX_SCAN_SAMPLES samples
    in all are refused before the first draw.
    """
    if samples_per_prime < 1:
        raise ValueError(f"need at least 1 sample per prime, got {samples_per_prime}")
    primes = list(primes)
    total = len(primes) * samples_per_prime
    if total > MAX_SCAN_SAMPLES:
        raise BudgetError(
            f"{len(primes)} primes x {samples_per_prime} samples = {total} samples; "
            f"the budget is {MAX_SCAN_SAMPLES}"
        )
    lc = log_chern_direct(arrangement)
    if lc.c2bar == 0:
        raise ValueError("the log Chern ratio is undefined (c2bar = 0)")
    log_ratio = lc.ratio
    resolved = resolve(arrangement)
    samples: list[ScanSample] = []
    summaries: list[ScanSummary] = []
    skipped: list[tuple[int, str]] = []
    for p in primes:
        sysd = system_for(arrangement, p)
        ratios: list[Fraction] = []
        collected: list[ScanSample] = []
        try:
            for k in range(samples_per_prime):
                sseed = _mix_seed(seed, p, k)
                good = sample_good(
                    sysd, resolved, seed=sseed, max_tries=max_tries, config=config
                )
                spec = CoverSpec(p, resolved, good.assignment, config)
                rep = report(spec)
                parts = tuple(
                    tuple(good.solution.mu[cid] for cid in block.curve_ids)
                    for block in sysd.blocks
                )
                collected.append(
                    ScanSample(p, k, sseed, good.tries, parts, rep)
                )
                ratios.append(rep.ratio_c)
        except ExhaustedTries as exc:
            skipped.append((p, str(exc)))
            continue
        samples.extend(collected)
        med = _median(ratios)
        summaries.append(
            ScanSummary(
                p=p,
                samples=len(ratios),
                ratio_min=min(ratios),
                ratio_median=med,
                ratio_max=max(ratios),
                gap=abs(med - log_ratio),
            )
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
