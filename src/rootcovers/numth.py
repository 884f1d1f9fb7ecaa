"""Exact integer and rational kernels.

Negative-regular continued fractions, Dedekind sums (three independent
algorithms), regular continued-fraction totals, and the Farey bad set.
One forward Euclid pass over p/q (`_euclid`) stores its remainders and
nothing else, and every per-residue route reads it.  It takes O(log p)
steps, not time: each divides integers of about p, or of about p^2 in
the reciprocity step below.  The pass returns the NCF length l and sum
e_i in closed form: with c Euclid quotients a_k and fix = 1 - c mod 2,
the Hirzebruch-Jung conversion gives
l = sum_odd a + 1 - fix and sum e = sum_even a + 2 sum_odd a - fix.  The
regular total is then sum a = sum e - l + 1, and 12p s(q, p) comes by
reciprocity back up the remainders (`_reciprocity`).  The same pass
carries the convergent denominators, so it also decides the Farey verdict
where it is known and yields the inverse q' at its last step.  A cover's
node reads all of it off one pass (`_node_walk`), made once per distinct
residue of the cover; Farey membership on its own (`_farey_hit`, under
`is_farey_neighbour` and the sampler) walks the remainders lazily, stopping
where the verdict is known.  `canonical_part` and `dedekind_from_ncf` read
q' and gcd(q, p) off their one pass too, and `ncf_length` and
`ncf_expand` read the gcd.  The bad set is the images r * d^-1 mod p,
O(C sqrt(p) log p + sqrt(p)): the inverses from one linear table, the
images of r >= 1 in batched rows and columns of C-level `map` calls, and
those of -r as their mirror p - x.  Every Farey route reads its
radius from `_farey_bounds`: `is_farey_neighbour` and `bad_set` once per
call, the sampler once per try and `report` once per cover, handing it to
`_farey_hit` and `_node_walk`.  A residue that shares a factor with p is
refused with one message, by `mod_inverse`, the one-pass kernels and the
reciprocity step alike.  Everything is exact: Python integers and
`Fraction`, no floating point; sqrt(p) bounds go through isqrt or are
squared, and log(p) bounds through a rational enclosure of the logarithm,
which reads its power of 2 off bit lengths.

Primality is Miller-Rabin over one (base, psi_t) table: bases up to a prove
every n < psi_t, and the last psi_t is the witness bound, so the two agree.

Conventions
-----------
p is an odd prime, q an integer with 0 < q < p, and q' the inverse of q
mod p with 0 < q' < p.  The negative-regular continued fraction of p/q is

    p/q = e_1 - 1/(e_2 - 1/(... - 1/e_s)),   all e_i >= 2,

generated by b_{-1} = p, b_0 = q and b_{i-2} = b_{i-1} e_i - b_i with
0 <= b_i < b_{i-1}.  Its length is s; s = p - 1 exactly when all e_i = 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import BudgetError, ConsistencyError, record

__all__ = [
    "NcfExpansion",
    "FareyConfig",
    "DEFAULT_FAREY",
    "is_prime",
    "primes_between",
    "mod_inverse",
    "ncf_expand",
    "ncf_eval",
    "ncf_length",
    "canonical_part",
    "dedekind_brute",
    "dedekind_fast",
    "dedekind_from_ncf",
    "rcf_total",
    "is_farey_neighbour",
    "bad_set",
    "badset_bound_holds",
    "lt_sqrt_bound",
    "log_enclosure",
]


# ---------------------------------------------------------------------------
# Primality

# (base, psi_t), psi_t the least strong pseudoprime to the first t bases (A014233)
_WITNESSES = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751), (11, 2152302898747),
    (13, 3474749660383), (17, 341550071728321), (19, 341550071728321),
    (23, 3825123056546413051), (29, 3825123056546413051), (31, 3825123056546413051),
    (37, 318665857834031151167461), (41, 3317044064679887385961981),
)
_MR_BOUND = _WITNESSES[-1][1]  # is_prime refuses n from here on
# Widest [lo, hi] that primes_between will scan.
MAX_PRIME_RANGE = 1_000_000
# Longest negative-regular expansion that ncf_expand will store.
MAX_NCF_LENGTH = 1_000_000
# Largest prime whose Farey bad set bad_set will enumerate.
MAX_BADSET_P = 10_000_000
# Most residues a bad_set may reach.  Measured with tracemalloc: at
# p = 9999991, C = 73/4 (reach 996,812) the set of 641,841 members holds
# 54 MB and its build peaks at 73 MB; a set of 10^6 residues holds 66 MB.
MAX_BADSET_MEMBERS = 1_000_000


def is_prime(n: int) -> bool:
    """Trial division, then Miller-Rabin base by base until a base's psi_t
    exceeds n: the fewest bases proven for n.  Refuses n >= _MR_BOUND.
    """
    if n < 2:
        return False
    for a, _ in _WITNESSES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise ValueError(f"{n} exceeds the deterministic witness bound")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a, psi in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, tested one by one.

    Time and memory depend on the width of the range, not on hi; a range
    of more than MAX_PRIME_RANGE integers raises BudgetError.
    """
    if hi - lo >= MAX_PRIME_RANGE:
        raise BudgetError(
            f"prime range {lo}-{hi} spans more than {MAX_PRIME_RANGE} integers"
        )
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def _check_residue(q: int, p: int) -> None:
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got q={q}, p={p}")


def _check_coprime(q: int, p: int, g: int) -> None:
    if g != 1:
        raise ValueError(f"need gcd(q, p) = 1, got gcd({q}, {p}) = {g}")


def mod_inverse(q: int, p: int) -> int:
    """The unique q' with 0 < q' < p and q q' = 1 (mod p)."""
    _check_residue(q, p)
    _check_coprime(q, p, gcd(q, p))
    return pow(q, -1, p)


# ---------------------------------------------------------------------------
# Negative-regular continued fractions


@record
class NcfExpansion:
    """p/q = [e_1, ..., e_s] together with its remainder chain.

    `b` is the full chain (b_{-1}=p, b_0=q, ..., b_{s-1}=1, b_s=0), so
    len(b) == length + 2.
    """

    e: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.e)


def ncf_expand(q: int, p: int) -> NcfExpansion:
    """Expand p/q with all partial quotients >= 2 (iterative, O(s) memory);
    q is refused as mod_inverse refuses it, before the length budget."""
    if _ncf_stats(q, p)[0] > MAX_NCF_LENGTH:
        raise BudgetError(f"ncf_expand({q}, {p}) has more than {MAX_NCF_LENGTH} terms")
    e: list[int] = []
    b = [p, q]
    prev, cur = p, q
    while cur:
        quot = -(-prev // cur)  # ceil(prev/cur)
        prev, cur = cur, cur * quot - prev
        e.append(quot)
        b.append(cur)
    return NcfExpansion(tuple(e), tuple(b))


def ncf_eval(e) -> Fraction:
    """Evaluate [e_1, ..., e_s] as e_1 - 1/(e_2 - 1/(...)); rejects e_i < 2."""
    e = tuple(e)
    if not e:
        raise ValueError("empty expansion")
    for ei in e:
        if ei < 2:
            raise ValueError(f"partial quotients must be >= 2, got {ei}")
    num, den = e[-1], 1
    for ei in reversed(e[:-1]):
        num, den = ei * num - den, num
    return Fraction(num, den)


def ncf_length(q: int, p: int) -> int:
    """Number of partial quotients of p/q; equals ncf_expand(q, p).length."""
    return _ncf_stats(q, p)[0]


def _euclid(
    q: int, p: int, droot: int = -1, bound: int = 0
) -> tuple[bool, list[int], int, int, int]:
    """One forward Euclid pass over p/q = a_0 + 1/(a_1 + ...), a_k =
    r_(k-1) // r_k, that stores only the remainders: (Farey hit, [p, q, r_1,
    ..., gcd(q, p), 0], NCF length l, sum e_i, q').

    The quotients are summed by parity as they go and counted by the
    remainders (c = len - 2).  Hirzebruch-Jung turns p/q = [a_0; ..., a_n],
    n even (else a_n -> a_n - 1, 1), into [a_0+1, 2^(a_1-1), a_2+2, ...,
    2^(a_(n-1)-1), a_n+1]; with fix = 1 - c mod 2 that is
    l = sum_odd a + 1 - fix and sum e = sum_even a + 2 sum_odd a - fix, so
    sum a = sum e - l + 1.  Alongside runs the convergent denominator d_(k+1) =
    a_k d_k + d_(k-1) of q/p from 0/1, each d_k with its remainder r_k; the
    verdict is is_farey_neighbour's, decided at the first k with d_k > droot
    or r_k d_k <= bound (droot and bound from _farey_bounds; the default
    droot = -1 decides False at once).  At the last nonzero remainder r_n =
    gcd(q, p), the determinant of two consecutive convergents gives
    q d_n = (-1)^n (mod p) for gcd 1, so the inverse q' is d_n when the
    count n + 1 of quotients is odd and p - d_n when it is even.
    """
    rems = [p, q]
    r_prev, r, d_prev, d = p, q, 0, 1
    this = that = 0  # quotient sums at the parity of the next k, and at the other
    hit = None
    while r:
        if hit is None and (d > droot or r * d <= bound):
            hit = d <= droot
        a = r_prev // r
        # in pairs: a wider tuple assignment packs a tuple at every step
        r_prev, r = r, r_prev - a * r
        d_prev, d = d, a * d + d_prev
        this, that = that, this + a
        rems.append(r)
    if hit is None:  # undecided until r = 0, which hits iff d <= droot
        hit = d <= droot
    if len(rems) % 2:  # an odd count: this sums the odd k, that the even
        return hit, rems, this + 1, that + 2 * this, d_prev
    return hit, rems, that, this + 2 * that - 1, p - d_prev


def _ncf_stats(q: int, p: int) -> tuple[int, int]:
    """(length, sum e_i) of p/q, from one Euclid pass (see _ncf_inverse)."""
    return _ncf_inverse(q, p)[:2]


def _ncf_inverse(q: int, p: int) -> tuple[int, int, int]:
    """(length, sum e_i, q') of p/q from one Euclid pass, which also ends at
    gcd(q, p); q is refused as mod_inverse refuses it, range first."""
    _check_residue(q, p)
    _, rems, length, e_sum, inverse = _euclid(q, p)
    _check_coprime(q, p, rems[-2])
    return length, e_sum, inverse


def canonical_part(q: int, p: int) -> Fraction:
    """(q + q')/p + sum(e_i - 2): the per-node first-Chern correction."""
    s, tot, q2 = _ncf_inverse(q, p)
    return Fraction(q + q2 + p * (tot - 2 * s), p)


# ---------------------------------------------------------------------------
# Dedekind sums


def dedekind_brute(q: int, p: int) -> Fraction:
    """Literal sawtooth sum, O(p); the oracle the fast routes are tested against.

    ((x)) = x - [x] - 1/2, so for 0 < k < p the factor ((k/p)) equals
    (2k - p)/(2p); the whole sum is assembled over the common denominator
    4 p^2 in integer arithmetic.
    """
    _check_residue(q, p)
    total = 0
    r = 0
    for i in range(1, p):
        r += q
        if r >= p:
            r -= p
        total += (2 * i - p) * (2 * r - p)
    return Fraction(total, 4 * p * p)


def _reciprocity(rems: list[int]) -> int:
    """12p s(q, p) from the remainders [p, q, ..., 0] of _euclid(q, p).

    f(a, b) = 12b s(a, b) is an integer, and reciprocity gives the exact step
    f(a, b) = (a^2 + b^2 + 1 - 3ab - b f(b mod a, a)) / a, taken back up the
    remainders from f(0, 1) = 0; a pass that ends at gcd(q, p) > 1 is bad
    input, and a remainder of the division is an internal error.
    """
    _check_coprime(rems[1], rems[0], rems[-2])
    f, a = 0, 1
    for b in rems[-3::-1]:  # (a, b) = (r_(k+1), r_k) from the last step up
        num = a * (a - 3 * b) + b * (b - f) + 1
        f = num // a
        if f * a != num:
            raise ConsistencyError(
                f"reciprocity step at ({a}, {b}) left remainder {num - f * a}"
            )
        a = b
    return f


def dedekind_fast(q: int, p: int) -> Fraction:
    """Dedekind sum via the reciprocity recursion (_reciprocity): O(log p)
    steps, not time, each on integers of about p^2."""
    _check_residue(q, p)
    return Fraction(_reciprocity(_euclid(q, p)[1]), 12 * p)


def dedekind_from_ncf(q: int, p: int) -> Fraction:
    """Dedekind sum recovered from the continued fraction:
    s(q,p) = ((q + q')/p + sum(e_i - 3)) / 12."""
    s, tot, q2 = _ncf_inverse(q, p)
    return Fraction(q + q2 + p * (tot - 3 * s), 12 * p)


def rcf_total(n: int, m: int) -> int:
    """Sum of the regular (plus-sign) continued fraction quotients of n/m.

    n/m with 0 < n < m expands as [0; f_1, ..., f_r] (canonical form,
    f_r >= 2); the leading 0 is not counted.  The f_i are exactly the
    Euclid quotients of (m, n).
    """
    if not 0 < n < m:
        raise ValueError(f"need 0 < n < m, got n={n}, m={m}")
    _, rems, length, e_sum, _ = _euclid(n, m)
    if rems[-2] != 1:  # the pass ends at gcd(n, m)
        raise ValueError(f"{n}/{m} is not in lowest terms")
    return e_sum - length + 1


# ---------------------------------------------------------------------------
# Farey bad set


@record
class FareyConfig:
    """Neighbourhood scale C > 0 for the Farey bad set (default C = 1)."""

    C: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "C", Fraction(self.C))
        if self.C <= 0:
            raise ValueError("C must be positive")


DEFAULT_FAREY = FareyConfig()


def is_farey_neighbour(q: int, p: int, config: FareyConfig = DEFAULT_FAREY) -> bool:
    """True iff q lies within C*sqrt(p)/d^2 of some Farey point p*c/d.

    Of all c/d with 0 <= c <= d, gcd(c, d) = 1 and d^2 <= p, only the
    convergents of q/p (0/1, 1/a_1, ...) need checking:
    - p > 4C^2: the radius C/(sqrt(p) d^2) is below 1/(2d^2), so by
      Legendre's theorem every hit c/d is a convergent of q/p;
    - p <= 4C^2: every q is within C*sqrt(p) of 0 or p, and the first
      convergent catches it: 0/1 if q <= p/2, 1/1 if q > p/2 (a_1 = 1).
    |q d_k - p c_k| = r_k, the Euclid remainder of p/q at convergent k, and the
    test is r d <= bound with d <= isqrt(p) (_farey_bounds); r = 0 hits before
    any division by 0.  The walk (_farey_hit) is lazy: it stops where the
    verdict is known, about halfway down a pass that _euclid keeps whole.
    """
    if not 0 <= q < p:
        raise ValueError(f"need 0 <= q < p, got q={q}, p={p}")
    return _farey_hit(q, p, *_farey_bounds(p, config))


def _farey_bounds(p: int, config: FareyConfig) -> tuple[int, int]:
    """(isqrt(p), isqrt(num(C)^2 p) // den(C)): convergent c/d at remainder r
    is a hit iff d <= isqrt(p) and r d <= the second.  Both are exact: d and
    r d den(C) are integers, so d^2 <= p iff d <= isqrt(p), and
    r d den(C) <= num(C) sqrt(p) iff r d den(C) <= isqrt(num(C)^2 p)."""
    C = config.C
    return isqrt(p), isqrt(C.numerator ** 2 * p) // C.denominator


def _farey_hit(q: int, p: int, droot: int, bound: int) -> bool:
    """is_farey_neighbour of 0 <= q < p, with droot and bound from
    _farey_bounds(p, config) taken by the caller: the convergents of q/p
    from 0/1, each at its Euclid remainder, until d > droot or r d <= bound."""
    r_prev, r, d_prev, d = p, q, 0, 1  # the walk opens with 0/1 at distance q
    while d <= droot and r * d > bound:
        a = r_prev // r
        r_prev, r = r, r_prev - a * r
        d_prev, d = d, a * d + d_prev
    return d <= droot


def _node_walk(
    q: int, p: int, droot: int, bound: int
) -> tuple[bool, int, int, int, int]:
    """(Farey hit, 12p s(q, p), NCF length, sum e_i, q') of a residue
    0 < q < p coprime to p, all from one Euclid pass (_euclid); droot and
    bound are _farey_bounds(p, config)."""
    hit, rems, length, e_sum, inverse = _euclid(q, p, droot, bound)
    return hit, _reciprocity(rems), length, e_sum, inverse


def bad_set(p: int, config: FareyConfig = DEFAULT_FAREY) -> set[int]:
    """All Farey neighbours q in [0, p), as the images r * d^-1 mod p.

    |q d - p c| <= a(d) = floor(C*sqrt(p)/d) for some c exactly when
    q d = r (mod p) for some |r| <= a(d), 1 <= d <= sqrt(p); for q in [0, p)
    that c lies in [0, d], and a non-reduced c/d = g c'/g d' is covered by
    c'/d' since g a(g d') <= a(d').  O(C sqrt(p) log p + sqrt(p)) work; p above
    MAX_BADSET_P or a reach min(p, sum_d (2 a(d) + 1)) above MAX_BADSET_MEMBERS
    raises BudgetError before enumerating (is_farey_neighbour has no bound).

    The inverses come from one table, d^-1 = -(p // d) (p mod d)^-1, exact
    for prime p and d <= sqrt(p) < p.  Only r >= 1 is enumerated, and the
    set is those images, their mirrors p - x (the images of -r) and 0.  No
    Python loop runs per member: with k = min(isqrt(p), isqrt(a(1))), each
    row d <= k goes in as one `map` over r d^-1 for r <= a(d), and each
    column r <= a(k + 1) as one `map` over r d^-1 for the d > k with
    d <= a(1) // r, which is r <= a(d); about 2 sqrt(a(1)) batches in all.
    """
    if p > MAX_BADSET_P:
        raise BudgetError(
            f"bad_set enumeration at p={p} exceeds the budget max_p={MAX_BADSET_P}"
        )
    droot, bound = _farey_bounds(p, config)  # bound = a(1)
    radii = [bound // d for d in range(1, droot + 1)]
    reach = min(p, sum(2 * a + 1 for a in radii))
    if reach > MAX_BADSET_MEMBERS:
        raise BudgetError(f"bad_set may hold {reach} residues; budget {MAX_BADSET_MEMBERS}")
    if 2 * bound + 1 >= p:  # the d = 1 residues alone cover Z/p
        return set(range(p))
    # d^-1 = -(p // d) (p mod d)^-1 (mod p), from p = (p // d) d + p mod d
    inv = [0, 1]
    for d in range(2, droot + 1):
        inv.append((p - p // d) * inv[p % d] % p)
    # the images of r >= 1: rows r d^-1 for d <= k, then columns r (d^-1 for
    # every d > k with r <= a(d), i.e. d <= bound // r), one batch each
    k = min(droot, isqrt(bound))
    out: set[int] = set()
    for d in range(1, k + 1):
        i = inv[d]
        out.update(map(p.__rmod__, range(i, radii[d - 1] * i + 1, i)))
    for r in range(1, bound // (k + 1) + 1):
        out.update(map(p.__rmod__, map(r.__mul__, inv[k + 1 : min(droot, bound // r) + 1])))
    # -r maps to p minus r's image, never to 0, since 0 < r <= bound < p / 2
    out.update(map(p.__sub__, tuple(out)))
    out.add(0)
    return out


# ---------------------------------------------------------------------------
# Exact comparisons against sqrt/log bounds


def lt_sqrt_bound(value: int | Fraction, mult: int, offset: int, p: int) -> bool:
    """Exact test of value < mult*sqrt(p) + offset (mult >= 0, p not a square)."""
    t = value - offset
    if t < 0:
        return True
    if t == 0:
        return mult > 0
    return t * t < mult * mult * p


def _atanh_enclosure(u: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(u) for 0 <= u < 1 by the odd power series.

    With u = a/b the first `terms` terms u^(2j+1)/(2j+1) share the
    denominator L b^(2 terms - 1), L = lcm(1, 3, ..., 2 terms - 1), so
    their sum is one integer over it, reduced once; so is the sum plus
    the tail bound u^(2 terms + 1) / ((2 terms + 1)(1 - u^2)).
    """
    a, b = u.numerator, u.denominator
    asq, bsq = a * a, b * b
    odd_lcm = lcm(*range(1, 2 * terms, 2))
    num, power = 0, a  # power = a^(2j+1)
    for j in range(terms):  # Horner: every earlier term gains a factor b^2
        num = num * bsq + odd_lcm // (2 * j + 1) * power
        power *= asq
    den = odd_lcm * b ** (2 * terms - 1)
    tail_den = (2 * terms + 1) * (bsq - asq)
    return Fraction(num, den), Fraction(num * tail_den + odd_lcm * power, den * tail_den)


@lru_cache(maxsize=4)  # badset_bound_holds asks for 12, 24, 48 and 96 terms
def _log2_enclosure(terms: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(1/3) = log(2) / 2."""
    return _atanh_enclosure(Fraction(1, 3), terms)


def log_enclosure(x: Fraction, terms: int = 12) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log(x) for x > 0.

    Writes x = m * 2^k with 1 <= m < 2 and uses
    log 2 = 2 atanh(1/3), log m = 2 atanh((m-1)/(m+1)); both series have
    ratio <= 1/9 so a dozen terms already give ~12 correct digits.  k is
    read off the bit lengths of x's numerator and denominator, which put
    x / 2^k in (1/2, 2), so at most one doubling is left; the log 2
    enclosure is made once per number of terms.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_enclosure needs x > 0")
    num, den = x.numerator, x.denominator
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    if num < den:
        num <<= 1
        k -= 1
    lo2, hi2 = _log2_enclosure(terms)
    lom, him = _atanh_enclosure(Fraction(num - den, num + den), terms)  # m = num / den
    if k >= 0:
        return 2 * (k * lo2 + lom), 2 * (k * hi2 + him)
    return 2 * (k * hi2 + lom), 2 * (k * lo2 + him)


def badset_bound_holds(
    count: int, p: int, config: FareyConfig = DEFAULT_FAREY
) -> bool:
    """Exact check of count <= C*sqrt(p)*(log p + 2 log 2).

    log p + 2 log 2 = log(4p) is enclosed by rationals lo and hi, both
    sides are squared, and the precision is raised until the comparison is
    decided (the bound is irrational, so ties cannot occur).
    """
    bound_sq = config.C**2 * p
    for terms in (12, 24, 48, 96):
        lo, hi = log_enclosure(4 * p, terms)
        if count * count <= bound_sq * lo * lo:
            return True
        if count * count > bound_sq * hi * hi:
            return False
    raise ConsistencyError("log enclosure failed to separate (unreachable)")
