"""Exact integer and rational kernels.

Negative-regular continued fractions, Dedekind sums (three independent
algorithms), regular continued-fraction totals, and the Farey bad set.
NCF length and sum, regular totals and Farey membership all come from one
O(log p) Euclid pass over p/q (`_quotients`); the whole bad set is the
images r * d^-1 mod p, O(C sqrt(p) log p + sqrt(p)).  Everything is exact:
Python integers and `Fraction`, no floating point; sqrt(p) bounds are
squared and log(p) bounds go through a rational enclosure of the logarithm.

Conventions
-----------
p is an odd prime, q an integer with 0 < q < p, and q' the inverse of q
mod p with 0 < q' < p.  The negative-regular continued fraction of p/q is

    p/q = e_1 - 1/(e_2 - 1/(... - 1/e_s)),   all e_i >= 2,

generated by b_{-1} = p, b_0 = q and b_{i-2} = b_{i-1} e_i - b_i with
0 <= b_i < b_{i-1}.  Its length is s; s = p - 1 exactly when all e_i = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetError, ConsistencyError

__all__ = [
    "PrimeModulus",
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
    "sqrt_enclosure",
    "log_enclosure",
]


# ---------------------------------------------------------------------------
# Primality

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the witnesses above is deterministic below this bound.
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# Widest [lo, hi] that primes_between will scan.
MAX_PRIME_RANGE = 1_000_000
# Longest negative-regular expansion that ncf_expand will store.
MAX_NCF_LENGTH = 1_000_000
# Largest prime whose Farey bad set bad_set will enumerate.
MAX_BADSET_P = 10_000_000
# Most residues a bad_set may reach (a set of 10^6 takes about 84 MB).
MAX_BADSET_MEMBERS = 1_000_000


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + fixed-witness Miller-Rabin)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ValueError(f"{n} exceeds the deterministic witness bound")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime p >= 3."""

    p: int

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"modulus must be a prime >= 3, got {self.p}")


def _check_residue(q: int, p: int) -> None:
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got q={q}, p={p}")


def mod_inverse(q: int, p: int) -> int:
    """The unique q' with 0 < q' < p and q q' = 1 (mod p)."""
    _check_residue(q, p)
    return pow(q, -1, p)


# ---------------------------------------------------------------------------
# Negative-regular continued fractions


@dataclass(frozen=True)
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
    """Expand p/q with all partial quotients >= 2 (iterative, O(s) memory)."""
    _check_residue(q, p)
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
    _check_residue(q, p)
    return _ncf_stats(q, p)[0]


def _quotients(q: int, p: int) -> list[int]:
    """Euclid quotients [a_0, a_1, ..., a_n] of p/q = a_0 + 1/(a_1 + ...)."""
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    return out


def _ncf_stats(q: int, p: int) -> tuple[int, int]:
    """(length, sum e_i): with n even (else a_n -> a_n - 1, 1), p/q = [a_0; ..., a_n]
    is [a_0+1, 2^(a_1-1), a_2+2, ..., 2^(a_(n-1)-1), a_n+1] in negative-regular form."""
    a = _quotients(q, p)
    if len(a) % 2 == 0:
        a[-1:] = [a[-1] - 1, 1]
    n, twos = len(a) - 1, sum(a[1::2]) - len(a) // 2
    return n // 2 + 1 + twos, sum(a[0::2]) + n + 2 * twos


def canonical_part(q: int, p: int) -> Fraction:
    """(q + q')/p + sum(e_i - 2): the per-node first-Chern correction."""
    _check_residue(q, p)
    q2 = pow(q, -1, p)
    s, tot = _ncf_stats(q, p)
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


def dedekind_fast(q: int, p: int) -> Fraction:
    """Dedekind sum via the reciprocity recursion, O(log p), in integers.

    f(a, b) = 12b s(a, b) is an integer, and reciprocity gives the exact step
    f(a, b) = (a^2 + b^2 + 1 - 3ab - b f(b mod a, a)) / a, taken back up the
    Euclid chain of (q, p) from f(0, 1) = 0; a chain that ends at
    gcd(q, p) > 1 is bad input, and a remainder is an internal error.
    """
    _check_residue(q, p)
    chain, a, b = [], q, p
    while a:
        chain.append((a, b))
        a, b = b % a, a
    if b != 1:
        raise ValueError(f"need gcd(q, p) = 1, got gcd({q}, {p}) = {b}")
    f = 0
    for a, b in reversed(chain):
        f, rem = divmod(a * (a - 3 * b) + b * (b - f) + 1, a)
        if rem:
            raise ConsistencyError(f"reciprocity step at ({a}, {b}) left remainder {rem}")
    return Fraction(f, 12 * p)


def dedekind_from_ncf(q: int, p: int) -> Fraction:
    """Dedekind sum recovered from the continued fraction:
    s(q,p) = ((q + q')/p + sum(e_i - 3)) / 12."""
    _check_residue(q, p)
    q2 = pow(q, -1, p)
    s, tot = _ncf_stats(q, p)
    return Fraction(q + q2 + p * (tot - 3 * s), 12 * p)


def rcf_total(n: int, m: int) -> int:
    """Sum of the regular (plus-sign) continued fraction quotients of n/m.

    n/m with 0 < n < m expands as [0; f_1, ..., f_r] (canonical form,
    f_r >= 2); the leading 0 is not counted.  The f_i are exactly the
    Euclid quotients of (m, n).
    """
    if not 0 < n < m:
        raise ValueError(f"need 0 < n < m, got n={n}, m={m}")
    if gcd(n, m) != 1:
        raise ValueError(f"{n}/{m} is not in lowest terms")
    return sum(_quotients(n, m))


# ---------------------------------------------------------------------------
# Farey bad set


@dataclass(frozen=True)
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
    |q d - p c| * d * denom(C) <= num(C) * sqrt(p) is decided exactly, squared.
    """
    if not 0 <= q < p:
        raise ValueError(f"need 0 <= q < p, got q={q}, p={p}")
    cn, cd = config.C.numerator, config.C.denominator
    rhs = cn * cn * p
    c, d, c_prev, d_prev = 1, 0, 0, 1  # the walk opens with 0/1
    for a in [0] + _quotients(q, p):
        c, d, c_prev, d_prev = a * c + c_prev, a * d + d_prev, c, d
        if d * d > p:
            return False
        lhs = abs(q * d - p * c) * d * cd
        if lhs * lhs <= rhs:
            return True
    return False


def bad_set(p: int, config: FareyConfig = DEFAULT_FAREY) -> set[int]:
    """All Farey neighbours q in [0, p), as the images r * d^-1 mod p.

    |q d - p c| <= a(d) = floor(C*sqrt(p)/d) for some c exactly when
    q d = r (mod p) for some |r| <= a(d), 1 <= d <= sqrt(p); for q in [0, p)
    that c lies in [0, d], and a non-reduced c/d = g c'/g d' is covered by
    c'/d' since g a(g d') <= a(d').  O(C sqrt(p) log p + sqrt(p)) work; p above
    MAX_BADSET_P or a reach min(p, sum_d (2 a(d) + 1)) above MAX_BADSET_MEMBERS
    raises BudgetError before enumerating (is_farey_neighbour has no bound).
    """
    if p > MAX_BADSET_P:
        raise BudgetError(
            f"bad_set enumeration at p={p} exceeds the budget max_p={MAX_BADSET_P}"
        )
    cn, cd = config.C.numerator, config.C.denominator
    root = isqrt(cn * cn * p)  # floor(C_num * sqrt(p))
    radii = [root // (d * cd) for d in range(1, isqrt(p) + 1)]
    reach = min(p, sum(2 * a + 1 for a in radii))
    if reach > MAX_BADSET_MEMBERS:
        raise BudgetError(f"bad_set may hold {reach} residues; budget {MAX_BADSET_MEMBERS}")
    if 2 * (root // cd) + 1 >= p:  # the d = 1 residues alone cover Z/p
        return set(range(p))
    out: set[int] = set()
    for d, a in enumerate(radii, 1):
        inv = pow(d, -1, p)
        out.update(r * inv % p for r in range(-a, a + 1))
    return out


# ---------------------------------------------------------------------------
# Exact comparisons against sqrt/log bounds


def lt_sqrt_bound(value: Fraction, mult: int, offset: int, p: int) -> bool:
    """Exact test of value < mult*sqrt(p) + offset (mult >= 0, p not a square)."""
    t = Fraction(value) - offset
    if t < 0:
        return True
    if t == 0:
        return mult > 0
    return t * t < mult * mult * p


def sqrt_enclosure(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(n) <= hi with hi - lo = 10^-digits."""
    scale = 10**digits
    a = isqrt(n * scale * scale)
    return Fraction(a, scale), Fraction(a + 1, scale)


def _atanh_enclosure(u: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(u) for 0 <= u < 1 by the odd power series."""
    acc = Fraction(0)
    power = u
    usq = u * u
    for j in range(terms):
        acc += power / (2 * j + 1)
        power *= usq
    # remaining tail: sum_{j>=terms} u^(2j+1)/(2j+1) <= power/( (2*terms+1)(1-u^2) )
    tail = power / ((2 * terms + 1) * (1 - usq))
    return acc, acc + tail


def log_enclosure(x: Fraction, terms: int = 12) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log(x) for x > 0.

    Reduces x to m * 2^k with 1 <= m < 2 and uses
    log 2 = 2 atanh(1/3), log m = 2 atanh((m-1)/(m+1)); both series have
    ratio <= 1/9 so a dozen terms already give ~12 correct digits.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_enclosure needs x > 0")
    k = 0
    m = x
    while m >= 2:
        m /= 2
        k += 1
    while m < 1:
        m *= 2
        k -= 1
    lo2, hi2 = _atanh_enclosure(Fraction(1, 3), terms)
    lom, him = _atanh_enclosure((m - 1) / (m + 1), terms)
    if k >= 0:
        return 2 * (k * lo2 + lom), 2 * (k * hi2 + him)
    return 2 * (k * hi2 + lom), 2 * (k * lo2 + him)


def badset_bound_holds(
    count: int, p: int, config: FareyConfig = DEFAULT_FAREY
) -> bool:
    """Exact check of count <= C*sqrt(p)*(log p + 2 log 2).

    log p + 2 log 2 = log(4p); the right side is enclosed by rationals and
    the precision is raised until the comparison is decided (the bound is
    irrational, so ties cannot occur).
    """
    target = Fraction(4 * p)
    for digits, terms in ((12, 12), (24, 24), (48, 48), (96, 96)):
        slo, shi = sqrt_enclosure(p, digits)
        llo, lhi = log_enclosure(target, terms)
        if count <= config.C * slo * llo:
            return True
        if count > config.C * shi * lhi:
            return False
    raise ArithmeticError("log enclosure failed to separate (unreachable)")
