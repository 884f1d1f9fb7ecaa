"""Abstract incidence models of simple crossing divisible curve arrangements.

An arrangement here is purely combinatorial: a background surface class
(its two Chern numbers), a list of curves carrying genus, self-intersection,
block index and block weight u, and a list of points, each a set of >= 2
curves.  Intersection numbers between distinct curves are *defined* as the
number of shared points.  That is all the log Chern formulas consume, so no
coordinates are ever needed.

The log resolution blows up every point lying on >= 3 curves: proper
transforms keep their genus and lose one unit of self-intersection per such
point, and each blown-up point contributes a genus-0 divisor of
self-intersection -1 meeting each incident proper transform once.  Log
Chern numbers are computed both from the raw combinatorial data and from
the resolved configuration; the two must agree.  An Arrangement is checked
once, when it is built, and every consumer reads the t_n counts and block
groups it keeps as `a.data`; only an explicit `validate(a)` re-runs the checks.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .errors import BudgetError, FileFormatError, ValidationError, record
from .numth import is_prime

__all__ = [
    "SurfaceClass",
    "CurveDecl",
    "PointDecl",
    "Arrangement",
    "CombinatorialData",
    "ResolvedCurve",
    "ResolvedArrangement",
    "LogChernNumbers",
    "ArrangementDiagnostics",
    "P2",
    "P1xP1",
    "validate",
    "log_chern_direct",
    "resolve",
    "log_chern_resolved",
    "gen_general_lines",
    "gen_ceva",
    "gen_pg2",
    "gen_underline_ceva",
    "gen_p1xp1",
    "GENERATORS",
    "diagnostics",
    "to_text",
    "from_text",
    "load",
]


@record
class SurfaceClass:
    """Chern data of the background surface; c1^2 + c2 must be 0 mod 12."""

    name: str
    c1_sq: int
    c2: int

    def __post_init__(self):
        if (self.c1_sq + self.c2) % 12 != 0:
            raise ValidationError(
                "surface-chern",
                f"c1_sq + c2 = {self.c1_sq + self.c2} is not divisible by 12",
            )

    @property
    def chi(self) -> int:
        return (self.c1_sq + self.c2) // 12

    def blown_up(self, k: int) -> "SurfaceClass":
        if k == 0:
            return self
        return SurfaceClass(f"{self.name} blown up {k}x", self.c1_sq - k, self.c2 + k)


P2 = SurfaceClass("P2", 9, 3)
P1xP1 = SurfaceClass("P1xP1", 8, 4)

# Divisor names of the form E<number> are reserved for blow-up divisors.
_RESERVED_ID = re.compile(r"^E\d+$")


@record
class CurveDecl:
    """One curve: genus, self-intersection, block index and block weight u."""

    id: str
    genus: int
    self_int: int
    block: int
    u: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValidationError("curve-genus", f"curve {self.id}: genus < 0")
        if self.u < 1:
            raise ValidationError("curve-u", f"curve {self.id}: u must be >= 1")
        if self.block < 1:
            raise ValidationError("curve-block", f"curve {self.id}: block must be >= 1")
        if _RESERVED_ID.match(self.id):
            raise ValidationError(
                "curve-id", f"curve id {self.id!r} is reserved for blow-up divisors"
            )


@record
class PointDecl:
    """One point of the arrangement: the ids of the >= 2 curves through it."""

    curves: tuple[str, ...]

    def __post_init__(self):
        if len(self.curves) < 2:
            raise ValidationError("point-size", "a point must lie on >= 2 curves")
        if len(set(self.curves)) != len(self.curves):
            raise ValidationError(
                "point-dup", f"point {self.curves} repeats a curve id"
            )


@record
class Arrangement:
    """Checked once, when built: `data` is what validate returned (not compared)."""

    surface: SurfaceClass
    blocks: int
    curves: tuple[CurveDecl, ...]
    points: tuple[PointDecl, ...]
    line_arrangement: bool = False
    data: CombinatorialData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "data", validate(self))

    @property
    def d(self) -> int:
        return len(self.curves)


@record
class CombinatorialData:
    """d, the point-degree counts t_n (only nonzero entries are stored), and
    each block's curves in arrangement order, block b at index b - 1."""

    d: int
    t: dict[int, int]
    blocks: tuple[tuple[CurveDecl, ...], ...] = ()

    def t_n(self, n: int) -> int:
        return self.t.get(n, 0)


@record
class LogChernNumbers:
    """The log Chern numbers c1bar^2 and c2bar of an arrangement."""

    c1bar_sq: int
    c2bar: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.c1bar_sq, self.c2bar)


# Most curve pairs on all points for validate (gen_ceva(316) has 448,878),
# and the longest file load reads (its text is about 3 MB).
MAX_INCIDENT_PAIRS = 500_000
MAX_ARRANGEMENT_CHARS = 4_000_000


def validate(a: Arrangement) -> CombinatorialData:
    """Re-run every check that building `a` ran; return the t_n counts and block groups.

    Raises ValidationError with a distinct code for each failure class:
    curve-count, curve-id-dup, block-range, block-size, block-gcd,
    unknown-curve, d-point, line-pairs.  Points carrying more than
    MAX_INCIDENT_PAIRS curve pairs in all raise BudgetError.
    """
    if a.d < 3:
        raise ValidationError("curve-count", f"need at least 3 curves, got {a.d}")
    index = {}
    for i, c in enumerate(a.curves):
        if c.id in index:
            raise ValidationError("curve-id-dup", f"duplicate curve id {c.id!r}")
        index[c.id] = i

    groups: dict[int, list[CurveDecl]] = {}  # only the blocks in use
    for c in a.curves:
        if c.block > a.blocks:
            raise ValidationError(
                "block-range",
                f"curve {c.id} sits in block {c.block} but only {a.blocks} declared",
            )
        groups.setdefault(c.block, []).append(c)
    for b in range(1, a.blocks + 1):
        members = groups.get(b, ())
        if len(members) < 3:
            raise ValidationError(
                "block-size", f"block {b} has {len(members)} curves; need >= 3"
            )
        g = gcd(*(c.u for c in members))
        if g != 1:
            raise ValidationError(
                "block-gcd", f"block {b} has u-gcd {g}; the u values must be coprime"
            )

    pairs = sum(comb(len(pt.curves), 2) for pt in a.points)
    if pairs > MAX_INCIDENT_PAIRS:
        raise BudgetError(f"{pairs} curve pairs on points; the budget is {MAX_INCIDENT_PAIRS}")
    t: Counter[int] = Counter()
    pair_counts: Counter[int] = Counter()  # line pair x < y keyed as x * d + y
    for pt in a.points:
        for cid in pt.curves:
            if cid not in index:
                raise ValidationError(
                    "unknown-curve", f"point {pt.curves} names unknown curve {cid!r}"
                )
        n = len(pt.curves)
        if n >= a.d:
            raise ValidationError(
                "d-point", f"point {pt.curves} lies on all {a.d} curves"
            )
        t[n] += 1
        if a.line_arrangement:
            ids = sorted(index[cid] for cid in pt.curves)
            pair_counts.update(x * a.d + y for x, y in combinations(ids, 2))

    if a.line_arrangement:
        # at most `pairs` pairs are found before a missing one raises
        for x, y in combinations(range(a.d), 2):
            c = pair_counts.get(x * a.d + y, 0)
            if c != 1:
                raise ValidationError(
                    "line-pairs",
                    f"lines {a.curves[x].id} and {a.curves[y].id} share {c} points; "
                    "every pair of lines must share exactly one",
                )

    blocks = tuple(tuple(groups[b]) for b in range(1, a.blocks + 1))
    return CombinatorialData(a.d, dict(sorted(t.items())), blocks)


def log_chern_direct(a: Arrangement) -> LogChernNumbers:
    """Log Chern numbers straight from d, t_n, genus and self-intersections."""
    gsum = sum(c.genus - 1 for c in a.curves)
    c1 = (
        a.surface.c1_sq
        - sum(c.self_int for c in a.curves)
        + sum((3 * n - 4) * tn for n, tn in a.data.t.items())
        + 4 * gsum
    )
    c2 = a.surface.c2 + sum((n - 1) * tn for n, tn in a.data.t.items()) + 2 * gsum
    return LogChernNumbers(c1, c2)


# ---------------------------------------------------------------------------
# Log resolution


@record
class ResolvedCurve:
    """One divisor of the log resolution: a proper transform, with curves (id,),
    or a blow-up divisor, with a reserved E<n> id and 3 or more curves."""

    id: str
    genus: int
    self_int: int
    curves: tuple[str, ...]  # arrangement curves whose mu sum to this divisor's nu


@dataclass
class ResolvedArrangement:
    """The log resolution: its surface, its divisors and node counts per divisor pair."""

    surface: SurfaceClass  # after blowing up the k points of degree >= 3
    divisors: tuple[ResolvedCurve, ...]
    nodes: dict[tuple[int, int], int]  # divisor pair (i < j) -> node count, kept sorted
    t2_total: int = field(init=False)
    sum_self_int: int = field(init=False)
    sum_genus_defect: int = field(init=False)  # sum over divisors of (g - 1)

    def __post_init__(self):
        self.nodes = dict(sorted(self.nodes.items()))
        self.t2_total = sum(self.nodes.values())
        self.sum_self_int = sum(d.self_int for d in self.divisors)
        self.sum_genus_defect = sum(d.genus - 1 for d in self.divisors)


def resolve(a: Arrangement) -> ResolvedArrangement:
    """Blow up every point of degree >= 3 and collect the node data.

    Each 2-point of the arrangement survives as a node between the two
    proper transforms; each blown-up n-point contributes n nodes, one
    between its exceptional divisor and each incident proper transform.
    """
    index = {c.id: i for i, c in enumerate(a.curves)}
    heavy = [pt for pt in a.points if len(pt.curves) >= 3]
    incident_heavy = Counter()
    for pt in heavy:
        for cid in pt.curves:
            incident_heavy[cid] += 1

    divisors = [
        ResolvedCurve(
            id=c.id,
            genus=c.genus,
            self_int=c.self_int - incident_heavy[c.id],
            curves=(c.id,),
        )
        for c in a.curves
    ]
    nodes: Counter[tuple[int, int]] = Counter()
    for pt in a.points:
        if len(pt.curves) == 2:
            i, j = sorted(index[cid] for cid in pt.curves)
            nodes[(i, j)] += 1
    for k, pt in enumerate(heavy):
        e_index = len(divisors)
        divisors.append(
            ResolvedCurve(
                id=f"E{k + 1}",
                genus=0,
                self_int=-1,
                curves=pt.curves,
            )
        )
        for cid in pt.curves:
            nodes[(index[cid], e_index)] += 1

    return ResolvedArrangement(
        surface=a.surface.blown_up(len(heavy)),
        divisors=tuple(divisors),
        nodes=nodes,
    )


def log_chern_resolved(ra: ResolvedArrangement) -> LogChernNumbers:
    """Log Chern numbers from the resolved configuration; must agree with
    log_chern_direct of the source arrangement."""
    gsum = ra.sum_genus_defect
    c1 = ra.surface.c1_sq - ra.sum_self_int + 2 * ra.t2_total + 4 * gsum
    c2 = ra.surface.c2 + ra.t2_total + gsum * 2
    return LogChernNumbers(c1, c2)


# ---------------------------------------------------------------------------
# Built-in generators

# Most points a generator emits (point-line incidence tests for gen_pg2).
MAX_GENERATOR_WORK = 100_000


def _check_generator_work(name: str, work: int) -> None:
    if work > MAX_GENERATOR_WORK:
        raise BudgetError(
            f"{name} needs {work} points (point-line tests for pg2); "
            f"the budget is {MAX_GENERATOR_WORK}"
        )


def gen_general_lines(d: int) -> Arrangement:
    """d lines in general position: every pair meets in its own 2-point."""
    if d < 3:
        raise ValueError(f"need d >= 3 lines, got {d}")
    _check_generator_work(f"gen_general_lines({d})", d * (d - 1) // 2)
    curves = tuple(
        CurveDecl(id=f"L{i + 1}", genus=0, self_int=1, block=1, u=1) for i in range(d)
    )
    points = tuple(
        PointDecl((f"L{i + 1}", f"L{j + 1}")) for i, j in combinations(range(d), 2)
    )
    return Arrangement(P2, 1, curves, points, line_arrangement=True)


def _pencil_triple_points(m: int) -> list[PointDecl]:
    """The m^2 points where A_a, B_b and C_c meet: c = a + b (mod m)."""
    return [
        PointDecl((f"A{a}", f"B{b}", f"C{(a + b) % m}"))
        for a in range(m)
        for b in range(m)
    ]


def gen_ceva(m: int) -> Arrangement:
    """The 3m-line pencil arrangement of degree m.

    Three pencils A, B, C of m lines each; lines A_a, B_b, C_c pass through
    a common point exactly when c = a + b (mod m), giving m^2 triple points,
    and each pencil is concurrent in one m-fold point.  m = 3 realizes nine
    lines with twelve triple points; m = 2 the complete quadrilateral; m = 1
    degenerates to the triangle of general position.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m == 1:
        return gen_general_lines(3)
    _check_generator_work(f"gen_ceva({m})", m * m + 3)
    names = ("A", "B", "C")
    curves = tuple(
        CurveDecl(id=f"{t}{a}", genus=0, self_int=1, block=1, u=1)
        for t in names
        for a in range(m)
    )
    points = _pencil_triple_points(m)
    for t in names:
        points.append(PointDecl(tuple(f"{t}{a}" for a in range(m))))
    return Arrangement(P2, 1, curves, tuple(points), line_arrangement=True)


def gen_pg2(m: int) -> Arrangement:
    """Line/point incidence of the projective plane over the m-element field.

    m must be prime.  d = m^2 + m + 1 lines, every point lies on exactly
    m + 1 of them, and every pair of lines meets in exactly one point.
    """
    if not is_prime(m):
        raise ValidationError("pg2-prime", f"gen_pg2 needs a prime m, got {m}")
    _check_generator_work(f"gen_pg2({m})", (m * m + m + 1) ** 2)

    def normalized() -> list[tuple[int, int, int]]:
        reps = [(1, y, z) for y in range(m) for z in range(m)]
        reps += [(0, 1, z) for z in range(m)]
        reps.append((0, 0, 1))
        return reps

    reps = normalized()
    ids = {v: f"L{v[0]}.{v[1]}.{v[2]}" for v in reps}
    curves = tuple(
        CurveDecl(id=ids[v], genus=0, self_int=1, block=1, u=1) for v in reps
    )
    points = []
    for pt in reps:
        through = tuple(
            ids[line]
            for line in reps
            if (pt[0] * line[0] + pt[1] * line[1] + pt[2] * line[2]) % m == 0
        )
        points.append(PointDecl(through))
    return Arrangement(P2, 1, curves, tuple(points), line_arrangement=True)


def gen_underline_ceva(m: int) -> Arrangement:
    """The degree-m pencil arrangement with its three m-fold points blown up.

    Lives on P2 blown up at three points (c1^2 = 6 = c2); the 3m curves are
    the proper transforms of the pencil lines, now of self-intersection 0,
    grouped into three blocks of m with u = 1.  Only the m^2 triple points
    survive.
    """
    if m < 3:
        raise ValueError(f"need m >= 3 for blocks of size >= 3, got {m}")
    _check_generator_work(f"gen_underline_ceva({m})", m * m)
    surface = SurfaceClass("P2 blown up 3x", 6, 6)
    names = ("A", "B", "C")
    curves = tuple(
        CurveDecl(id=f"{t}{a}", genus=0, self_int=0, block=b + 1, u=1)
        for b, t in enumerate(names)
        for a in range(m)
    )
    return Arrangement(
        surface, 3, curves, tuple(_pencil_triple_points(m)), line_arrangement=False
    )


def gen_p1xp1(d1: int, d2: int, d3: int) -> Arrangement:
    """Three-block arrangement on P1 x P1: two rulings plus diagonal-class curves.

    Blocks 1 and 2 are fibers of the two rulings (self-intersection 0,
    disjoint within their block, meeting the other ruling once); block 3
    curves have self-intersection 2, meet every fiber once and each other
    twice.  All intersections are generic 2-points.
    """
    if min(d1, d2, d3) < 3:
        raise ValueError("each block needs at least 3 curves")
    _check_generator_work(
        f"gen_p1xp1({d1}, {d2}, {d3})", d1 * d2 + d3 * (d1 + d2) + d3 * (d3 - 1)
    )
    curves = []
    for b, (t, n, self_int) in enumerate(
        (("A", d1, 0), ("B", d2, 0), ("C", d3, 2))
    ):
        curves += [
            CurveDecl(id=f"{t}{i}", genus=0, self_int=self_int, block=b + 1, u=1)
            for i in range(n)
        ]
    points = []
    for i in range(d1):
        for j in range(d2):
            points.append(PointDecl((f"A{i}", f"B{j}")))
    for k in range(d3):
        for i in range(d1):
            points.append(PointDecl((f"A{i}", f"C{k}")))
        for j in range(d2):
            points.append(PointDecl((f"B{j}", f"C{k}")))
    for k, l in combinations(range(d3), 2):
        points.append(PointDecl((f"C{k}", f"C{l}")))
        points.append(PointDecl((f"C{k}", f"C{l}")))
    return Arrangement(P1xP1, 3, tuple(curves), tuple(points), line_arrangement=False)


# The built-in generators by CLI name, also a reference table's generator.kind
GENERATORS = {
    "general-lines": gen_general_lines,
    "ceva": gen_ceva,
    "pg2": gen_pg2,
    "underline-ceva": gen_underline_ceva,
    "p1xp1": gen_p1xp1,
}


# ---------------------------------------------------------------------------
# Plane line-arrangement diagnostics (advisory realizability heuristics)


@record
class ArrangementDiagnostics:
    """The plane-line incidence inequalities and the 8/3 ratio cap, evaluated."""

    incidence_lhs: Fraction  # t_2 + (3/4) t_3
    incidence_rhs: Fraction  # d + sum_{n>4} (n-4) t_n
    incidence_holds: bool
    pair_floor_holds: bool  # t_2 + (1/4) t_3 >= 3
    ratio_bound_holds: bool  # 3 c1bar^2 <= 8 c2bar


def diagnostics(a: Arrangement) -> ArrangementDiagnostics:
    """Evaluate the plane-line incidence inequalities and the 8/3 ratio cap.

    Advisory only: failure flags combinatorics that no complex line
    arrangement can realize; it never rejects the arrangement.
    """
    if not a.line_arrangement:
        raise ValueError("diagnostics apply to plane line arrangements only")
    data = a.data
    lhs = Fraction(data.t_n(2)) + Fraction(3, 4) * data.t_n(3)
    rhs = Fraction(data.d + sum((n - 4) * tn for n, tn in data.t.items() if n > 4))
    pair_floor = Fraction(data.t_n(2)) + Fraction(1, 4) * data.t_n(3) >= 3
    lc = log_chern_direct(a)
    return ArrangementDiagnostics(
        incidence_lhs=lhs,
        incidence_rhs=rhs,
        incidence_holds=lhs >= rhs,
        pair_floor_holds=pair_floor,
        ratio_bound_holds=3 * lc.c1bar_sq <= 8 * lc.c2bar,
    )


# ---------------------------------------------------------------------------
# Arrangement file format (canonical, line-oriented JSON)

_FORMAT_MARKER = "arrangement/1"


def to_text(a: Arrangement) -> str:
    """Canonical serialization: fixed key order, one curve/point per line."""
    import json

    lines = ["{"]
    lines.append(f'  "format": {json.dumps(_FORMAT_MARKER)},')
    surface = {"name": a.surface.name, "c1_sq": a.surface.c1_sq, "c2": a.surface.c2}
    lines.append(f'  "surface": {json.dumps(surface)},')
    lines.append(f'  "blocks": {a.blocks},')
    lines.append(f'  "flags": {{"line_arrangement": {json.dumps(a.line_arrangement)}}},')
    lines.append('  "curves": [')
    for i, c in enumerate(a.curves):
        row = {"id": c.id, "genus": c.genus, "self_int": c.self_int,
               "block": c.block, "u": c.u}
        comma = "," if i + 1 < len(a.curves) else ""
        lines.append(f"    {json.dumps(row)}{comma}")
    lines.append("  ],")
    lines.append('  "points": [')
    for i, pt in enumerate(a.points):
        comma = "," if i + 1 < len(a.points) else ""
        lines.append(f"    {json.dumps(list(pt.curves))}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(doc: dict, key: str, kind: type, where: str = "document"):
    if key not in doc:
        raise FileFormatError(f"missing field {key!r} in {where}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FileFormatError(f"field {key!r} in {where} must be {kind.__name__}")
    return value


def from_text(text: str) -> Arrangement:
    """Parse the canonical arrangement format; errors carry line numbers."""
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, a 4,300+ digit integer
        raise FileFormatError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    marker = _require(doc, "format", str)
    if marker != _FORMAT_MARKER:
        raise FileFormatError(f"unsupported format marker {marker!r}")
    sdoc = _require(doc, "surface", dict)
    surface = SurfaceClass(
        _require(sdoc, "name", str, "surface"),
        _require(sdoc, "c1_sq", int, "surface"),
        _require(sdoc, "c2", int, "surface"),
    )
    blocks = _require(doc, "blocks", int)
    flags = _require(doc, "flags", dict)
    line_flag = "line_arrangement" in flags and _require(flags, "line_arrangement", bool, "flags")
    curves = []
    for i, cdoc in enumerate(_require(doc, "curves", list)):
        if not isinstance(cdoc, dict):
            raise FileFormatError(f"curve #{i + 1} must be an object")
        where = f"curve #{i + 1}"
        curves.append(
            CurveDecl(
                id=_require(cdoc, "id", str, where),
                genus=_require(cdoc, "genus", int, where),
                self_int=_require(cdoc, "self_int", int, where),
                block=_require(cdoc, "block", int, where),
                u=_require(cdoc, "u", int, where),
            )
        )
    points = []
    for i, pdoc in enumerate(_require(doc, "points", list)):
        if not isinstance(pdoc, list) or not all(isinstance(x, str) for x in pdoc):
            raise FileFormatError(f"point #{i + 1} must be a list of curve ids")
        points.append(PointDecl(tuple(pdoc)))
    return Arrangement(surface, blocks, tuple(curves), tuple(points), line_flag)


def load(path) -> Arrangement:
    with open(path, encoding="utf-8") as fh:
        text = fh.read(MAX_ARRANGEMENT_CHARS + 1)
    if len(text) > MAX_ARRANGEMENT_CHARS:
        raise BudgetError(f"{path} is over the budget of {MAX_ARRANGEMENT_CHARS} characters")
    return from_text(text)
