"""Arrangement model, generators, log resolution, file format."""

import json
from fractions import Fraction
from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootcovers import arrangements as ar
from rootcovers import partitions as pt
from rootcovers.errors import BudgetError, FileFormatError, ValidationError


def test_surface_class_noether():
    assert ar.P2.chi == 1
    assert ar.P1xP1.chi == 1
    with pytest.raises(ValidationError):
        ar.SurfaceClass("bad", 9, 4)
    y = ar.P2.blown_up(12)
    assert (y.c1_sq, y.c2) == (-3, 15)


def test_dual_hesse_combinatorics():
    dh = ar.gen_ceva(3)
    data = ar.validate(dh)
    assert data.d == 9
    assert data.t == {3: 12}


def test_triangle_and_quadrilateral():
    tri = ar.gen_ceva(1)
    assert ar.validate(tri).t == {2: 3}
    quad = ar.gen_ceva(2)
    data = ar.validate(quad)
    assert data.d == 6
    assert data.t == {2: 3, 3: 4}


@pytest.mark.parametrize("m", range(4, 13))
def test_ceva_counts(m):
    data = ar.validate(ar.gen_ceva(m))
    assert data.d == 3 * m
    assert data.t == {3: m * m, m: 3}


def test_pg2_counts_and_rejection():
    fano = ar.gen_pg2(2)
    data = ar.validate(fano)
    assert data.d == 7 and data.t == {3: 7}
    assert ar.validate(ar.gen_pg2(3)).t == {4: 13}
    assert ar.validate(ar.gen_pg2(5)).t == {6: 31}
    with pytest.raises(ValidationError):
        ar.gen_pg2(4)
    with pytest.raises(ValidationError):
        ar.gen_pg2(9)


def test_general_lines():
    for d in (3, 4, 9):
        data = ar.validate(ar.gen_general_lines(d))
        assert data.t == {2: d * (d - 1) // 2}


def test_p1xp1_counts():
    a = ar.gen_p1xp1(3, 3, 3)
    data = ar.validate(a)
    assert data.d == 9
    assert data.t == {2: 33}
    b = ar.gen_p1xp1(3, 4, 5)
    datb = ar.validate(b)
    assert datb.t == {2: 3 * 4 + 5 * (3 + 4) + 2 * 10}


def test_validate_diagnostics_codes():
    dh = ar.gen_ceva(3)
    # d-point
    with pytest.raises(ValidationError) as err:
        ar.Arrangement(
            dh.surface,
            1,
            dh.curves[:3],
            (ar.PointDecl(tuple(c.id for c in dh.curves[:3])),),
            line_arrangement=False,
        )
    assert err.value.code == "d-point"
    # block gcd
    curves = tuple(
        ar.CurveDecl(f"C{i}", 0, 1, 1, 2) for i in range(3)
    )
    with pytest.raises(ValidationError) as err:
        ar.validate(ar.Arrangement(ar.P2, 1, curves, ()))
    assert err.value.code == "block-gcd"
    # block size
    curves = tuple(ar.CurveDecl(f"C{i}", 0, 1, 1 + (i % 2), 1) for i in range(4))
    with pytest.raises(ValidationError) as err:
        ar.validate(ar.Arrangement(ar.P2, 2, curves, ()))
    assert err.value.code == "block-size"
    # line-pair coverage
    tri = ar.gen_general_lines(3)
    with pytest.raises(ValidationError) as err:
        ar.Arrangement(tri.surface, 1, tri.curves, tri.points[:2], line_arrangement=True)
    assert err.value.code == "line-pairs"
    # as many points as pairs, but one pair repeated and another left out
    points = (tri.points[0], tri.points[0], tri.points[1])
    with pytest.raises(ValidationError) as err:
        ar.Arrangement(tri.surface, 1, tri.curves, points, line_arrangement=True)
    assert err.value.code == "line-pairs"


def test_construction_raises_each_validate_code():
    lines = tuple(ar.CurveDecl(f"L{i}", 0, 1, 1, 1) for i in range(3))
    cases = {
        "curve-count": (1, lines[:2], ()),
        "curve-id-dup": (1, lines[:2] + (lines[0],), ()),
        "block-range": (1, lines + (ar.CurveDecl("M", 0, 1, 2, 1),), ()),
        "unknown-curve": (1, lines, (ar.PointDecl(("L0", "X")),)),
    }
    for code, (blocks, curves, points) in cases.items():
        with pytest.raises(ValidationError) as err:
            ar.Arrangement(ar.P2, blocks, curves, points)
        assert err.value.code == code


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: ar.CurveDecl("C", -1, 1, 1, 1), "curve-genus"),
        (lambda: ar.CurveDecl("C", 0, 1, 1, 0), "curve-u"),
        (lambda: ar.CurveDecl("C", 0, 1, 0, 1), "curve-block"),
        (lambda: ar.PointDecl(("A", "A")), "point-dup"),
    ],
    ids=["curve-genus", "curve-u", "curve-block", "point-dup"],
)
def test_declarations_raise_their_codes(make, code):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code


def _lines_in_blocks(order):
    """One line C<i> in block order[i] for each i."""
    return tuple(ar.CurveDecl(f"C{i}", 0, 1, b, 1) for i, b in enumerate(order))


def test_interleaved_blocks_keep_arrangement_order():
    curves = _lines_in_blocks([2, 1, 2, 1, 1, 2])
    a = ar.Arrangement(ar.P2, 2, curves, ())
    assert [[c.id for c in block] for block in a.data.blocks] == [
        ["C1", "C3", "C4"],
        ["C0", "C2", "C5"],
    ]


def test_missing_middle_block_is_named():
    curves = _lines_in_blocks([1, 1, 1, 3, 3, 3])
    with pytest.raises(ValidationError, match="block 2 has 0 curves") as err:
        ar.Arrangement(ar.P2, 3, curves, ())
    assert err.value.code == "block-size"


def test_huge_declared_block_count_fails_at_the_first_empty_block():
    start = perf_counter()
    with pytest.raises(ValidationError, match="block 2 has 0 curves") as err:
        ar.Arrangement(ar.P2, 10**18, _lines_in_blocks([1, 1, 1]), ())
    assert err.value.code == "block-size"
    assert perf_counter() - start < 0.1


def test_many_blocks_build_and_give_their_system_in_linear_time():
    curves = _lines_in_blocks(b for b in range(1, 12_001) for _ in range(3))
    start = perf_counter()
    a = ar.Arrangement(ar.P2, 12_000, curves, ())
    sysd = pt.system_for(a, 7)
    assert perf_counter() - start < 3
    assert len(sysd.blocks) == 12_000
    assert sysd.blocks[-1].curve_ids == ("C35997", "C35998", "C35999")


def test_generated_arrangements_carry_their_validate_data():
    for a in _all_generated():
        assert a.data == ar.validate(a)
        assert hash(a) == hash(ar.from_text(ar.to_text(a)))
    a = ar.gen_ceva(3)
    twin = ar.gen_ceva(3)
    object.__setattr__(twin, "data", ar.CombinatorialData(0, {}))
    assert twin == a and hash(twin) == hash(a)
    assert "data" not in repr(a)


def test_reserved_exceptional_ids():
    with pytest.raises(ValidationError):
        ar.CurveDecl("E1", 0, 1, 1, 1)


def test_resolve_dual_hesse():
    ra = ar.resolve(ar.gen_ceva(3))
    assert len(ra.divisors) == 21
    assert ra.sum_self_int == -39
    assert ra.t2_total == 36
    assert (ra.surface.c1_sq, ra.surface.c2) == (-3, 15)
    propers = [d for d in ra.divisors if d.kind == "proper"]
    exceptionals = [d for d in ra.divisors if d.kind == "exceptional"]
    assert len(propers) == 9 and len(exceptionals) == 12
    assert all(d.self_int == -3 for d in propers)
    assert all(d.self_int == -1 and d.genus == 0 for d in exceptionals)
    # every node involves an exceptional divisor here (t_2 = 0 upstairs)
    for (i, j), count in ra.nodes.items():
        assert count == 1
        assert ra.divisors[j].kind == "exceptional"
    assert sum(ra.nodes.values()) == 36


def test_resolve_triangle_is_trivial():
    ra = ar.resolve(ar.gen_general_lines(3))
    assert len(ra.divisors) == 3
    assert ra.t2_total == 3
    assert ra.surface == ar.P2
    assert all(d.self_int == 1 for d in ra.divisors)


def test_resolve_ceva5():
    a = ar.gen_ceva(5)
    ra = ar.resolve(a)
    assert len(ra.divisors) == 15 + 28
    # blow-up bookkeeping: c2 goes up by k, c1^2 down by k
    k = 28
    assert ra.surface.c2 - a.surface.c2 == k == a.surface.c1_sq - ra.surface.c1_sq


def test_log_chern_dual_hesse():
    lc = ar.log_chern_direct(ar.gen_ceva(3))
    assert (lc.c1bar_sq, lc.c2bar) == (24, 9)
    assert lc.ratio == Fraction(8, 3)
    lcr = ar.log_chern_resolved(ar.resolve(ar.gen_ceva(3)))
    assert (lcr.c1bar_sq, lcr.c2bar) == (24, 9)


def test_log_chern_triangle_degenerate():
    lc = ar.log_chern_resolved(ar.resolve(ar.gen_general_lines(3)))
    assert (lc.c1bar_sq, lc.c2bar) == (0, 0)


@pytest.mark.parametrize("m", range(2, 13))
def test_ceva_ratio_formula(m):
    lc = ar.log_chern_direct(ar.gen_ceva(m))
    assert lc.ratio == Fraction(5 * m * m - 6 * m - 3, 2 * m * m - 3 * m)


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_pg2_ratio_exactly_three(m):
    lc = ar.log_chern_direct(ar.gen_pg2(m))
    assert lc.c1bar_sq == 3 * (m + 1) * (m - 1) ** 2
    assert lc.c2bar == (m + 1) * (m - 1) ** 2
    assert lc.ratio == 3


@pytest.mark.parametrize("m", range(4, 13))
def test_underline_ceva_formulas(m):
    lc = ar.log_chern_direct(ar.gen_underline_ceva(m))
    assert (lc.c1bar_sq, lc.c2bar) == (5 * m * m - 12 * m + 6, 2 * m * m - 6 * m + 6)


def test_underline_ceva_structure():
    a = ar.gen_underline_ceva(5)
    assert (a.surface.c1_sq, a.surface.c2) == (6, 6)
    assert a.blocks == 3
    assert len(a.data.blocks) == 3
    for members in a.data.blocks:
        assert len(members) == 5
        assert all(c.self_int == 0 and c.genus == 0 and c.u == 1 for c in members)
    assert ar.validate(a).t == {3: 25}


def test_underline_ceva_peak_ratio():
    ratios = {
        m: ar.log_chern_direct(ar.gen_underline_ceva(m)).ratio for m in range(4, 40)
    }
    assert ratios[5] == Fraction(71, 26)
    assert max(ratios.values()) == Fraction(71, 26)
    assert ar.log_chern_direct(ar.gen_underline_ceva(4)).c1bar_sq == 38
    assert ar.log_chern_direct(ar.gen_underline_ceva(4)).c2bar == 14


def _all_generated():
    yield from (ar.gen_general_lines(d) for d in (3, 4, 7, 10))
    yield from (ar.gen_ceva(m) for m in range(1, 13))
    yield from (ar.gen_pg2(m) for m in (2, 3, 5, 7))
    yield from (ar.gen_underline_ceva(m) for m in range(3, 13))
    yield from (ar.gen_p1xp1(*dims) for dims in ((3, 3, 3), (3, 4, 5), (4, 4, 6)))


def test_direct_equals_resolved_everywhere():
    for a in _all_generated():
        direct = ar.log_chern_direct(a)
        via_resolution = ar.log_chern_resolved(ar.resolve(a))
        assert direct == via_resolution, a.surface


def test_line_pair_count_identity():
    # for line arrangements: C(d,2) = sum C(n,2) t_n, rechecked explicitly
    from math import comb

    for a in (ar.gen_ceva(5), ar.gen_pg2(5), ar.gen_general_lines(8)):
        data = ar.validate(a)
        assert sum(comb(n, 2) * tn for n, tn in data.t.items()) == comb(data.d, 2)


def test_diagnostics_examples():
    dg = ar.diagnostics(ar.gen_ceva(3))
    assert dg.incidence_lhs == 9 and dg.incidence_rhs == 9
    assert dg.incidence_holds and dg.pair_floor_holds and dg.ratio_bound_holds
    fano = ar.diagnostics(ar.gen_pg2(2))
    assert not fano.incidence_holds
    assert fano.incidence_lhs == Fraction(21, 4) and fano.incidence_rhs == 7
    dg = ar.diagnostics(ar.gen_general_lines(4))
    assert dg.incidence_holds and dg.pair_floor_holds and dg.ratio_bound_holds
    with pytest.raises(ValueError):
        ar.diagnostics(ar.gen_p1xp1(3, 3, 3))


def test_file_round_trip_and_stability():
    for a in (ar.gen_ceva(3), ar.gen_underline_ceva(5), ar.gen_p1xp1(3, 3, 3)):
        text = ar.to_text(a)
        again = ar.from_text(text)
        assert again == a
        assert ar.to_text(again) == text


def test_file_parse_errors_carry_line_numbers():
    text = ar.to_text(ar.gen_ceva(3))
    broken = text.replace('"blocks": 1,', '"blocks": oops,', 1)
    with pytest.raises(FileFormatError) as err:
        ar.from_text(broken)
    assert "line" in str(err.value)
    with pytest.raises(FileFormatError):
        ar.from_text('{"format": "arrangement/999"}')
    with pytest.raises(FileFormatError):
        ar.from_text('{"format": "arrangement/1", "surface": {"name": "P2"}}')


def test_file_top_level_must_be_an_object():
    with pytest.raises(FileFormatError, match="top level"):
        ar.from_text("[]")


def test_file_deep_nesting_is_a_format_error():
    with pytest.raises(FileFormatError, match="recursion"):
        ar.from_text("[" * 100_000)


def test_file_huge_integer_is_a_format_error():
    text = ar.to_text(ar.gen_ceva(3)).replace('"c1_sq": 9', '"c1_sq": ' + "9" * 5000, 1)
    with pytest.raises(FileFormatError):
        ar.from_text(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_FIELDS = ("format", "surface", "blocks", "flags", "curves", "points")


def _mutated_document(field, index, value):
    doc = json.loads(ar.to_text(ar.gen_ceva(3)))
    if field in ("curves", "points") and index >= 0:
        doc[field][index % len(doc[field])] = value
    elif field == "surface" and index >= 0:
        doc[field][("name", "c1_sq", "c2")[index % 3]] = value
    else:
        doc[field] = value
    return json.dumps(doc)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    data=st.one_of(
        st.text(max_size=200),
        # a valid document with one field, curve or point replaced by arbitrary JSON
        st.tuples(st.sampled_from(_FIELDS), st.integers(-1, 12), _JSON).map(
            lambda t: _mutated_document(*t)
        ),
    )
)
def test_from_text_fuzz_raises_only_format_or_validation_errors(data):
    try:
        ar.from_text(data)
    except (FileFormatError, ValidationError):
        pass


@pytest.mark.parametrize(
    "gen, args",
    [
        (ar.gen_general_lines, (9,)),
        (ar.gen_ceva, (5,)),
        (ar.gen_pg2, (5,)),
        (ar.gen_underline_ceva, (5,)),
        (ar.gen_p1xp1, (3, 4, 5)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_generator_budget_counts_points(gen, args, monkeypatch):
    # the budget counts the points emitted (point-line pairs tested for pg2)
    a = gen(*args)
    work = a.d**2 if gen is ar.gen_pg2 else len(a.points)
    monkeypatch.setattr(ar, "MAX_GENERATOR_WORK", work)
    assert gen(*args) == a
    monkeypatch.setattr(ar, "MAX_GENERATOR_WORK", work - 1)
    with pytest.raises(BudgetError):
        gen(*args)


@pytest.mark.parametrize(
    "gen, args",
    [
        (ar.gen_general_lines, (2,)),
        (ar.gen_ceva, (0,)),
        (ar.gen_underline_ceva, (2,)),
        (ar.gen_p1xp1, (2, 3, 3)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_generators_refuse_too_small_parameters(gen, args):
    with pytest.raises(ValueError):
        gen(*args)


def test_generator_budget_refuses_before_building():
    for gen, arg in ((ar.gen_ceva, 10**5), (ar.gen_pg2, 1009),
                     (ar.gen_general_lines, 10**6), (ar.gen_underline_ceva, 10**5)):
        with pytest.raises(BudgetError):
            gen(arg)
    with pytest.raises(BudgetError):
        ar.gen_p1xp1(10**4, 10**4, 3)


def test_file_save_load(tmp_path):
    a = ar.gen_ceva(4)
    path = tmp_path / "ceva4.json"
    ar.save(a, path)
    assert ar.load(path) == a


def _crowded_point(n):
    """n lines, one point on all but the last."""
    curves = tuple(ar.CurveDecl(f"L{i}", 0, 1, 1, 1) for i in range(n))
    return ar.Arrangement(ar.P2, 1, curves, (ar.PointDecl(tuple(c.id for c in curves[:-1])),))


def _curve_pairs(a):
    return sum(comb(len(pt.curves), 2) for pt in a.points)


def test_validate_pair_budget_is_checked_before_the_pair_loop(monkeypatch):
    start = perf_counter()
    with pytest.raises(BudgetError):
        _crowded_point(2000)  # 1,997,001 curve pairs on one point
    assert perf_counter() - start < 0.2
    dh = ar.gen_ceva(3)
    monkeypatch.setattr(ar, "MAX_INCIDENT_PAIRS", _curve_pairs(dh))
    assert ar.validate(dh).t == {3: 12}
    monkeypatch.setattr(ar, "MAX_INCIDENT_PAIRS", _curve_pairs(dh) - 1)
    with pytest.raises(BudgetError):
        ar.validate(dh)


def test_load_refuses_files_over_the_size_budget(tmp_path):
    text = ar.to_text(ar.gen_ceva(3))
    path = tmp_path / "padded.json"
    path.write_text(text + " " * (ar.MAX_ARRANGEMENT_CHARS - len(text)))
    assert ar.load(path) == ar.gen_ceva(3)
    path.write_text(text + " " * (ar.MAX_ARRANGEMENT_CHARS - len(text) + 1))
    start = perf_counter()
    with pytest.raises(BudgetError):
        ar.load(path)
    assert perf_counter() - start < 0.5


def test_largest_generator_outputs_fit_the_validate_and_load_budgets(tmp_path):
    # the largest parameters MAX_GENERATOR_WORK admits for each generator
    for a in (ar.gen_underline_ceva(316), ar.gen_general_lines(447), ar.gen_pg2(17),
              ar.gen_p1xp1(3, 3, 312)):
        assert _curve_pairs(a) <= ar.MAX_INCIDENT_PAIRS
        assert len(ar.to_text(a)) <= ar.MAX_ARRANGEMENT_CHARS
    a = ar.gen_ceva(316)  # the most pairs and the longest text
    path = tmp_path / "ceva316.json"
    ar.save(a, path)
    assert ar.load(path) == a
    assert ar.validate(a).t == {3: 316 * 316, 316: 3}


@pytest.mark.parametrize("m", range(3, 9))
def test_underline_ceva_keeps_the_triple_points_of_ceva(m):
    assert ar.gen_underline_ceva(m).points == ar.gen_ceva(m).points[: m * m]
