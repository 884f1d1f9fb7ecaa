"""The frozen records share one `==`, `hash` and `repr` (`errors.record`).

`record` is `dataclass(frozen=True)` with those three methods read off
`dataclasses.fields` instead of generated per class.  The twin tests
declare one set of fields twice, once with each decorator, and require the
two classes to behave alike; the census requires every frozen record of
the package to use the shared methods.
"""

import dataclasses
import inspect
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace

import pytest

from rootcovers import arrangements, covers, errors, numth, partitions, tables
from rootcovers.errors import record

MODULES = (arrangements, covers, errors, numth, partitions, tables)
SHARED = ("__eq__", "__hash__", "__repr__")


@record
class _Probe:
    """One field, to read the shared methods off."""

    x: int


def _package_classes():
    for module in MODULES:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_every_frozen_record_uses_the_shared_methods():
    frozen = [cls for cls in _package_classes() if cls.__dataclass_params__.frozen]
    assert len(frozen) == 26
    own = [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in frozen
        for name in SHARED
        if getattr(cls, name) is not getattr(_Probe, name)
    ]
    assert own == []


def test_no_record_field_sets_hash():
    # the shared hash reads compare alone, which is dataclass's rule for hash=None
    assert [
        f"{cls.__qualname__}.{f.name}"
        for cls in _package_classes()
        for f in fields(cls)
        if f.hash is not None
    ] == []


def _twin(decorate):
    """The same class body under one decorator; both twins share a qualname."""

    class Point:
        """A record with a default and a hidden, uncompared field."""

        x: int
        y: tuple = ()
        tag: str = field(default="t", init=False, repr=False, compare=False)

    return decorate(Point)


TWINS = [
    pytest.param(dataclass(frozen=True), record, id="plain"),
    pytest.param(dataclass(frozen=True, slots=True), record(slots=True), id="slots"),
]
ARGS = [(1,), (1, ()), (1, (2,)), (2, (2,)), (1, ([],))]


@pytest.mark.parametrize("gen, rec", TWINS)
def test_twins_agree_on_eq_hash_and_repr(gen, rec):
    G, R = _twin(gen), _twin(rec)
    assert G.__qualname__ == R.__qualname__
    for cls in (G, R):
        assert cls.__eq__ is not object.__eq__ and cls.__hash__ is not None
    gs, rs = [G(*a) for a in ARGS], [R(*a) for a in ARGS]
    object.__setattr__(gs[0], "tag", "other")  # an uncompared field that differs
    object.__setattr__(rs[0], "tag", "other")
    assert [[a == b for b in gs] for a in gs] == [[a == b for b in rs] for a in rs]
    assert [[a != b for b in gs] for a in gs] == [[a != b for b in rs] for a in rs]
    for g, r in zip(gs, rs):
        assert repr(g) == repr(r)
        assert "tag" not in repr(r)
        if r.y == ([],):
            for obj in (g, r):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(obj)
        else:
            assert hash(g) == hash(r)
        for other in (r.x, (r.x, r.y), object()):
            assert g.__eq__(other) is NotImplemented
            assert r.__eq__(other) is NotImplemented
    # instances of two classes never compare equal, whichever side is asked
    assert G(1) != R(1) and R(1) != G(1) and not R(1) == G(1)


@pytest.mark.parametrize("gen, rec", TWINS)
def test_twins_agree_on_frozenness_replace_and_fields(gen, rec):
    G, R = _twin(gen), _twin(rec)
    for obj in (G(1, (2,)), R(1, (2,))):
        with pytest.raises(FrozenInstanceError):
            obj.x = 3
        with pytest.raises(FrozenInstanceError):
            del obj.y
        moved = replace(obj, x=5)
        assert (type(moved), moved.x, moved.y, moved.tag) == (type(obj), 5, (2,), "t")
        with pytest.raises(ValueError, match="init=False"):
            replace(obj, tag="u")
        match obj:
            case G(x, y) | R(x, y):
                assert (x, y) == (1, (2,))
            case _:
                pytest.fail("no match by __match_args__")
    # a name that is no field: FrozenInstanceError, or with slots=True the
    # TypeError that Python 3.11's generated guard raises; the twins agree
    raised = []
    for obj in (G(1), R(1)):
        with pytest.raises((FrozenInstanceError, TypeError)) as info:
            obj.other = 0
        raised.append(info.type)
    assert raised[0] is raised[1]
    flags = [
        [(f.name, f.default, f.init, f.repr, f.compare, f.hash) for f in fields(cls)]
        for cls in (G, R)
    ]
    assert flags[0] == flags[1]
    assert G.__match_args__ == R.__match_args__ == ("x", "y")
    assert dataclasses.is_dataclass(R) and R.__dataclass_params__.frozen
    assert getattr(G, "__slots__", None) == getattr(R, "__slots__", None)
    assert inspect.signature(G) == inspect.signature(R)
