"""Shared exception types, and `record`, the decorator for frozen records.

The CLI maps the exceptions onto distinct exit codes, so keep the hierarchy
flat and the meanings sharp.  Every module of the package loads this one,
so `record` lives here rather than in a module of its own.
"""

from dataclasses import dataclass, fields


def _compared(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj) if f.compare)


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return _compared(self) == _compared(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(_compared(self))


def _record_repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def record(cls=None, /, **options):
    """`dataclass(frozen=True, **options)` with `==`, `hash` and `repr` shared.

    A frozen dataclass `exec`s its own `__eq__`, `__hash__` and `__repr__`,
    and every fresh process pays for that at import (cold start).  These
    three are the same for every record, so one copy of each reads
    `dataclasses.fields` instead, honouring `compare` and `repr` as the
    generated ones do: `==` compares the compare-fields of two instances of
    the same class (`NotImplemented` for any other class), `hash` hashes
    the same tuple, and `repr` is `QualName(f=value!r, ...)` over the
    repr-fields.  `dataclass` still generates `__init__` and the frozen
    `__setattr__`/`__delattr__`: frozen is what makes that `__init__` write
    through `object.__setattr__`, where a shared guard would run for every
    field of every record built.
    """

    def wrap(cls):
        cls = dataclass(cls, frozen=True, eq=False, repr=False, **options)
        cls.__eq__ = _record_eq
        cls.__hash__ = _record_hash
        cls.__repr__ = _record_repr
        return cls

    return wrap if cls is None else wrap(cls)


class RootCoversError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RootCoversError):
    """An arrangement, partition, or input file violates a structural rule.

    `code` is a short machine-readable tag (e.g. "d-point", "block-gcd",
    "block-size", "line-pairs") so callers can distinguish diagnostics.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class FileFormatError(ValidationError):
    """A data file could not be parsed; message carries a line number."""

    def __init__(self, message: str):
        super().__init__("file-format", message)


class BudgetError(RootCoversError):
    """An exact computation would exceed its configured time/memory budget."""


class EmptySolutionSetError(RootCoversError):
    """The weighted-partition system has no positive solutions."""


class ExceptionalVanishes(RootCoversError):
    """A blow-up divisor received multiplicity 0 mod p; reject the solution."""


class ExhaustedTries(RootCoversError):
    """Rejection sampling failed to find an acceptable solution in time."""

    def __init__(self, tries: int):
        super().__init__(f"no good solution found after {tries} tries")
        self.tries = tries


class ConsistencyError(RootCoversError):
    """An internal cross-check failed; this signals a bug, never bad input."""


class NonIntegral(ConsistencyError):
    """An invariant that must be an integer came out fractional.

    CoverSpec refuses cover data with no p-th root before any evaluation,
    so this too is a bug, never bad input.
    """
