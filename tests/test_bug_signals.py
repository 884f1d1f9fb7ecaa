"""A bug in the package is a ConsistencyError, never a bare built-in error.

The CLI maps ConsistencyError to exit 6, "a bug, not bad input"; an
`assert` (removed under -O) or a raised AssertionError, ArithmeticError,
RuntimeError or Exception escapes it as a traceback.  Each module of
rootcovers is parsed, not imported, and searched for either.  The two
bug signals that no input reaches are raised directly at the end.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from rootcovers import covers, numth
from rootcovers.errors import ConsistencyError, NonIntegral

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcovers"
BARE = {"AssertionError", "ArithmeticError", "RuntimeError", "Exception"}


def _bare_bug_signals(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                yield node.lineno, f"raise {exc.id}"


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_bare_bug_signal_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _bare_bug_signals(tree)] == []


@pytest.mark.parametrize(
    "source",
    [
        "assert x > 0",
        "raise AssertionError('counts inconsistent')",
        "raise ArithmeticError",
        "raise RuntimeError('unreachable')",
        "raise Exception('bug')",
    ],
)
def test_the_check_finds_each_kind(source):
    assert list(_bare_bug_signals(ast.parse(source)))


def test_the_check_allows_package_errors_and_reraise():
    source = (
        "try:\n    f()\nexcept KeyError:\n    raise\n"
        "raise ConsistencyError('bug')\nraise ValueError('bad input')"
    )
    assert not list(_bare_bug_signals(ast.parse(source)))


def test_a_reciprocity_step_with_a_remainder_is_a_consistency_error():
    # [11, 3, 1, 0] is no Euclid chain (11 mod 3 is 2), so the step at
    # (3, 11) does not divide exactly
    with pytest.raises(ConsistencyError) as err:
        numth._reciprocity([11, 3, 1, 0])
    assert str(err.value) == "reciprocity step at (3, 11) left remainder 1"


def test_a_fractional_invariant_is_non_integral():
    with pytest.raises(NonIntegral, match="chi evaluated to the non-integer 1/2"):
        covers._as_int(Fraction(1, 2), "chi")
