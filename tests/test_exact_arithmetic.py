"""No float in the package: every invariant is computed in exact arithmetic.

Each module of rootcovers is parsed, not imported, and searched for a float
literal, a float(...) call, or a name from math outside the integer
functions below.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcovers"
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm"}


def _float_uses(tree):
    math_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_aliases.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for a in node.names:
                if a.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, "float(...) call"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_aliases
            and node.attr not in INTEGER_MATH
        ):
            yield node.lineno, f"math.{node.attr}"


MODULES = sorted(SRC.glob("*.py"))


def test_every_module_is_checked():
    assert {"numth.py", "partitions.py", "covers.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_float_in_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _float_uses(tree)] == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "y = float(3)",
        "import math\ny = math.sqrt(2)",
        "import math as m\ny = m.log(2)",
        "from math import log",
    ],
)
def test_the_check_finds_each_kind(source):
    assert list(_float_uses(ast.parse(source)))


def test_the_check_allows_integer_math():
    source = "import math\nfrom math import comb, gcd\nx = math.isqrt(10) + comb(5, 2)"
    assert not list(_float_uses(ast.parse(source)))
