"""No float in the package: every invariant is computed in exact arithmetic.

Each module of rootcovers is parsed, not imported, and searched for a float
literal, a float(...) call, or a name from math outside the integer
functions below.  The one exception is FLOAT_HINTS: `partitions._iroot`
starts Newton's integer steps from 2 ** (math.log2(x) / k), a hint that
the integer steps then prove, so no result depends on the float.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcovers"
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm"}
# (module, function) -> the names from math that function alone may use
FLOAT_HINTS = {("partitions", "_iroot"): {"log2"}}


def _walk_in_scope(node, scope=""):
    """(qualified name of the enclosing def or class, node) for every node
    below `node`; a node at module level has scope ""."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _walk_in_scope(child, inner)


def _float_uses(tree, module=""):
    in_module = set().union(*(names for (m, _), names in FLOAT_HINTS.items() if m == module))
    math_aliases, from_math = set(), {}  # from_math: local name -> math name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_aliases.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for a in node.names:
                if a.name not in INTEGER_MATH:
                    from_math[a.asname or a.name] = a.name
                    if a.name not in in_module:
                        yield node.lineno, f"from math import {a.name}"
    for scope, node in _walk_in_scope(tree):
        allowed = FLOAT_HINTS.get((module, scope), set())
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
            and node.attr not in INTEGER_MATH | allowed
        ):
            yield node.lineno, f"math.{node.attr}"
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in from_math
            and from_math[node.id] not in allowed
        ):
            yield node.lineno, f"math.{from_math[node.id]} as {node.id}"


MODULES = sorted(SRC.glob("*.py"))


def test_every_module_is_checked():
    assert {"numth.py", "partitions.py", "covers.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_float_in_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _float_uses(tree, path.stem)] == []


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


def test_the_check_allows_log2_in_iroot_alone():
    hint = "def _iroot(x, k):\n    return 2 ** ({}(x) / k)\n"
    for imports, name in (("from math import isqrt, log2\n", "log2"), ("import math\n", "math.log2")):
        source = imports + hint.format(name)
        assert not list(_float_uses(ast.parse(source), "partitions"))
        # the same hint in another function, or in another module, is flagged
        elsewhere = source.replace("def _iroot", "def _draw_ones")
        assert list(_float_uses(ast.parse(elsewhere), "partitions"))
        assert list(_float_uses(ast.parse(source), "numth"))
    # _iroot may use log2 and nothing else from math
    other = "from math import log2, sqrt\ndef _iroot(x, k):\n    return sqrt(x) + log2(x)\n"
    assert [what for _, what in _float_uses(ast.parse(other), "partitions")] == [
        "from math import sqrt",
        "math.sqrt as sqrt",
    ]
    nested = "from math import log2\nclass A:\n    def _iroot(self, x):\n        return log2(x)\n"
    assert list(_float_uses(ast.parse(nested), "partitions"))
