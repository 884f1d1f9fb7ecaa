"""No dead private helpers in the package.

Each module of rootcovers is parsed, not imported.  A name that a module
defines at its top level with one leading underscore (`_x`, not `__x__`) is
private to the package, so something in `src/rootcovers` must read it: a
name load or an attribute access outside the definition itself (a
recursive call does not count).  A helper that only the tests call belongs
with the tests (`tests/oracles.py`), not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcovers"
MODULES = sorted(SRC.glob("*.py"))


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _private_definitions():
    """(module, name, defining node, every top-level node of the package)."""
    found, tops = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tops += tree.body
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    found.append((path.stem, name, node))
    return found, tops


def test_every_private_name_is_read_in_the_package():
    found, tops = _private_definitions()
    assert len(found) > 20  # the walk sees the package's helpers
    unread = [
        f"{module}.{name}"
        for module, name, own in found
        if not any(name in set(_reads(top)) for top in tops if top is not own)
    ]
    assert not unread, f"private names never read in src/rootcovers: {unread}"
