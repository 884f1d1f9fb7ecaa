"""No public class member that nothing reads.

Each module of rootcovers is parsed, not imported.  A public method or
property (no leading underscore) of a class the package defines must be
read as an attribute (`x.name`) somewhere in `src/`, `demos/` or `bench/`,
outside its own definition.  A member that only the tests read restates
what its object already stores, and the tests can read that instead.  The
few kept on purpose are listed in ALLOWED with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "rootcovers").glob("*.py"))
READERS = sorted(
    path for folder in ("src", "demos", "bench") for path in (ROOT / folder).rglob("*.py")
)

ALLOWED = {
    "ErrorTerms.scf": "the paper's rational error term, which the oracle tests compare against",
    "ErrorTerms.ccf": "the paper's rational error term, which the oracle tests compare against",
    "_SuffixCount.cells": "the stored cell count that the benchmark's suffix-table span will read",
}


def _public_members():
    """(Class.member, defining node) for every public method and property."""
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        yield f"{cls.name}.{node.name}", node


def _attribute_reads():
    """(attribute name, node) for every attribute read in the readers."""
    for path in READERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, node


def _unread():
    reads = list(_attribute_reads())
    members = list(_public_members())
    assert len(members) > 10  # the walk sees the package's classes
    unread = []
    for qualified, own in members:
        inside = {id(node) for node in ast.walk(own)}
        name = qualified.split(".")[1]
        if not any(attr == name and id(node) not in inside for attr, node in reads):
            unread.append(qualified)
    return unread


def test_every_public_member_is_read_outside_the_tests():
    unread = [name for name in _unread() if name not in ALLOWED]
    assert not unread, f"public members read only by tests, if at all: {unread}"


def test_every_allowed_member_is_still_unread():
    # an entry whose member is gone, or now read, no longer needs its reason
    assert sorted(ALLOWED) == sorted(name for name in _unread() if name in ALLOWED)
