"""No record field that nothing reads.

The field twin of test_public_members.  Each module of rootcovers is
parsed, not imported.  Every annotated field of a class the package
decorates with `record` or `dataclass` must be read as an attribute
(`x.name`) somewhere in `src/`, `demos/` or `bench/`, outside its own class
body.  A field that only the tests read restates what its record already
stores, and the tests can derive it instead.  Reads on the name `args` do
not count: the CLI's parsed options share names with fields (`args.kind`
once hid a field that only the tests read).  The few kept on purpose are
listed in ALLOWED with the reason.
"""

import ast

from test_public_members import PACKAGE, READERS

DECORATORS = {"record", "dataclass"}

ALLOWED = {
    "NodeResidue.pair": "bench/spans.py binds node_residues; it moves to the tests with "
                        "ROADMAP item 1",
    "NodeResidue.q": "bench/spans.py binds node_residues; it moves to the tests with "
                     "ROADMAP item 1",
}


def _decorator_name(node):
    return getattr(node.func if isinstance(node, ast.Call) else node, "id", None)


def _record_fields():
    """(Class.field, class node) for every annotated field of a record."""
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if not DECORATORS & {_decorator_name(d) for d in cls.decorator_list}:
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield f"{cls.name}.{node.target.id}", cls


def _attribute_reads():
    """(attribute name, node) for every attribute read in the readers,
    except those on the name `args`."""
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    yield node.attr, node


def _unread():
    reads = list(_attribute_reads())
    fields = list(_record_fields())
    assert len(fields) > 50  # the walk sees the package's records
    unread = []
    for qualified, own in fields:
        inside = {id(node) for node in ast.walk(own)}
        name = qualified.split(".")[1]
        if not any(attr == name and id(node) not in inside for attr, node in reads):
            unread.append(qualified)
    return unread


def test_every_record_field_is_read_outside_the_tests():
    unread = [name for name in _unread() if name not in ALLOWED]
    assert not unread, f"record fields read only by tests, if at all: {unread}"


def test_every_allowed_field_is_still_unread():
    # an entry whose field is gone, or now read, no longer needs its reason
    assert sorted(ALLOWED) == sorted(name for name in _unread() if name in ALLOWED)
