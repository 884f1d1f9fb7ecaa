"""No public module name that nothing reads.

The module-level twin of test_public_members.  Each module of rootcovers is
parsed, not imported.  Every name in a module's `__all__` must be read (a
name load or an attribute access) somewhere in `src/`, `demos/` or
`bench/`, outside its own definition, or be a binding that the traced
benchmark replaces by name (`bench/spans.py`).  A name that only the tests
call belongs with the tests, which can make the call it stands for.
"""

import ast

from test_bench_bindings import _load_spans
from test_private_names import _defined_names
from test_public_members import PACKAGE, READERS

# (module, attribute) pairs that the traced benchmark replaces
WRAPPED = {(mod.removeprefix("rootcovers."), attr) for mod, attr, _, _ in _load_spans().BINDINGS}


def _exported():
    """(module, name, the top-level nodes that define it) for each `__all__` entry."""
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if "__all__" not in _defined_names(top):
                continue
            for name in ast.literal_eval(top.value):
                own = [node for node in tree.body if name in _defined_names(node)]
                assert own, f"{path.stem}.__all__ names {name!r}, which it does not define"
                yield path.stem, name, own


def _reads():
    """(name, node) for every name load and attribute read in the readers."""
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, node
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, node


def test_every_exported_name_is_read_outside_the_tests():
    reads = list(_reads())
    exported = list(_exported())
    assert len(exported) > 50  # the walk sees every module's __all__
    unread = []
    for module, name, own in exported:
        if (module, name) in WRAPPED:
            continue
        inside = {id(node) for top in own for node in ast.walk(top)}
        if not any(read == name and id(node) not in inside for read, node in reads):
            unread.append(f"{module}.{name}")
    assert not unread, f"__all__ names read only by tests, if at all: {unread}"
