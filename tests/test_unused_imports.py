"""No dead imports in the package.

Each module of rootcovers other than `__init__` is parsed, not imported, and
every name it imports must be read somewhere in it.  The one exception is a
name that `bench/spans.py` wraps in that module: the traced benchmark
replaces that module attribute, so it must exist even when the module itself
never reads it.
"""

import ast
from pathlib import Path

import pytest

from test_bench_bindings import _load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcovers"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# (module, attribute) pairs that the traced benchmark replaces
WRAPPED = {(mod.removeprefix("rootcovers."), attr) for mod, attr, _, _ in _load_spans().BINDINGS}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = _unused_imports(path)
    dead = {name: line for name, line in unused.items() if (path.stem, name) not in WRAPPED}
    assert not dead, f"{path.name}: unused imports {dead}"


def test_imports_kept_only_for_the_benchmark():
    # report reads every node residue off one numth._node_walk, so covers
    # calls none of its four, and the sampler's Farey filter calls
    # numth._farey_hit with its bounds taken once per walk, so partitions
    # never calls is_farey_neighbour: each is imported only because
    # bench/spans.py binds it there and test_bench_bindings requires every
    # binding to resolve, so each import goes when its binding does
    kept = {(path.stem, name) for path in MODULES for name in _unused_imports(path)}
    assert kept == {
        ("covers", "node_residues"),
        ("covers", "is_good"),
        ("covers", "_ncf_stats"),
        ("covers", "dedekind_fast"),
        ("partitions", "is_farey_neighbour"),
    }
