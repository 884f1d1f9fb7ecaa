"""What importing the package costs a fresh process.

Every CLI run and every benchmark set-up probe pays the package import, so
the stdlib modules that only rare paths read (the arrangement file format,
the reference tables, the parser, the scan's median) load on first use, and
no record (`@dataclass` or `@record`) leaves its docstring to be built at
import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "rootcovers").glob("*.py"))
# the modules bench/workloads.py imports for every set-up probe
MODULES = ("numth", "arrangements", "partitions", "covers", "tables", "cli")
LOADED_ON_FIRST_USE = ("argparse", "json", "statistics", "importlib.resources")


def test_import_loads_no_first_use_module():
    # -S: no site, so no .pth file preloads a module and hides an import here
    code = "\n".join(
        [
            "import sys",
            *(f"import rootcovers.{name}" for name in MODULES),
            f"print(*(m for m in {LOADED_ON_FIRST_USE!r} if m in sys.modules))",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _is_dataclass(decorator):
    # errors.record calls dataclass, so its records count too
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id in ("dataclass", "record")


def test_every_dataclass_has_a_docstring():
    # dataclass builds a missing docstring from inspect.signature at import
    records, bare = [], []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if any(_is_dataclass(d) for d in cls.decorator_list):
                records.append(cls.name)
                if ast.get_docstring(cls) is None:
                    bare.append(f"{path.stem}.{cls.name}")
    assert len(records) > 20  # the walk sees the package's records
    assert bare == []
