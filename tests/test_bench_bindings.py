"""The benchmark's spans wrap module attributes by name; each must exist.

`bench/` sits outside the tier-1 test paths, so a refactor that renames or
deletes a wrapped function would otherwise pass here and only show up as an
absent metric in `python3 -m pytest bench`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves_to_a_callable():
    bindings = _load_spans().BINDINGS
    assert bindings
    for module_name, attr, _, _ in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
