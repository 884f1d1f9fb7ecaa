"""In-memory spans around the public functions of each rootcovers layer.

`Tracer.install` replaces each function at the binding its callers look it
up through (a module attribute read at call time), so no source file is
edited: `is_good` finds `partitions.is_farey_neighbour`, `report` finds
`covers._ncf_stats`, `cli` finds `tables.run_table`, and so on.  A span is
[name, start, end, parent index, request id, value, error]; self time is a
span's duration minus that of its direct children (one thread, so children
never overlap).  A binding that no longer exists is reported as missing,
and every metric that needs it is left out instead of being guessed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _suffix_key(args, result):
    u, target = args[:2]
    return [list(u), target]


# (module, attribute, span name, value kept from (args, result))
BINDINGS = (
    ("rootcovers.partitions", "is_farey_neighbour", "numth.is_farey_neighbour", lambda a, r: r),
    ("rootcovers.covers", "_ncf_stats", "numth.ncf_stats", lambda a, r: r[0]),
    ("rootcovers.covers", "dedekind_fast", "numth.dedekind_fast", None),
    ("rootcovers.numth", "bad_set", "numth.bad_set", lambda a, r: len(r)),
    ("rootcovers.arrangements", "resolve", "arrangements.resolve", None),
    ("rootcovers.tables", "resolve", "arrangements.resolve", None),
    ("rootcovers.arrangements", "validate", "arrangements.validate", None),
    ("rootcovers.partitions", "sample_good", "partitions.sample_good", lambda a, r: r.tries),
    ("rootcovers.partitions", "_suffix_counts", "partitions.suffix_counts", _suffix_key),
    ("rootcovers.partitions", "assign", "partitions.assign", None),
    ("rootcovers.tables", "assign", "partitions.assign", None),
    ("rootcovers.partitions", "node_residues", "partitions.node_residues", None),
    ("rootcovers.covers", "node_residues", "partitions.node_residues", None),
    ("rootcovers.partitions", "is_good", "partitions.is_good", lambda a, r: r.good),
    ("rootcovers.covers", "is_good", "partitions.is_good", lambda a, r: r.good),
    ("rootcovers.covers", "report", "covers.report", lambda a, r: r.error_terms.lcf),
    ("rootcovers.tables", "report", "covers.report", lambda a, r: r.error_terms.lcf),
    ("rootcovers.tables", "run_table", "tables.run_table", None),
    ("rootcovers.cli", "main", "cli.main", None),
)

NAME, START, END, PARENT, REQUEST, VALUE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None  # id stamped on every span opened from now on
        self.missing: set[str] = set()  # span names with a binding not found
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every binding of the currently imported rootcovers modules."""
        for module_name, attr, name, keep in BINDINGS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if not callable(fn):
                self.missing.add(name)
                print(f"trace: binding {module_name}.{attr} is missing", file=sys.stderr)
                continue
            setattr(sys.modules[module_name], attr, self._wrap(name, fn, keep))

    def _wrap(self, name, fn, keep):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if keep is not None:
                span[VALUE] = keep(args, result)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "value", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# (metric name, unit, span names it needs)
LAYER_METRICS = (
    ("numth.is_farey_neighbour.calls", "count", ("numth.is_farey_neighbour",)),
    ("numth.is_farey_neighbour.self_s", "s", ("numth.is_farey_neighbour",)),
    ("numth.is_farey_neighbour.hit_frac", "fraction", ("numth.is_farey_neighbour",)),
    ("covers.report.calls", "count", ("covers.report",)),
    ("covers.report.self_s", "s", ("covers.report",)),
    ("covers.report.goodness_s", "s", ("covers.report", "partitions.is_good")),
    ("covers.report.lcf_total", "count", ("covers.report",)),
    ("partitions.tries", "count", ("partitions.sample_good",)),
    ("partitions.good_frac", "fraction", ("partitions.sample_good",)),
    ("partitions.reject.exceptional", "count", ("partitions.sample_good", "partitions.assign")),
    ("partitions.reject.bad_node", "count", ("partitions.sample_good", "partitions.is_good")),
    ("partitions.assign.calls", "count", ("partitions.assign",)),
    ("partitions.node_residues.calls", "count", ("partitions.node_residues",)),
    ("partitions.is_good.calls", "count", ("partitions.is_good",)),
    ("partitions.sample_good.self_s", "s", ("partitions.sample_good",)),
    ("partitions.suffix_cells", "count", ("partitions.suffix_counts",)),
    ("numth.ncf_stats.calls", "count", ("numth.ncf_stats",)),
    ("numth.ncf_stats.steps", "count", ("numth.ncf_stats",)),
    ("numth.ncf_stats.self_s", "s", ("numth.ncf_stats",)),
    ("numth.bad_set.calls", "count", ("numth.bad_set",)),
    ("numth.bad_set.self_s", "s", ("numth.bad_set",)),
    ("numth.bad_set.members", "count", ("numth.bad_set",)),
    ("numth.dedekind_fast.calls", "count", ("numth.dedekind_fast",)),
    ("numth.dedekind_fast.self_s", "s", ("numth.dedekind_fast",)),
    ("arrangements.resolve.self_s", "s", ("arrangements.resolve",)),
    ("arrangements.validate.calls", "count", ("arrangements.validate",)),
    ("tables.run_table.self_s", "s", ("tables.run_table",)),
    ("cli.main.self_s", "s", ("cli.main",)),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of LAYER_METRICS whose bindings were all found."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    values: dict[str, list] = defaultdict(list)
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += span[END] - span[START] - child_time[i]
        if span[VALUE] is not None:  # None: no value kept, or the call raised
            values[name].append(span[VALUE])

    def parent_name(span):
        return spans[span[PARENT]][NAME] if span[PARENT] is not None else None

    def under(name, parent):
        return [s for s in spans if s[NAME] == name and parent_name(s) == parent]

    farey = values["numth.is_farey_neighbour"]
    tries = sum(values["partitions.sample_good"])
    cells = {(tuple(u), t): len(u) * (t + 1) for u, t in values["partitions.suffix_counts"]}
    derived = {
        "numth.is_farey_neighbour.hit_frac": sum(map(bool, farey)) / len(farey) if farey else 0.0,
        "covers.report.goodness_s": sum(
            s[END] - s[START] for s in under("partitions.is_good", "covers.report")
        ),
        "covers.report.lcf_total": sum(values["covers.report"]),
        "partitions.tries": tries,
        "partitions.good_frac": len(values["partitions.sample_good"]) / tries if tries else 0.0,
        "partitions.reject.exceptional": sum(
            s[ERROR] == "ExceptionalVanishes"
            for s in under("partitions.assign", "partitions.sample_good")
        ),
        "partitions.reject.bad_node": sum(
            s[VALUE] is False for s in under("partitions.is_good", "partitions.sample_good")
        ),
        "partitions.suffix_cells": sum(cells.values()),
        "numth.ncf_stats.steps": sum(values["numth.ncf_stats"]),
        "numth.bad_set.members": sum(values["numth.bad_set"]),
    }
    out = {}
    for metric, _unit, needs in LAYER_METRICS:
        if any(name in tracer.missing for name in needs):
            continue
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        else:
            out[metric] = self_s[metric[: -len(".self_s")]]
    return out
