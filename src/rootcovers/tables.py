"""Built-in reference tables and the machinery to re-run them.

Each table bundles an arrangement generator (its `kind` a key of
`arrangements.GENERATORS`, its other keys that generator's parameters), a
prime (or one per row), and explicit partitions with their expected
invariants.  `run_table` recomputes every row from scratch and reports
computed vs expected; the CLI `tables` subcommand turns this into a
PASS/FAIL listing with a nonzero exit status on any mismatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .arrangements import GENERATORS, resolve
from .covers import CoverSpec, report, truncate_decimal
from .partitions import assign, solution_from_parts, system_for

__all__ = ["TABLE_NAMES", "TableRow", "TableRun", "load_table", "run_table"]

TABLE_NAMES = ("remark71a", "remark71b", "section10")


def load_table(name: str) -> dict:
    if name not in TABLE_NAMES:
        raise ValueError(f"unknown table {name!r}; choose from {TABLE_NAMES}")
    text = resources.files("rootcovers.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class TableRow:
    index: int
    p: int
    parts: tuple[tuple[int, ...], ...]
    expected: dict
    computed: dict

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


@dataclass(frozen=True)
class TableRun:
    name: str
    title: str
    rows: tuple[TableRow, ...]


def run_table(name: str) -> TableRun:
    """Recompute one reference table row by row."""
    doc = load_table(name)
    params = dict(doc["generator"])
    arrangement = GENERATORS[params.pop("kind")](**params)
    resolved = resolve(arrangement)
    decimals = doc.get("decimals", 3)
    rows = []
    for index, row in enumerate(doc["rows"], start=1):
        p = row.get("p", doc.get("p"))
        parts = tuple(tuple(block) for block in row["parts"])
        sysd = system_for(arrangement, p)
        sol = solution_from_parts(sysd, parts)
        rep = report(CoverSpec(p, resolved, assign(resolved, sol)))
        values = {
            "c1_sq": rep.c1_sq,
            "c2": rep.c2,
            "ratio_c": truncate_decimal(rep.ratio_c, decimals),
            "ratio_chi": truncate_decimal(rep.ratio_chi, decimals),
            "ratio_c_exact": f"{rep.ratio_c.numerator}/{rep.ratio_c.denominator}",
        }
        expected = {key: row[key] for key in values if key in row}
        computed = {key: values[key] for key in expected}
        rows.append(TableRow(index, p, parts, expected, computed))
    return TableRun(name, doc.get("title", name), tuple(rows))
