"""Workload inputs, requests and output checks for the rootcovers benchmark.

Inputs come only from the workload seed: each pass of a workload is a
fixed list of requests drawn by `requests(name, sizes, seed, pass_index)`,
and the program sees nothing but those inputs.  A request is one closed-loop
call into the public API (`execute`); its outputs are then checked
(`check`), which returns the record that goes into the result digest.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("numth", "arrangements", "partitions", "covers", "tables", "cli")
DEFAULT_SEED = 1
MAX_TRIES = 200


class MissingProgram(RuntimeError):
    """The checkout holds no rootcovers sources to benchmark."""


class CheckFailed(AssertionError):
    """A request returned, but its output is wrong."""


def load_package() -> SimpleNamespace:
    """Import rootcovers fresh from the checkout's `src/`.

    Any rootcovers module already imported is dropped first, so every call
    gives new module objects with empty caches (the suffix-table
    `lru_cache` in `partitions` lives for the life of its module).
    """
    if not (SRC / "rootcovers" / "__init__.py").is_file():
        raise MissingProgram(f"no rootcovers package under {SRC}")
    for name in [m for m in sys.modules if m == "rootcovers" or m.startswith("rootcovers.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rootcovers")
    if Path(pkg.__file__).resolve().parent != SRC / "rootcovers":
        raise MissingProgram(f"rootcovers was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"rootcovers.{m}") for m in MODULES})


@dataclass(frozen=True)
class Sizes:
    hesse_primes: tuple[int, ...]
    hesse_covers: int  # per prime and pass
    weighted_primes: tuple[int, ...]
    weighted_covers: int
    tables: tuple[str, ...]
    rows: int  # explicit dual-Hesse rows per pass
    row_range: tuple[int, int]
    badsets: int  # bad_set enumerations per pass
    badset_range: tuple[int, int]
    setup_probes: int  # fresh interpreters timed for setup_s


FULL = Sizes(
    hesse_primes=(10103, 61169, 544109, 1000003, 4000037),
    hesse_covers=20,
    weighted_primes=(100003, 200003, 300007),
    weighted_covers=34,
    tables=("remark71a", "remark71b", "section10"),
    rows=93,
    row_range=(10_000, 2_000_000),
    badsets=4,
    badset_range=(1_000_000, 2_000_000),
    setup_probes=15,
)

# Seconds-long version of every workload, for the harness's own test.
SMOKE = Sizes(
    hesse_primes=(10103,),
    hesse_covers=3,
    weighted_primes=(1009, 2003),
    weighted_covers=2,
    tables=("section10",),
    rows=3,
    row_range=(1_000, 20_000),
    badsets=1,
    badset_range=(1_000, 20_000),
    setup_probes=2,
)

WORKLOADS = ("hesse-scan", "weighted-scan", "exact-rows")


# ---------------------------------------------------------------------------
# Set-up: arrangement, log resolution and block systems


def weighted_arrangement(ar):
    """A conic (u = 2, self-intersection 4) and four general lines: 14 nodes."""
    conic = ar.CurveDecl("Q", 0, 4, 1, 2)
    lines = [ar.CurveDecl(f"L{i}", 0, 1, 1, 1) for i in range(1, 5)]
    points = []
    for i in range(1, 5):
        points += [ar.PointDecl(("Q", f"L{i}"))] * 2
    for i in range(1, 5):
        for j in range(i + 1, 5):
            points.append(ar.PointDecl((f"L{i}", f"L{j}")))
    return ar.Arrangement(ar.P2, 1, (conic, *lines), tuple(points))


def setup(rc, name: str, sizes: Sizes) -> SimpleNamespace:
    """Everything a workload builds before its first request."""
    ar = rc.arrangements
    if name == "weighted-scan":
        arrangement, primes = weighted_arrangement(ar), sizes.weighted_primes
    else:
        arrangement = ar.gen_ceva(3)
        primes = sizes.hesse_primes if name == "hesse-scan" else ()
    resolved = ar.resolve(arrangement)
    systems = {p: rc.partitions.system_for(arrangement, p) for p in primes}
    return SimpleNamespace(arrangement=arrangement, resolved=resolved, systems=systems)


# ---------------------------------------------------------------------------
# Inputs from the seed


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _stratified_primes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One prime drawn from each of `count` equal slices of [lo, hi).

    Stratifying keeps the spread of sizes, and so of latencies, nearly the
    same from seed to seed.
    """
    width = (hi - lo) / count
    return [_next_prime(int(lo + (j + rng.random()) * width)) for j in range(count)]


def requests(name: str, sizes: Sizes, seed: int, pass_index: int) -> list[tuple]:
    """The requests of one pass, as plain tuples (kind, *arguments)."""
    rng = random.Random(f"{name}:{seed}:{pass_index}")
    if name in ("hesse-scan", "weighted-scan"):
        if name == "hesse-scan":
            primes, covers = sizes.hesse_primes, sizes.hesse_covers
        else:
            primes, covers = sizes.weighted_primes, sizes.weighted_covers
        return [("cover", p, rng.getrandbits(63)) for _ in range(covers) for p in primes]
    out: list[tuple] = [("table", t) for t in sizes.tables]
    for p in _stratified_primes(rng, sizes.rows, *sizes.row_range):
        out.append(("row", p, rng.choice((1, 2, 3))))
    out += [("badset", p) for p in _stratified_primes(rng, sizes.badsets, *sizes.badset_range)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Requests and their output checks


def execute(rc, ctx, req: tuple):
    """Run one request through the public API and return its raw outputs."""
    kind = req[0]
    if kind == "cover":
        _, p, sample_seed = req
        good = rc.partitions.sample_good(
            ctx.systems[p], ctx.resolved, seed=sample_seed, max_tries=MAX_TRIES
        )
        return good, rc.covers.report(rc.covers.CoverSpec(p, ctx.resolved, good.assignment))
    if kind == "row":
        _, p, m = req
        system = rc.partitions.system_for(ctx.arrangement, p)
        sol = rc.partitions.solution_from_parts(system, [(m,) * 8 + (p - 8 * m,)])
        ma = rc.partitions.assign(ctx.resolved, sol)
        return rc.covers.report(rc.covers.CoverSpec(p, ctx.resolved, ma))
    if kind == "table":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rc.cli.main(["tables", req[1]])
        return code, buf.getvalue()
    if kind == "badset":
        p = req[1]
        members = rc.numth.bad_set(p)
        return len(members), rc.numth.badset_bound_holds(len(members), p)
    raise ValueError(f"unknown request kind {kind!r}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _check_noether(rep) -> None:
    _require(12 * rep.chi == rep.c1_sq + rep.c2, "12 chi != c1^2 + c2")


def check(rc, ctx, req: tuple, out) -> list:
    """Raise CheckFailed unless the outputs are right; return the digest record."""
    kind = req[0]
    if kind == "cover":
        good, rep = out
        p = req[1]
        rc.partitions.validate_solution(ctx.systems[p], good.solution)
        _require(rep.good, "sampled cover is not good")
        _require(rep.bounds_ok, "good cover outside the error-term bounds")
        _check_noether(rep)
        parts = [[good.solution.mu[c] for c in b.curve_ids] for b in ctx.systems[p].blocks]
        return [p, parts, rep.chi, rep.c1_sq, rep.c2, good.tries]
    if kind == "row":
        _check_noether(out)
        return [req[1], req[2], out.chi, out.c1_sq, out.c2]
    if kind == "table":
        code, text = out
        lines = text.splitlines()
        rows = [line for line in lines if line.startswith("row ")]
        _require(code == 0, f"tables {req[1]} exited with {code}")
        _require(bool(rows) and all(" PASS " in line for line in rows), f"tables {req[1]}: a row failed")
        _require(lines[-1] == f"PASS: {len(rows)}/{len(rows)} rows match", f"tables {req[1]}: bad summary")
        return [req[1], text]
    if kind == "badset":
        size, holds = out
        _require(holds, f"|F| = {size} breaks the bound at p = {req[1]}")
        return [req[1], size]
    raise ValueError(f"unknown request kind {kind!r}")
