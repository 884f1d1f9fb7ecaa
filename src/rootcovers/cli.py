"""Command-line front end.

Subcommands
-----------
arrangement generate|info|validate   work with arrangement files
invariants                           one cover: exact chi, c1^2, c2, ratios
tables                               re-run a built-in reference table
scan                                 good-sample ratios across primes (CSV)
badset                               Farey bad-set statistics or members
numth                                debug access to the exact kernels

Handlers only compute: each fills the `_Output` that `main` hands it, and
`main` writes it once the handler returns.  The result goes to --out, or
to stdout without it; the notes (scan's per-prime summary) follow it, on
stdout when the result went to --out and on stderr when it went to
stdout; errors go to stderr.  Every emitted result embeds its run
manifest (command, inputs, seed, C, tool version), and reruns with the
same manifest produce byte-identical output.  Exit codes: 0 ok, 2
validation/parse, 3 budget, 4 sampling exhausted, 5 table mismatch, 6
internal error (a failed cross-check: a bug, never bad input).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from fractions import Fraction

from . import __version__
from . import arrangements as arr
from . import covers, numth, partitions, tables
from .errors import (
    BudgetError,
    ConsistencyError,
    ExhaustedTries,
    RootCoversError,
    ValidationError,
)
from .numth import FareyConfig, bad_set, badset_bound_holds, is_prime

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_EXHAUSTED = 4
EXIT_TABLE_MISMATCH = 5
EXIT_INTERNAL = 6


def _parse_rational(text: str) -> Fraction:
    # argparse turns only ArgumentTypeError/ValueError into a usage error (exit 2)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}") from exc


def _fr(x: Fraction | None) -> str | None:
    """n/d, or None for a ratio whose denominator is 0."""
    if x is None:
        return None
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


class _Output:
    """A command's result lines and the notes that follow them."""

    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []
        self.notes: list[str] = []

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def finish(self) -> None:
        """Write the result to --out or stdout, then the notes after it: on
        stdout when the result went to --out, else on stderr."""
        text = "\n".join(self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
            notes_to = sys.stdout
        else:
            sys.stdout.write(text)
            notes_to = sys.stderr
        if self.notes:
            notes_to.write("\n".join(self.notes) + "\n")


def _manifest_lines(args, command: str, extra: dict | None = None) -> list[str]:
    entries = {
        "command": command,
        "version": __version__,
    }
    for key in ("arrangement", "p", "partition", "seed", "C", "samples",
                "max_tries", "primes", "out"):
        value = getattr(args, key, None)
        if value is not None:
            entries[key] = value
    if extra:
        entries.update({k: v for k, v in extra.items() if v is not None})
    return [f"# manifest {key}={entries[key]}" for key in sorted(entries)]


# ---------------------------------------------------------------------------
# arrangement subcommand


def _cmd_generate(args, out: _Output) -> int:
    gen = arr.GENERATORS[args.kind]
    names = inspect.signature(gen).parameters
    if len(args.params) != len(names):
        raise ValidationError(
            "bad-params",
            f"generator {args.kind} takes {len(names)} parameter(s): {' '.join(names)}",
        )
    out.emit(arr.to_text(gen(*args.params)).removesuffix("\n"))
    return EXIT_OK


def _cmd_validate(args, out: _Output) -> int:
    a = arr.load(args.arrangement)
    out.emit(f"arrangement {args.arrangement}: valid",
             f"d={a.d} blocks={a.blocks} points={len(a.points)}")
    if a.line_arrangement:
        diag = arr.diagnostics(a)
        out.emit(
            "incidence-bound "
            f"{'PASS' if diag.incidence_holds else 'FAIL'} "
            f"(t2+3/4*t3 = {_fr(diag.incidence_lhs)}, floor = {_fr(diag.incidence_rhs)})",
            f"pair-floor {'PASS' if diag.pair_floor_holds else 'FAIL'}",
            f"ratio-cap {'PASS' if diag.ratio_bound_holds else 'FAIL'}",
        )
    return EXIT_OK


def _cmd_info(args, out: _Output) -> int:
    a = arr.load(args.arrangement)
    lc = arr.log_chern_direct(a)
    out.emit(
        f"surface: {a.surface.name} (c1^2={a.surface.c1_sq}, c2={a.surface.c2})",
        f"curves: d={a.d} in {a.blocks} block(s)",
        *(f"t_{n} = {tn}" for n, tn in sorted(a.data.t.items())),
        f"log c1^2 = {lc.c1bar_sq}",
        f"log c2   = {lc.c2bar}",
    )
    if lc.c2bar != 0:
        out.emit(
            f"log ratio = {_fr(lc.ratio)} "
            f"({covers.truncate_decimal(lc.ratio, 3)}...)"
        )
    else:
        out.emit("log ratio undefined (c2 = 0)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariants subcommand


def _partition_text(parts) -> str:
    return "|".join("+".join(str(x) for x in block) for block in parts)


def _cmd_invariants(args, out: _Output) -> int:
    if not is_prime(args.p):
        raise ValidationError("p-prime", f"--p {args.p} is not prime")
    config = FareyConfig(args.C)
    if args.partition and args.seed is not None:
        raise ValidationError(
            "partition-or-seed", "give --partition FILE or --seed N, not both"
        )
    if not args.partition and args.seed is None:
        raise ValidationError("no-partition", "need --partition FILE or --seed N")
    if args.seed is not None and args.max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    a = arr.load(args.arrangement)
    resolved = arr.resolve(a)
    sysd = partitions.system_for(a, args.p)
    if args.partition:
        budget = partitions.MAX_PARTITION_CHARS
        with open(args.partition, encoding="utf-8") as fh:
            text = fh.read(budget + 1)
        if len(text) > budget:
            raise BudgetError(f"{args.partition} is over the budget of {budget} characters")
        sol = partitions.solution_from_text(sysd, text)
        ma, tries, report = partitions.assign(resolved, sol), None, covers.report
    else:
        good = partitions.sample_good(
            sysd, resolved, seed=args.seed, max_tries=args.max_tries, config=config
        )
        sol, ma, tries = good.solution, good.assignment, good.tries
        report = covers._sampled_report
    rep = report(covers.CoverSpec(args.p, resolved, ma, config))
    parts = partitions.solution_parts(sysd, sol)

    manifest = _manifest_lines(args, "invariants", {"tries": tries})
    if args.format == "csv":
        out.emit(
            *manifest,
            "p,partition,chi,c1_sq,c2,ratio_c,ratio_chi,good,tries",
            f"{args.p},{_partition_text(parts)},{rep.chi},{rep.c1_sq},{rep.c2},"
            f"{_fr(rep.ratio_c) or ''},{_fr(rep.ratio_chi) or ''},{rep.good},"
            f"{'' if tries is None else tries}"
        )
    elif args.format == "json":
        import json

        doc = {
            "manifest": {"command": "invariants", "version": __version__,
                         "arrangement": args.arrangement, "p": args.p,
                         "partition": args.partition, "seed": args.seed,
                         "C": str(Fraction(args.C)), "tries": tries},
            "parts": [list(b) for b in parts],
            "chi": rep.chi,
            "c1_sq": rep.c1_sq,
            "c2": rep.c2,
            "ratio_c": _fr(rep.ratio_c),
            "ratio_chi": _fr(rep.ratio_chi),
            "good": rep.good,
            "bounds_ok": rep.bounds_ok,
        }
        out.emit(json.dumps(doc, indent=2, sort_keys=True))
    else:
        out.emit(*manifest, f"p = {args.p}", f"partition = {_partition_text(parts)}")
        if tries is not None:
            out.emit(f"sampler tries = {tries}")
        out.emit(f"chi   = {rep.chi}", f"c1^2  = {rep.c1_sq}", f"c2    = {rep.c2}")
        for den, ratio in (("c2", rep.ratio_c), ("chi", rep.ratio_chi)):
            if ratio is None:
                shown = f"undefined ({den} = 0)"
            else:
                shown = f"{_fr(ratio)} ({covers.truncate_decimal(ratio, 3)}...)"
            out.emit(f"c1^2/{den:<3} = {shown}")
        out.emit(f"good = {rep.good}", f"error bounds hold = {rep.bounds_ok}")
        if not rep.good:
            shown = ", ".join(
                f"{i}-{j}: q={q}" for (i, j), q in rep.offending[:6]
            )
            more = len(rep.offending) - 6
            out.emit(f"offending nodes: {shown}" + (f" (+{more} more)" if more > 0 else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables subcommand


def _cmd_tables(args, out: _Output) -> int:
    run = tables.run_table(args.which)
    out.emit(f"# table {run.name}: {run.title}")
    failures = sum(not row.ok for row in run.rows)
    for row in run.rows:
        status = "PASS" if row.ok else "FAIL"
        detail = " ".join(
            f"{key}={row.computed[key]}(expected {row.expected[key]})"
            if row.computed[key] != row.expected[key]
            else f"{key}={row.computed[key]}"
            for key in sorted(row.expected)
        )
        out.emit(
            f"row {row.index:2d} p={row.p} {status} "
            f"{_partition_text(row.parts)} {detail}"
        )
    out.emit(f"{'PASS' if failures == 0 else 'FAIL'}: {len(run.rows) - failures}/{len(run.rows)} rows match")
    return EXIT_OK if failures == 0 else EXIT_TABLE_MISMATCH


# ---------------------------------------------------------------------------
# scan subcommand


def _parse_primes(text: str) -> list[int]:
    primes: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo_s, hi_s = chunk.split("-", 1)
            primes.extend(numth.primes_between(int(lo_s), int(hi_s)))
        else:
            value = int(chunk)
            if not is_prime(value):
                raise ValidationError("p-prime", f"{value} is not prime")
            primes.append(value)
    if not primes:
        raise ValidationError("no-primes", "no primes given")
    return primes


def _cmd_scan(args, out: _Output) -> int:
    config = FareyConfig(args.C)
    if args.samples < 1:
        raise ValueError(f"need at least 1 sample per prime, got {args.samples}")
    if args.max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    a = arr.load(args.arrangement)
    primes = _parse_primes(args.primes)
    result = covers.convergence_scan(
        a,
        primes,
        samples_per_prime=args.samples,
        seed=args.seed,
        config=config,
        max_tries=args.max_tries,
    )
    out.emit(
        *_manifest_lines(args, "scan", {"log_ratio": _fr(result.log_ratio)}),
        "p,sample,seed,tries,partition,chi,c1_sq,c2,ratio_c,ratio_chi,good",
    )
    for s in result.samples:
        rep = s.report
        out.emit(
            f"{s.p},{s.index},{s.seed},{s.tries},{_partition_text(s.parts)},"
            f"{rep.chi},{rep.c1_sq},{rep.c2},{_fr(rep.ratio_c)},"
            f"{_fr(rep.ratio_chi) or ''},{rep.good}"
        )
    out.notes += (
        f"p={s.p} samples={s.samples} "
        f"min={covers.truncate_decimal(s.ratio_min, 3)} "
        f"median={covers.truncate_decimal(s.ratio_median, 3)} "
        f"max={covers.truncate_decimal(s.ratio_max, 3)} "
        f"|median-log|={covers.truncate_decimal(s.gap, 4)}"
        for s in result.summaries
    )
    out.notes += (f"p={p} skipped: {reason}" for p, reason in result.skipped)
    return EXIT_OK


# ---------------------------------------------------------------------------
# numth subcommand (debug surface over the exact kernels)


def _cmd_numth(args, out: _Output) -> int:
    op, vals = args.op, args.values
    config = FareyConfig(args.C)
    if op == "ncf-eval":  # any number of partial quotients
        out.emit(_fr(numth.ncf_eval(vals)))
        return EXIT_OK
    if len(vals) != 2:
        raise ValidationError("bad-params", f"{op} takes 2 integer(s)")
    q, p = vals
    if op == "mod-inverse":
        out.emit(str(numth.mod_inverse(q, p)))
    elif op == "ncf":
        exp = numth.ncf_expand(q, p)
        out.emit(f"e = {list(exp.e)}", f"b = {list(exp.b)}", f"length = {exp.length}")
    elif op == "length":
        out.emit(str(numth.ncf_length(q, p)))
    elif op == "canonical":
        out.emit(_fr(numth.canonical_part(q, p)))
    elif op == "dedekind":
        fast = numth.dedekind_fast(q, p)
        chain = numth.dedekind_from_ncf(q, p)
        out.emit(f"fast  = {_fr(fast)}", f"chain = {_fr(chain)}")
        if p <= 100_000:
            out.emit(f"brute = {_fr(numth.dedekind_brute(q, p))}")
    elif op == "rcf-total":
        out.emit(str(numth.rcf_total(q, p)))
    elif op == "farey":
        out.emit(str(numth.is_farey_neighbour(q, p, config)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# badset subcommand


def _cmd_badset(args, out: _Output) -> int:
    if not is_prime(args.p):
        raise ValidationError("p-prime", f"--p {args.p} is not prime")
    config = FareyConfig(args.C)
    members = bad_set(args.p, config)
    holds = badset_bound_holds(len(members), args.p, config)
    density = Fraction(len(members), args.p)
    out.emit(
        *_manifest_lines(args, "badset", {"count": len(members)}),
        f"p = {args.p}",
        f"|F| = {len(members)}",
        f"bound C*sqrt(p)*(log p + 2 log 2) holds: {holds}",
        f"density = {_fr(density)} ({covers.truncate_decimal(density, 4)}...)",
    )
    if args.list:
        out.emit("members: " + " ".join(str(q) for q in sorted(members)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootcovers",
        description="Exact Chern invariants of cyclic root covers of curve arrangements",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("arrangement", help="generate, inspect, or validate arrangement files")
    pa_sub = pa.add_subparsers(dest="action", required=True)
    pg = pa_sub.add_parser("generate", help="write a built-in arrangement")
    pg.set_defaults(run=_cmd_generate)
    pg.add_argument("kind", choices=sorted(arr.GENERATORS))
    pg.add_argument("params", nargs="*", type=int)
    for action, run in (("info", _cmd_info), ("validate", _cmd_validate)):
        px = pa_sub.add_parser(action)
        px.set_defaults(run=run)
        px.add_argument("--arrangement", required=True)

    pi = sub.add_parser("invariants", help="exact invariants of one cover")
    pi.set_defaults(run=_cmd_invariants)
    pi.add_argument("--arrangement", required=True)
    pi.add_argument("--p", type=int, required=True)
    pi.add_argument("--partition", default=None, help="partition file")
    pi.add_argument("--seed", type=int, default=None, help="sample a good partition")
    pi.add_argument("--C", type=_parse_rational, default=Fraction(1))
    pi.add_argument("--max-tries", type=int, default=100)
    pi.add_argument("--format", choices=("table", "csv", "json"), default="table")

    pt = sub.add_parser("tables", help="re-run a built-in reference table")
    pt.set_defaults(run=_cmd_tables)
    pt.add_argument("which", choices=tables.TABLE_NAMES)

    ps = sub.add_parser("scan", help="good-sample ratio scan across primes")
    ps.set_defaults(run=_cmd_scan)
    ps.add_argument("--arrangement", required=True)
    ps.add_argument("--primes", required=True,
                    help="comma list; ranges like 80-110 take all primes inside")
    ps.add_argument("--samples", type=int, default=5)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--C", type=_parse_rational, default=Fraction(1))
    ps.add_argument("--max-tries", type=int, default=200)

    pb = sub.add_parser("badset", help="Farey bad-set statistics")
    pb.set_defaults(run=_cmd_badset)
    pb.add_argument("--p", type=int, required=True)
    pb.add_argument("--C", type=_parse_rational, default=Fraction(1))
    pb.add_argument("--list", action="store_true")

    pn = sub.add_parser("numth", help="debug access to the exact kernels")
    pn.set_defaults(run=_cmd_numth)
    pn.add_argument(
        "op",
        choices=(
            "mod-inverse", "ncf", "ncf-eval", "length", "canonical",
            "dedekind", "rcf-total", "farey",
        ),
    )
    pn.add_argument("values", nargs="+", type=int)
    pn.add_argument("--C", type=_parse_rational, default=Fraction(1))

    for leaf in (*pa_sub.choices.values(), pi, pt, ps, pb, pn):
        leaf.add_argument("--out", default=None)  # last, as each usage line shows it
    return parser


_parser: argparse.ArgumentParser | None = None  # main's, built on its first call


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    The parser picks the handler and the handler fills an `_Output`;
    main then writes it (the result to --out or stdout, the notes after
    it) and reports any error on stderr.  Nothing is written before the
    handler returns, and an unwritable --out exits 2.

    The parser is built on the first call, not at import, and reused by
    every later call in the process; build_parser() still returns a fresh
    one.  Each subcommand's handler is bound by set_defaults(run=...) when
    the parser is built, so a `_cmd_*` function replaced after the first
    call is not the one that runs.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    out = _Output(args.out)
    try:
        code = args.run(args, out)
        out.finish()
        return code
    except BudgetError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ExhaustedTries as exc:
        print(f"error (sampling): {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ConsistencyError as exc:
        print(f"internal error (a bug, not bad input): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RootCoversError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
