"""Command-line front end: flows, determinism, exit codes."""

import argparse
import ast
import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from rootcovers import arrangements as ar
from rootcovers import cli
from rootcovers import covers as cv
from rootcovers import numth, partitions, tables
from rootcovers.cli import (
    EXIT_BUDGET,
    EXIT_EXHAUSTED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_TABLE_MISMATCH,
    EXIT_VALIDATION,
    main,
)
from rootcovers.errors import ConsistencyError, NonIntegral


@pytest.fixture
def dual_hesse_file(tmp_path):
    path = tmp_path / "dual_hesse.json"
    assert main(["arrangement", "generate", "ceva", "3", "--out", str(path)]) == EXIT_OK
    return str(path)


def test_generate_writes_canonical_file(dual_hesse_file):
    assert ar.load(dual_hesse_file) == ar.gen_ceva(3)


def test_generate_rejects_composite_pg2(capsys):
    assert main(["arrangement", "generate", "pg2", "4"]) == EXIT_VALIDATION
    assert "prime" in capsys.readouterr().err


def test_generate_param_count(capsys):
    assert main(["arrangement", "generate", "p1xp1", "3"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("general-lines", ["4"], "takes 1 parameter(s): d"),
        ("ceva", ["3"], "takes 1 parameter(s): m"),
        ("pg2", ["3"], "takes 1 parameter(s): m"),
        ("underline-ceva", ["3"], "takes 1 parameter(s): m"),
        ("p1xp1", ["3", "3", "3"], "takes 3 parameter(s): d1 d2 d3"),
    ],
)
def test_every_generator_kind_resolves_in_one_registry(kind, params, message, capsys):
    # the parameter names come from each generator's signature
    gen = ar.GENERATORS[kind]
    assert main(["arrangement", "generate", kind, *params]) == EXIT_OK
    assert capsys.readouterr().out == ar.to_text(gen(*map(int, params)))
    assert main(["arrangement", "generate", kind, *params, "3"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: generator {kind} {message}\n"


def test_generator_registry_serves_the_cli_and_every_table():
    assert sorted(ar.GENERATORS) == ["ceva", "general-lines", "p1xp1", "pg2", "underline-ceva"]
    for name in tables.TABLE_NAMES:
        assert tables.load_table(name)["generator"]["kind"] in ar.GENERATORS


def test_generate_without_out_writes_to_stdout(capsys):
    assert main(["arrangement", "generate", "ceva", "3"]) == EXIT_OK
    assert capsys.readouterr().out == ar.to_text(ar.gen_ceva(3))


def test_info_of_a_degenerate_arrangement(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(ar.to_text(ar.gen_general_lines(3)), encoding="utf-8")
    assert main(["arrangement", "info", "--arrangement", str(path)]) == EXIT_OK
    assert "log ratio undefined (c2 = 0)" in capsys.readouterr().out


def test_info_shows_ratio(dual_hesse_file, capsys):
    assert main(["arrangement", "info", "--arrangement", dual_hesse_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "t_3 = 12" in out
    assert "log ratio = 8/3" in out


def test_validate_runs_diagnostics(dual_hesse_file, capsys):
    assert main(["arrangement", "validate", "--arrangement", dual_hesse_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid" in out and "incidence-bound PASS" in out


def test_validate_reports_named_diagnostic(tmp_path, capsys):
    # hand-build a file with a d-point
    text = ar.to_text(ar.gen_general_lines(3))
    broken = text.replace('["L1", "L2"]', '["L1", "L2", "L3"]', 1)
    path = tmp_path / "broken.json"
    path.write_text(broken)
    assert main(["arrangement", "validate", "--arrangement", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "lies on all" in err


def test_invariants_with_partition_file(dual_hesse_file, tmp_path, capsys):
    part = tmp_path / "row1.txt"
    part.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    code = main([
        "invariants",
        "--arrangement", dual_hesse_file,
        "--p", "61169",
        "--partition", str(part),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "c1^2  = 1441949" in out
    assert "c2    = 733435" in out
    assert "1.966" in out


def test_invariants_refuses_a_partition_file_over_the_size_budget(
    dual_hesse_file, tmp_path, capsys
):
    row = "p 61169\nblock 1 2 3 4 5 6 7 8 61133\n"
    args = ["invariants", "--arrangement", dual_hesse_file, "--p", "61169", "--partition"]
    plain = tmp_path / "row.txt"
    plain.write_text(row)
    assert main([*args, str(plain)]) == EXIT_OK
    want = capsys.readouterr().out
    # pad with comment lines of 999 characters plus a newline up to the budget
    pad = partitions.MAX_PARTITION_CHARS - len(row)
    padding = ("#" * 999 + "\n") * (pad // 1000) + "#" * (pad % 1000)
    padded = tmp_path / "padded.txt"
    padded.write_text(row + padding)
    assert main([*args, str(padded)]) == EXIT_OK
    assert capsys.readouterr().out == want.replace(str(plain), str(padded))
    padded.write_text(row + padding + "#")
    assert main([*args, str(padded)]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error (budget): {padded} is over the budget of "
        f"{partitions.MAX_PARTITION_CHARS} characters\n"
    )


def test_invariants_json_format(dual_hesse_file, tmp_path):
    part = tmp_path / "row.txt"
    part.write_text("p 61169\nblock 6790 6791 6792 6793 6794 6795 6796 6797 6821\n")
    out_file = tmp_path / "report.json"
    code = main([
        "invariants",
        "--arrangement", dual_hesse_file,
        "--p", "61169",
        "--partition", str(part),
        "--format", "json",
        "--out", str(out_file),
    ])
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["c1_sq"] == 1464209 and doc["c2"] == 633619
    assert doc["manifest"]["p"] == 61169


def test_invariants_three_block_partition(tmp_path, capsys):
    arr_path = tmp_path / "u5.json"
    assert main(["arrangement", "generate", "underline-ceva", "5", "--out", str(arr_path)]) == EXIT_OK
    part = tmp_path / "blocks.txt"
    part.write_text(
        "p 61169\n"
        "block 1 307 7031 11109 42721\n"
        "block 589 2007 5007 20001 33565\n"
        "block 1009 3001 13003 17807 26349\n"
    )
    code = main([
        "invariants",
        "--arrangement", str(arr_path),
        "--p", "61169",
        "--partition", str(part),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "c1^2  = 4341016" in out
    assert "c2    = 1595264" in out
    assert "542627/199408" in out


def test_invariants_sampled_good(dual_hesse_file, capsys):
    code = main([
        "invariants",
        "--arrangement", dual_hesse_file,
        "--p", "61169",
        "--seed", "7",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "sampler tries" in out
    assert "good = True" in out


def test_invariants_nonprime_p(dual_hesse_file, capsys):
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "6", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    assert "not prime" in capsys.readouterr().err


def test_invariants_partition_mismatch(dual_hesse_file, tmp_path, capsys):
    part = tmp_path / "bad.txt"
    part.write_text("p 61169\nblock 1 2 3\n")
    code = main([
        "invariants",
        "--arrangement", dual_hesse_file,
        "--p", "61169",
        "--partition", str(part),
    ])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "extra, message",
    [(["--partition", "row.txt", "--seed", "1"], "not both"), ([], "need --partition")],
    ids=["both", "neither"],
)
def test_invariants_needs_exactly_one_of_partition_and_seed(
    extra, message, dual_hesse_file, capsys
):
    code = main(["invariants", "--arrangement", dual_hesse_file, "--p", "61169", *extra])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("how", [["--seed", "1"], ["--partition", "row.txt"]])
def test_invariants_refuses_cover_data_with_no_pth_root(how, tmp_path, monkeypatch, capsys):
    # three lines of one block with u = 97, 89, 83 pass validate, but every
    # solution of 97 a + 89 b + 83 c = p leaves B = sum nu_i L_i with
    # B.L1 = a + b + c, not 0 mod p: no cover exists, so this is bad input
    monkeypatch.chdir(tmp_path)
    three = ar.Arrangement(
        ar.P2,
        1,
        tuple(ar.CurveDecl(f"L{i}", 0, 1, 1, u) for i, u in enumerate((97, 89, 83), 1)),
        tuple(ar.PointDecl(pair) for pair in (("L1", "L2"), ("L1", "L3"), ("L2", "L3"))),
    )
    Path("three.json").write_text(ar.to_text(three), encoding="utf-8")
    (tmp_path / "row.txt").write_text("p 10007\nblock 1 47 69\n")
    code = main(["invariants", "--arrangement", "three.json", "--p", "10007", *how])
    partitions._quasi_polynomials.cache_clear()  # 2,164,474 cells for --seed
    assert code == EXIT_VALIDATION
    assert "B.L1 = " in capsys.readouterr().err


def test_invariants_exhausted(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    main(["arrangement", "generate", "general-lines", "3", "--out", str(tri)])
    code = main([
        "invariants",
        "--arrangement", str(tri),
        "--p", "17",
        "--seed", "1",
        "--max-tries", "5",
    ])
    assert code == EXIT_EXHAUSTED


@pytest.mark.parametrize(
    "which,rows", [("remark71a", 9), ("remark71b", 16), ("section10", 1)]
)
def test_tables_all_pass(which, rows, capsys):
    assert main(["tables", which]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(" PASS ") == rows
    assert f"PASS: {rows}/{rows} rows match" in out


def test_unknown_table_name():
    from rootcovers import tables as tb

    with pytest.raises(ValueError, match="unknown table"):
        tb.load_table("nope")


def test_tables_detect_mismatch(monkeypatch, capsys):
    # corrupt one expected value in the loaded document
    from rootcovers import tables as tb

    real = tb.load_table

    def corrupted(name):
        doc = real(name)
        doc["rows"][0]["c1_sq"] += 1
        return doc

    monkeypatch.setattr(tb, "load_table", corrupted)
    assert main(["tables", "remark71a"]) == EXIT_TABLE_MISMATCH
    out = capsys.readouterr().out
    assert "FAIL" in out and "expected" in out


def test_scan_csv_deterministic(dual_hesse_file, tmp_path, capsys):
    out1 = tmp_path / "scan.csv"
    argv = [
        "scan",
        "--arrangement", dual_hesse_file,
        "--primes", "61169",
        "--samples", "2",
        "--seed", "9",
        "--out", str(out1),
    ]
    assert main(argv) == EXIT_OK
    first = out1.read_bytes()
    assert main(argv) == EXIT_OK
    assert first == out1.read_bytes()
    body = out1.read_text()
    assert "p,sample,seed,tries,partition,chi,c1_sq,c2,ratio_c,ratio_chi,good" in body
    assert body.count("61169,") >= 2
    summary = capsys.readouterr().out
    assert "median=" in summary


def test_scan_rejects_degenerate(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    main(["arrangement", "generate", "general-lines", "3", "--out", str(tri)])
    code = main([
        "scan", "--arrangement", str(tri), "--primes", "61169",
        "--samples", "1", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION


def test_scan_prime_range_parsing(dual_hesse_file, tmp_path, capsys):
    code = main([
        "scan",
        "--arrangement", dual_hesse_file,
        "--primes", "97-102,61169",
        "--samples", "1",
        "--seed", "3",
        "--max-tries", "4",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == EXIT_OK
    summary = capsys.readouterr().out
    assert "skipped" in summary  # the small primes exhaust their tries


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_scan_rejects_nonpositive_samples(dual_hesse_file, capsys, samples):
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", "61169",
        "--samples", samples, "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    assert "at least 1 sample" in capsys.readouterr().err


def test_scan_without_primes(dual_hesse_file, capsys):
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", ",",
        "--samples", "1", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    assert "no primes given" in capsys.readouterr().err


def test_scan_prime_range_too_wide(dual_hesse_file, capsys):
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", "10000000000-10002000000",
        "--samples", "1", "--seed", "1",
    ])
    assert code == EXIT_BUDGET
    assert "prime range" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ConsistencyError, NonIntegral])
def test_internal_error_has_own_exit_code(dual_hesse_file, monkeypatch, capsys, error):
    def broken(spec):
        raise error("routes disagree")

    monkeypatch.setattr(cv, "report", broken)
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "61169", "--seed", "1",
    ])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error" in err and "routes disagree" in err


def _break_farey_route(route, monkeypatch):
    """Make the sampler pass every node, or report flip every verdict."""
    if route == "sampler":
        monkeypatch.setattr(partitions, "_farey_hit", lambda q, p, droot, bound: False)
        return
    real = cv._node_walk

    def walk(*args):
        hit, *rest = real(*args)
        return (not hit, *rest)

    monkeypatch.setattr(cv, "_node_walk", walk)


@pytest.mark.parametrize("route", ["sampler", "report"])
@pytest.mark.parametrize(
    "command",
    [
        ["invariants", "--p", "61169", "--seed", "1"],
        ["scan", "--primes", "10103,61169", "--samples", "3", "--seed", "1"],
    ],
    ids=["invariants", "scan"],
)
def test_a_sampled_cover_that_reports_bad_exits_as_internal_error(
    route, command, dual_hesse_file, monkeypatch, capsys
):
    _break_farey_route(route, monkeypatch)
    code = main([*command, "--arrangement", dual_hesse_file])
    assert code == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"internal error \(a bug, not bad input\): node \S+-\S+ \(q=\d+\) of a sampled "
        r"cover: the sampler's Farey walk found it good, report's found it in the bad set\n",
        captured.err,
    )


def test_a_partition_file_is_reported_bad_as_it_is(dual_hesse_file, tmp_path, capsys):
    partition = tmp_path / "row.txt"
    partition.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "61169",
        "--partition", str(partition),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "good = False\n" in out and "offending nodes: " in out


def test_main_builds_its_parser_at_most_once(monkeypatch, capsys):
    calls = []
    real = cli.build_parser

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["numth", "length", "5", "7"]) == EXIT_OK
    assert main(["numth", "mod-inverse", "3", "7"]) == EXIT_OK
    assert capsys.readouterr().out == "3\n5\n"
    assert len(calls) <= 1
    assert cli.build_parser() is not cli.build_parser()


def test_scan_nonprime_rejected(dual_hesse_file, capsys):
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", "100",
        "--samples", "1", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION


# psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
PSI_12 = "318665857834031151167461"


def test_invariants_and_scan_refuse_psi_12(dual_hesse_file, capsys):
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", PSI_12, "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    assert f"--p {PSI_12} is not prime" in capsys.readouterr().err
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", PSI_12,
        "--samples", "1", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    assert f"{PSI_12} is not prime" in capsys.readouterr().err


def test_invariants_refuses_p_past_the_witness_bound(dual_hesse_file, capsys):
    code = main([
        "invariants", "--arrangement", dual_hesse_file,
        "--p", "3317044064679887385961981", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "exceeds the deterministic witness bound" in err
    assert "Traceback" not in err


def test_badset_stats_and_list(capsys):
    assert main(["badset", "--p", "1009"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "|F| = 183" in out
    assert "holds: True" in out
    assert main(["badset", "--p", "17", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    members = out.split("members: ")[1].split()
    from rootcovers.numth import is_farey_neighbour

    assert [int(q) for q in members] == [q for q in range(17) if is_farey_neighbour(q, 17)]


def test_badset_budget(capsys):
    assert main(["badset", "--p", "982451653"]) == EXIT_BUDGET


def test_badset_member_budget_refuses_at_once(capsys):
    # |F| could reach all 9999991 residues; refused before any is enumerated
    start = perf_counter()
    assert main(["badset", "--p", "9999991", "--C", "1000"]) == EXIT_BUDGET
    assert perf_counter() - start < 0.5
    assert "budget" in capsys.readouterr().err


def test_crowded_arrangement_file_is_refused_at_once(tmp_path, capsys):
    # written by hand: building this over-budget Arrangement would raise
    ids = [f"L{i}" for i in range(2000)]
    crowded = {
        "format": "arrangement/1",
        "surface": {"name": "P2", "c1_sq": 9, "c2": 3},
        "blocks": 1,
        "flags": {"line_arrangement": False},
        "curves": [{"id": c, "genus": 0, "self_int": 1, "block": 1, "u": 1} for c in ids],
        "points": [ids[1:]],
    }
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps(crowded))
    for action in ("info", "validate"):
        start = perf_counter()
        assert main(["arrangement", action, "--arrangement", str(path)]) == EXIT_BUDGET
        assert perf_counter() - start < 0.5
    assert "curve pairs" in capsys.readouterr().err


def test_wrong_ncf_sum_exits_as_internal_error(dual_hesse_file, tmp_path, monkeypatch, capsys):
    real = cv._node_walk

    def walk(*args):
        hit, f, length, e_sum, inverse = real(*args)
        return hit, f, length, e_sum + 1, inverse

    monkeypatch.setattr(cv, "_node_walk", walk)
    partition = tmp_path / "row.txt"
    partition.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "61169",
        "--partition", str(partition),
    ])
    assert code == EXIT_INTERNAL
    assert "error-term identity" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["f", "e_sum", "inverse"])
def test_wrong_value_on_a_shared_residue_exits_as_internal_error(
    dual_hesse_file, tmp_path, monkeypatch, capsys, field
):
    # (2, ..., 2, p - 16) has 36 nodes and 3 residues; p - 3 is shared by 24
    # of them and walked once, so corrupting that one walk must still show,
    # q' included, which the walk yields in place of pow(q, -1, p)
    real = cv._node_walk
    index = ("hit", "f", "length", "e_sum", "inverse").index(field)

    def walk(q, *args):
        result = list(real(q, *args))
        if q == 61169 - 3:
            result[index] += 1
        return tuple(result)

    monkeypatch.setattr(cv, "_node_walk", walk)
    partition = tmp_path / "row.txt"
    partition.write_text("p 61169\nblock 2 2 2 2 2 2 2 2 61153\n")
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "61169",
        "--partition", str(partition),
    ])
    assert code == EXIT_INTERNAL
    assert "error-term identity" in capsys.readouterr().err


def test_inconsistent_suffix_counts_exit_as_internal_error(tmp_path, monkeypatch, capsys):
    # u = (1, 2, 3) has no all-ones tail, so the sampler's last part is the
    # remainder over u = 3; a level shifted by one leaves one it cannot take
    monkeypatch.chdir(tmp_path)
    three = ar.Arrangement(
        ar.P2,
        1,
        tuple(ar.CurveDecl(f"L{i}", 0, 1, 1, u) for i, u in enumerate((1, 2, 3), 1)),
        tuple(ar.PointDecl(pair) for pair in (("L1", "L2"), ("L1", "L3"), ("L2", "L3"))),
    )
    Path("three.json").write_text(ar.to_text(three), encoding="utf-8")
    real = partitions._quasi_polynomials

    def shifted(u):
        first, second, *rest = real(u)
        return (first, dataclasses.replace(second, sigma=second.sigma + 1), *rest)

    monkeypatch.setattr(partitions, "_quasi_polynomials", shifted)
    code = main(["invariants", "--arrangement", "three.json", "--p", "10007", "--seed", "1"])
    assert code == EXIT_INTERNAL
    assert "remainder not attainable" in capsys.readouterr().err


def test_undecided_badset_bound_exits_as_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(numth, "log_enclosure", lambda x, terms: (0, 10**9))
    assert main(["badset", "--p", "1009"]) == EXIT_INTERNAL
    assert "failed to separate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariants", "--p", "61169", "--partition", "x", "--seed", "1"], "not both"),
        (["invariants", "--p", "61169"], "need --partition"),
        (["invariants", "--p", "61169", "--seed", "1", "--C", "0"], "C must be positive"),
        (["scan", "--primes", "61169", "--seed", "1", "--C", "0"], "C must be positive"),
        (["invariants", "--p", "61169", "--seed", "1", "--max-tries", "0"],
         "max_tries must be >= 1"),
        (["scan", "--primes", "61169", "--seed", "1", "--samples", "0"],
         "need at least 1 sample per prime, got 0"),
        (["scan", "--primes", "61169", "--seed", "1", "--max-tries", "0"],
         "max_tries must be >= 1"),
    ],
    ids=["both", "neither", "invariants-C", "scan-C", "invariants-max-tries",
         "scan-samples", "scan-max-tries"],
)
def test_flags_are_checked_before_the_arrangement_is_read(argv, message, tmp_path, capsys):
    code = main([*argv, "--arrangement", str(tmp_path / "missing.json")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_scan_checks_C_before_parsing_primes(dual_hesse_file, monkeypatch, capsys):
    # a range of primes can take up to 10^6 primality tests to parse
    ranges = []
    monkeypatch.setattr(numth, "primes_between", lambda lo, hi: ranges.append((lo, hi)) or [])
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", "2-1000000",
        "--seed", "1", "--C", "0",
    ])
    assert code == EXIT_VALIDATION and ranges == []
    assert "C must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--samples", "0"], "need at least 1 sample per prime, got 0"),
        (["--max-tries", "0"], "max_tries must be >= 1"),
    ],
)
def test_scan_checks_samples_and_tries_before_parsing_primes(
    flag, message, dual_hesse_file, monkeypatch, capsys
):
    def forbidden(lo, hi):
        pytest.fail(f"--primes range {lo}-{hi} parsed before the flags were checked")

    monkeypatch.setattr(numth, "primes_between", forbidden)
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", "2-1000000",
        "--seed", "1", *flag,
    ])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    ["5-", "-5", "a", "1e3", "0x11", "7-11-13", "1" * 5000],
    ids=["5-", "-5", "a", "1e3", "0x11", "7-11-13", "5000-digits"],
)
def test_scan_names_an_unparsable_primes_entry(entry, dual_hesse_file, capsys):
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", f"10103, {entry}", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: --primes entry {entry!r} is not a prime or a range lo-hi\n"
    )


def test_invariants_ignores_max_tries_with_a_partition_file(dual_hesse_file, tmp_path, capsys):
    part = tmp_path / "row1.txt"
    part.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "61169",
        "--partition", str(part), "--max-tries", "0",
    ])
    assert code == EXIT_OK
    assert "c1^2/c2" in capsys.readouterr().out


def test_scan_skips_a_prime_with_no_solution(dual_hesse_file, tmp_path, capsys):
    # 5 is below the dual Hesse block's minimal sum 9: the samples at 10103 stay
    path = tmp_path / "s.csv"
    argv = ["scan", "--arrangement", dual_hesse_file, "--samples", "2", "--seed", "7"]
    assert main([*argv, "--primes", "10103,5", "--out", str(path)]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "p=5 skipped: p=5 is below the minimal block sum 9" in summary
    rows = [line for line in path.read_text().splitlines() if line[:1].isdigit()]
    assert [row.split(",")[0] for row in rows] == ["10103", "10103"]
    alone = tmp_path / "alone.csv"
    assert main([*argv, "--primes", "10103", "--out", str(alone)]) == EXIT_OK
    assert rows == [line for line in alone.read_text().splitlines() if line[:1].isdigit()]
    assert main([*argv, "--primes", "2-20"]) == EXIT_OK
    err = capsys.readouterr().err
    assert all(f"p={p} skipped: p={p} is below" in err for p in (2, 3, 5, 7))


@pytest.mark.parametrize("p", ["4", "1", "0", "-5", "3027"])
def test_badset_rejects_nonprime(p, capsys):
    assert main(["badset", "--p", p]) == EXIT_VALIDATION
    assert f"--p {p} is not prime" in capsys.readouterr().err


def test_numth_ncf_budget(capsys):
    # p/(p-1) = [2, 2, ..., 2] has p - 1 terms; only its O(log p) length is computed
    assert main(["numth", "ncf", "999999999988", "999999999989"]) == EXIT_BUDGET
    assert "more than" in capsys.readouterr().err
    assert main(["numth", "length", "999999999988", "999999999989"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "999999999988"


def test_numth_ncf_budget_million_terms(capsys, monkeypatch):
    # 1000003/1000002 = [2, 2, ..., 2] has 1,000,002 terms: refused before any is built
    start = perf_counter()
    assert main(["numth", "ncf", "1000002", "1000003"]) == EXIT_BUDGET
    assert perf_counter() - start < 1.0
    assert "more than 1000000 terms" in capsys.readouterr().err
    assert main(["numth", "ncf", "3", "5"]) == EXIT_OK
    assert "length = 2" in capsys.readouterr().out
    # the bound itself still prints: 5/4 = [2, 2, 2, 2] has 4 terms
    monkeypatch.setattr(numth, "MAX_NCF_LENGTH", 4)
    assert main(["numth", "ncf", "4", "5"]) == EXIT_OK
    assert "length = 4" in capsys.readouterr().out
    assert main(["numth", "ncf", "5", "6"]) == EXIT_BUDGET
    capsys.readouterr()


@pytest.mark.parametrize("content", ["[" * 100_000, '{"blocks": ' + "9" * 5000 + "}"],
                         ids=["deep", "huge-int"])
def test_unreadable_arrangement_json_exits_2(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    for argv in (
        ["arrangement", "info"],
        ["invariants", "--p", "101", "--seed", "1"],
        ["scan", "--primes", "101", "--seed", "1"],
    ):
        assert main([*argv, "--arrangement", str(path)]) == EXIT_VALIDATION
    assert "Traceback" not in capsys.readouterr().err


def test_generate_over_budget(capsys):
    # 10^10 points: refused before any is built
    assert main(["arrangement", "generate", "ceva", "100000"]) == EXIT_BUDGET
    assert main(["arrangement", "generate", "pg2", "1009"]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


_EDGE_CASES = [
    # --C: unparsable values and those with more than 4300 digits above or below
    # the bar are argparse usage errors, C <= 0 a validation error, and a huge C
    # makes every node bad (invariants exhausts its tries, scan skips p)
    *[
        (cmd, ["--C", C], code)
        for C, codes in (
            ("0", (EXIT_VALIDATION,) * 4),
            ("-1", (EXIT_VALIDATION,) * 4),
            ("abc", (EXIT_VALIDATION,) * 4),
            ("1/0", (EXIT_VALIDATION,) * 4),
            ("1e4300", (EXIT_VALIDATION,) * 4),
            ("1e-5000", (EXIT_VALIDATION,) * 4),
            (str(10**12), (EXIT_EXHAUSTED, EXIT_OK, EXIT_OK, EXIT_OK)),
        )
        for cmd, code in zip(("invariants", "scan", "badset", "numth"), codes)
    ],
    *[
        (cmd, ["--p", p], code)
        for p, codes in (
            ("0", (EXIT_VALIDATION,) * 3),
            ("4", (EXIT_VALIDATION,) * 3),
            ("10000019", (EXIT_OK, EXIT_OK, EXIT_BUDGET)),
        )
        for cmd, code in zip(("invariants", "scan", "badset"), codes)
    ],
    ("invariants", ["--max-tries", "0"], EXIT_VALIDATION),
    ("scan", ["--max-tries", "0"], EXIT_VALIDATION),
    ("scan", ["--samples", "0"], EXIT_VALIDATION),
    # --primes entries that are neither an integer nor a range lo-hi
    *[
        ("scan", ["--primes", entry], EXIT_VALIDATION)
        for entry in ("5-", "-5", "a", "1e3", "0x11", "7-11-13")
    ],
]


def _edge_argv(cmd, edge, arrangement):
    """A valid command line for cmd with the edge value swapped in."""
    args = {
        "invariants": ["--arrangement", arrangement, "--p", "10103", "--seed", "1"],
        "scan": ["--arrangement", arrangement, "--primes", "10103", "--seed", "1",
                 "--samples", "1"],
        "badset": ["--p", "101"],
        "numth": ["farey", "1", "101"],
    }[cmd]
    flag, value = edge
    if flag == "--p" and cmd == "scan":
        flag = "--primes"
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    return [cmd, *args]


@pytest.mark.parametrize(
    "cmd, edge, code", _EDGE_CASES, ids=[f"{c}{e[0]}={e[1]}" for c, e, _ in _EDGE_CASES]
)
def test_edge_values_exit_cleanly(cmd, edge, code, dual_hesse_file, capsys):
    try:
        got = main(_edge_argv(cmd, edge, dual_hesse_file))
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    assert got == code
    assert "Traceback" not in capsys.readouterr().err


# flags.line_arrangement in an arrangement file: a JSON boolean, or no key
# (false); any other value is refused, however a truth test would read it
_NO_FLAG = object()
_LINE_FLAG_EDGES = [
    *[(value, EXIT_VALIDATION) for value in ("false", "no", 0, 1, None, [])],
    (True, EXIT_OK),
    (False, EXIT_OK),
    (_NO_FLAG, EXIT_OK),
]


@pytest.mark.parametrize("action", ["validate", "info"])
@pytest.mark.parametrize(
    "value, code", _LINE_FLAG_EDGES,
    ids=["missing" if v is _NO_FLAG else json.dumps(v) for v, _ in _LINE_FLAG_EDGES],
)
def test_line_arrangement_flag_edges(value, code, action, tmp_path, capsys):
    # ceva(3) is a line arrangement: only a true flag runs its diagnostics
    doc = json.loads(ar.to_text(ar.gen_ceva(3)))
    del doc["flags"]["line_arrangement"]
    if value is not _NO_FLAG:
        doc["flags"]["line_arrangement"] = value
    path = tmp_path / "ceva3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["arrangement", action, "--arrangement", str(path)]) == code
    out, err = capsys.readouterr()
    if code == EXIT_VALIDATION:
        assert err == "error: field 'line_arrangement' in flags must be bool\n"
    else:
        assert ("ratio-cap" in out) == (value is True and action == "validate")


def test_long_rational_refused_before_it_is_built():
    # Fraction("1e9999999") alone computes 10**9999999, about 10 s; past
    # MAX_C_DIGITS digits above or below the bar, C cannot be printed either
    start = perf_counter()
    for text in ("1e9999999", "1e99999999", "1e4300", "1e-5000", "-1E+9_999_999"):
        with pytest.raises(argparse.ArgumentTypeError, match="more than 4300 digits"):
            cli._parse_rational(text)
    assert perf_counter() - start < 1.0
    for text, value in (("3/2", Fraction(3, 2)), ("0.5", Fraction(1, 2)), ("1e3", 1000),
                        ("1e4299", 10**4299), ("5e-4300", Fraction(1, 2 * 10**4299))):
        assert cli._parse_rational(text) == value


def test_badset_density_decreasing(capsys):
    densities = []
    for p in (101, 1009, 10103):
        assert main(["badset", "--p", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        count = int(out.split("|F| = ")[1].splitlines()[0])
        densities.append(count / p)
    assert densities[0] > densities[1] > densities[2]


def test_numth_debug_surface(capsys):
    assert main(["numth", "mod-inverse", "3", "7"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"
    assert main(["numth", "ncf", "3", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "e = [2, 3]" in out and "length = 2" in out
    assert main(["numth", "ncf-eval", "2", "3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5/3"
    assert main(["numth", "dedekind", "5", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("-1/14") == 3
    assert main(["numth", "farey", "50", "101"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "True"
    assert main(["numth", "canonical", "3", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2/1"
    assert main(["numth", "rcf-total", "3", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "4"
    assert main(["numth", "ncf-eval", "2", "1", "3"]) == EXIT_VALIDATION
    assert main(["numth", "length", "3"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_manifest_reruns_byte_identical(dual_hesse_file, tmp_path):
    part = tmp_path / "row.txt"
    part.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    path = tmp_path / "report.csv"
    argv = [
        "invariants",
        "--arrangement", dual_hesse_file,
        "--p", "61169",
        "--partition", str(part),
        "--format", "csv",
        "--out", str(path),
    ]
    assert main(argv) == EXIT_OK
    first = path.read_bytes()
    assert main(argv) == EXIT_OK
    assert first == path.read_bytes()
    assert b"# manifest" in first


def _count_validate(monkeypatch) -> list:
    """Record every arrangements.validate call from now on, construction's included."""
    calls = []
    real = ar.validate

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(ar, "validate", counted)
    return calls


def _command_lines(tmp_path):
    hesse = tmp_path / "hesse.json"
    pencil = tmp_path / "underline.json"
    part = tmp_path / "row.txt"
    assert main(["arrangement", "generate", "ceva", "3", "--out", str(hesse)]) == EXIT_OK
    assert main(["arrangement", "generate", "underline-ceva", "3", "--out", str(pencil)]) == EXIT_OK
    part.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    return {
        "validate-lines": ["arrangement", "validate", "--arrangement", str(hesse)],
        "validate-curves": ["arrangement", "validate", "--arrangement", str(pencil)],
        "info": ["arrangement", "info", "--arrangement", str(hesse)],
        "invariants-partition": ["invariants", "--arrangement", str(hesse), "--p", "61169",
                                 "--partition", str(part)],
        "invariants-seed": ["invariants", "--arrangement", str(hesse), "--p", "61169",
                            "--seed", "1"],
        "scan": ["scan", "--arrangement", str(hesse), "--primes", "10103,61169",
                 "--samples", "2", "--seed", "1"],
        "tables": ["tables", "remark71a"],
    }


@pytest.mark.parametrize(
    "command",
    ["validate-lines", "validate-curves", "info", "invariants-partition",
     "invariants-seed", "scan", "tables"],
)
def test_each_command_validates_its_arrangement_once(command, tmp_path, monkeypatch, capsys):
    argv = _command_lines(tmp_path)[command]
    calls = _count_validate(monkeypatch)
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


def test_consumers_do_not_revalidate_a_built_arrangement(monkeypatch):
    from rootcovers import tables

    hesse, pencil = ar.gen_ceva(3), ar.gen_underline_ceva(3)
    calls = _count_validate(monkeypatch)
    for a in (hesse, pencil):
        ar.resolve(a)
        ar.log_chern_direct(a)
    ar.diagnostics(hesse)
    cv.convergence_scan(hesse, [10103], samples_per_prime=2, seed=1)
    assert calls == []
    tables.run_table("section10")  # builds its arrangement, then reuses it
    assert len(calls) == 1


def test_sampling_budget_refuses_tries_times_nodes_at_once(tmp_path, capsys):
    # gen_ceva(80) resolves to 3*80^2 + 3*80 = 19,440 nodes: 100 tries need 1,944,000 checks
    big = tmp_path / "ceva80.json"
    assert main(["arrangement", "generate", "ceva", "80", "--out", str(big)]) == EXIT_OK
    start = perf_counter()
    code = main(["invariants", "--arrangement", str(big), "--p", "1000003", "--seed", "1"])
    assert code == EXIT_BUDGET
    assert perf_counter() - start < 0.5
    assert "node checks" in capsys.readouterr().err
    hesse = tmp_path / "hesse.json"
    assert main(["arrangement", "generate", "ceva", "3", "--out", str(hesse)]) == EXIT_OK
    assert main(["invariants", "--arrangement", str(hesse), "--p", "61169", "--seed", "1",
                 "--max-tries", "500"]) == EXIT_OK


@pytest.mark.parametrize("values", [("2", "4"), ("6", "9")])
def test_dedekind_of_non_coprime_input_is_a_validation_error(values, capsys):
    assert main(["numth", "dedekind", *values]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "gcd" in err and "internal error" not in err


@pytest.mark.parametrize(
    "op, q, p, g", [("ncf", "2", "4", 2), ("ncf", "6", "9", 3), ("length", "2", "4", 2)]
)
def test_ncf_of_non_coprime_input_is_a_validation_error(op, q, p, g, capsys):
    # the chain of p/q with gcd g > 1 ends at g, not at 1
    assert main(["numth", op, q, p]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need gcd(q, p) = 1, got gcd({q}, {p}) = {g}\n"


def test_dedekind_of_coprime_non_prime_modulus_runs(capsys):
    assert main(["numth", "dedekind", "3", "10"]) == EXIT_OK
    assert capsys.readouterr().out.count("= 0/1") == 3


@pytest.mark.parametrize("p", ["10007", "1000003"])
def test_suffix_cell_budget_refuses_a_large_lcm_block_at_once(p, tmp_path, capsys):
    # three lines with u = (229, 227, 223): lcm(u) len(u) alone is 34,776,627 cells
    path = tmp_path / "weighted.json"
    curves = tuple(ar.CurveDecl(f"L{i}", 0, 1, 1, w) for i, w in enumerate((229, 227, 223)))
    points = tuple(ar.PointDecl(pair) for pair in (("L0", "L1"), ("L0", "L2"), ("L1", "L2")))
    path.write_text(ar.to_text(ar.Arrangement(ar.P2, 1, curves, points)), encoding="utf-8")
    start = perf_counter()
    code = main(["invariants", "--arrangement", str(path), "--p", p, "--seed", "1"])
    assert code == EXIT_BUDGET
    assert perf_counter() - start < 0.5
    assert "suffix counts of 34878092 cells" in capsys.readouterr().err


def test_scan_budget_refuses_primes_times_samples_before_sampling(
    dual_hesse_file, monkeypatch, capsys
):
    start = perf_counter()
    code = main(["scan", "--arrangement", dual_hesse_file, "--primes", "10103,61169",
                 "--samples", str(cv.MAX_SCAN_SAMPLES // 2 + 1), "--seed", "1"])
    assert code == EXIT_BUDGET
    assert perf_counter() - start < 0.5
    assert "samples; the budget is" in capsys.readouterr().err
    monkeypatch.setattr(cv, "MAX_SCAN_SAMPLES", 4)
    argv = ["scan", "--arrangement", dual_hesse_file, "--primes", "10103,61169",
            "--seed", "1", "--samples"]
    assert main([*argv, "2"]) == EXIT_OK
    assert main([*argv, "3"]) == EXIT_BUDGET
    capsys.readouterr()


def test_scan_node_check_budget_bounds_the_tries_of_skipped_primes(
    dual_hesse_file, monkeypatch, capsys
):
    # primes 11-100 are 21 primes, dual Hesse resolves to 36 nodes, and every
    # prime is skipped: each spends all its tries
    argv = ["scan", "--arrangement", dual_hesse_file, "--primes", "11-100", "--samples", "1",
            "--seed", "1", "--max-tries"]
    start = perf_counter()
    assert main([*argv, str(cv.MAX_SCAN_NODE_CHECKS // (21 * 36) + 1)]) == EXIT_BUDGET
    assert perf_counter() - start < 0.5
    assert "21 primes x" in capsys.readouterr().err
    monkeypatch.setattr(cv, "MAX_SCAN_NODE_CHECKS", 21 * 36 * 5)
    assert main([*argv, "5"]) == EXIT_OK
    assert "p=97 skipped" in capsys.readouterr().err
    assert main([*argv, "6"]) == EXIT_BUDGET
    assert "node checks; the budget is 3780" in capsys.readouterr().err


def test_scan_without_out_writes_its_summary_to_stderr(dual_hesse_file, tmp_path, capsys):
    argv = ["scan", "--arrangement", dual_hesse_file, "--primes", "97-102,10103",
            "--samples", "1", "--seed", "3", "--max-tries", "4"]
    assert main(argv) == EXIT_OK
    streamed = capsys.readouterr()
    path = tmp_path / "s.csv"
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    written = capsys.readouterr()
    assert streamed.err == written.out
    assert "p=97 skipped" in streamed.err and "p=101 skipped" in streamed.err
    manifest_out = f"# manifest out={path}\n"
    assert streamed.out == path.read_text().replace(manifest_out, "")


# Two valid inputs at the edge of the invariants: three disjoint rulings of
# P1xP1 (no nodes, so no error terms; c2 = 0 at p = 3) and three disjoint
# elliptic curves on a surface with c1^2 = c2 = 0 (c2 = chi = 0 at every p).
_DEGENERATE = {
    "p1xp1-no-nodes": (
        {"name": "P1xP1", "c1_sq": 8, "c2": 4},
        [{"id": f"A{i}", "genus": 0, "self_int": 0, "block": 1, "u": 1} for i in range(3)],
    ),
    "exe-no-nodes": (
        {"name": "ExE", "c1_sq": 0, "c2": 0},
        [{"id": f"G{i}", "genus": 1, "self_int": 0, "block": 1, "u": 1} for i in range(3)],
    ),
}


def _write_degenerate(name, directory):
    surface, curves = _DEGENERATE[name]
    doc = {"format": "arrangement/1", "surface": surface, "blocks": 1,
           "flags": {"line_arrangement": False}, "curves": curves, "points": []}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _degenerate_runs():
    for name in _DEGENERATE:
        for action in ("info", "validate"):
            yield name, ["arrangement", action], None
        for p in (3, 13, 101):
            for how in ("--partition", "--seed"):
                for fmt in ("table", "csv", "json"):
                    yield name, ["invariants", "--p", str(p), how, "--format", fmt], p
            yield name, ["scan", "--primes", str(p), "--seed", "1", "--samples", "2"], p


_DEGENERATE_RUNS = list(_degenerate_runs())


@pytest.mark.parametrize(
    "name, argv, p", _DEGENERATE_RUNS,
    ids=[":".join([name, *(arg.lstrip("-") for arg in argv)]) for name, argv, _ in _DEGENERATE_RUNS],
)
def test_no_input_produces_a_traceback(name, argv, p, tmp_path, capsys):
    argv = list(argv)
    arrangement = _write_degenerate(name, tmp_path)
    if "--partition" in argv:
        part = tmp_path / "part.txt"
        part.write_text(f"p {p}\nblock 1 1 {p - 2}\n")
        argv.insert(argv.index("--partition") + 1, str(part))
    elif "--seed" in argv and argv[0] == "invariants":
        argv.insert(argv.index("--seed") + 1, "1")
    try:
        code = main([*argv, "--arrangement", arrangement])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_EXHAUSTED)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("p", ["13", "101"])
def test_a_cover_with_no_nodes_has_its_bounds_hold(p, tmp_path, capsys):
    arrangement = _write_degenerate("p1xp1-no-nodes", tmp_path)
    assert main(["invariants", "--arrangement", arrangement, "--p", p, "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "good = True\nerror bounds hold = True\n" in out


@pytest.mark.parametrize(
    "fmt, shown",
    [
        ("table", "c1^2/c2  = undefined (c2 = 0)\nc1^2/chi = undefined (chi = 0)\n"),
        ("csv", "\n13,1+2+10,0,0,0,,,True,\n"),
        ("json", '"ratio_c": null,\n  "ratio_chi": null\n'),
    ],
    ids=["table", "csv", "json"],
)
def test_invariants_prints_an_undefined_ratio(fmt, shown, tmp_path, capsys):
    arrangement = _write_degenerate("exe-no-nodes", tmp_path)
    part = tmp_path / "part.txt"
    part.write_text("p 13\nblock 1 2 10\n")
    argv = ["invariants", "--arrangement", arrangement, "--p", "13",
            "--partition", str(part), "--format", fmt]
    assert main(argv) == EXIT_OK
    assert shown in capsys.readouterr().out


def test_scan_skips_a_prime_whose_sample_has_c2_zero(tmp_path, capsys):
    arrangement = _write_degenerate("p1xp1-no-nodes", tmp_path)
    argv = ["scan", "--arrangement", arrangement, "--primes", "3,5,7", "--seed", "1",
            "--samples", "2"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert not [line for line in captured.out.splitlines() if line.startswith("3,")]
    assert "p=3 skipped: sample 0 has c2 = 0, so c1^2/c2 is undefined" in captured.err
    assert "p=5 samples=2" in captured.err and "p=7 samples=2" in captured.err


@pytest.mark.parametrize("op", ["mod-inverse", "canonical", "dedekind"])
def test_a_residue_sharing_a_factor_with_p_gets_one_message(op, capsys):
    assert main(["numth", op, "2", "4"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: need gcd(q, p) = 1, got gcd(2, 4) = 2\n"


def _enclosing_functions(tree):
    """(qualified name, node) of every function in a module, classes included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                yield from walk(child, f"{name}.")
    yield from walk(tree, "")


def test_only_finish_and_main_write_to_the_streams():
    # handlers fill the _Output that main hands them; main writes it and the errors
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = set()
    for name, func in _enclosing_functions(tree):
        for node in ast.walk(func):
            stream = (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                      and isinstance(node.value, ast.Name) and node.value.id == "sys")
            printed = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id == "print")
            if stream or printed:
                writers.add(name)
    assert writers == {"_Output.finish", "main"}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_every_leaf_parser_picks_its_handler_and_ends_with_out():
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert sorted(leaves) == [
        "arrangement generate", "arrangement info", "arrangement validate",
        "badset", "invariants", "numth", "scan", "tables",
    ]
    for name, leaf in leaves.items():
        assert callable(leaf._defaults.get("run")), name
        assert leaf._actions[-1].option_strings == ["--out"], name


@pytest.mark.parametrize("command", ["badset", "scan"])
def test_out_naming_a_directory_exits_2_before_writing(command, dual_hesse_file, tmp_path, capsys):
    argv = {
        "badset": ["badset", "--p", "1009", "--list"],
        "scan": ["scan", "--arrangement", dual_hesse_file, "--primes", "97-102,10103",
                 "--samples", "1", "--seed", "3", "--max-tries", "4"],
    }[command]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_rcf_total_refuses_a_fraction_not_in_lowest_terms(capsys):
    assert main(["numth", "rcf-total", "4", "6"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: 4/6 is not in lowest terms\n"
