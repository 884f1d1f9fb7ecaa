"""Command-line front end: flows, determinism, exit codes."""

import json
from time import perf_counter

import pytest

from rootcovers import arrangements as ar
from rootcovers import covers as cv
from rootcovers import numth
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


def test_scan_nonprime_rejected(dual_hesse_file, capsys):
    code = main([
        "scan", "--arrangement", dual_hesse_file, "--primes", "100",
        "--samples", "1", "--seed", "1",
    ])
    assert code == EXIT_VALIDATION


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
    real = cv._ncf_stats
    monkeypatch.setattr(cv, "_ncf_stats", lambda q, p: (real(q, p)[0], real(q, p)[1] + 1))
    partition = tmp_path / "row.txt"
    partition.write_text("p 61169\nblock 1 2 3 4 5 6 7 8 61133\n")
    code = main([
        "invariants", "--arrangement", dual_hesse_file, "--p", "61169",
        "--partition", str(partition),
    ])
    assert code == EXIT_INTERNAL
    assert "error-term identity" in capsys.readouterr().err


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
    # --C: unparsable values are argparse usage errors, C <= 0 a validation error,
    # and a huge C makes every node bad (invariants exhausts its tries, scan skips p)
    *[
        (cmd, ["--C", C], code)
        for C, codes in (
            ("0", (EXIT_VALIDATION,) * 4),
            ("-1", (EXIT_VALIDATION,) * 4),
            ("abc", (EXIT_VALIDATION,) * 4),
            ("1/0", (EXIT_VALIDATION,) * 4),
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
    assert main(["numth", "ncf-eval", "2", "1", "3"]) == EXIT_VALIDATION
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


def test_dedekind_of_coprime_non_prime_modulus_runs(capsys):
    assert main(["numth", "dedekind", "3", "10"]) == EXIT_OK
    assert capsys.readouterr().out.count("= 0/1") == 3


@pytest.mark.parametrize("p", ["10007", "1000003"])
def test_suffix_cell_budget_refuses_a_large_lcm_block_at_once(p, tmp_path, capsys):
    # three lines with u = (229, 227, 223): lcm(u) len(u) alone is 34,776,627 cells
    path = tmp_path / "weighted.json"
    curves = tuple(ar.CurveDecl(f"L{i}", 0, 1, 1, w) for i, w in enumerate((229, 227, 223)))
    points = tuple(ar.PointDecl(pair) for pair in (("L0", "L1"), ("L0", "L2"), ("L1", "L2")))
    ar.save(ar.Arrangement(ar.P2, 1, curves, points), str(path))
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
