"""Test of the benchmark harness itself, on the seconds-long smoke sizes.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_metric(workload, trace):
    proc = _run("--smoke", "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_changed_results_fail_the_digest_check():
    tally = run.Tally()
    run.check_digest("hesse-scan", workloads.SMOKE, workloads.DEFAULT_SEED, [["changed"]], tally)
    assert tally.problems and not tally.result({})["correct"]


def test_missing_binding_is_reported_absent(monkeypatch):
    rc = workloads.load_package()
    monkeypatch.delattr(rc.covers, "dedekind_fast")  # as if a refactor renamed it
    tracer = spans.Tracer()
    tracer.install()
    metrics = spans.layer_metrics(tracer)
    assert "numth.dedekind_fast.calls" not in metrics
    assert "numth.dedekind_fast.self_s" not in metrics
    assert metrics["numth.ncf_stats.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "hesse-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
