"""Benchmark of the rootcovers pipeline, end to end and layer by layer.

    python3 bench/run.py --workload hesse-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One client drives the public API in a closed loop, one request at a time,
in this single process.  The run makes whole passes over the workload's
requests (pass k draws fresh inputs from the seed and k) until `--seconds`
have gone by, checks every output, and prints one JSON object as its last
line of output.

`--trace 0` reports the end-to-end metrics.  `setup_s` is the shortest
set-up time of several fresh interpreters (bench/probe.py), started at
even intervals over the run.
`--trace 1` runs pass 0 three times: traced, untraced and traced again,
each on freshly imported modules.  It reports the per-layer metrics of the
first traced pass and checks that every count repeats exactly in the
second.  Its spans go to `.bench_out/`.

`--smoke` shrinks every workload to seconds, for the harness's own test.
`--record-digests` rewrites bench/digests.json, the digests of pass 0 at the
default seed that every later run at that seed must reproduce.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
OUT_DIR = workloads.ROOT / ".bench_out"


class Tally:
    """Requests attempted and failed, latencies, and run-level problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"problem: {message}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_pass(rc, ctx, reqs, tally: Tally, tracer=None, between=None) -> tuple[float, list]:
    """Run the requests in order; return the time spent in them and the records.

    `between`, if given, is called before each request, outside its timing.
    """
    busy = 0.0
    records = []
    for i, req in enumerate(reqs):
        if between is not None:
            between()
        if tracer is not None:
            tracer.request = i
        tally.attempted += 1
        try:
            t0 = perf_counter()
            out = workloads.execute(rc, ctx, req)
            latency = perf_counter() - t0
            tally.latencies.append(latency)
            busy += latency
            records.append(workloads.check(rc, ctx, req, out))
        except Exception as exc:  # a failed request is counted and the loop goes on
            tally.failed += 1
            records.append(["failed", list(req)])
            print(f"request {req} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    if tracer is not None:
        tracer.request = None
    return busy, records


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


def digest_key(name: str, sizes) -> str:
    return name + ("/smoke" if sizes is workloads.SMOKE else "")


def check_digest(name: str, sizes, seed: int, records: list, tally: Tally) -> None:
    """At the default seed, pass 0 must reproduce its recorded results exactly."""
    if seed != workloads.DEFAULT_SEED:
        return
    expected = json.loads(DIGESTS.read_text()).get(digest_key(name, sizes))
    if digest(records) != expected:
        tally.problem(f"results of pass 0 differ from the recorded digest {expected}")


def probe_setup(name: str, sizes) -> float:
    cmd = [sys.executable, str(BENCH / "probe.py"), name]
    if sizes is workloads.SMOKE:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def timed_run(rc, name: str, sizes, seed: int, seconds: float) -> dict:
    ctx = workloads.setup(rc, name, sizes)
    tally = Tally()
    setups: list[float] = []

    def probe_when_due():
        # Probes are spread evenly over the run, and the shortest one is
        # reported: a single set-up takes 60 to 100 ms depending on how
        # busy the machine is in that second, and the minimum over a spread
        # of seconds is far steadier from run to run than the median.
        due = len(setups) * seconds / sizes.setup_probes
        if len(setups) < sizes.setup_probes and perf_counter() - start >= due:
            setups.append(probe_setup(name, sizes))

    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - start < seconds:
        reqs = workloads.requests(name, sizes, seed, passes)
        _, records = run_pass(rc, ctx, reqs, tally, between=probe_when_due)
        if passes == 0:
            check_digest(name, sizes, seed, records, tally)
        passes += 1
    while len(setups) < sizes.setup_probes:
        setups.append(probe_setup(name, sizes))
    print(f"setup probes (ms): {[round(s * 1e3, 1) for s in setups]}", file=sys.stderr)
    lat = tally.latencies
    if len(lat) < 2:
        raise RuntimeError(f"only {len(lat)} requests completed; no latency percentiles")
    print(f"{name}: {passes} passes, {len(lat)} requests timed", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally.result({
        "requests_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "request_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "request_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1] * 1e3, "unit": "ms"},
        "setup_s": {"value": min(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    })


def traced_run(name: str, sizes, seed: int) -> dict:
    tally = Tally()
    reqs = workloads.requests(name, sizes, seed, 0)
    first: list = []

    def fresh_pass(tracer=None):
        rc = workloads.load_package()
        if tracer is not None:
            tracer.install()
            tracer.request = "setup"
        busy, records = run_pass(rc, workloads.setup(rc, name, sizes), reqs, tally, tracer)
        if not first:
            first.extend(records)
            check_digest(name, sizes, seed, records, tally)
        elif records != first:
            tally.problem("a pass on fresh modules gave other results than the first")
        return busy

    # Untraced between the two traced passes, so that drift in machine speed
    # moves both sides of trace.overhead_frac alike.
    tracer, again = spans.Tracer(), spans.Tracer()
    traced_s = fresh_pass(tracer)
    reference_s = fresh_pass()
    traced_s += fresh_pass(again)
    metrics = spans.layer_metrics(tracer)
    repeat = spans.layer_metrics(again)
    for metric, unit, _ in spans.LAYER_METRICS:
        if unit == "count" and metrics.get(metric) != repeat.get(metric):
            tally.problem(f"{metric} was {metrics.get(metric)}, then {repeat.get(metric)}")
        if metric not in metrics:
            print(f"trace: {metric} is absent", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-{seed}.jsonl")
    units = {metric: unit for metric, unit, _ in spans.LAYER_METRICS}
    out = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    out["trace.overhead_frac"] = {"value": traced_s / (2 * reference_s) - 1, "unit": "fraction"}
    return tally.result(out)


def record_digests() -> int:
    digests = {}
    for sizes in (workloads.FULL, workloads.SMOKE):
        for name in workloads.WORKLOADS:
            rc = workloads.load_package()
            ctx = workloads.setup(rc, name, sizes)
            reqs = workloads.requests(name, sizes, workloads.DEFAULT_SEED, 0)
            tally = Tally()
            _, records = run_pass(rc, ctx, reqs, tally)
            if tally.failed:
                print(f"{name}: {tally.failed} requests failed; nothing recorded", file=sys.stderr)
                return 1
            digests[digest_key(name, sizes)] = digest(records)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="hesse-scan")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        rc = workloads.load_package()
        if args.record_digests:
            return record_digests()
        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        if args.trace:
            result = traced_run(args.workload, sizes, args.seed)
        else:
            result = timed_run(rc, args.workload, sizes, args.seed, args.seconds)
    except (RuntimeError, subprocess.SubprocessError) as exc:  # MissingProgram too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
