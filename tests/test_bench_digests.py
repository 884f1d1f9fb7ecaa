"""Pass 0 of every benchmark workload at the default seed reproduces its digest.

`python3 -m pytest bench` checks the recorded digests too, but `bench/`
sits outside the tier-1 test paths; this runs the same requests through
the harness's own `setup`/`requests`/`execute`/`check` on the package the
tests already import, so a change to any result fails here as well.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, mp):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    # run.py imports its siblings `spans` and `workloads` by their bare names;
    # the three stay in sys.modules only while they load
    with pytest.MonkeyPatch.context() as mp:
        for name in ("spans", "workloads"):
            _load(name, mp)
        return _load("run", mp)


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_pass_zero_of_every_workload_reproduces_its_recorded_digest(harness, smoke):
    workloads = harness.workloads
    sizes = workloads.SMOKE if smoke else workloads.FULL
    rc = SimpleNamespace(
        **{m: importlib.import_module(f"rootcovers.{m}") for m in workloads.MODULES}
    )
    recorded = json.loads(harness.DIGESTS.read_text())
    for name in workloads.WORKLOADS:
        ctx = workloads.setup(rc, name, sizes)
        reqs = workloads.requests(name, sizes, workloads.DEFAULT_SEED, 0)
        records = [workloads.check(rc, ctx, req, workloads.execute(rc, ctx, req))
                   for req in reqs]
        assert harness.digest(records) == recorded[harness.digest_key(name, sizes)], name
