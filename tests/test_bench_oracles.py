"""Every bench workload, run once on its small inputs, passes its own oracles.

The oracles of `bench/workloads.py` (closed-form quotient orders, the
reference certificate's digest, the word problem against portraits, and
orders against powers) otherwise run only inside a timed `bench/run.py`
run.  The workloads file is read, not imported as a package, with `bench/`
put on `sys.path` for its tracer import and bytecode writing off, so
nothing under `bench/` is written.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.chdir(ROOT)  # the certificate workload's CLI runs on ./src
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    yield runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    sys.modules.pop("tracing", None)  # the tracer module that workloads.py imported


@pytest.mark.parametrize("name", WORKLOADS)
def test_small_pass_passes_its_oracles(workloads, name, tmp_path):
    wl = workloads["make"](name, str(tmp_path))
    inputs = wl.inputs(1, True)
    ops = wl.run(inputs)
    assert len(ops) == len(inputs)
    assert [f"{op.label}: {op.error}" for op in ops if op.error is not None] == []
    assert wl.check(inputs, ops) == []
