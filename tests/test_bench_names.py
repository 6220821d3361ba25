"""The functions the bench tracer wraps must still exist in the library.

`bench/tracing.py` names every traced function by module and attribute
path; a deleted or renamed function would only show up as a crash of
`bench/run.py --trace 1`.  The tracer file is read, not imported as a
package, so nothing under `bench/` is written.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracing.py"))
TRACED = TRACING["TIMED"] + TRACING["GENERATORS"] + TRACING["COUNTED"]


def test_tracer_covers_every_submodule():
    for name in TRACING["SUBMODULES"]:
        importlib.import_module(f"branchgroups.{name}")
    assert {mod for _, mod, _ in TRACED} <= set(TRACING["SUBMODULES"])


@pytest.mark.parametrize("metric, module, path", TRACED, ids=[t[0] for t in TRACED])
def test_traced_function_resolves(metric, module, path):
    owner = importlib.import_module(f"branchgroups.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
