"""The functions the bench tracer wraps, and the attributes its hooks
read, must still exist in the library.

`bench/tracing.py` names every traced function by module and attribute
path; a deleted or renamed function or attribute would only show up as a
crash of `bench/run.py --trace 1`.  The tracer file is read, not imported as a
package, so nothing under `bench/` is written.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from branchgroups import quotients
from branchgroups.presets import grigorchuk_preset, gupta_sidki_preset
from branchgroups.quotients import LayeredGroup, StabChain, image_subgroup, word_perm
from branchgroups.subgroups import SubgroupHandle
from branchgroups.words import Word

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


def test_attributes_the_tracer_hooks_read_exist():
    # The hooks read a chain's `base()` and test `n in handle._images`.
    assert StabChain(2, [(1, 0)]).base() == [0]
    handle = SubgroupHandle.from_strings(grigorchuk_preset(), ["a"])
    handle.image(1)
    assert 1 in handle._images


def test_powers_go_through_the_traced_compose(monkeypatch):
    # The tracer counts compose by swapping a wrapper into the module, so a
    # power must look compose up when it is called, not when it is imported.
    calls = []
    compose = quotients.compose

    def counted(p, q):
        calls.append(1)
        return compose(p, q)

    monkeypatch.setattr(quotients, "compose", counted)
    gs = gupta_sidki_preset()
    word_perm(Word.from_str(gs, "a^2"), 2)  # one letter: no product, only its power
    assert calls
    calls.clear()
    assert isinstance(image_subgroup([Word.from_str(gs, "b")], 3), LayeredGroup)
    assert calls
