"""Every name ``perfbench/tracer.py`` hooks must exist: the tracer reports a
missing hook as absent instead of failing, so a rename would silently blind
the per-layer trace.  The tracer is loaded by file path, not installed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


# The GA signs through ``FieldRows`` and no longer calls ``level_inputs``;
# see the CHANGES.md line "FOUND: `perfbench/tracer.py` hooks
# `metacluster.ga.level_inputs`".  This flips once the hook is fixed.
STALE = {("metacluster.ga", "level_inputs")}


def hook_params():
    for module_name, attr_path, span, level_from in load_hooks():
        marks = ()
        if (module_name, attr_path) in STALE:
            marks = pytest.mark.xfail(strict=True, reason="the GA no longer calls level_inputs")
        yield pytest.param(
            module_name, attr_path, level_from, id=f"{module_name}.{attr_path}", marks=marks
        )


@pytest.mark.parametrize("module_name,attr_path,level_from", hook_params())
def test_hook_resolves(module_name, attr_path, level_from):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr_path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
    if level_from is not None:
        assert level_from in inspect.signature(owner).parameters
