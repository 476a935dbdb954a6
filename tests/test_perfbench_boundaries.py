"""Every function ``perfbench/spans.py`` times must exist in ``repro``.

``Recorder.install`` resolves each ``BOUNDARIES`` entry with a bare
``getattr``, so renaming or deleting one of those names (for example
``repro.nn.stacked.StackedSGD.step`` or
``repro.engine.finetune.FineTuneEngine.run``) breaks every ``--trace 1``
benchmark run.  This test reads the list without installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("_perfbench_spans_readonly", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


BOUNDARIES = _boundaries()

#: Methods ``BOUNDARIES`` still names although their class lost them.
#: ``install`` skips a method its class does not define, so these cost
#: only coverage, not a crash; the next benchmark change drops them.
MISSING_METHODS = {
    ("repro.runtime.workers", "AdaptationWorkerPool.submit"),
    ("repro.runtime.workers", "AdaptationWorkerPool.collect"),
}


@pytest.mark.parametrize(
    "boundary", BOUNDARIES, ids=[f"{b[1]}:{b[2]}" for b in BOUNDARIES]
)
def test_boundary_resolves(boundary):
    _row, module_name, attribute = boundary[:3]
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if (module_name, attribute) in MISSING_METHODS:
        assert not hasattr(owner, name)
        return
    assert callable(getattr(owner, name))
