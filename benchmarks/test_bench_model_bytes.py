"""Pickled model size: what every model copy, worker result and snapshot carries.

A model's forward keeps backward state (im2col columns, masks, inputs) only
in training, and copies and pickles leave it out.  So the bundle's source
model, after its calibration MC passes, and a TASFAR-adapted model, fresh
out of its fine-tune, both pickle to their parameters (values and
gradients), dropout generators and structure.  This is a byte count, not a
timing, so its bar of 3x the parameter bytes holds on any host.
"""

import pickle

import pytest

from repro.core import TasfarConfig
from repro.engine import TasfarStrategy
from repro.experiments import get_bundle
from repro.nn import parameter_bytes

from conftest import BENCH_SCALE

#: Pickled bytes allowed per parameter byte.
MAX_RATIO = 3.0


@pytest.mark.parametrize("task", ["pdr", "crowd", "housing", "taxi"])
def test_model_pickles_to_its_parameters(task, record_bench):
    bundle = get_bundle(task, BENCH_SCALE)
    strategy = TasfarStrategy(TasfarConfig(seed=0), calibration=bundle.calibration)
    scenario = bundle.task.scenarios[0]
    adapted = strategy.adapt(bundle.source_model, scenario.adaptation.inputs, seed=0).target_model

    rows = []
    for role, model in (("source", bundle.source_model), ("adapted", adapted)):
        pickled, params = len(pickle.dumps(model)), len(parameter_bytes(model))
        rows.append((role, pickled, params, pickled / params))
    entry = f"[bench_model_bytes] {task}: pickled model bytes vs parameter bytes\n" + "\n".join(
        f"{role:8s} {pickled:10,d} B pickled, {params:8,d} B parameters ({ratio:.2f}x)"
        for role, pickled, params, ratio in rows
    )
    print("\n" + entry)
    record_bench(entry, tags={"task": task})

    for role, pickled, params, ratio in rows:
        assert ratio <= MAX_RATIO, (
            f"{task} {role} model pickles to {pickled} B, {ratio:.1f}x its "
            f"{params} parameter bytes (bar {MAX_RATIO:.0f}x)"
        )
