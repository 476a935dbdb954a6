"""Ablation benchmarks for TASFAR design choices not tied to a single paper figure.

DESIGN.md calls out two switches worth ablating beyond the paper's own
ablations: including the confident data as self-labelled anchors during
adaptation (Section III-D's recommendation), and interpolated versus arg-max
pseudo-labels (Eq. 15 versus the highest-density cell).
"""

import pytest

from repro import nn
from repro.core import TasfarConfig
from repro.engine import TasfarStrategy
from repro.experiments import get_bundle
from repro.metrics import mse

from conftest import BENCH_SCALE


def _adapt_and_score(bundle, config):
    strategy = TasfarStrategy(config, calibration=bundle.calibration)
    scenario = bundle.task.scenarios[0]
    result = strategy.adapt(bundle.source_model, scenario.adaptation.inputs)
    return mse(
        nn.predict_batched(result.target_model, scenario.adaptation.inputs),
        scenario.adaptation.targets,
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_confident_anchor(benchmark):
    """Adaptation MSE with and without the confident self-labelled anchor data."""
    bundle = get_bundle("housing", BENCH_SCALE)

    def run():
        with_anchor = _adapt_and_score(bundle, TasfarConfig(include_confident_data=True, seed=0))
        without_anchor = _adapt_and_score(bundle, TasfarConfig(include_confident_data=False, seed=0))
        return with_anchor, without_anchor

    with_anchor, without_anchor = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nhousing adaptation MSE with confident anchor:    {with_anchor:.4f}")
    print(f"housing adaptation MSE without confident anchor: {without_anchor:.4f}")
    assert with_anchor > 0 and without_anchor > 0


@pytest.mark.benchmark(group="ablation")
def test_ablation_pseudo_label_mode(benchmark):
    """Adaptation MSE with interpolated versus arg-max pseudo-labels."""
    bundle = get_bundle("housing", BENCH_SCALE)

    def run():
        interpolate = _adapt_and_score(bundle, TasfarConfig(pseudo_label_mode="interpolate", seed=0))
        argmax = _adapt_and_score(bundle, TasfarConfig(pseudo_label_mode="argmax", seed=0))
        return interpolate, argmax

    interpolate, argmax = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nhousing adaptation MSE with interpolated pseudo-labels: {interpolate:.4f}")
    print(f"housing adaptation MSE with arg-max pseudo-labels:      {argmax:.4f}")
    assert interpolate > 0 and argmax > 0
