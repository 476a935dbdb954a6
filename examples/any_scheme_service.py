"""Serve every adaptation scheme through one AdaptationService surface.

The strategy registry puts TASFAR and all five comparison baselines behind
the same ``adapt()`` interface, so the multi-target service — worker pool,
LRU model cache, JSON reports — works identically for each of them.  This
example adapts the housing task's target segment with every registered
scheme and prints a small leaderboard.

Run with::

    PYTHONPATH=src python examples/any_scheme_service.py
"""

import numpy as np

from repro.core import TasfarConfig
from repro.engine import create_strategy, strategy_names
from repro.experiments import get_bundle
from repro.metrics import format_table, mse
from repro.runtime import AdaptationService


def main() -> None:
    bundle = get_bundle("housing", scale="tiny", seed=0)
    scenario = bundle.task.scenarios[0]
    targets = {scenario.name: scenario.adaptation.inputs}

    rows = []
    for scheme in strategy_names():
        strategy = create_strategy(
            scheme,
            config=TasfarConfig(seed=0),
            epochs=bundle.scale.baseline_epochs,
            seed=0,
        ).prepare(bundle.source_model, bundle.resources(max_source_samples=400))

        service = AdaptationService(
            bundle.source_model, bundle.calibration, strategy=strategy
        )
        report = service.adapt_many(targets)[scenario.name]
        after = mse(
            service.predict(scenario.name, scenario.test.inputs), scenario.test.targets
        )
        rows.append(
            [scheme, len(report.losses), round(after, 4), round(report.duration_seconds, 3)]
        )

    before = mse(bundle.predict(scenario.test.inputs), scenario.test.targets)
    print(f"housing / {scenario.name}: source-model test MSE {before:.4f}")
    print(format_table(["scheme", "epochs", "test_mse", "secs"], rows))


if __name__ == "__main__":
    main()
