"""Tabular prediction tasks: housing prices and taxi-trip durations.

This mirrors the paper's two generality experiments (Fig. 21): an MLP trained
on one district is adapted, source-free, to a different district whose label
distribution differs (coastal housing prices, Manhattan trip durations).  The
script also compares TASFAR against the other adaptation schemes through the
one strategy surface every scheme shares.

Run it with::

    python examples/tabular_prediction_tasks.py
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import TasfarConfig
from repro.data import make_housing_task, make_taxi_task
from repro.engine import SourceResources, create_strategy, train_supervised
from repro.metrics import mse, rmsle


def run_task(task, metric, metric_name, schemes=("baseline", "augfree", "datafree", "tasfar")) -> None:
    rng = np.random.default_rng(0)
    model = nn.build_mlp(
        input_dim=task.source_train.inputs.shape[1], output_dim=1,
        hidden_dims=(32, 16), dropout=0.2, seed=0,
    )
    train_supervised(model, task.source_train, epochs=50, batch_size=32, lr=3e-3, rng=rng)

    scenario = task.scenarios[0]
    baseline_error = metric(nn.predict_batched(model, scenario.test.inputs), scenario.test.targets)
    print(f"\n=== {task.name}: source model {metric_name} on target test set = {baseline_error:.3f}")

    # Source-side preparation: TASFAR calibrates and Datafree fits its
    # feature statistics on the held-out calibration split.
    resources = SourceResources(calibration_data=task.source_calibration)
    for scheme in schemes:
        strategy = create_strategy(scheme, config=TasfarConfig(seed=0)).prepare(model, resources)
        result = strategy.adapt(model, scenario.adaptation.inputs)
        adapted = result.target_model
        error = metric(nn.predict_batched(adapted, scenario.test.inputs), scenario.test.targets)
        reduction = 100 * (baseline_error - error) / baseline_error if baseline_error else 0.0
        print(f"  {scheme:<10} {metric_name} = {error:.3f}  ({reduction:+.1f}% vs source model)")


def main() -> None:
    housing = make_housing_task(n_source=500, n_target=250, seed=0)
    taxi = make_taxi_task(n_source=500, n_target=250, seed=0)
    run_task(housing, mse, "MSE")
    run_task(taxi, rmsle, "RMSLE")


if __name__ == "__main__":
    main()
