"""Crowd counting: adapt an MCNN-style counter to new scenes, per scene.

This mirrors the paper's Shanghaitech Part A -> Part B experiment (Table I and
Fig. 19/20): a multi-column CNN counter is trained on a broad source
distribution and adapted to three target scenes with different crowd densities
and camera responses.  The script compares per-scene adaptation against one
pooled adaptation over all scenes — the partitioning study of Fig. 20.

Run it with::

    python examples/crowd_counting_scenes.py
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import Tasfar, TasfarConfig
from repro.data import make_crowd_task, merge_scenarios
from repro.engine import train_supervised
from repro.metrics import mae, mse


def main() -> None:
    rng = np.random.default_rng(0)
    task = make_crowd_task(
        n_source_images=150, n_target_images_per_scene=50, image_size=12, seed=0
    )

    print("training the MCNN-style source counter ...")
    model = nn.build_mcnn_counter(image_size=12, column_channels=(3, 4, 5), dropout=0.2, seed=0)
    train_supervised(model, task.source_train, epochs=40, batch_size=16, lr=2e-3, rng=rng)

    tasfar = Tasfar(TasfarConfig(seed=0))
    calibration = tasfar.calibrate_on_source(
        model, task.source_calibration.inputs, task.source_calibration.targets
    )

    # Per-scene (partitioned) adaptation — the setting the paper recommends.
    print(f"\n{'scene':<10}{'count mean':>11}{'MAE before':>12}{'MAE after':>12}{'MSE before':>12}{'MSE after':>12}")
    per_scene_models = {}
    for scenario in task.scenarios:
        result = tasfar.adapt(model, scenario.adaptation.inputs, calibration)
        per_scene_models[scenario.name] = result.target_model
        before = nn.predict_batched(model, scenario.test.inputs)
        after = nn.predict_batched(result.target_model, scenario.test.inputs)
        targets = scenario.test.targets
        print(
            f"{scenario.name:<10}{scenario.metadata['count_mean']:>11.0f}"
            f"{mae(before, targets):>12.2f}{mae(after, targets):>12.2f}"
            f"{mse(before, targets):>12.1f}{mse(after, targets):>12.1f}"
        )

    # Pooled adaptation (no partitioning): one adaptation over all scenes.
    pooled = merge_scenarios(task.scenarios, name="pooled")
    pooled_result = tasfar.adapt(model, pooled.adaptation.inputs, calibration)
    print("\npartitioned vs. pooled adaptation (test MAE per scene):")
    for scenario in task.scenarios:
        partitioned = nn.predict_batched(per_scene_models[scenario.name], scenario.test.inputs)
        pooled_prediction = nn.predict_batched(pooled_result.target_model, scenario.test.inputs)
        print(
            f"  {scenario.name}: partitioned {mae(partitioned, scenario.test.targets):.2f}  "
            f"pooled {mae(pooled_prediction, scenario.test.targets):.2f}"
        )


if __name__ == "__main__":
    main()
