"""Pedestrian dead reckoning: adapt a TCN step regressor to individual users.

This mirrors the paper's main experiment (Section IV-B2): a temporal
convolutional network trained on a population of users is adapted, one user at
a time, with that user's unlabeled IMU windows.  The script reports the step
error (STE) and the relative trajectory error (RTE) before and after
adaptation for every user, split into the seen and unseen groups.

Run it with::

    python examples/pdr_user_adaptation.py
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import Tasfar, TasfarConfig
from repro.data import make_pdr_task
from repro.engine import train_supervised
from repro.metrics import per_trajectory_rte, step_error


def main() -> None:
    rng = np.random.default_rng(0)

    # A scaled-down version of the paper's setup: a few users, each with
    # several walking trajectories; 80% of each user's trajectories are used
    # for adaptation and the rest for testing.
    task = make_pdr_task(
        n_seen_users=4,
        n_unseen_users=3,
        n_source_trajectories=3,
        n_target_trajectories=3,
        steps_per_trajectory=80,
        window=20,
        seed=0,
    )

    print("training the RoNIN-style source model on the pooled source trajectories ...")
    model = nn.build_tcn_regressor(
        in_channels=task.metadata["n_channels"], window_length=20,
        output_dim=2, channel_sizes=(16, 16), dropout=0.2, seed=0,
    )
    train_supervised(model, task.source_train, epochs=60, batch_size=32, lr=2e-3, rng=rng)

    tasfar = Tasfar(TasfarConfig(seed=0))
    calibration = tasfar.calibrate_on_source(
        model, task.source_calibration.inputs, task.source_calibration.targets
    )
    print(f"confidence threshold tau = {calibration.threshold:.4f}\n")

    # The paper reports results on the adaptation set unless stated otherwise
    # (Section IV-A); the test trajectories are shown as the RTE column.
    print(f"{'user':<16}{'group':<8}{'STE before':>12}{'STE after':>12}{'reduction':>11}{'mean RTE drop':>15}")
    for scenario in task.scenarios:
        result = tasfar.adapt(model, scenario.adaptation.inputs, calibration)
        adapted = result.target_model

        targets = scenario.adaptation.targets
        before = step_error(nn.predict_batched(model, scenario.adaptation.inputs), targets)
        after = step_error(nn.predict_batched(adapted, scenario.adaptation.inputs), targets)

        trajectory_ids = scenario.metadata["test_trajectory_ids"]
        rte_before = per_trajectory_rte(
            nn.predict_batched(model, scenario.test.inputs), scenario.test.targets, trajectory_ids
        )
        rte_after = per_trajectory_rte(
            nn.predict_batched(adapted, scenario.test.inputs), scenario.test.targets, trajectory_ids
        )
        rte_drop = np.mean([rte_before[t] - rte_after[t] for t in rte_before])

        reduction = 100 * (before - after) / before if before else 0.0
        print(
            f"{scenario.name:<16}{scenario.metadata['group']:<8}"
            f"{before:>12.3f}{after:>12.3f}{reduction:>10.1f}%{rte_drop:>14.2f}m"
        )


if __name__ == "__main__":
    main()
