"""Serve per-user adaptation through the multi-target AdaptationService.

This mirrors ``examples/pdr_user_adaptation.py`` — the paper's main
experiment, one adapted model per pedestrian — but drives it the way a
deployment would: the source model and its calibration are registered once
with an :class:`repro.runtime.AdaptationService`, and every user is adapted
through ``adapt_many`` on worker processes.  Per-target seeding makes the
parallel run bit-identical to a serial one, adapted models live in an LRU
cache, and each user leaves behind a JSON-serializable adaptation report.

Run it with::

    python examples/multi_user_service.py

The same flow is available from the command line::

    python -m repro.cli adapt-many --task pdr --scale small --jobs 4
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import Tasfar, TasfarConfig
from repro.data import make_pdr_task
from repro.engine import train_supervised
from repro.metrics import step_error
from repro.runtime import AdaptationService


def main() -> None:
    rng = np.random.default_rng(0)

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

    # Source-side calibration happens once, before "deployment".
    config = TasfarConfig(seed=0)
    calibration = Tasfar(config).calibrate_on_source(
        model, task.source_calibration.inputs, task.source_calibration.targets
    )
    print(f"confidence threshold tau = {calibration.threshold:.4f}\n")

    # Register once, adapt the whole fleet of users on worker processes.  The
    # service never sees labels; all evaluation below is done caller-side.
    # max_cached_models bounds memory: evicted users keep their report and
    # fall back to source-model predictions until re-adapted, so keep the
    # cache at least as large as the fleet we are about to evaluate.
    service = AdaptationService(model, calibration, config=config, max_cached_models=len(task.scenarios))
    fleet = {scenario.name: scenario.adaptation.inputs for scenario in task.scenarios}
    print(f"adapting {len(fleet)} users on 4 worker processes ...")
    service.use_process_workers(4)
    try:
        reports = service.adapt_many(fleet)
    finally:
        service.close()  # the workers go; the adapted models stay cached

    print(f"\n{'user':<16}{'group':<8}{'conf/unc':>10}{'STE before':>12}{'STE after':>12}{'secs':>7}")
    for scenario in task.scenarios:
        report = reports[scenario.name]
        before = step_error(
            nn.predict_batched(model, scenario.adaptation.inputs), scenario.adaptation.targets
        )
        after = step_error(
            service.predict(scenario.name, scenario.adaptation.inputs),
            scenario.adaptation.targets,
        )
        split = f"{report.n_confident}/{report.n_uncertain}"
        print(
            f"{scenario.name:<16}{scenario.metadata['group']:<8}{split:>10}"
            f"{before:>12.3f}{after:>12.3f}{report.duration_seconds:>7.2f}"
        )

    # Only the most recent adapted models are cached; every user keeps a
    # JSON-ready report (evicted users can simply be re-adapted — the
    # per-target seed makes that reproduce the same model).
    print(f"\ncached adapted models: {service.cached_targets}")
    example = reports[task.scenarios[0].name]
    print(f"example report for {example.target_id}:")
    print(example.to_json(indent=2))


if __name__ == "__main__":
    main()
