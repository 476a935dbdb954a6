"""Streaming per-user adaptation with drift detection and warm re-adaptation.

This extends ``examples/multi_user_service.py`` from batch to *streaming*
deployment: each PDR user's data arrives as a non-stationary stream
(generated by :func:`repro.data.make_drift_stream`), and the
:class:`repro.streaming.StreamingAdaptationService` decides, batch by batch,
whether to merely buffer, to adapt for the first time, or to warm-start
re-adapt the user's cached model.

Half the users get a **sudden** label drift (a gait change halfway through)
— a subtle shift through the model's prediction lens, caught by the
re-adaptation *budget* backstop; the other half get a **noise burst** (an
IMU glitch window) that blows the online density map away from the
adapted-time map, so the Page-Hinkley *drift detector* fires first.  Either
way the re-adaptation is warm: the cached adapted model is fine-tuned with a
short schedule — measurably cheaper than a cold adaptation, see
``benchmarks/test_bench_streaming.py``.

Run it with::

    python examples/streaming_users.py

The same flow is available from the command line::

    python -m repro.cli stream --task pdr --drift sudden --steps 12
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import Tasfar, TasfarConfig
from repro.data import make_drift_stream, make_pdr_task
from repro.engine import train_supervised
from repro.metrics import step_error
from repro.streaming import StreamingAdaptationService


def main() -> None:
    rng = np.random.default_rng(0)

    task = make_pdr_task(
        n_seen_users=2,
        n_unseen_users=2,
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

    config = TasfarConfig(seed=0)
    calibration = Tasfar(config).calibrate_on_source(
        model, task.source_calibration.inputs, task.source_calibration.targets
    )
    print(f"confidence threshold tau = {calibration.threshold:.4f}\n")

    # Alternate the drift kind across the fleet: even users drift suddenly
    # (lower-label half of their own data first, upper half after midstream),
    # odd users keep their label distribution but suffer a mid-stream input
    # noise burst.
    kinds = {
        scenario.name: ("sudden" if index % 2 == 0 else "noise_burst")
        for index, scenario in enumerate(task.scenarios)
    }
    streams = {
        scenario.name: make_drift_stream(
            scenario, kind=kinds[scenario.name], n_steps=14, batch_size=16, seed=index
        )
        for index, scenario in enumerate(task.scenarios)
    }

    service = StreamingAdaptationService(
        model,
        calibration,
        config=config,
        max_cached_models=len(task.scenarios),
        min_adapt_events=48,  # first (cold) adaptation after 3 batches
        readapt_budget=160,   # staleness backstop for drift too subtle to alarm
        warm_epochs=None,     # default: a quarter of the cold schedule
        # The detector warm-up is counted in *confident* events, and a noise
        # burst depresses confidence — keep it short so the clean pre-burst
        # batches anchor the Page-Hinkley baseline before the glitch hits.
        drift_warmup_events=8,
    )

    # Interleave the streams the way an ingest frontend would see the fleet.
    print(f"ingesting {len(streams)} user streams, 14 batches x 16 events each ...")
    n_steps = max(stream.n_steps for stream in streams.values())
    for step in range(n_steps):
        for name, stream in streams.items():
            event = service.ingest(name, stream.batches[step].inputs)
            if event.action != "buffered":
                print(
                    f"  step {event.step:>2} {name:<16} -> {event.action}"
                    f" (trigger={event.trigger},"
                    f" drift statistic={event.drift_statistic if event.drift_statistic is not None else 0:.3f})"
                )

    print(
        f"\n{'user':<16}{'drift':<12}{'events':>7}{'cold':>6}{'warm':>6}"
        f"{'STE source':>12}{'STE stream':>12}"
    )
    for scenario in task.scenarios:
        stats = service.stream_stats(scenario.name)
        before = step_error(nn.predict_batched(model, scenario.test.inputs), scenario.test.targets)
        after = step_error(
            service.predict(scenario.name, scenario.test.inputs), scenario.test.targets
        )
        print(
            f"{scenario.name:<16}{kinds[scenario.name]:<12}{stats['total_events']:>7}"
            f"{stats['cold_adaptations']:>6}{stats['warm_adaptations']:>6}"
            f"{before:>12.3f}{after:>12.3f}"
        )

    print(
        "\nnote: the noise-burst users re-adapted on a window that still "
        "contains the glitch,\nso their post-stream error can exceed the "
        "source model's — the event log below is\nexactly the audit trail "
        "an operator needs to gate such re-adaptations."
    )

    # Every ingest call left a JSON-safe event behind — the audit trail of
    # when and why each user was (re-)adapted.
    name = task.scenarios[0].name
    print(f"\nevent log for {name} (action/trigger/drift statistic):")
    for event in service.events_for(name):
        statistic = "-" if event.drift_statistic is None else f"{event.drift_statistic:.3f}"
        print(f"  step {event.step:>2}: {event.action:<11} {event.trigger or '-':<7} {statistic}")


if __name__ == "__main__":
    main()
