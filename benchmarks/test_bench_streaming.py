"""Benchmarks for the streaming adaptation subsystem.

Two measurements, recorded into ``benchmark_report.txt``:

* **ingest throughput** — events/sec through
  :meth:`StreamingAdaptationService.ingest` while the service is only
  buffering and maintaining the online density map / drift monitor (the
  steady-state hot path between re-adaptations);
* **warm vs. cold re-adaptation** — after a sudden drift, the service
  re-adapts by fine-tuning the *cached adapted model* with a short schedule.
  That warm start must complete in less wall-clock than a cold
  ``Tasfar.adapt`` from the source model on the same drifted stream, while
  landing within noise of the cold run's test MAE on the drifted regime.
"""

from __future__ import annotations

import time

import numpy as np

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.data import TargetScenario, make_drift_stream
from repro.engine import train_supervised
from repro.metrics import mae
from repro.streaming import StreamingAdaptationService


def make_streaming_fixture():
    """Source model + calibration + a drifting two-regime target scenario."""
    rng = np.random.default_rng(0)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    inputs = rng.normal(size=(240, 4))
    targets = inputs @ weights + 0.1 * rng.normal(size=240)
    model = nn.build_mlp(4, 1, hidden_dims=(16, 8), dropout=0.2, seed=0)
    train_supervised(
        model, nn.ArrayDataset(inputs, targets), epochs=15, batch_size=32, lr=3e-3, rng=rng
    )
    config = TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=8,
        min_adaptation_epochs=2,
        early_stop=False,
        seed=0,
    )
    calibration = Tasfar(config).calibrate_on_source(model, inputs, targets)

    target_rng = np.random.default_rng(7)
    target_inputs = target_rng.normal(loc=0.3, size=(320, 4))
    target_labels = target_inputs @ weights + 0.5 + 0.1 * target_rng.normal(size=320)
    scenario = TargetScenario(
        "stream_user",
        adaptation=nn.ArrayDataset(target_inputs[:240], target_labels[:240]),
        test=nn.ArrayDataset(target_inputs[240:], target_labels[240:]),
    )
    return model, calibration, config, scenario


def build_service(model, calibration, config, **kwargs):
    kwargs.setdefault("min_adapt_events", 64)
    kwargs.setdefault("readapt_budget", 10_000)
    kwargs.setdefault("warm_epochs", 2)
    kwargs.setdefault("drift_threshold", 0.4)
    kwargs.setdefault("drift_delta", 0.05)
    kwargs.setdefault("drift_min_batches", 2)
    return StreamingAdaptationService(model, calibration, config=config, **kwargs)


def test_ingest_throughput(record_bench, perf_check):
    """Steady-state ingest (buffer + density map + drift probe) throughput."""
    model, calibration, config, scenario = make_streaming_fixture()
    stream = make_drift_stream(scenario, "gradual", n_steps=40, batch_size=16, seed=0)
    service = build_service(
        model, calibration, config, min_adapt_events=64, drift_threshold=10.0
    )
    # Warm up past the first cold adaptation, then time pure ingest steps.
    warmup = 4
    for batch in stream.batches[:warmup]:
        service.ingest("user", batch.inputs)
    assert service.report_for("user") is not None

    timed = stream.batches[warmup:]
    start = time.perf_counter()
    for batch in timed:
        service.ingest("user", batch.inputs)
    elapsed = time.perf_counter() - start
    n_events = sum(len(batch) for batch in timed)
    throughput = n_events / elapsed

    text = (
        f"[bench_streaming] ingest throughput ({len(timed)} batches x 16 events)\n"
        f"steady-state ingest: {n_events} events in {elapsed * 1e3:8.1f} ms  "
        f"({throughput:8.0f} events/sec)"
    )
    print("\n" + text)
    record_bench(text)
    # The hot path must stay interactive: well over a hundred events/sec even
    # with MC-dropout probing on every batch.
    perf_check(throughput > 100.0, f"ingest throughput {throughput:.0f} events/s <= 100")


def test_warm_readaptation_beats_cold_on_drifted_stream(record_bench, perf_check):
    """Warm-start re-adaptation: faster than cold, same quality within noise."""
    model, calibration, config, scenario = make_streaming_fixture()
    stream = make_drift_stream(scenario, "sudden", n_steps=24, batch_size=16, seed=0)
    service = build_service(model, calibration, config)

    warm_report = None
    for batch in stream.batches:
        event = service.ingest("user", batch.inputs)
        if event.action == "warm_adapt":
            warm_report = service.report_for("user")
    assert warm_report is not None, "the sudden drift must trigger a warm re-adaptation"
    assert warm_report.extra["mode"] == "warm"
    warm_seconds = warm_report.duration_seconds

    # Cold baseline: one full Tasfar.adapt from the source model over the
    # same drifted stream (everything the service had ingested).
    cold_inputs = stream.all_inputs()
    cold_model = None
    cold_times = []
    for _ in range(3):
        tasfar = Tasfar(config)
        start = time.perf_counter()
        result = tasfar.adapt(model, cold_inputs, calibration, seed=0)
        cold_times.append(time.perf_counter() - start)
        cold_model = result.target_model
    cold_seconds = min(cold_times)

    # Quality on the held-out drifted-regime test split.
    drifted_mask = (
        np.linalg.norm(scenario.test.targets, axis=1)
        >= np.median(np.linalg.norm(scenario.pooled().targets, axis=1))
    )
    test_inputs = scenario.test.inputs[drifted_mask]
    test_targets = scenario.test.targets[drifted_mask]
    model.eval()
    source_mae = mae(model.forward(test_inputs), test_targets)
    warm_mae = mae(service.predict("user", test_inputs), test_targets)
    cold_model.eval()
    cold_mae = mae(cold_model.forward(test_inputs), test_targets)

    speedup = cold_seconds / warm_seconds
    text = (
        f"[bench_streaming] warm-start re-adaptation vs cold Tasfar.adapt "
        f"({len(cold_inputs)} drifted-stream events)\n"
        f"cold adapt: {cold_seconds * 1e3:8.1f} ms  (test MAE {cold_mae:.4f})\n"
        f"warm adapt: {warm_seconds * 1e3:8.1f} ms  (test MAE {warm_mae:.4f}, "
        f"speedup {speedup:.1f}x)\n"
        f"source MAE: {source_mae:.4f}"
    )
    print("\n" + text)
    record_bench(text)

    # The acceptance bar: warm re-adaptation is strictly cheaper wall-clock...
    perf_check(
        warm_seconds < cold_seconds,
        f"warm re-adapt ({warm_seconds * 1e3:.1f} ms) not cheaper than cold "
        f"({cold_seconds * 1e3:.1f} ms)",
    )
    # ...and lands within noise of the cold run's quality: the gap between the
    # two adapted models is small against the adaptation headroom the source
    # model leaves (or warm is simply at least as good).
    noise_band = 0.25 * max(source_mae, cold_mae)
    assert warm_mae <= cold_mae + noise_band
