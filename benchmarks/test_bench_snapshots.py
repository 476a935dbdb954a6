"""Micro-benchmark for the warm snapshot tier: resume vs cold re-adapt.

An evicted target used to cost a full cold adaptation on its next touch.
With a :class:`repro.runtime.SnapshotStore` attached, eviction spills the
adapted state to disk and the next touch *resumes* it — deepcopy the
source skeleton, load the spilled weights byte-for-byte, re-attach the
report — skipping pseudo-labeling and fine-tuning entirely:

* the resumed models must be **bit-identical** to the evicted ones —
  parameters and (wall-clock-scrubbed) reports (hard assertion, never
  downgraded);
* resuming all K targets must beat cold re-adapting them by at least
  **3x** wall-clock (downgraded to a warning under ``REPRO_BENCH_SMOKE=1``).
"""

from __future__ import annotations

import time

import numpy as np

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised
from repro.obs import scrub_wall_clock
from repro.runtime import AdaptationService, SnapshotStore

K = 6
N_SOURCE = 160
N_TARGET_ROWS = 48
FEATURES = 4
SPEEDUP_BAR = 3.0


def make_source():
    rng = np.random.default_rng(0)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    inputs = rng.normal(size=(N_SOURCE, FEATURES))
    targets = inputs @ weights + 0.1 * rng.normal(size=N_SOURCE)
    model = nn.build_mlp(FEATURES, 1, hidden_dims=(16, 8), dropout=0.2, seed=0)
    train_supervised(
        model, nn.ArrayDataset(inputs, targets), epochs=15, batch_size=32, lr=3e-3, rng=rng
    )
    config = TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=12,
        min_adaptation_epochs=1,
        early_stop=False,
        seed=0,
    )
    calibration = Tasfar(config).calibrate_on_source(model, inputs, targets)
    return model, calibration, config


def make_targets():
    targets = {}
    for index in range(K):
        rng = np.random.default_rng(100 + index)
        targets[f"user_{index:02d}"] = rng.normal(
            loc=0.2 * index, size=(N_TARGET_ROWS, FEATURES)
        )
    return targets


def test_warm_resume_beats_cold_readapt(tmp_path, record_bench, perf_check):
    model, calibration, config = make_source()
    targets = make_targets()

    store = SnapshotStore(tmp_path / "snapshots")
    tiered = AdaptationService(model, calibration, config=config, snapshot_store=store)
    tiered.adapt_many(targets)
    evicted_bytes = {
        name: nn.parameter_bytes(tiered.model_for(name)) for name in targets
    }
    evicted_reports = {
        name: scrub_wall_clock(tiered.report_for(name).to_dict()) for name in targets
    }
    tiered.evict()  # spill all K adapted models to the warm tier

    # Warm path: every touch loads the spilled weights instead of adapting.
    start = time.perf_counter()
    for name in targets:
        assert tiered.model_for(name) is not None
    resume_seconds = time.perf_counter() - start

    # Correctness first — and unconditionally: resume must be bit-identical.
    for name in targets:
        assert nn.parameter_bytes(tiered.model_for(name)) == evicted_bytes[name]
        assert scrub_wall_clock(tiered.report_for(name).to_dict()) == evicted_reports[name]

    # Cold path: the same K targets through a fresh storeless service.
    cold = AdaptationService(model, calibration, config=config)
    start = time.perf_counter()
    cold.adapt_many(targets)
    cold_seconds = time.perf_counter() - start
    speedup = cold_seconds / resume_seconds

    text = (
        f"[bench_snapshots] cold re-adapt vs warm resume "
        f"(K={K} evicted targets, {N_TARGET_ROWS} rows, "
        f"{config.adaptation_epochs} epochs)\n"
        f"cold  ({K} adaptations):   {cold_seconds * 1e3:8.2f} ms\n"
        f"warm  ({K} snapshot loads): {resume_seconds * 1e3:8.2f} ms  "
        f"(bit-identical, {speedup:.2f}x)"
    )
    print("\n" + text)
    record_bench(
        text,
        tags={"k": K},
        wall_seconds={"cold_adapt": cold_seconds, "warm_resume": resume_seconds},
    )

    perf_check(
        speedup >= SPEEDUP_BAR,
        f"warm resume speedup {speedup:.2f}x at K={K} below the "
        f"{SPEEDUP_BAR:.1f}x bar (cold {cold_seconds * 1e3:.2f} ms, "
        f"resume {resume_seconds * 1e3:.2f} ms)",
    )
