"""Micro-benchmarks for the runtime hot paths.

Two comparisons, recorded into ``benchmark_report.txt``, both timed by
``conftest.paired_timing`` (alternating paired rounds, median ratio):

* **vectorized vs. loop MC dropout** — the stacked-replica forward against
  the sequential per-sample loop (the historical full-batch protocol), at
  the small per-target input sizes the adaptation service sees.  The
  vectorized path must be at least 3x faster at small scale.
* **serial vs. pooled multi-target adaptation** — ``AdaptationService``
  adapting a fleet of targets serially and on an attached process worker
  pool of ``min(4, cores)`` workers.  Each side's service (and the pool) is
  built once and its workers spawned before the clock starts, so worker
  spawn and weight shipping — a one-time cost a serving deployment pays at
  startup — is not billed.  The first, cold ``adapt_many`` of each side is
  recorded; the bar reads the paired rounds that follow.
  Per-target seeding makes both runs bit-identical; the timing bar is
  *capacity-aware*: a paired probe (``conftest.parallel_capacity``: N
  CPU-bound processes against one, paired-median) measures how many cores'
  worth of throughput the pool's N processes get, before and after the
  timed runs; the bar reads the median of both probes' readings pooled.
  The pool must beat serial outright (>1.0x) when the host gives at least
  2 cores' worth, and reach the 2.5x acceptance bar at 4.  A host that
  gives one core's worth, whatever ``os.cpu_count()`` says, has no speedup
  physically available, so only identity is asserted.  The entry records
  the measured capacity and which bar applied, so a skipped bar shows.

  Entries are tagged with the executor kind (``[... executor=process]``),
  so report lines from different execution modes are never compared as if
  they measured the same thing.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised
from repro.runtime import AdaptationService
from repro.uncertainty import MCDropoutPredictor

from conftest import parallel_capacity


def loop_predict(model, inputs, n_mc, seed):
    """The loop baseline: the full input forwarded once per MC pass — the
    pre-vectorization protocol — with per-layer streams seeded as the
    predictor seeds them, returning the predictor's mean and uncertainty."""
    model.eval()
    layers = model.dropout_layers()
    for layer, child in zip(layers, np.random.SeedSequence(seed).spawn(len(layers))):
        layer.set_mc_rng(np.random.default_rng(child))
    model.set_mc_dropout(True)
    try:
        samples = np.stack([model.forward(inputs) for _ in range(n_mc)])
    finally:
        for layer in layers:
            layer.set_mc_rng(None)
        model.set_mc_dropout(False)
    return samples.mean(axis=0), samples.std(axis=0).mean(axis=1)


def measure_mc_speedup(n_rows, n_mc, paired_timer):
    """Loop-vs-vectorized paired timing; ``ratio`` is the vectorized speedup."""
    model = nn.build_mlp(8, 1, hidden_dims=(16, 16, 16), dropout=0.2, seed=0)
    inputs = np.random.default_rng(0).normal(size=(n_rows, 8))
    vectorized = MCDropoutPredictor(model, n_samples=n_mc, seed=1, mc_batch_rows=16)
    return paired_timer(
        lambda: loop_predict(model, inputs, n_mc, seed=1),
        lambda: vectorized.predict(inputs),
        rounds=15,
        repeats=5,
    )


def test_mc_dropout_vectorized_vs_loop(record_bench, perf_check, paired_timer):
    lines = [
        "[bench_runtime] vectorized vs loop MC dropout (3x16 MLP), "
        "median over 15 paired rounds"
    ]
    results = {}
    for n_rows, n_mc in [(16, 20), (16, 50), (64, 20)]:
        timing = measure_mc_speedup(n_rows, n_mc, paired_timer)
        results[(n_rows, n_mc)] = timing.ratio
        lines.append(
            f"n_rows={n_rows:3d} n_mc={n_mc:3d}: vectorized {timing.second * 1e3:7.3f} ms  "
            f"loop {timing.first * 1e3:7.3f} ms  speedup {timing.ratio:4.1f}x "
            f"(noise ±{timing.noise:.2f}x)"
        )
    text = "\n".join(lines)
    print("\n" + text)
    record_bench(text)
    # The acceptance bar: >=3x at small scale (one target's worth of data).
    perf_check(results[(16, 50)] >= 3.0, f"MC-dropout speedup {results[(16, 50)]:.2f}x < 3x")
    # And the stacked forward must never regress at larger batches.
    perf_check(results[(64, 20)] >= 0.8, f"stacked forward regressed: {results[(64, 20)]:.2f}x")


def make_service_fixture():
    rng = np.random.default_rng(0)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    inputs = rng.normal(size=(160, 4))
    targets = inputs @ weights + 0.1 * rng.normal(size=160)
    model = nn.build_mlp(4, 1, hidden_dims=(16, 8), dropout=0.2, seed=0)
    train_supervised(
        model, nn.ArrayDataset(inputs, targets), epochs=10, batch_size=32, lr=3e-3, rng=rng
    )
    config = TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=3,
        min_adaptation_epochs=1,
        early_stop=False,
        seed=0,
    )
    calibration = Tasfar(config).calibrate_on_source(model, inputs, targets)
    fleet = {
        f"user_{index:02d}": np.random.default_rng(100 + index).normal(
            loc=0.1 * index, size=(40, 4)
        )
        for index in range(6)
    }
    return model, calibration, config, fleet


def test_multi_target_service_serial_vs_pooled(record_bench, perf_check, paired_timer):
    model, calibration, config, fleet = make_service_fixture()
    cores = os.cpu_count() or 1
    processes = max(min(4, cores), 2)

    serial = AdaptationService(model, calibration, config=config)
    pooled = AdaptationService(model, calibration, config=config)
    # Attached up front: the pool spawns its workers before returning, so
    # spawn and weight shipping are not billed.
    pooled.use_process_workers(processes)
    try:
        # The probe brackets the timed runs, because the host's capacity
        # can change between windows.  The bar reads the median of both
        # probes' per-round readings pooled: it leans neither toward
        # applying a bar nor toward skipping one.
        before = parallel_capacity(processes)
        # The first call of each side is cold; it is recorded, not judged.
        cold, reports = {}, {}
        for side, service in (("serial", serial), ("pooled", pooled)):
            start = time.perf_counter()
            reports[side] = service.adapt_many(fleet)
            cold[side] = time.perf_counter() - start
        timing = paired_timer(
            lambda: serial.adapt_many(fleet), lambda: pooled.adapt_many(fleet), rounds=15
        )
        after = parallel_capacity(processes)
    finally:
        pooled.close()
    readings = before + after
    capacity = statistics.median(readings)
    quartiles = statistics.quantiles(readings, n=4)
    noise = (quartiles[2] - quartiles[0]) / 2

    # Per-target seeding makes the pooled run bit-identical to serial.
    for name in fleet:
        assert reports["serial"][name].losses == reports["pooled"][name].losses

    # Capacity-aware bars: 90% of N cores' worth counts as N cores.  Short
    # of two, whatever ``os.cpu_count()`` says, the host has no parallelism
    # a bar can rely on; asserting a ratio there would test the scheduler,
    # not the code.
    process_speedup = timing.ratio
    if capacity >= 3.6:
        bar = ">= 2.5x"
        passed = process_speedup >= 2.5
    elif capacity >= 1.8:
        bar = "> 1.0x"
        passed = process_speedup > 1.0
    else:
        bar = "identity only"
        passed = True
    entry = (
        f"[bench_runtime] AdaptationService, {len(fleet)} targets x 40 samples, "
        f"{cores} core(s)\n"
        f"measured parallel capacity: {capacity:.2f} ±{noise:.2f} cores' worth for "
        f"{processes} processes (probe medians {statistics.median(before):.2f} before, "
        f"{statistics.median(after):.2f} after); bar applied: {bar}\n"
        f"cold first call: serial {cold['serial'] * 1e3:.1f} ms, "
        f"processes {cold['pooled'] * 1e3:.1f} ms\n"
        f"median over 15 paired rounds:\n"
        f"serial:                     {timing.first * 1e3:8.1f} ms\n"
        f"processes ({processes} workers):      {timing.second * 1e3:8.1f} ms  "
        f"(identical results, speedup {process_speedup:.2f}x ±{timing.noise:.2f}x)"
    )
    print("\n" + entry)
    record_bench(entry, tags={"executor": "serial+process"})
    perf_check(
        passed,
        f"process pool speedup {process_speedup:.2f}x misses the {bar} bar at a "
        f"measured capacity of {capacity:.2f} cores",
    )
