"""Micro-benchmarks for the serving gateway's prediction hot path.

The acceptance bar of the serving redesign: on a bursty multi-target
workload, micro-batched ``Gateway.submit_many`` prediction must be at least
**2x faster** than the equivalent per-request predict loop, with
**bit-identical** outputs.  The workload mirrors what a serving frontend
sees — many small per-target requests arriving together, duplicate-target
bursts (retries, replica fan-out), and a tail of never-adapted targets all
falling back to the shared source model — which is exactly the traffic the
coalescing tiers (dedup + fixed-shape tiled stacking) were built for.

Recorded into ``benchmark_report.txt`` next to the runtime/streaming
benchmarks so regressions of either path show up in one place.
"""

from __future__ import annotations

import time

import numpy as np

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised
from repro.serve import AdaptRequest, Gateway, PredictRequest


def best_time(fn, repeats=5):
    """Minimum wall-clock over ``repeats`` runs (robust to one-sided noise)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def make_gateway_fixture(n_adapted=4, n_fallback=4):
    """A trained source model served through a 2-shard gateway."""
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
    gateway = Gateway(
        model,
        calibration,
        config=config,
        n_shards=2,
        shard_workers=2,
        max_cached_models=n_adapted,
    )
    fleet = {
        f"user_{index:02d}": np.random.default_rng(100 + index).normal(
            loc=0.1 * index, size=(40, 4)
        )
        for index in range(n_adapted)
    }
    envelopes = gateway.submit_many(
        [AdaptRequest(name, data) for name, data in fleet.items()]
    )
    assert all(envelope.ok for envelope in envelopes)
    targets_all = list(fleet) + [f"guest_{index:02d}" for index in range(n_fallback)]
    return gateway, targets_all


def legacy_predict(gateway, request):
    """The request-shaped reference: ``AdaptationService.predict`` on the
    request's owning shard."""
    return gateway.service_for(request.target_id).predict(
        request.target_id, request.inputs
    )


def bursty_workload(targets, n_requests=240, seed=1):
    """Small per-target requests with duplicate bursts, frontend-style."""
    rng = np.random.default_rng(seed)
    requests = []
    while len(requests) < n_requests:
        target = targets[rng.integers(len(targets))]
        rows = int(rng.choice([1, 4, 8, 16]))
        inputs = rng.normal(size=(rows, 4))
        burst = int(rng.choice([1, 1, 2, 4]))  # some targets re-send the window
        for _ in range(burst):
            requests.append(PredictRequest(target, inputs.copy()))
    return requests[:n_requests]


def test_micro_batched_submit_many_vs_per_request_loop(record_bench, perf_check):
    gateway, targets = make_gateway_fixture()
    requests = bursty_workload(targets)

    batched_envelopes = gateway.submit_many(requests)
    assert all(envelope.ok for envelope in batched_envelopes)
    per_request_envelopes = [gateway.submit(request) for request in requests]

    # The acceptance bar's correctness half: micro-batching must not move a
    # single bit relative to submitting the same requests one at a time.
    for batched, single in zip(batched_envelopes, per_request_envelopes):
        np.testing.assert_array_equal(
            batched.payload["prediction"], single.payload["prediction"]
        )
    # ... and the legacy service surface stays within float rounding.
    for request, batched in zip(requests, batched_envelopes):
        np.testing.assert_allclose(
            batched.payload["prediction"],
            legacy_predict(gateway, request),
            rtol=1e-12,
            atol=1e-12,
        )

    batched_time = best_time(lambda: gateway.submit_many(requests))
    per_request_time = best_time(lambda: [gateway.submit(r) for r in requests])
    legacy_time = best_time(lambda: [legacy_predict(gateway, r) for r in requests])
    coalesced = sum(e.payload["coalesced"] for e in batched_envelopes)

    speedup = per_request_time / batched_time
    legacy_speedup = legacy_time / batched_time
    text = (
        f"[bench_serve] micro-batched prediction, {len(requests)} bursty requests, "
        f"{len(targets)} targets (adapted + source-fallback), 2 shards\n"
        f"submit_many (coalesced, {coalesced} shared): {batched_time * 1e3:8.1f} ms\n"
        f"per-request submit loop:                    {per_request_time * 1e3:8.1f} ms  "
        f"(bit-identical, speedup {speedup:.2f}x)\n"
        f"legacy service.predict loop:                {legacy_time * 1e3:8.1f} ms  "
        f"(allclose, speedup {legacy_speedup:.2f}x)"
    )
    print("\n" + text)
    record_bench(
        text,
        wall_seconds={
            "submit_many": batched_time,
            "per_request": per_request_time,
            "legacy_predict": legacy_time,
        },
    )
    perf_check(
        speedup >= 2.0,
        f"micro-batched submit_many only {speedup:.2f}x faster than the "
        f"per-request loop (bar: 2x)",
    )
    gateway.close()


def test_duplicate_bursts_are_exact_and_fast(record_bench, perf_check, paired_timer):
    """Duplicate-heavy bursts: every payload arrives four times, so dedup
    does most of the saving.  Each answer is bit-identical to its solo
    ``submit`` and within float rounding of the request-shaped legacy
    loop.  The speedup is the paired median (``conftest.paired_timing``),
    not a min-of-N, so one noisy window on a shared host cannot fail it."""
    gateway, targets = make_gateway_fixture()
    rng = np.random.default_rng(2)
    requests = []
    for index in range(60):
        target = targets[index % len(targets)]
        window = rng.normal(size=(8, 4))
        requests.extend(PredictRequest(target, window.copy()) for _ in range(4))

    envelopes = gateway.submit_many(requests)
    assert all(envelope.ok for envelope in envelopes)
    for request, envelope in zip(requests, envelopes):
        np.testing.assert_array_equal(
            envelope.payload["prediction"],
            gateway.submit(request).payload["prediction"],
        )
        np.testing.assert_allclose(
            envelope.payload["prediction"],
            legacy_predict(gateway, request),
            rtol=1e-12,
            atol=1e-12,
        )

    rounds = 15
    timing = paired_timer(
        lambda: [legacy_predict(gateway, r) for r in requests],
        lambda: gateway.submit_many(requests),
        rounds=rounds,
    )
    legacy_time, deduped_time, speedup = timing.first, timing.second, timing.ratio
    text = (
        f"[bench_serve] duplicate bursts, {len(requests)} requests "
        f"(4x duplicate bursts), median over {rounds} paired rounds\n"
        f"submit_many:         {deduped_time * 1e3:8.1f} ms\n"
        f"legacy predict loop: {legacy_time * 1e3:8.1f} ms  "
        f"(allclose, speedup {speedup:.2f}x, noise ±{timing.noise:.2f}x)"
    )
    print("\n" + text)
    record_bench(
        text,
        wall_seconds={"submit_many_dedup": deduped_time, "legacy_predict": legacy_time},
    )
    perf_check(
        speedup >= 1.5,
        f"submit_many only {speedup:.2f}x faster on duplicate bursts (bar: 1.5x)",
    )
    gateway.close()
