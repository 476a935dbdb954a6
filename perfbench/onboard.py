"""Closed-loop fleet onboarding: ``onboard-pdr`` and ``onboard-housing``.

One client drives the gateway in process.  A wave is one ``submit_many`` of
``AdaptRequest``s over the whole fleet, then one ``PredictRequest`` burst over
the same fleet; the next wave starts when the previous one has answered.  The
fleet ids are the same every wave, so under the determinism contract every
wave's predictions must equal the first wave's byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import gc

from common import median, metric, peak_rss_mb, percentile, windowed
from program_metrics import counter_delta, layer_counts

#: Latency limit behind ``predict_goodput_share`` for a fleet predict burst.
PREDICT_LIMIT_MS = 500.0
#: Percentile of the adapt-burst times behind ``adapt_targets_per_s``.  Every
#: wave does the same work, and the host's slow spells (seconds to minutes
#: long, up to 1.6x slower) only ever lengthen a wave, so a low percentile
#: reads the program and the median reads how much of the run was slow.
ADAPT_PERCENTILE = 10


@dataclass(frozen=True)
class OnboardConfig:
    task: str
    gateway_options: dict
    fleet_size: int | None  # None: one target per task scenario
    rows: int  # adaptation rows per target
    setups: int  # set-ups per run; the median is reported


CONFIGS = {
    # 7 TCN users of the small PDR task, process executor.
    "onboard-pdr": OnboardConfig(
        task="pdr",
        gateway_options={"executor": "process", "n_shards": 1, "max_cached_models": 64},
        fleet_size=None,
        rows=216,
        setups=3,
    ),
    # 32 MLP targets cut from the housing adaptation pool, stacked K=8 training.
    "onboard-housing": OnboardConfig(
        task="housing",
        gateway_options={
            "n_shards": 1,
            "shard_workers": 1,
            "train_batching": 8,
            "max_cached_models": 64,
        },
        fleet_size=32,
        rows=160,
        setups=9,  # about 0.6 s each: enough to outlast a slow spell
    ),
}


@dataclass
class Target:
    inputs: np.ndarray  # what the AdaptRequest carries
    eval_inputs: np.ndarray  # what the PredictRequest carries
    eval_labels: np.ndarray  # never sent to the program


def make_fleet(config: OnboardConfig, bundle, seed: int) -> dict[str, Target]:
    """Seeded per-target subsamples of the task's own target data."""
    rng = np.random.default_rng(seed)
    fleet: dict[str, Target] = {}
    if config.fleet_size is None:
        for scenario in bundle.task.scenarios:
            pooled = scenario.pooled()
            chosen = np.sort(rng.choice(len(pooled), size=config.rows, replace=False))
            fleet[scenario.name] = Target(
                pooled.inputs[chosen], pooled.inputs, pooled.targets
            )
        return fleet
    [scenario] = bundle.task.scenarios
    pooled = scenario.pooled()
    for index in range(config.fleet_size):
        chosen = np.sort(
            rng.choice(len(scenario.adaptation), size=config.rows, replace=False)
        )
        fleet[f"{config.task}-{index:02d}"] = Target(
            scenario.adaptation.inputs[chosen], pooled.inputs, pooled.targets
        )
    return fleet


def _build_gateway(config: OnboardConfig):
    import os

    from repro.serve import Gateway

    options = dict(config.gateway_options)
    if options.get("executor") == "process":
        options["shard_workers"] = min(2, os.cpu_count() or 1)
    return Gateway.from_task(config.task, scale="small", seed=0, **options)


class Check:
    """Collects output-check failures; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_wave(gateway, adapt_requests, predict_requests):
    """One closed-loop wave; returns (adapt_s, predict_s, envelopes)."""
    start = time.perf_counter()
    adapt_envelopes = gateway.submit_many(adapt_requests)
    middle = time.perf_counter()
    predict_envelopes = gateway.submit_many(predict_requests)
    end = time.perf_counter()
    return middle - start, end - middle, adapt_envelopes, predict_envelopes, (start, end)


def prediction_bytes(envelopes) -> list[bytes]:
    return [
        np.asarray(envelope.payload["prediction"], dtype=np.float64).tobytes()
        if envelope.ok
        else b""
        for envelope in envelopes
    ]


def run(name: str, seed: int, seconds: float, tracer=None) -> dict:
    from repro.experiments import clear_bundle_cache, get_bundle
    from repro.serve import AdaptRequest, PredictRequest

    config = CONFIGS[name]
    check = Check()
    fleet = make_fleet(config, get_bundle(config.task, "small", 0), seed)
    clear_bundle_cache()
    adapt_requests = [AdaptRequest(tid, target.inputs) for tid, target in fleet.items()]
    predict_requests = [
        PredictRequest(tid, target.eval_inputs) for tid, target in fleet.items()
    ]

    # Set-up: bundle (synthesis, source training, calibration), gateway (and
    # its worker processes), one untimed warm-up wave.  Repeated; the median
    # is reported.  Under tracing, one set-up, traced.
    setups: list[float] = []
    reference: list[bytes] | None = None
    gateway = None
    windows: list[tuple[float, float]] = []
    try:
        for attempt in range(1 if tracer is not None else config.setups):
            if gateway is not None:
                gateway.close()
                clear_bundle_cache()
                gc.collect()
            if tracer is not None:
                tracer.enable()
            start = time.perf_counter()
            gateway = _build_gateway(config)
            _, _, adapt_env, predict_env, _ = run_wave(gateway, adapt_requests, predict_requests)
            setups.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.disable()
                windows.append((start, start + setups[-1]))
            for envelope in adapt_env + predict_env:
                if not envelope.ok:
                    check.fail(f"warm-up {envelope.kind} {envelope.target_id}: {envelope.error}")
            warm = prediction_bytes(predict_env)
            if reference is None:
                reference = warm
            elif warm != reference:
                check.fail(f"set-up {attempt}: warm-up predictions differ from set-up 0")
        before = gateway.metrics_snapshot()

        adapt_times: list[float] = []
        predict_times: list[float] = []
        traced_waves: list[float] = []
        plain_waves: list[float] = []
        n_attempted = n_ok = 0
        began = time.perf_counter()
        deadline = began + seconds
        bursts: list[tuple[float, float]] = []  # (seconds since began, predict ms)
        wave = 0
        while wave == 0 or time.perf_counter() < deadline:
            traced = tracer is not None and wave % 2 == 1
            if traced:
                tracer.enable()
            adapt_s, predict_s, adapt_env, predict_env, span = run_wave(
                gateway, adapt_requests, predict_requests
            )
            if traced:
                tracer.disable()
                windows.append(span)
            (traced_waves if traced else plain_waves).append(adapt_s + predict_s)
            adapt_times.append(adapt_s)
            predict_times.append(predict_s)
            bursts.append((span[0] - began, 1000.0 * predict_s))
            for envelope in adapt_env + predict_env:
                n_attempted += 1
                if envelope.ok:
                    n_ok += 1
                else:
                    check.fail(f"wave {wave} {envelope.kind} {envelope.target_id}: {envelope.error}")
            if prediction_bytes(predict_env) != reference:
                check.fail(f"wave {wave}: predictions differ from the warm-up wave")
            wave += 1
        after = gateway.metrics_snapshot()
    finally:
        if gateway is not None:
            gateway.close()  # joins the worker processes, so their peak RSS is counted
    bundle = get_bundle(config.task, "small", 0)

    reductions = []
    for envelope in predict_env:
        if not envelope.ok:
            continue  # already a failed check
        target = fleet[envelope.target_id]
        source = bundle.predict(target.eval_inputs)
        before_mse = float(np.mean((source - target.eval_labels) ** 2))
        after_mse = float(
            np.mean((np.asarray(envelope.payload["prediction"]) - target.eval_labels) ** 2)
        )
        reductions.append(1.0 - after_mse / before_mse)

    fleet_size = len(fleet)
    # Every request of a burst is answered when the burst is.
    per_request = [(offset, ms) for offset, ms in bursts for _ in range(fleet_size)]
    predict_ms = [ms for _, ms in per_request]

    end_to_end = {
        "setup_s": metric(median(setups), "s"),
        "ok_share": metric(n_ok / n_attempted, "ratio"),
        "peak_rss_mb": metric(max(peak_rss_mb(False), peak_rss_mb(True)), "MB"),
        "adapt_targets_per_s": metric(
            fleet_size / percentile(adapt_times, ADAPT_PERCENTILE), "targets/s"
        ),
        "predict_goodput_share": metric(
            windowed(per_request, lambda v: sum(ms <= PREDICT_LIMIT_MS for ms in v) / len(v)),
            "ratio",
        ),
        "mse_vs_source": metric(1.0 - float(np.mean(reductions)), "ratio"),
    }
    extra = {
        "predict_ms.p50": metric(percentile(predict_ms, 50), "ms"),
        "predict_ms.p99": metric(percentile(predict_ms, 99), "ms"),
        "mse_reduction": metric(float(np.mean(reductions)), "ratio"),
        "wave_s.p50": metric(median([a + p for a, p in zip(adapt_times, predict_times)]), "s"),
        "adapt_s.p10": metric(percentile(adapt_times, ADAPT_PERCENTILE), "s"),
        "adapt_s.p50": metric(median(adapt_times), "s"),
        "failed_share": metric(1.0 - n_ok / n_attempted, "ratio"),
        "waves": metric(wave, "count"),
    }
    counts = layer_counts(
        counter_delta(before, after),
        train_batching=config.gateway_options.get("train_batching", 1),
    )
    overhead = None
    if tracer is not None and traced_waves and plain_waves:
        overhead = median(traced_waves) / median(plain_waves) - 1.0
    return {
        "correct": check.ok,
        "problems": check.problems,
        "attempted": n_attempted,
        "failed": n_attempted - n_ok,
        "end_to_end": end_to_end,
        "extra": extra,
        "counts": counts,
        "trace_windows": windows,
        "trace_overhead_share": overhead,
        "generator_lag_ms_p99": 0.0,
    }
