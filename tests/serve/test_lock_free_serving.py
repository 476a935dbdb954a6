"""Lock-free serving stays bit-identical under threads.

Model forwards take no lock: evaluation forwards write no layer state, and
the one forward that does — an MC-dropout probe — runs on a private copy.
This suite drives one shard from several threads at once, mixing gateway
predict bursts, direct ``AdaptationService.predict`` calls and stream
ingests whose drift probes and warm re-adaptations touch the same targets
the predictions read, then replays the streams serially:

* every stream event equals the serial replay's event for that target;
* every prediction is byte-equal to the serial replay's prediction by one
  of the models that target held during the replay (the source model
  before its first adaptation, then each adapted model in turn).

A probe that sampled dropout on a served model, or a predict that drew
from a probe's streams, would break both.
"""

import copy
import sys
import threading

import numpy as np
import pytest
from gateway_fixtures import fast_config

from repro.nn import parameter_bytes
from repro.nn.module import predict_batched
from repro.serve.batching import PredictPlan, run_model_group
from repro.serve.gateway import Gateway
from repro.serve.protocol import PredictRequest, StreamRequest

#: Stream targets per client thread; every client predicts on all of them.
OWNERS = {"client0": ("s0", "s1"), "client1": ("s2", "s3")}
STREAM_IDS = tuple(tid for owned in OWNERS.values() for tid in owned)
PREDICT_IDS = STREAM_IDS + ("stranger",)
ROUNDS = 16
BATCH_ROWS = 32
#: Long drift probes (64 MC passes) widen the window in which a probe on a
#: shared model would race the predictions.
SERVICE_OPTIONS = {
    "min_adapt_events": 32,
    "readapt_budget": 64,
    "drift_min_batches": 1,
    "drift_mc_samples": 64,
}


@pytest.fixture(scope="module")
def traffic():
    rng = np.random.default_rng(41)
    return {
        "batches": {
            tid: [rng.normal(loc=0.3 + 0.3 * r, size=(BATCH_ROWS, 4)) for r in range(ROUNDS)]
            for tid in STREAM_IDS
        },
        # Sub-batch payloads share tiles; the 40-row one runs request-shaped.
        "probes": [rng.normal(size=(3, 4)), rng.normal(size=(40, 4))],
    }


def make_gateway(source, executor, shard_workers):
    model, calibration = source
    return Gateway(
        model,
        calibration,
        config=fast_config(),
        n_shards=1,
        shard_workers=shard_workers,
        executor=executor,
        max_cached_models=len(PREDICT_IDS),
        service_options=SERVICE_OPTIONS,
    )


def event_key(envelope):
    assert envelope.ok, envelope.error
    return {k: v for k, v in envelope.payload["event"].items() if k != "duration_seconds"}


def serial_replay(source, traffic):
    """Per-target stream events, and every model each target held, in order."""
    gateway = make_gateway(source, "thread", 1)
    try:
        events = {}
        models = {tid: [copy.deepcopy(source[0])] for tid in PREDICT_IDS}
        for tid in STREAM_IDS:
            events[tid] = []
            for batch in traffic["batches"][tid]:
                [envelope] = gateway.submit_many([StreamRequest(tid, batch)])
                events[tid].append(event_key(envelope))
                model = gateway.model_for(tid)
                if model is not None and parameter_bytes(model) != parameter_bytes(
                    models[tid][-1]
                ):
                    models[tid].append(copy.deepcopy(model))
    finally:
        gateway.close()
    return events, models


def reference_outputs(models, probes):
    """Every legitimate answer's bytes, source model first: (target, path, probe) -> list."""
    answers = {}
    for tid, held in models.items():
        for index, probe in enumerate(probes):
            shaped, tiled = [], []
            for model in held:
                shaped.append(predict_batched(model, probe, 256).tobytes())
                plan = PredictPlan(0, tid, probe, 256, False, model)
                run_model_group(model, [plan])
                tiled.append(plan.output.tobytes())
            answers[(tid, "service", index)] = shaped
            answers[(tid, "gateway", index)] = tiled
    return answers


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_concurrent_predicts_probes_and_readapts_match_serial_replay(
    source, traffic, executor
):
    events, models = serial_replay(source, traffic)
    # The oracle must fire: the replay warm-re-adapts after drift probes.
    actions = [event["action"] for target_events in events.values() for event in target_events]
    assert "cold_adapt" in actions and "warm_adapt" in actions
    answers = reference_outputs(models, traffic["probes"])

    gateway = make_gateway(source, executor, shard_workers=3)
    service = gateway.shards[0]
    seen = []  # (target, path, probe index, output bytes)
    seen_lock = threading.Lock()
    streamed = {tid: [] for tid in STREAM_IDS}
    errors = []
    done = threading.Event()

    def client(owned):
        try:
            for r in range(ROUNDS):
                burst = [StreamRequest(tid, traffic["batches"][tid][r]) for tid in owned]
                predicts = [
                    (tid, index)
                    for tid in PREDICT_IDS
                    for index in range(len(traffic["probes"]))
                ]
                burst += [
                    PredictRequest(tid, traffic["probes"][index]) for tid, index in predicts
                ]
                envelopes = gateway.submit_many(burst)
                for tid, envelope in zip(owned, envelopes):
                    streamed[tid].append(event_key(envelope))
                for (tid, index), envelope in zip(predicts, envelopes[len(owned):]):
                    assert envelope.ok, envelope.error
                    output = np.asarray(envelope.payload["prediction"], dtype=np.float64)
                    with seen_lock:
                        seen.append((tid, "gateway", index, output.tobytes()))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    def reader():
        try:
            index = 0
            while not done.is_set():
                tid = PREDICT_IDS[index % len(PREDICT_IDS)]
                probe_index = index % len(traffic["probes"])
                index += 1
                output = service.predict(tid, traffic["probes"][probe_index])
                with seen_lock:
                    seen.append((tid, "service", probe_index, output.tobytes()))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    clients = [threading.Thread(target=client, args=(owned,)) for owned in OWNERS.values()]
    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=300)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
        gateway.close()
    assert not any(thread.is_alive() for thread in clients + readers)
    assert not errors, errors

    assert streamed == events
    assert service.metrics.counter_total("stream.drift.observations") > 0
    adapted_answers = 0
    for tid, path, index, output in seen:
        legitimate = answers[(tid, path, index)]
        assert output in legitimate, (tid, path, index)
        adapted_answers += output != legitimate[0]
    assert adapted_answers > 0
