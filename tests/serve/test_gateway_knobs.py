"""Cross-knob safety net: every combination of gateway knobs answers like the defaults.

Each knob already has its own oracle (process vs thread, stacked vs serial,
snapshot resume vs cold, one shard vs many).  This suite pins their
*interactions*: the full product

    executor {thread, process} x train_batching {1, 3} x n_shards {1, 2}
    x {no snapshots (cache >= fleet), snapshots with a 2-model cache}

runs one adapt burst, two stream bursts (a cold and a warm round) and one
predict burst, and every envelope (durations and shard placement scrubbed)
and every adapted model's parameter bytes must equal the all-defaults run.
One dispatch thread per shard keeps each shard's LRU order — and so which
targets spill — a function of the burst order alone.  The all-non-default
combination is also replayed over TCP against an in-process run, and a lone
adapt or stream request sent through ``submit_async`` must answer exactly as
it does inside its burst, under both executors and both stack sizes.
"""

import itertools

import numpy as np
import pytest
from engine.scheme_oracle_fixture import build_fixture, fast_config
from sim.sim_fixtures import make_spec

from repro.nn import parameter_bytes
from repro.serve.gateway import Gateway
from repro.serve.protocol import AdaptRequest, PredictRequest, StreamRequest
from repro.sim import verify_transport

ADAPT_IDS = [f"a{k}" for k in range(5)]
STREAM_IDS = [f"s{k}" for k in range(4)]
FLEET = len(ADAPT_IDS) + len(STREAM_IDS)


@pytest.fixture(scope="module")
def fixture():
    return build_fixture()


@pytest.fixture(scope="module")
def traffic():
    rng = np.random.default_rng(31)
    return {
        "adapt": {tid: rng.normal(loc=0.3, size=(60, 4)) for tid in ADAPT_IDS},
        "stream": [
            {tid: rng.normal(loc=0.3 + 0.4 * r, size=(12, 4)) for tid in STREAM_IDS}
            for r in range(2)
        ],
        "probe": rng.normal(size=(9, 4)),
    }


def envelope_key(envelope):
    payload = envelope.payload
    if payload is not None:
        payload = {k: v for k, v in payload.items() if k != "shard"}
        for field in ("report", "event"):
            if payload.get(field):
                payload[field] = {
                    k: v for k, v in payload[field].items() if k != "duration_seconds"
                }
        if "prediction" in payload:
            payload["prediction"] = np.asarray(payload["prediction"]).tobytes()
    return (envelope.ok, envelope.kind, envelope.target_id, str(payload), str(envelope.error))


def run_gateway(fixture, traffic, tmp_path, executor, train_batching, n_shards, snapshots):
    gateway = Gateway(
        fixture["model"],
        fixture["calibration"],
        config=fast_config(),
        n_shards=n_shards,
        shard_workers=1,
        executor=executor,
        train_batching=train_batching,
        service_options={"min_adapt_events": 12, "readapt_budget": 12},
        max_cached_models=2 if snapshots else FLEET,
        snapshot_dir=str(tmp_path / "snapshots") if snapshots else None,
    )
    try:
        bursts = [[AdaptRequest(tid, data) for tid, data in traffic["adapt"].items()]]
        for batches in traffic["stream"]:
            bursts.append([StreamRequest(tid, batch) for tid, batch in batches.items()])
        bursts.append(
            [PredictRequest(tid, traffic["probe"]) for tid in ADAPT_IDS + STREAM_IDS]
            + [PredictRequest("stranger", traffic["probe"])]
        )
        keys = [[envelope_key(e) for e in gateway.submit_many(burst)] for burst in bursts]
        weights = {
            tid: parameter_bytes(gateway.model_for(tid)) for tid in ADAPT_IDS + STREAM_IDS
        }
        tiering = {
            name: sum(shard.metrics.counter_total(name) for shard in gateway.shards)
            for name in ("snapshots.spilled", "snapshots.resumed")
        }
    finally:
        gateway.close()
    return keys, weights, tiering


@pytest.fixture(scope="module")
def defaults(fixture, traffic, tmp_path_factory):
    keys, weights, _ = run_gateway(
        fixture, traffic, tmp_path_factory.mktemp("defaults"), "thread", 1, 1, False
    )
    actions = [key[3] for key in keys[1] + keys[2]]
    # The oracle must fire: the stream bursts really cold- and warm-adapt.
    assert any("cold_adapt" in action for action in actions)
    assert any("warm_adapt" in action for action in actions)
    return keys, weights


CASES = list(itertools.product(("thread", "process"), (1, 3), (1, 2), (False, True)))


@pytest.mark.parametrize(
    "executor,train_batching,n_shards,snapshots",
    CASES,
    ids=[
        f"{executor}-tb{tb}-shards{shards}-{'snap' if snap else 'nosnap'}"
        for executor, tb, shards, snap in CASES
    ],
)
def test_knob_combination_matches_defaults(
    fixture, traffic, defaults, tmp_path, executor, train_batching, n_shards, snapshots
):
    keys, weights, tiering = run_gateway(
        fixture, traffic, tmp_path, executor, train_batching, n_shards, snapshots
    )
    default_keys, default_weights = defaults
    assert keys == default_keys
    assert weights == default_weights
    if snapshots:
        # The small cache really thrashes: models spill and resume.
        assert tiering["snapshots.spilled"] > 0 and tiering["snapshots.resumed"] > 0


LONE_CASES = list(itertools.product(("thread", "process"), (1, 3)))


@pytest.mark.parametrize(
    "executor,train_batching",
    LONE_CASES,
    ids=[f"{executor}-tb{tb}" for executor, tb in LONE_CASES],
)
def test_lone_mutators_match_their_burst_answers(
    fixture, traffic, defaults, executor, train_batching
):
    """``submit_async`` of a lone adapt or stream request answers as in a burst."""
    gateway = Gateway(
        fixture["model"],
        fixture["calibration"],
        config=fast_config(),
        shard_workers=1,
        executor=executor,
        train_batching=train_batching,
        service_options={"min_adapt_events": 12, "readapt_budget": 12},
        max_cached_models=FLEET,
    )
    try:
        bursts = [[AdaptRequest(tid, data) for tid, data in traffic["adapt"].items()]]
        for batches in traffic["stream"]:
            bursts.append([StreamRequest(tid, batch) for tid, batch in batches.items()])
        keys = [
            [envelope_key(gateway.submit_async(request).result(timeout=60)) for request in burst]
            for burst in bursts
        ]
        weights = {
            tid: parameter_bytes(gateway.model_for(tid)) for tid in ADAPT_IDS + STREAM_IDS
        }
    finally:
        gateway.close()
    default_keys, default_weights = defaults
    assert keys == default_keys[: len(bursts)]
    assert weights == default_weights


def test_all_non_default_knobs_replay_over_tcp():
    spec = make_spec(
        executor="process",
        train_batching=3,
        n_shards=2,
        shard_workers=1,
        snapshots=True,
        max_cached_models=1,
    )
    ok, detail, tcp_result, _ = verify_transport(spec)
    assert ok, detail
    assert tcp_result.ok
