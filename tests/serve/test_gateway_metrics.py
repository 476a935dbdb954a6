"""Gateway-level telemetry: the metrics request kind, request counters,
queue-depth accounting, batching instrumentation, and tracing wiring."""

import json

import numpy as np
import pytest

from repro.obs import Tracer, validate_snapshot
from repro.serve import (
    AdaptRequest,
    Gateway,
    MetricsRequest,
    PredictRequest,
    decode_request,
    encode_request,
)

from gateway_fixtures import fast_config, make_targets


def build_gateway(source, **kwargs):
    model, calibration = source
    kwargs.setdefault("config", fast_config())
    kwargs.setdefault("shard_workers", 2)
    return Gateway(model, calibration, **kwargs)


def adapted_gateway(source, n_targets=4, **kwargs):
    gateway = build_gateway(source, **kwargs)
    fleet = make_targets(n_targets=n_targets)
    envelopes = gateway.submit_many(
        [AdaptRequest(name, data) for name, data in fleet.items()]
    )
    assert all(envelope.ok for envelope in envelopes)
    return gateway, fleet


class TestMetricsRequest:
    def test_wire_roundtrip(self):
        for request in (MetricsRequest(), MetricsRequest(target_id="user_00")):
            line = json.dumps(encode_request(request))
            assert decode_request(json.loads(line)) == request

    def test_fleet_snapshot_via_request(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=2)
        envelope = gateway.submit(MetricsRequest())
        assert envelope.ok and envelope.kind == "metrics"
        snapshot = envelope.payload["metrics"]
        validate_snapshot(snapshot)
        # Shard-scoped series are labeled with their shard index.
        shards = {
            entry["labels"]["shard"]
            for entry in snapshot["counters"]
            if entry["name"] == "service.adaptations"
        }
        assert shards == {"0", "1"}
        # The metrics request counts itself, but only after answering: the
        # snapshot it carries predates its own envelope.
        by_kind = {
            entry["labels"]["kind"]: entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "serve.requests"
        }
        assert by_kind["adapt"] == len(fleet)
        assert "metrics" not in by_kind
        assert gateway.metrics.counter_value("serve.requests", kind="metrics") == 1
        gateway.close()

    def test_targeted_snapshot_narrows_to_owning_shard(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=2)
        target = next(iter(fleet))
        envelope = gateway.submit(MetricsRequest(target_id=target))
        assert envelope.ok
        shard = envelope.payload["shard"]
        assert shard == gateway.shard_for(target)
        labels = {
            entry["labels"].get("shard")
            for entry in envelope.payload["metrics"]["counters"]
            if entry["name"].startswith("service.")
        }
        assert labels == {str(shard)}
        gateway.close()

    def test_wire_serving_of_metrics_kind(self, source):
        from repro.serve import serve_lines

        gateway = build_gateway(source)
        lines = iter(['{"kind": "metrics"}'])
        (envelope,) = list(serve_lines(gateway, lines))
        wire = json.loads(envelope.to_json())
        assert wire["ok"] is True
        validate_snapshot(wire["payload"]["metrics"])
        gateway.close()


class TestRequestCounters:
    def test_every_envelope_is_counted_by_kind(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=2)
        probe = np.random.default_rng(11).normal(size=(8, 4))
        names = list(fleet)
        envelopes = gateway.submit_many(
            [PredictRequest(name, probe) for name in names]
            + [PredictRequest("stranger", probe, strict=True)]
        )
        assert sum(e.ok for e in envelopes) == len(names)
        metrics = gateway.metrics
        assert metrics.counter_value("serve.requests", kind="adapt") == len(fleet)
        assert metrics.counter_value("serve.requests", kind="predict") == len(names) + 1
        assert metrics.counter_value("serve.errors", kind="predict") == 1
        assert metrics.counter_value("serve.errors", kind="adapt") == 0
        gateway.close()

    def test_queue_depth_returns_to_zero_after_burst(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=2)
        probe = np.random.default_rng(12).normal(size=(8, 4))
        gateway.submit_many(
            [PredictRequest(name, probe) for name in fleet for _ in range(3)]
        )
        for shard in range(gateway.n_shards):
            assert gateway.metrics.gauge_value("serve.queue_depth", shard=str(shard)) == 0
        waits = [
            entry
            for entry in gateway.metrics.snapshot()["histograms"]
            if entry["name"] == "serve.queue_wait_seconds"
        ]
        assert sum(entry["count"] for entry in waits) > 0
        gateway.close()

    def test_batching_counters_see_coalesced_burst(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=1)
        probe = np.random.default_rng(13).normal(size=(8, 4))
        target = next(iter(fleet))
        # Four identical predicts: one forward, three dedup hits.
        gateway.submit_many([PredictRequest(target, probe) for _ in range(4)])
        metrics = gateway.metrics
        assert metrics.counter_total("batch.plans") >= 1
        assert metrics.counter_total("batch.dedup_hits") >= 3
        gateway.close()

    def test_failed_coalesced_forward_leaves_no_counts_behind(self, source):
        """A group whose forward raises is re-run one plan at a time; only
        the answered runs may reach the batching counters."""
        gateway, fleet = adapted_gateway(source, n_shards=1)
        rng = np.random.default_rng(15)
        target = next(iter(fleet))
        envelopes = gateway.submit_many(
            [
                PredictRequest(target, rng.normal(size=(6, 4))),
                PredictRequest(target, rng.normal(size=(6, 2))),  # 2 of 4 features
                PredictRequest(target, rng.normal(size=(6, 4))),
            ]
        )
        assert [envelope.ok for envelope in envelopes] == [True, False, True]
        metrics = gateway.metrics
        # Three plans; the two good ones each answered from one padded tile.
        assert metrics.counter_total("batch.plans") == 3
        assert metrics.counter_total("batch.tiles") == 2
        assert metrics.counter_total("batch.tile_rows") == 12
        assert metrics.counter_total("batch.tile_padding_rows") == 2 * 32 - 12
        [occupancy] = [
            entry
            for entry in metrics.snapshot()["histograms"]
            if entry["name"] == "batch.tile_occupancy"
        ]
        assert occupancy["count"] == 2
        gateway.close()


class TestSnapshotAndToggle:
    def test_metrics_snapshot_merges_gateway_and_shards(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=2)
        snapshot = gateway.metrics_snapshot()
        validate_snapshot(snapshot)
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "serve.requests" in names  # gateway scope
        assert "service.adaptations" in names  # shard scope, labeled
        assert all(
            "shard" in entry["labels"]
            for entry in snapshot["counters"]
            if entry["name"] == "service.adaptations"
        )
        gateway.close()

    def test_set_metrics_enabled_false_stops_counting(self, source):
        gateway = build_gateway(source)
        gateway.set_metrics_enabled(False)
        fleet = make_targets(n_targets=1)
        envelopes = gateway.submit_many(
            [AdaptRequest(name, data) for name, data in fleet.items()]
        )
        assert all(envelope.ok for envelope in envelopes)
        snapshot = gateway.metrics_snapshot()
        assert snapshot["counters"] == []
        gateway.set_metrics_enabled(True)
        gateway.submit(MetricsRequest())
        assert gateway.metrics.counter_value("serve.requests", kind="metrics") == 1
        gateway.close()


class TestTracing:
    def test_gateway_traces_request_lifecycle(self, source):
        tracer = Tracer()
        gateway = build_gateway(source, tracer=tracer)
        fleet = make_targets(n_targets=2)
        gateway.submit_many([AdaptRequest(name, data) for name, data in fleet.items()])
        probe = np.random.default_rng(14).normal(size=(8, 4))
        gateway.submit(PredictRequest(next(iter(fleet)), probe))
        spans = tracer.spans
        roots = [span for span in spans if span["name"] == "request"]
        assert {span["kind"] for span in roots} == {"adapt", "predict"}
        assert len(roots) == 3
        adapt_roots = [span for span in roots if span["kind"] == "adapt"]
        engine = [span for span in spans if span["name"] == "engine"]
        assert len(engine) == len(adapt_roots)  # adapts carry training time
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id
        gateway.close()

    def test_trace_ids_stable_across_identical_runs(self, source):
        def run():
            tracer = Tracer()
            gateway = build_gateway(source, tracer=tracer)
            fleet = make_targets(n_targets=2)
            gateway.submit_many(
                [AdaptRequest(name, data) for name, data in fleet.items()]
            )
            gateway.close()
            return sorted(
                (span["trace_id"], span["span_id"], span["name"])
                for span in tracer.spans
            )

        assert run() == run()
