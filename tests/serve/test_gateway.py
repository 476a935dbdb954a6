"""Tests for the sharded serving gateway and its prediction micro-batcher."""

import numpy as np
import pytest

from repro.serve import (
    AdaptRequest,
    Envelope,
    Gateway,
    PredictRequest,
    ReportRequest,
    StreamRequest,
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


class TestSubmission:
    def test_adapt_then_predict_roundtrip(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=2)
        probe = np.random.default_rng(3).normal(size=(8, 4))
        envelope = gateway.submit(PredictRequest("user_00", probe))
        assert envelope.ok and envelope.kind == "predict"
        assert envelope.payload["model"] == "adapted"
        again = gateway.submit(PredictRequest("user_00", probe, strict=True))
        np.testing.assert_array_equal(
            envelope.payload["prediction"], again.payload["prediction"]
        )
        gateway.close()

    def test_unadapted_target_falls_back_to_source(self, source):
        gateway = build_gateway(source)
        probe = np.random.default_rng(4).normal(size=(6, 4))
        envelope = gateway.submit(PredictRequest("stranger", probe))
        assert envelope.ok and envelope.payload["model"] == "source"
        gateway.close()

    def test_strict_predict_yields_error_envelope(self, source):
        gateway = build_gateway(source)
        envelope = gateway.submit(
            PredictRequest("stranger", np.zeros((4, 4)), strict=True)
        )
        assert not envelope.ok
        assert envelope.error["type"] == "KeyError"
        assert "never adapted" in envelope.error["message"]
        gateway.close()

    def test_one_bad_request_does_not_poison_the_batch(self, source):
        gateway, fleet = adapted_gateway(source)
        probe = np.random.default_rng(5).normal(size=(8, 4))
        envelopes = gateway.submit_many(
            [
                PredictRequest("user_00", probe),
                PredictRequest("stranger", probe, strict=True),
                PredictRequest("user_01", probe),
            ]
        )
        assert [envelope.ok for envelope in envelopes] == [True, False, True]
        gateway.close()

    def test_submit_async_returns_future_envelope(self, source):
        gateway, fleet = adapted_gateway(source)
        probe = np.random.default_rng(6).normal(size=(8, 4))
        future = gateway.submit_async(PredictRequest("user_00", probe))
        envelope = future.result(timeout=30)
        assert isinstance(envelope, Envelope) and envelope.ok
        gateway.close()

    def test_adapt_reports_survive_and_merge_across_shards(self, source):
        gateway, fleet = adapted_gateway(source, n_shards=3)
        envelope = gateway.submit(ReportRequest())
        assert envelope.ok
        assert sorted(envelope.payload["reports"]) == sorted(fleet)
        single = gateway.submit(ReportRequest("user_01"))
        assert single.ok and single.payload["report"]["target_id"] == "user_01"
        assert single.payload["shard"] == gateway.shard_for("user_01")
        gateway.close()

    def test_stream_requests_reach_streaming_shards(self, source):
        gateway = build_gateway(source, service_options={"min_adapt_events": 16})
        batch = np.random.default_rng(7).normal(size=(8, 4))
        envelope = gateway.submit(StreamRequest("walker", batch))
        assert envelope.ok and envelope.payload["event"]["action"] == "buffered"
        envelope = gateway.submit(StreamRequest("walker", batch + 0.1))
        assert envelope.payload["event"]["action"] in ("cold_adapt", "adapt_failed")
        assert gateway.stream_stats("walker")["total_events"] == 16
        gateway.close()

    def test_gateway_without_calibration_rejects_streams(self, source):
        model, _ = source
        from repro.engine import create_strategy

        strategy = create_strategy("baseline", epochs=2, seed=0)
        gateway = Gateway(model, strategy=strategy)
        envelope = gateway.submit(StreamRequest("walker", np.zeros((4, 4))))
        assert not envelope.ok and envelope.error["type"] == "TypeError"
        gateway.close()

    def test_int_and_str_target_ids_are_one_target(self, source):
        gateway = build_gateway(source)
        data = make_targets(n_targets=1)["user_00"]
        assert gateway.submit(AdaptRequest(7, data)).ok
        assert gateway.report_for("7") is not None
        assert gateway.shard_for(7) == gateway.shard_for("7")
        probe = np.random.default_rng(8).normal(size=(8, 4))
        envelope = gateway.submit(PredictRequest("7", probe, strict=True))
        assert envelope.ok and envelope.payload["model"] == "adapted"
        gateway.close()


def bursty_requests(rng, n_bursts=40):
    """A bursty multi-target workload: mixed sizes, duplicates, fallbacks."""
    requests = []
    for burst in range(n_bursts):
        target = f"user_{burst % 6:02d}"  # user_04/05 never adapted
        rows = (1, 4, 13, 300)[burst % 4]  # includes >= batch_size payloads
        inputs = rng.normal(size=(rows, 4))
        requests.append(PredictRequest(target, inputs))
        if burst % 3 == 0:  # duplicate-target burst: byte-identical payload
            requests.append(PredictRequest(target, inputs.copy()))
    return requests


class TestMicroBatching:
    def test_coalesced_bitwise_equal_to_per_request_submits(self, source):
        gateway, fleet = adapted_gateway(
            source,
            n_shards=2,
            max_cached_models=3,  # user_00 evicted: source-fallback traffic too
        )
        requests = bursty_requests(np.random.default_rng(9))
        envelopes = gateway.submit_many(requests)
        assert all(envelope.ok for envelope in envelopes)
        for request, envelope in zip(requests, envelopes):
            single = gateway.submit(PredictRequest(request.target_id, request.inputs))
            np.testing.assert_array_equal(
                envelope.payload["prediction"], single.payload["prediction"]
            )
        assert any(envelope.payload["coalesced"] for envelope in envelopes)
        gateway.close()

    def test_gateway_matches_legacy_service_predict(self, source):
        gateway, fleet = adapted_gateway(source)
        requests = bursty_requests(np.random.default_rng(10), n_bursts=16)
        envelopes = gateway.submit_many(requests)
        for request, envelope in zip(requests, envelopes):
            legacy = gateway.service_for(request.target_id).predict(
                request.target_id, request.inputs
            )
            if len(request.inputs) < request.batch_size:
                # The tiled executor fixes the forward shape; vs the
                # request-shaped legacy path that can cost an ulp.
                np.testing.assert_allclose(
                    envelope.payload["prediction"], legacy, rtol=1e-12, atol=1e-12
                )
            else:
                np.testing.assert_array_equal(envelope.payload["prediction"], legacy)
        gateway.close()

    def test_duplicate_payloads_computed_once_and_fanned_out(self, source):
        gateway, fleet = adapted_gateway(source)
        probe = np.random.default_rng(11).normal(size=(8, 4))
        requests = [PredictRequest("user_00", probe.copy()) for _ in range(6)]
        envelopes = gateway.submit_many(requests)
        assert all(envelope.ok for envelope in envelopes)
        assert sum(envelope.payload["coalesced"] for envelope in envelopes) == 6
        solo = gateway.submit(PredictRequest("user_00", probe))
        assert not solo.payload["coalesced"]
        reference = solo.payload["prediction"]
        for envelope in envelopes:
            np.testing.assert_array_equal(envelope.payload["prediction"], reference)
        gateway.close()

    def test_mixed_batch_sizes_never_share_a_group(self, source):
        gateway, fleet = adapted_gateway(source)
        probe = np.random.default_rng(12).normal(size=(20, 4))
        requests = [
            PredictRequest("user_00", probe, batch_size=8),
            PredictRequest("user_00", probe.copy(), batch_size=256),
        ]
        envelopes = gateway.submit_many(requests)
        for request, envelope in zip(requests, envelopes):
            single = gateway.submit(request)
            np.testing.assert_array_equal(
                envelope.payload["prediction"], single.payload["prediction"]
            )
        # The batch_size=8 request is chunk-executed (20 >= 8): that stays
        # request-shaped and must match the service bit for bit.
        np.testing.assert_array_equal(
            envelopes[0].payload["prediction"],
            gateway.service_for("user_00").predict("user_00", probe, batch_size=8),
        )
        gateway.close()

    def test_tiled_execution_is_packing_invariant(self, source):
        """The same request answered alone, in a small burst, and in a large
        burst must come back bit-identical every time."""
        gateway, fleet = adapted_gateway(source)
        rng = np.random.default_rng(13)
        probe = PredictRequest("user_01", rng.normal(size=(7, 4)))
        alone = gateway.submit(probe).payload["prediction"]
        small = gateway.submit_many(
            [probe, PredictRequest("user_01", rng.normal(size=(3, 4)))]
        )[0].payload["prediction"]
        noise = [
            PredictRequest("user_01", rng.normal(size=(rows, 4)))
            for rows in (1, 5, 30, 64, 2)
        ]
        large = gateway.submit_many(noise[:2] + [probe] + noise[2:])[2].payload[
            "prediction"
        ]
        np.testing.assert_array_equal(alone, small)
        np.testing.assert_array_equal(alone, large)
        gateway.close()

    def test_submit_async_predict_is_a_one_request_burst(self, source):
        """A lone ``submit_async`` predict is answered by the burst executor:
        bit-identical to the same request inside a ``submit_many`` burst, and
        counted exactly once."""
        gateway, fleet = adapted_gateway(source)
        rng = np.random.default_rng(15)
        probe = PredictRequest("user_02", rng.normal(size=(5, 4)))
        burst = gateway.submit_many(
            [PredictRequest("user_02", rng.normal(size=(9, 4))), probe]
        )
        shard = gateway.service_for("user_02").metrics

        def counts():
            return (
                gateway.metrics.counter_value("serve.requests", kind="predict"),
                shard.counter_value("service.cache.hits"),
                shard.counter_value("service.cache.misses"),
                gateway.metrics.counter_total("batch.plans"),
            )

        before = counts()
        envelope = gateway.submit_async(probe).result(timeout=30)
        after = counts()
        assert envelope.ok and envelope.payload["model"] == "adapted"
        np.testing.assert_array_equal(
            envelope.payload["prediction"], burst[1].payload["prediction"]
        )
        assert [b - a for a, b in zip(before, after)] == [1, 1, 0, 1]
        gateway.close()

    def test_forward_failure_is_attributed_not_batch_fatal(self, source):
        """A payload whose forward raises (wrong feature width) must come
        back as its own error envelope; coalesced neighbours still answer."""
        gateway, fleet = adapted_gateway(source)
        rng = np.random.default_rng(14)
        good_a = PredictRequest("user_00", rng.normal(size=(6, 4)))
        bad = PredictRequest("user_00", rng.normal(size=(6, 2)))  # 2 of 4 features
        good_b = PredictRequest("user_01", rng.normal(size=(6, 4)))
        envelopes = gateway.submit_many([good_a, bad, good_b])
        assert [envelope.ok for envelope in envelopes] == [True, False, True]
        assert envelopes[1].error["type"] in ("ValueError", "AssertionError")
        for request, envelope in ((good_a, envelopes[0]), (good_b, envelopes[2])):
            single = gateway.submit(PredictRequest(request.target_id, request.inputs))
            np.testing.assert_array_equal(
                envelope.payload["prediction"], single.payload["prediction"]
            )
        gateway.close()


class TestSharding:
    def test_placement_is_deterministic_across_gateways(self, source):
        targets = [f"t{i}" for i in range(64)]
        first = build_gateway(source, n_shards=4)
        second = build_gateway(source, n_shards=4)
        assert [first.shard_for(t) for t in targets] == [
            second.shard_for(t) for t in targets
        ]
        # All shards get some share of a reasonable fleet.
        assert len({first.shard_for(t) for t in targets}) == 4
        first.close()
        second.close()

    def test_growing_the_shard_count_only_moves_targets_to_new_shards(self, source):
        targets = [f"t{i}" for i in range(128)]
        small = build_gateway(source, n_shards=3)
        large = build_gateway(source, n_shards=5)
        moved = 0
        for target in targets:
            before, after = small.shard_for(target), large.shard_for(target)
            if before != after:
                assert after >= 3  # rendezvous: never reshuffled among old shards
                moved += 1
        assert 0 < moved < len(targets)
        small.close()
        large.close()

    def test_adaptation_is_bit_identical_whatever_the_shard_count(self, source):
        fleet = make_targets(n_targets=4)
        probe = np.random.default_rng(13).normal(size=(8, 4))
        outputs = []
        for n_shards in (1, 3):
            gateway = build_gateway(source, n_shards=n_shards)
            assert all(
                e.ok
                for e in gateway.submit_many(
                    [AdaptRequest(name, data) for name, data in fleet.items()]
                )
            )
            outputs.append(
                {
                    name: gateway.submit(PredictRequest(name, probe)).payload["prediction"]
                    for name in fleet
                }
            )
            gateway.close()
        for name in fleet:
            np.testing.assert_array_equal(outputs[0][name], outputs[1][name])

    def test_invalid_shard_parameters_rejected(self, source):
        with pytest.raises(ValueError, match="n_shards"):
            build_gateway(source, n_shards=0)
        with pytest.raises(ValueError, match="shard_workers"):
            build_gateway(source, shard_workers=0)


class TestFromTask:
    def test_from_task_resolves_registries_and_serves(self):
        gateway = Gateway.from_task(
            "housing", scheme="baseline", scale="tiny", seed=0, n_shards=2
        )
        from repro.experiments import get_bundle

        bundle = get_bundle("housing", "tiny", 0)
        scenario = bundle.task.scenarios[0]
        envelope = gateway.submit(
            AdaptRequest(scenario.name, scenario.adaptation.inputs)
        )
        assert envelope.ok and envelope.payload["report"]["scheme"] == "baseline"
        predict = gateway.submit(
            PredictRequest(scenario.name, scenario.adaptation.inputs[:8])
        )
        assert predict.ok and predict.payload["model"] == "adapted"
        gateway.close()

    def test_from_task_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown task"):
            Gateway.from_task("nonsense", scale="tiny")
        with pytest.raises(ValueError, match="unknown adaptation scheme"):
            Gateway.from_task("housing", scheme="wishful", scale="tiny")
