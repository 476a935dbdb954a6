"""Tests for the StreamingAdaptationService."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised
from repro.streaming import StreamingAdaptationService


def fast_config():
    return TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=4,
        min_adaptation_epochs=1,
        early_stop=False,
        seed=0,
    )


@pytest.fixture(scope="module")
def source():
    rng = np.random.default_rng(0)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    inputs = rng.normal(size=(160, 4))
    targets = inputs @ weights + 0.1 * rng.normal(size=160)
    model = nn.build_mlp(4, 1, hidden_dims=(16, 8), dropout=0.2, seed=0)
    train_supervised(
        model, nn.ArrayDataset(inputs, targets), epochs=15, batch_size=32, lr=3e-3, rng=rng
    )
    calibration = Tasfar(fast_config()).calibrate_on_source(model, inputs, targets)
    return model, calibration


def build_service(source, **kwargs):
    model, calibration = source
    kwargs.setdefault("config", fast_config())
    kwargs.setdefault("min_adapt_events", 32)
    kwargs.setdefault("readapt_budget", 200)
    kwargs.setdefault("warm_epochs", 2)
    kwargs.setdefault("drift_min_batches", 2)
    return StreamingAdaptationService(model, calibration, **kwargs)


def batches(loc, n_batches, batch_size=16, seed=100):
    rng = np.random.default_rng(seed)
    return [rng.normal(loc=loc, size=(batch_size, 4)) for _ in range(n_batches)]


def stripped(events):
    """Event dicts without the wall-clock field (not comparable across runs)."""
    rows = [event.to_dict() for event in events]
    for row in rows:
        row.pop("duration_seconds")
    return rows


class TestBufferingAndColdAdapt:
    def test_small_batches_only_buffer(self, source):
        service = build_service(source, min_adapt_events=64)
        event = service.ingest("user", batches(0.0, 1)[0])
        assert event.action == "buffered"
        assert event.trigger is None
        assert event.buffered == 16
        assert service.report_for("user") is None
        assert service.model_for("user") is None

    def test_warmup_threshold_triggers_cold_adapt(self, source):
        service = build_service(source, min_adapt_events=32)
        events = [service.ingest("user", batch) for batch in batches(0.0, 2)]
        assert [event.action for event in events] == ["buffered", "cold_adapt"]
        assert events[-1].trigger == "warmup"
        assert events[-1].buffered == 0
        report = service.report_for("user")
        assert report is not None
        assert report.n_samples == 32
        assert report.extra["mode"] == "cold"
        assert service.model_for("user") is not None

    def test_all_uncertain_buffer_defers_adaptation_instead_of_crashing(self, source):
        """A window with zero confident samples must not kill the stream."""
        service = build_service(source, min_adapt_events=32)
        wild = np.random.default_rng(70).normal(scale=60.0, size=(32, 4))
        service.ingest("user", wild[:16])
        event = service.ingest("user", wild[16:])
        assert event.action == "adapt_failed"
        assert event.trigger == "warmup"
        assert event.buffered == 32  # the buffer is kept for a retry
        assert service.report_for("user") is None
        # Once confident data arrives, the retry succeeds.
        recovered = service.ingest("user", batches(0.0, 1, seed=71)[0])
        assert recovered.action == "cold_adapt"
        assert service.report_for("user") is not None

    def test_invalid_batches_rejected(self, source):
        service = build_service(source)
        with pytest.raises(ValueError):
            service.ingest("user", np.zeros((0, 4)))
        with pytest.raises(ValueError):
            service.ingest("user", np.zeros(4))

    def test_invalid_parameters_rejected(self, source):
        with pytest.raises(ValueError):
            build_service(source, min_adapt_events=0)
        with pytest.raises(ValueError):
            build_service(source, readapt_budget=0)
        with pytest.raises(ValueError):
            build_service(source, warm_epochs=0)
        with pytest.raises(ValueError):
            build_service(source, readapt_budget=100, max_buffer_events=50)

    def test_buffer_is_capped_by_dropping_oldest_batches(self, source):
        """A target that can never adapt must not hoard the whole stream."""
        service = build_service(
            source, min_adapt_events=10_000, readapt_budget=10_000, max_buffer_events=10_000
        )
        # Override after construction to keep the floor check simple: cap at
        # 4 batches' worth of events.
        service.max_buffer_events = 64
        events = [service.ingest("user", batch) for batch in batches(0.0, 10)]
        assert events[-1].buffered == 64
        assert events[-1].total_events == 160  # dropping doesn't rewrite history


class TestReadaptation:
    def test_budget_triggers_warm_readapt(self, source):
        service = build_service(source, min_adapt_events=32, readapt_budget=48)
        all_events = [service.ingest("user", batch) for batch in batches(0.0, 6)]
        actions = [event.action for event in all_events]
        assert actions[1] == "cold_adapt"
        assert "warm_adapt" in actions[2:]
        warm = next(event for event in all_events if event.action == "warm_adapt")
        assert warm.trigger == "budget"
        report = service.report_for("user")
        assert report.extra["mode"] == "warm"
        assert len(report.losses) <= 2  # the warm schedule, not the cold one
        stats = service.stream_stats("user")
        assert stats["cold_adaptations"] == 1
        assert stats["warm_adaptations"] >= 1

    def test_drift_triggers_warm_readapt_before_budget(self, source):
        service = build_service(
            source,
            min_adapt_events=32,
            readapt_budget=10_000,
            drift_threshold=0.4,
            drift_delta=0.05,
        )
        for batch in batches(0.0, 4, seed=10):
            service.ingest("user", batch)
        assert service.stream_stats("user")["cold_adaptations"] == 1
        drift_events = []
        for batch in batches(2.5, 20, seed=11):  # strong covariate shift
            event = service.ingest("user", batch)
            drift_events.append(event)
            if event.action != "buffered":
                break
        assert drift_events[-1].action == "warm_adapt"
        assert drift_events[-1].trigger == "drift"
        assert drift_events[-1].drifted

    def test_monitor_rebases_after_readapt(self, source):
        """After re-adapting to the new regime, the detector goes quiet again."""
        service = build_service(
            source, min_adapt_events=32, readapt_budget=10_000, drift_threshold=0.4
        )
        for batch in batches(0.0, 4, seed=20):
            service.ingest("user", batch)
        for batch in batches(2.5, 20, seed=21):
            if service.ingest("user", batch).action != "buffered":
                break
        post = [service.ingest("user", batch) for batch in batches(2.5, 6, seed=22)]
        assert all(event.action == "buffered" for event in post)

    def test_evicted_model_falls_back_to_cold_readapt(self, source):
        service = build_service(source, min_adapt_events=32, readapt_budget=48, max_cached_models=1)
        for batch in batches(0.0, 2, seed=30):
            service.ingest("user_a", batch)
        for batch in batches(0.3, 2, seed=31):
            service.ingest("user_b", batch)  # evicts user_a's model
        assert service.model_for("user_a") is None
        events = [service.ingest("user_a", batch) for batch in batches(0.0, 4, seed=32)]
        readapt = next(event for event in events if event.action != "buffered")
        assert readapt.action == "cold_adapt"
        assert readapt.trigger in ("budget", "drift")
        assert service.report_for("user_a").extra["mode"] == "cold"


class TestDeterminism:
    def test_replaying_a_stream_reproduces_events_and_models(self, source):
        stream = batches(0.0, 3, seed=40) + batches(2.0, 6, seed=41)
        one = build_service(source, readapt_budget=64)
        two = build_service(source, readapt_budget=64)
        for batch in stream:
            one.ingest("user", batch)
        for batch in stream:
            two.ingest("user", batch)
        assert stripped(one.events_for("user")) == stripped(two.events_for("user"))
        assert one.report_for("user").losses == two.report_for("user").losses
        probe = np.random.default_rng(0).normal(size=(8, 4))
        np.testing.assert_array_equal(one.predict("user", probe), two.predict("user", probe))

    def test_parallel_ingest_matches_serial_per_target(self, source):
        fleet_stream = {
            f"user_{index}": batches(0.2 * index, 5, seed=50 + index) for index in range(3)
        }
        serial = build_service(source, readapt_budget=48)
        for step in range(5):
            for name, stream in fleet_stream.items():
                serial.ingest(name, stream[step])
        parallel = build_service(source, readapt_budget=48)
        parallel.use_process_workers(2)
        try:
            for step in range(5):
                parallel.ingest_many(
                    {name: stream[step] for name, stream in fleet_stream.items()}
                )
        finally:
            parallel.close()
        for name in fleet_stream:
            assert stripped(serial.events_for(name)) == stripped(parallel.events_for(name))
            assert serial.report_for(name).losses == parallel.report_for(name).losses


class TestIntrospection:
    def test_event_table_covers_all_targets(self, source):
        service = build_service(source)
        service.ingest("a", batches(0.0, 1, seed=60)[0])
        service.ingest("b", batches(0.0, 1, seed=61)[0])
        table = service.event_table()
        assert {row["target_id"] for row in table} == {"a", "b"}
        assert all(isinstance(row, dict) for row in table)
        assert service.stream_ids() == ["a", "b"]

    def test_event_is_json_safe(self, source):
        import json

        service = build_service(source)
        event = service.ingest("user", batches(0.0, 1)[0])
        json.dumps(event.to_dict())

    def test_queries_for_unknown_ids_do_not_register_streams(self, source):
        service = build_service(source)
        stats = service.stream_stats("ghost")
        assert stats["total_events"] == 0
        assert stats["steps"] == 0
        assert service.events_for("ghost") == []
        assert service.stream_ids() == []  # asking about an id must not create it
