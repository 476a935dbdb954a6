"""Tiered adapted-model state: spill-on-evict, warm-resume, corruption fallback.

The warm tier's core claim is an *equivalence oracle*: a target that was
evicted and then resumed from its ``repro.snapshot/v1`` file must serve the
very same bits — parameter bytes, report, predictions — as a target that was
never evicted at all, for every scheme in the registry, under the thread and
process executors, and with stacked training.  The remaining tests pin the
degradation contract: corrupt or truncated snapshots are detected, counted,
discarded, and fall back to a clean cold adaptation, never a crash.
"""

import sys
import threading

import numpy as np
import pytest

from repro.engine import strategy_names
from repro.nn import parameter_bytes
from repro.obs import scrub_wall_clock
from repro.runtime import AdaptationService, SnapshotStore
from repro.runtime.snapshots import SNAPSHOT_SCHEMA
from repro.streaming import StreamingAdaptationService

from test_process_workers import prepared_strategy
from test_service import build_service, fast_config, make_source, make_targets


@pytest.fixture(scope="module")
def source():
    return make_source()


def counter_total(service, name: str) -> float:
    """Sum of one counter across all label sets in the service registry."""
    return sum(
        entry["value"]
        for entry in service.metrics.snapshot()["counters"]
        if entry["name"] == name
    )


def report_dict(service, target_id: str) -> dict:
    """A target's report as a wall-clock-scrubbed comparable dictionary."""
    return scrub_wall_clock(service.report_for(target_id).to_dict())


class TestSpillOnEvict:
    def test_explicit_evict_spills_every_target(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        targets = make_targets(n_targets=3)
        service.adapt_many(targets)
        assert store.files() == []  # nothing spills while cached
        evicted = service.evict()
        assert sorted(evicted) == sorted(targets)
        assert store.targets() == sorted(targets)
        assert counter_total(service, "snapshots.spilled") == 3

    def test_single_target_evict_spills_just_that_target(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        targets = make_targets(n_targets=2)
        service.adapt_many(targets)
        names = list(targets)
        assert service.evict(names[0]) == [names[0]]
        assert store.targets() == [names[0]]

    def test_capacity_eviction_spills_the_lru_victims(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store, max_cached_models=1)
        targets = make_targets(n_targets=3)
        for name, data in targets.items():
            service.adapt(name, data)
        names = list(targets)
        # The two oldest were pushed out by capacity; the newest is still hot.
        assert store.targets() == sorted(names[:2])
        assert counter_total(service, "snapshots.spilled") == 2

    def test_snapshot_carries_schema_and_exact_target_id(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data)
        service.evict("user_00")
        payload = store.load("user_00")
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["target_id"] == "user_00"
        assert payload["stream"] is None  # batch service has no drift state
        assert payload["report"]["target_id"] == "user_00"

    def test_without_a_store_evict_discards_as_before(self, source, tmp_path):
        service = build_service(source)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data)
        assert service.evict() == ["user_00"]
        assert service.model_for("user_00") is None
        assert counter_total(service, "snapshots.spilled") == 0


class TestWarmResume:
    def test_resume_restores_bits_report_and_predictions(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data)
        probe = np.random.default_rng(7).normal(size=(16, 4))
        before_bytes = parameter_bytes(service.model_for("user_00"))
        before_report = report_dict(service, "user_00")
        before_prediction = service.predict("user_00", probe)

        service.evict("user_00")
        resumed = service.model_for("user_00")
        assert resumed is not None
        assert parameter_bytes(resumed) == before_bytes
        assert report_dict(service, "user_00") == before_report
        np.testing.assert_array_equal(service.predict("user_00", probe), before_prediction)
        assert counter_total(service, "snapshots.resumed") == 1

    def test_resume_observes_timing_histogram(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data)
        service.evict("user_00")
        assert service.model_for("user_00") is not None
        names = {
            entry["name"] for entry in service.metrics.snapshot()["histograms"]
        }
        assert "snapshots.resume_seconds" in names

    def test_resume_survives_a_service_restart(self, source, tmp_path):
        """A new service over the same store (a restarted process) resumes too."""
        store = SnapshotStore(tmp_path)
        first = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        first.adapt("user_00", data)
        bits = parameter_bytes(first.model_for("user_00"))
        report = report_dict(first, "user_00")
        first.evict()

        second = build_service(source, snapshot_store=SnapshotStore(tmp_path))
        assert second.n_adapted == 0
        resumed = second.model_for("user_00")
        assert resumed is not None
        assert parameter_bytes(resumed) == bits
        assert report_dict(second, "user_00") == report

    def test_miss_without_snapshot_is_still_a_miss(self, source, tmp_path):
        service = build_service(source, snapshot_store=SnapshotStore(tmp_path))
        assert service.model_for("never_adapted") is None
        assert counter_total(service, "snapshots.resumed") == 0


@pytest.mark.parametrize("scheme", sorted(strategy_names()))
class TestSixSchemeEquivalence:
    """Evict→resume == never-evicted, byte for byte, for every scheme."""

    def test_resume_matches_never_evicted_bitwise(self, scheme, source, tmp_path):
        model, calibration = source
        targets = make_targets(n_targets=3)
        baseline = AdaptationService(
            model, calibration, fast_config(), strategy=prepared_strategy(scheme, source)
        )
        baseline.adapt_many(targets)

        tiered = AdaptationService(
            model,
            calibration,
            fast_config(),
            strategy=prepared_strategy(scheme, source),
            snapshot_store=SnapshotStore(tmp_path / scheme),
        )
        tiered.adapt_many(targets)
        assert sorted(tiered.evict()) == sorted(targets)

        probe = np.random.default_rng(0).normal(size=(16, 4))
        for name in targets:
            resumed = tiered.model_for(name)
            assert resumed is not None, f"{scheme}: {name} did not resume"
            assert parameter_bytes(resumed) == parameter_bytes(baseline.model_for(name))
            assert report_dict(tiered, name) == report_dict(baseline, name)
            np.testing.assert_array_equal(
                tiered.predict(name, probe), baseline.predict(name, probe)
            )


class TestExecutorAndBatchingEquivalence:
    def test_process_executor_spill_resume_matches_serial(self, source, tmp_path):
        targets = make_targets(n_targets=3)
        serial = build_service(source)
        serial.adapt_many(targets)

        tiered = build_service(source, snapshot_store=SnapshotStore(tmp_path))
        tiered.use_process_workers(2)
        try:
            tiered.adapt_many(targets)
        finally:
            tiered.close()
        tiered.evict()
        for name in targets:
            assert parameter_bytes(tiered.model_for(name)) == parameter_bytes(
                serial.model_for(name)
            )
            assert report_dict(tiered, name) == report_dict(serial, name)

    def test_train_batching_spill_resume_matches_serial(self, source, tmp_path):
        # Same-length targets so stacked training actually groups them.
        rng = np.random.default_rng(31)
        targets = {f"t{k}": rng.normal(loc=0.2 * k, size=(40, 4)) for k in range(3)}
        serial = build_service(source)
        serial.adapt_many(targets)

        tiered = build_service(source, snapshot_store=SnapshotStore(tmp_path))
        tiered.adapt_many(targets, train_batching=3)
        tiered.evict()
        for name in targets:
            assert parameter_bytes(tiered.model_for(name)) == parameter_bytes(
                serial.model_for(name)
            )
            assert report_dict(tiered, name) == report_dict(serial, name)


class GatedStore(SnapshotStore):
    """A store whose n-th ``save`` waits for ``gates[n]`` before writing."""

    def __init__(self, root):
        super().__init__(root)
        self.gates = [threading.Event() for _ in range(8)]
        self.started = [threading.Event() for _ in range(8)]
        self.finished = [threading.Event() for _ in range(8)]
        self._calls = 0
        self._count_lock = threading.Lock()

    def save(self, target_id, payload):
        with self._count_lock:
            index, self._calls = self._calls, self._calls + 1
        self.started[index].set()
        assert self.gates[index].wait(timeout=30), f"save {index} never released"
        try:
            return super().save(target_id, payload)
        finally:
            self.finished[index].set()


def spawn(fn, *args):
    thread = threading.Thread(target=fn, args=args)
    thread.start()
    return thread


class TestSpillRace:
    """An eviction's spill is in flight while other threads touch the target."""

    def test_lookup_during_spill_serves_the_evicted_model(self, source, tmp_path):
        store = GatedStore(tmp_path)
        service = build_service(source, snapshot_store=store, max_cached_models=2)
        targets = make_targets(n_targets=3)
        names = list(targets)
        service.adapt(names[0], targets[names[0]])
        evicted_bytes = parameter_bytes(service.model_for(names[0]))
        service.adapt(names[1], targets[names[1]])
        # Adapting a third target evicts the first; its spill blocks mid-save.
        writer = spawn(service.adapt, names[2], targets[names[2]])
        try:
            assert store.started[0].wait(timeout=30)
            resumed = service.model_for(names[0])
            assert resumed is not None, "a lookup mid-spill fell back to the source model"
            assert parameter_bytes(resumed) == evicted_bytes
        finally:
            for gate in store.gates:
                gate.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert parameter_bytes(service.model_for(names[0])) == evicted_bytes

    @pytest.mark.parametrize("newer_first", [False, True], ids=["older_first", "newer_first"])
    def test_two_spills_of_one_target_leave_the_newer_snapshot(
        self, source, tmp_path, newer_first
    ):
        store = GatedStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data, seed=1)
        older = spawn(service.evict, "user_00")
        assert store.started[0].wait(timeout=30)
        service.adapt("user_00", data, seed=2)
        newer_bytes = parameter_bytes(service.model_for("user_00"))
        newer = spawn(service.evict, "user_00")
        try:
            if newer_first:
                store.gates[1].set()
                newer.join(timeout=30)
                store.gates[0].set()
            else:
                store.gates[0].set()
                assert store.finished[0].wait(timeout=30)
                store.gates[1].set()
        finally:
            for gate in store.gates:
                gate.set()
            older.join(timeout=30)
            newer.join(timeout=30)
        assert not older.is_alive() and not newer.is_alive()
        assert store.load("user_00")["report"]["seed"] == 2
        assert parameter_bytes(service.model_for("user_00")) == newer_bytes

    def test_concurrent_lookups_under_thrash_always_serve_adapted_bits(
        self, source, tmp_path
    ):
        """More threads than cores resume, evict and spill one tiny cache."""
        service = build_service(
            source, snapshot_store=SnapshotStore(tmp_path), max_cached_models=2
        )
        targets = make_targets(n_targets=6, n_samples=30)
        expected = {}
        for name, data in targets.items():
            service.adapt(name, data)
            expected[name] = parameter_bytes(service.model_for(name))
        names = list(targets)
        errors = []

        def hammer(offset):
            for step in range(40):
                name = names[(offset + step) % len(names)]
                try:
                    model = service.model_for(name, required=True)
                    assert parameter_bytes(model) == expected[name], name
                except Exception as exc:  # pragma: no cover - the failure mode
                    errors.append(exc)
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [spawn(hammer, offset) for offset in range(4)]
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        for name in names:
            assert service.model_for(name) is not None


class TestCorruptionFallback:
    def adapted_and_evicted(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data)
        service.evict("user_00")
        return store, service, data

    def test_corrupt_file_degrades_to_cold_adapt(self, source, tmp_path):
        store, service, data = self.adapted_and_evicted(source, tmp_path)
        path = store.path_for("user_00")
        path.write_bytes(b'{"schema": "repro.snapshot/v1", "rotted": tru')
        assert service.model_for("user_00") is None  # clean miss, not a crash
        assert counter_total(service, "snapshots.corrupt") == 1
        assert store.files() == []  # detected once, then discarded
        # The target can be adapted again from scratch.
        report = service.adapt("user_00", data)
        assert report.target_id == "user_00"
        assert service.model_for("user_00") is not None

    def test_truncated_file_detected_by_checksum(self, source, tmp_path):
        store, service, _ = self.adapted_and_evicted(source, tmp_path)
        path = store.path_for("user_00")
        text = path.read_text()
        # Keep it valid JSON but drop payload bytes: only the checksum can
        # tell, and it must.
        path.write_text(text.replace('"stream": null', '"stream": {}'))
        assert service.model_for("user_00") is None
        assert counter_total(service, "snapshots.corrupt") == 1

    def test_unknown_schema_version_rejected(self, source, tmp_path):
        store, service, _ = self.adapted_and_evicted(source, tmp_path)
        path = store.path_for("user_00")
        path.write_text(path.read_text().replace(SNAPSHOT_SCHEMA, "repro.snapshot/v9"))
        assert service.model_for("user_00") is None
        assert counter_total(service, "snapshots.corrupt") == 1

    def test_corruption_detected_exactly_once(self, source, tmp_path):
        store, service, _ = self.adapted_and_evicted(source, tmp_path)
        store.path_for("user_00").write_bytes(b"garbage")
        assert service.model_for("user_00") is None
        assert service.model_for("user_00") is None  # second touch: plain miss
        assert counter_total(service, "snapshots.corrupt") == 1


class TestTempFileGC:
    def test_orphaned_temp_files_collected_on_open(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = build_service(source, snapshot_store=store)
        data = make_targets(n_targets=1)["user_00"]
        service.adapt("user_00", data)
        service.evict("user_00")
        # Fake two writers that died mid-spill.
        (tmp_path / ".user_00-999-deadbeef.json.tmp").write_text("torn")
        (tmp_path / ".user_01-999-cafef00d.json.tmp").write_text("torn")
        reopened = SnapshotStore(tmp_path)
        assert reopened.collected_temp_files == 2
        assert list(tmp_path.glob(".*.tmp")) == []
        # The real snapshot survived the sweep.
        assert reopened.targets() == ["user_00"]

    def test_fresh_directory_collects_nothing(self, tmp_path):
        assert SnapshotStore(tmp_path / "fresh").collected_temp_files == 0


class TestStreamingSpillResume:
    def build_streaming(self, source, **kwargs):
        model, calibration = source
        kwargs.setdefault("config", fast_config())
        kwargs.setdefault("min_adapt_events", 32)
        kwargs.setdefault("readapt_budget", 200)
        kwargs.setdefault("warm_epochs", 2)
        return StreamingAdaptationService(model, calibration, **kwargs)

    def batches(self, loc, n_batches, batch_size=16, seed=100):
        rng = np.random.default_rng(seed)
        return [rng.normal(loc=loc, size=(batch_size, 4)) for _ in range(n_batches)]

    def test_spill_carries_drift_state_and_restart_restores_it(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = self.build_streaming(source, snapshot_store=store)
        for batch in self.batches(0.3, 3):  # 48 events: past min_adapt_events
            service.ingest("rider", batch)
        stats = service.stream_stats("rider")
        assert stats["cold_adaptations"] == 1
        bits = parameter_bytes(service.model_for("rider"))
        service.evict("rider")

        payload = store.load("rider")
        stream = payload["stream"]
        assert stream["n_cold"] == 1
        assert stream["step"] == stats["steps"]
        assert stream["total_events"] == stats["total_events"]
        assert isinstance(stream["monitor"], dict)

        # A new service over the same store — a restarted process — picks up
        # both the model (lazily, through the cache-miss chokepoint) and the
        # stream counters/drift monitor (on first touch of the stream).
        restarted = self.build_streaming(source, snapshot_store=SnapshotStore(tmp_path))
        assert parameter_bytes(restarted.model_for("rider")) == bits
        event = restarted.ingest("rider", self.batches(0.3, 1, batch_size=4, seed=9)[0])
        restored = restarted.stream_stats("rider")
        assert restored["cold_adaptations"] == 1  # not cold-adapting again
        assert restored["total_events"] == stream["total_events"] + 4
        assert restored["steps"] == stream["step"] + 1
        assert event.action in ("buffered", "warm_adapt", "cold_adapt")

    def test_restored_monitor_round_trips_bit_identically(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = self.build_streaming(source, snapshot_store=store)
        for batch in self.batches(0.3, 3):
            service.ingest("rider", batch)
        service.evict("rider")
        spilled = store.load("rider")["stream"]["monitor"]

        restarted = self.build_streaming(source, snapshot_store=SnapshotStore(tmp_path))
        # Force the lazy restore without ingesting (an ingest would advance
        # the monitor past the spilled state before we could compare it).
        state = restarted._stream_state("rider")
        from repro.runtime.snapshots import encode_drift_state

        assert encode_drift_state(state.monitor) == spilled

    def test_corrupt_stream_section_restarts_clean(self, source, tmp_path):
        store = SnapshotStore(tmp_path)
        service = self.build_streaming(source, snapshot_store=store)
        for batch in self.batches(0.3, 3):
            service.ingest("rider", batch)
        service.evict("rider")
        store.path_for("rider").write_bytes(b"rotted")

        restarted = self.build_streaming(source, snapshot_store=SnapshotStore(tmp_path))
        stats_before = restarted.stream_stats("rider")
        assert stats_before["total_events"] == 0
        event = restarted.ingest("rider", self.batches(0.3, 1, batch_size=4, seed=9)[0])
        assert event.action == "buffered"  # fresh stream, counting from zero
