"""Tests for the multi-target AdaptationService."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised
from repro.runtime import AdaptationReport, AdaptationService


def make_source(seed=0, n_source=160):
    """A small trained source model plus its calibration."""
    rng = np.random.default_rng(seed)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    inputs = rng.normal(size=(n_source, 4))
    targets = inputs @ weights + 0.1 * rng.normal(size=n_source)
    model = nn.build_mlp(4, 1, hidden_dims=(16, 8), dropout=0.2, seed=seed)
    train_supervised(
        model, nn.ArrayDataset(inputs, targets), epochs=15, batch_size=32, lr=3e-3, rng=rng
    )
    config = fast_config()
    calibration = Tasfar(config).calibrate_on_source(model, inputs, targets)
    return model, calibration


def fast_config():
    return TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=3,
        min_adaptation_epochs=1,
        early_stop=False,
        seed=0,
    )


def make_targets(n_targets=4, n_samples=40, seed=100):
    """Per-target input sets with a mild per-target shift."""
    targets = {}
    for index in range(n_targets):
        rng = np.random.default_rng(seed + index)
        shift = 0.2 * index
        targets[f"user_{index:02d}"] = rng.normal(loc=shift, size=(n_samples, 4))
    return targets


@pytest.fixture(scope="module")
def source():
    return make_source()


def build_service(source, **kwargs):
    model, calibration = source
    kwargs.setdefault("config", fast_config())
    return AdaptationService(model, calibration, **kwargs)


class TestParallelEqualsSerial:
    def test_parallel_adapt_matches_serial_bitwise(self, source):
        targets = make_targets(n_targets=5)
        serial = build_service(source)
        serial_reports = serial.adapt_many(targets)
        parallel = build_service(source)
        parallel.use_process_workers(4)
        try:
            parallel_reports = parallel.adapt_many(targets)
        finally:
            parallel.close()

        assert list(serial_reports) == list(parallel_reports)
        probe = np.random.default_rng(0).normal(size=(16, 4))
        for name in targets:
            assert serial_reports[name].losses == parallel_reports[name].losses
            assert serial_reports[name].seed == parallel_reports[name].seed
            assert serial_reports[name].n_confident == parallel_reports[name].n_confident
            np.testing.assert_array_equal(
                serial.predict(name, probe), parallel.predict(name, probe)
            )

    def test_adaptation_order_does_not_matter(self, source):
        targets = make_targets(n_targets=3)
        forward = build_service(source)
        for name, data in targets.items():
            forward.adapt(name, data)
        backward = build_service(source)
        for name, data in reversed(list(targets.items())):
            backward.adapt(name, data)
        probe = np.random.default_rng(1).normal(size=(8, 4))
        for name in targets:
            assert forward.report_for(name).losses == backward.report_for(name).losses
            np.testing.assert_array_equal(
                forward.predict(name, probe), backward.predict(name, probe)
            )

    def test_adapt_is_idempotent(self, source):
        service = build_service(source)
        data = make_targets(n_targets=1)["user_00"]
        first = service.adapt("user_00", data)
        second = service.adapt("user_00", data)
        assert first.losses == second.losses
        assert first.seed == second.seed


class TestCacheEviction:
    def test_lru_eviction_keeps_reports(self, source):
        service = build_service(source, max_cached_models=2)
        targets = make_targets(n_targets=4)
        service.adapt_many(targets)
        names = list(targets)
        assert service.cached_targets == names[-2:]
        assert service.n_adapted == 4
        for name in names[:2]:
            assert service.model_for(name) is None
            assert service.report_for(name) is not None

    def test_lookup_refreshes_lru_order(self, source):
        service = build_service(source, max_cached_models=2)
        targets = make_targets(n_targets=3)
        names = list(targets)
        service.adapt(names[0], targets[names[0]])
        service.adapt(names[1], targets[names[1]])
        assert service.model_for(names[0]) is not None  # touch: now most recent
        service.adapt(names[2], targets[names[2]])
        assert service.model_for(names[1]) is None
        assert service.model_for(names[0]) is not None

    def test_evicted_target_falls_back_to_source_predictions(self, source):
        model, _ = source
        service = build_service(source, max_cached_models=1)
        targets = make_targets(n_targets=2)
        service.adapt_many(targets)
        probe = np.random.default_rng(2).normal(size=(8, 4))
        model.eval()
        np.testing.assert_array_equal(service.predict("user_00", probe), model.forward(probe))
        assert not np.array_equal(service.predict("user_01", probe), model.forward(probe))

    def test_invalid_capacity_rejected(self, source):
        with pytest.raises(ValueError):
            build_service(source, max_cached_models=0)


class TestStrictLookups:
    def test_model_for_required_distinguishes_never_adapted(self, source):
        service = build_service(source)
        with pytest.raises(KeyError, match="never adapted"):
            service.model_for("ghost", required=True)

    def test_model_for_required_distinguishes_evicted(self, source):
        service = build_service(source, max_cached_models=1)
        targets = make_targets(n_targets=2)
        service.adapt_many(targets)
        with pytest.raises(KeyError, match="evicted from the LRU cache"):
            service.model_for("user_00", required=True)
        # The message also names the capacity so the fix is obvious.
        with pytest.raises(KeyError, match="max_cached_models=1"):
            service.model_for("user_00", required=True)

    def test_predict_strict_raises_instead_of_falling_back(self, source):
        service = build_service(source, max_cached_models=1)
        targets = make_targets(n_targets=2)
        service.adapt_many(targets)
        probe = np.random.default_rng(3).normal(size=(4, 4))
        with pytest.raises(KeyError, match="never adapted"):
            service.predict("ghost", probe, strict=True)
        with pytest.raises(KeyError, match="evicted"):
            service.predict("user_00", probe, strict=True)
        # Non-strict keeps the documented source-model fallback.
        assert service.predict("user_00", probe).shape == (4, 1)


class TestReports:
    def test_report_json_roundtrip(self, source):
        service = build_service(source)
        report = service.adapt("user_00", make_targets(n_targets=1)["user_00"])
        restored = AdaptationReport.from_json(report.to_json())
        assert restored == report

    def test_report_contents(self, source):
        service = build_service(source)
        data = make_targets(n_targets=1)["user_00"]
        report = service.adapt("user_00", data)
        assert report.target_id == "user_00"
        assert report.n_samples == len(data)
        assert report.n_confident + report.n_uncertain == len(data)
        assert report.n_training_samples > 0
        assert len(report.losses) >= 1
        assert report.duration_seconds > 0
        assert report.density_map_shape

    def test_target_seed_is_stable_and_distinct(self, source):
        service = build_service(source)
        again = build_service(source)
        assert service.target_seed("user_00") == again.target_seed("user_00")
        assert service.target_seed("user_00") != service.target_seed("user_01")

    def test_base_seed_changes_target_seeds(self, source):
        one = build_service(source, base_seed=0)
        two = build_service(source, base_seed=1)
        assert one.target_seed("user_00") != two.target_seed("user_00")


class TestInputs:
    def test_adapt_many_accepts_pairs_and_preserves_order(self, source):
        service = build_service(source)
        targets = make_targets(n_targets=3)
        pairs = list(targets.items())[::-1]
        service.use_process_workers(2)
        try:
            reports = service.adapt_many(pairs)
        finally:
            service.close()
        assert list(reports) == [name for name, _ in pairs]

    def test_invalid_worker_count_rejected(self, source):
        service = build_service(source)
        with pytest.raises(ValueError):
            service.use_process_workers(0)

    def test_source_model_not_mutated_by_adapt(self, source):
        model, _ = source
        before = [param.data.copy() for param in model.parameters()]
        service = build_service(source)
        service.adapt("user_00", make_targets(n_targets=1)["user_00"])
        for old, param in zip(before, model.parameters()):
            np.testing.assert_array_equal(old, param.data)


class TestTargetIdCoercion:
    """``7`` and ``"7"`` must be the same target on every public surface."""

    def test_int_and_str_ids_share_reports_models_and_seeds(self, source):
        service = build_service(source)
        data = make_targets(n_targets=1)["user_00"]
        report = service.adapt(7, data)
        assert report.target_id == "7"
        assert service.target_seed(7) == service.target_seed("7")
        assert service.report_for("7") is report
        assert service.report_for(7) is report
        assert service.model_for("7") is service.model_for(7)
        assert service.n_adapted == 1
        # Re-adapting under the string spelling replaces, not duplicates.
        service.adapt("7", data)
        assert service.n_adapted == 1

    def test_int_and_str_ids_share_predictions(self, source):
        service = build_service(source)
        service.adapt(7, make_targets(n_targets=1)["user_00"])
        probe = np.random.default_rng(4).normal(size=(6, 4))
        np.testing.assert_array_equal(
            service.predict(7, probe, strict=True), service.predict("7", probe, strict=True)
        )

    def test_adapt_many_keys_are_canonical(self, source):
        service = build_service(source)
        data = make_targets(n_targets=1)["user_00"]
        reports = service.adapt_many([(7, data)])
        assert list(reports) == ["7"]
        service.use_process_workers(2)
        try:
            reports = service.adapt_many([(8, data), (9, data)])
        finally:
            service.close()
        assert list(reports) == ["8", "9"]

    def test_strict_errors_name_the_canonical_id(self, source):
        service = build_service(source)
        with pytest.raises(KeyError, match="'7'"):
            service.model_for(7, required=True)


class TestBatchSizeValidation:
    def test_predict_rejects_non_positive_batch_size(self, source):
        service = build_service(source)
        probe = np.random.default_rng(5).normal(size=(4, 4))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="batch_size must be at least 1"):
                service.predict("anyone", probe, batch_size=bad)

    def test_predict_batched_rejects_non_positive_batch_size(self, source):
        import repro.nn as nn_mod

        model, _ = source
        probe = np.random.default_rng(6).normal(size=(4, 4))
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            nn_mod.predict_batched(model, probe, batch_size=0)


class TestConcurrentEvictionRaces:
    """adapt_many constantly evicting while predict reads the LRU cache."""

    def _race(self, source, strict):
        import threading

        service = build_service(source, max_cached_models=2)
        fleet = make_targets(n_targets=8, n_samples=30)
        names = list(fleet)
        probe = np.random.default_rng(7).normal(size=(4, 4))
        errors = []
        done = threading.Event()

        def hammer():
            index = 0
            while not done.is_set():
                name = names[index % len(names)]
                index += 1
                try:
                    prediction = service.predict(name, probe, strict=strict)
                    assert prediction.shape == (4, 1)
                    assert np.isfinite(prediction).all()
                except KeyError as exc:
                    message = str(exc)
                    # Only the strict mode may refuse, and only with the
                    # two documented reasons; fallback mode never raises.
                    assert strict, f"non-strict predict raised {exc!r}"
                    assert "never adapted" in message or "evicted" in message
                except Exception as exc:  # pragma: no cover - the failure mode
                    errors.append(exc)

        # Spawned before the reader threads start: no fork of a threaded
        # process.
        service.use_process_workers(4)
        readers = [threading.Thread(target=hammer) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            for _ in range(2):
                service.adapt_many(fleet)
        finally:
            done.set()
            for reader in readers:
                reader.join()
            service.close()
        assert not errors, errors
        # Every target kept its report; only max_cached models survive.
        assert service.n_adapted == len(fleet)
        assert len(service.cached_targets) == 2

    def test_fallback_predict_survives_concurrent_eviction(self, source):
        self._race(source, strict=False)

    def test_strict_predict_survives_concurrent_eviction(self, source):
        self._race(source, strict=True)
