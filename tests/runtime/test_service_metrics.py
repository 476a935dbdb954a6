"""Metric correctness for the adaptation service, under concurrency.

The registry's numbers are only trustworthy if they reconcile *exactly*
with what the service actually did — under racing threads, LRU eviction
pressure, and process workers shipping deltas back across the pickle
boundary.  Each test derives the expected totals from the workload itself
and asserts equality, not approximation.
"""

import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry

from test_service import build_service, make_targets


@pytest.fixture(scope="module")
def source():
    from test_service import make_source

    return make_source()


def probe_inputs(seed=7, n=8):
    return np.random.default_rng(seed).normal(size=(n, 4))


class TestCacheAccounting:
    def test_hits_misses_evictions_reconcile_serially(self, source):
        service = build_service(source, max_cached_models=2)
        targets = make_targets(n_targets=4)
        names = list(targets)
        service.adapt_many(targets)  # serial: no worker pool
        probe = probe_inputs()
        for name in names:  # two evicted -> source fallback, two cached
            service.predict(name, probe)
        metrics = service.metrics
        assert metrics.counter_value("service.adaptations", mode="cold") == 4
        assert metrics.counter_value("service.cache.evictions", reason="capacity") == 2
        assert metrics.counter_value("service.cache.hits") == 2
        assert metrics.counter_value("service.cache.misses") == 2
        assert metrics.counter_value("service.cache.strict_misses") == 0

    def test_strict_miss_counted_separately(self, source):
        service = build_service(source)
        with pytest.raises(KeyError):
            service.predict("never_adapted", probe_inputs(), strict=True)
        assert service.metrics.counter_value("service.cache.strict_misses") == 1
        assert service.metrics.counter_value("service.cache.misses") == 0

    def test_explicit_evictions_labeled(self, source):
        service = build_service(source)
        targets = make_targets(n_targets=2)
        service.adapt_many(targets)
        assert service.evict() == list(targets)
        metrics = service.metrics
        assert metrics.counter_value("service.cache.evictions", reason="explicit") == 2
        assert metrics.counter_value("service.cache.evictions", reason="capacity") == 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_adapt_racing_predict_reconciles_exactly(self, source, executor):
        """adapt_many under eviction pressure, with predict hammering away.

        Every predict is either a hit or a miss — never lost, never double
        counted — and evictions match the cache-capacity arithmetic, no
        matter which threads (or processes) did the adapting.
        """
        n_targets, max_cached, n_predictors, predicts_each = 4, 2, 3, 25
        service = build_service(source, max_cached_models=max_cached)
        targets = make_targets(n_targets=n_targets)
        names = list(targets)
        probe = probe_inputs()
        stop = threading.Event()
        predict_counts = [0] * n_predictors
        errors = []

        def hammer(slot):
            while not stop.is_set() or predict_counts[slot] < predicts_each:
                try:
                    service.predict(names[predict_counts[slot] % n_targets], probe)
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)
                    return
                predict_counts[slot] += 1
                if predict_counts[slot] >= predicts_each and stop.is_set():
                    return

        predictors = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(n_predictors)
        ]
        if executor == "process":
            # Spawned before the predictor threads start: no fork of a
            # threaded process.
            service.use_process_workers(2)
        for thread in predictors:
            thread.start()
        try:
            reports = service.adapt_many(targets)
        finally:
            stop.set()
            for thread in predictors:
                thread.join()
            service.close()
        assert not errors
        assert len(reports) == n_targets

        metrics = service.metrics
        total_predicts = sum(predict_counts)
        hits = metrics.counter_value("service.cache.hits")
        misses = metrics.counter_value("service.cache.misses")
        assert hits + misses == total_predicts
        assert metrics.counter_value("service.adaptations", mode="cold") == n_targets
        assert metrics.counter_value("service.cache.evictions", reason="capacity") == (
            n_targets - max_cached
        )
        # Epoch accounting survives the executor boundary: process workers
        # count epochs in a worker-local registry and ship the delta home.
        expected_epochs = sum(len(report.losses) for report in reports.values())
        assert metrics.counter_total("engine.epochs") == expected_epochs
        assert metrics.counter_total("engine.runs") == n_targets


class TestEngineAccounting:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_epochs_match_report_losses(self, source, executor):
        service = build_service(source)
        targets = make_targets(n_targets=3)
        if executor == "process":
            service.use_process_workers(2)
        try:
            reports = service.adapt_many(targets)
        finally:
            service.close()
        expected_epochs = sum(len(report.losses) for report in reports.values())
        assert service.metrics.counter_total("engine.epochs") == expected_epochs
        assert service.metrics.counter_total("engine.runs") == len(targets)
        # Every run was a lone replica: the stack counters stay untouched.
        assert service.metrics.counter_total("engine.stacks") == 0
        histogram = [
            entry
            for entry in service.metrics.snapshot()["histograms"]
            if entry["name"] == "engine.epoch_seconds"
        ]
        assert histogram and histogram[0]["count"] == expected_epochs

    def test_disabled_registry_stays_empty_and_results_match(self, source):
        quiet = build_service(source, metrics=MetricsRegistry(enabled=False))
        loud = build_service(source)
        targets = make_targets(n_targets=2)
        quiet_reports = quiet.adapt_many(targets)
        loud_reports = loud.adapt_many(targets)
        snapshot = quiet.metrics.snapshot()
        assert snapshot["counters"] == [] and snapshot["histograms"] == []
        for name in targets:  # telemetry must never change the numbers
            assert quiet_reports[name].losses == loud_reports[name].losses
