"""Cross-process determinism and crash-isolation for the worker pools.

The tentpole claim of the process executor is *bit-identity*: an adaptation
that ran inside a worker process must hand back the very same floats — losses,
parameters, density maps — as the same adaptation run in-process, for every
scheme in the registry.  These tests pin that claim, plus the pool lifecycle (workers spawn at pool
start and at restart) and the crash semantics (killed pools raise typed
errors instead of hanging).
"""

import pickle

import numpy as np
import pytest

import repro.nn as nn
from repro.core import Tasfar
from repro.engine import SourceResources, create_strategy, strategy_names
from repro.nn import model_digest, parameter_bytes
from repro.obs import MetricsRegistry, use_metrics
from repro.runtime import (
    EXECUTOR_KINDS,
    AdaptationService,
    AdaptationWorkerPool,
    WorkerCrashError,
)

from repro.runtime.workers import _WORKER_STATE, _init_worker, _warm_compute_path, _worker_run

from test_service import build_service, fast_config, make_source, make_targets


@pytest.fixture(scope="module")
def source():
    return make_source()


def prepared_strategy(scheme, source):
    model, calibration = source
    rng = np.random.default_rng(0)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    inputs = rng.normal(size=(160, 4))
    targets = inputs @ weights + 0.1 * rng.normal(size=160)
    return create_strategy(scheme, config=fast_config(), epochs=3, seed=0).prepare(
        model,
        SourceResources(
            source_data=nn.ArrayDataset(inputs, targets), calibration=calibration
        ),
    )


def calibrated_tasfar(model, shape):
    """A TASFAR strategy calibrated on random inputs of ``shape`` for ``model``."""
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=shape)
    model.eval()
    labels = model.forward(inputs) + 0.1 * rng.normal(size=(shape[0], 1))
    calibration = Tasfar(fast_config()).calibrate_on_source(model, inputs, labels)
    return create_strategy("tasfar", config=fast_config(), calibration=calibration)


class TestExecutorSelection:
    def test_executor_kinds(self):
        assert EXECUTOR_KINDS == ("thread", "process")

    def test_default_is_thread_until_pool_attached(self, source):
        service = build_service(source)
        assert service.executor == "thread"
        service.use_process_workers(2)
        try:
            assert service.executor == "process"
        finally:
            service.close()
        assert service.executor == "thread"


@pytest.mark.parametrize("scheme", sorted(strategy_names()))
class TestProcessBitIdentity:
    """``adapt_many`` on a 4-process pool == serial, for all six schemes."""

    def test_process_pool_matches_serial_bitwise(self, scheme, source):
        model, calibration = source
        targets = make_targets(n_targets=4)

        serial = AdaptationService(
            model, calibration, fast_config(), strategy=prepared_strategy(scheme, source)
        )
        serial_reports = serial.adapt_many(targets)

        pooled = AdaptationService(
            model, calibration, fast_config(), strategy=prepared_strategy(scheme, source)
        )
        pooled.use_process_workers(4)
        try:
            pooled_reports = pooled.adapt_many(targets)
        finally:
            pooled.close()

        assert list(serial_reports) == list(pooled_reports)
        probe = np.random.default_rng(0).normal(size=(16, 4))
        for name in targets:
            assert serial_reports[name].losses == pooled_reports[name].losses
            assert serial_reports[name].seed == pooled_reports[name].seed
            assert serial_reports[name].n_confident == pooled_reports[name].n_confident
            # Parameter-level identity, byte for byte, not allclose.
            assert parameter_bytes(serial.model_for(name)) == parameter_bytes(
                pooled.model_for(name)
            )
            np.testing.assert_array_equal(
                serial.predict(name, probe), pooled.predict(name, probe)
            )


class TestComputeWarmUp:
    """The worker's start-up warm-up pass runs, and moves nothing it shares."""

    @pytest.mark.parametrize("scheme", sorted(strategy_names()))
    def test_warm_up_leaves_model_strategy_and_metrics_untouched(self, scheme, source):
        model, _calibration = source
        strategy = prepared_strategy(scheme, source)
        before = pickle.dumps((model, strategy))
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert _warm_compute_path(strategy, model)
        # Dropout generators, parameters and strategy state byte-equal; no
        # counter or timing leaked into the caller's registry.
        assert pickle.dumps((model, strategy)) == before
        assert registry.snapshot() == MetricsRegistry().snapshot()

    @pytest.mark.parametrize(
        "model, shape",
        [
            (nn.build_tcn_regressor(6, 20, seed=0), (40, 6, 20)),
            (nn.build_mcnn_counter(seed=0), (40, 1, 16, 16)),
        ],
        ids=["tcn", "mcnn"],
    )
    def test_conv_models_get_a_probe_shape(self, model, shape):
        strategy = calibrated_tasfar(model, shape)
        before = parameter_bytes(model)
        assert _warm_compute_path(strategy, model)
        assert parameter_bytes(model) == before


class TestWorkerResultSize:
    def test_tcn_job_result_pickles_to_about_its_parameters(self):
        # A result crosses the process boundary by pickle: it carries the
        # adapted model's parameters and structure, not the activations of
        # its last fine-tune batch.
        model = nn.build_tcn_regressor(6, 20, seed=0)
        _init_worker(model, calibrated_tasfar(model, (40, 6, 20)))
        try:
            target = np.random.default_rng(1).normal(size=(40, 6, 20))
            results, _delta = _worker_run([("user", target, 3, None)], None)
        finally:
            _WORKER_STATE.clear()
        [(_report, outcome, error)] = results
        assert error is None
        assert len(pickle.dumps(results)) <= 3 * len(parameter_bytes(outcome.target_model))


class TestAttachedPool:
    def test_attached_pool_serves_adapt_and_matches_serial(self, source):
        targets = make_targets(n_targets=2)
        serial = build_service(source)
        serial_reports = serial.adapt_many(targets)

        service = build_service(source)
        service.use_process_workers(2)
        try:
            for name, data in targets.items():
                report = service.adapt(name, data)
                assert report.losses == serial_reports[name].losses
                assert model_digest(service.model_for(name)) == model_digest(
                    serial.model_for(name)
                )
        finally:
            service.close()

    def test_restart_kills_real_processes_and_results_survive(self, source):
        targets = make_targets(n_targets=1)
        name, data = next(iter(targets.items()))
        service = build_service(source)
        pool = service.use_process_workers(2)
        try:
            before = service.adapt(name, data)
            pids = pool.worker_pids()
            assert pids, "workers should be live after an adaptation"
            killed = service.restart_workers()
            assert killed == pids
            assert pool.worker_pids() != pids or not pool.worker_pids()
            after = service.adapt(name, data)
            assert after.losses == before.losses
        finally:
            service.close()

    def test_worker_errors_propagate_like_in_process_ones(self, source):
        # An input no sample of which clears the confidence threshold makes
        # TASFAR raise NoConfidentSamplesError; raised inside a worker
        # process it must surface to the caller unchanged, exactly like the
        # in-process path (the gateway turns it into an error envelope).
        from repro.core.adapter import NoConfidentSamplesError

        service = build_service(source)
        hopeless = np.full((12, 4), 1e6)
        with pytest.raises(NoConfidentSamplesError):
            service.adapt("doomed", hopeless)
        service.use_process_workers(2)
        try:
            with pytest.raises(NoConfidentSamplesError):
                service.adapt("doomed", hopeless)
        finally:
            service.close()


class TestPoolCrashSemantics:
    def test_submit_after_close_raises_typed_error(self, source):
        model, calibration = source
        strategy = prepared_strategy("tasfar", source)
        pool = AdaptationWorkerPool(1, model, strategy)
        pool.close()
        with pytest.raises(WorkerCrashError):
            pool.submit_stacked([("t", np.zeros((4, 4)), 0, None)])

    def test_killed_in_flight_future_raises_instead_of_hanging(self, source):
        model, calibration = source
        strategy = prepared_strategy("tasfar", source)
        data = make_targets(n_targets=1)["user_00"]
        pool = AdaptationWorkerPool(1, model, strategy)
        try:
            # Warm the pool so the worker exists, then bury it in work and
            # kill it: every outstanding future must resolve (queued ones
            # cancelled, the running one broken), all as WorkerCrashError.
            pool.collect_stacked(pool.submit_stacked([("warm", data, 0, None)]))
            futures = [
                pool.submit_stacked([(f"t{i}", data, i, None)]) for i in range(6)
            ]
            pool.restart()
            failures = 0
            for future in futures:
                try:
                    pool.collect_stacked(future)
                except WorkerCrashError:
                    failures += 1
            assert failures > 0, "restart with queued work should break some futures"
            # The respawned pool serves the same request to the same bits.
            [(report, _, error)] = pool.collect_stacked(
                pool.submit_stacked([("warm", data, 0, None)])
            )
            assert error is None and report.target_id == "warm"
        finally:
            pool.close()

    def test_invalid_worker_count_rejected(self, source):
        model, calibration = source
        with pytest.raises(ValueError):
            AdaptationWorkerPool(0, model, prepared_strategy("tasfar", source))


class TestEagerStart:
    def test_workers_are_live_before_any_adaptation(self, source):
        service = build_service(source)
        pool = service.use_process_workers(2)
        try:
            pids = pool.worker_pids()
            assert len(pids) == 2, "both workers spawn when the pool is attached"
            killed = service.restart_workers()
            assert killed == pids
            respawned = pool.worker_pids()
            assert len(respawned) == 2, "restart respawns every worker before returning"
            assert set(respawned).isdisjoint(pids)
        finally:
            service.close()
