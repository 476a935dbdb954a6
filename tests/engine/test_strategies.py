"""Tests for the AdaptationStrategy layer, its registry, and the
strategy-generic runtime services."""

import copy
import dataclasses

import numpy as np
import pytest
from scheme_oracle_fixture import (
    CONV_SCHEME_KWARGS,
    SCHEME_KWARGS,
    build_conv_fixture,
    build_fixture,
)

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import (
    AdaptationStrategy,
    BaselineStrategy,
    SourceResources,
    StackJob,
    StrategyOutcome,
    TasfarStrategy,
    create_strategy,
    register_strategy,
    strategy_names,
    train_supervised,
)
from repro.engine.registry import SCHEME_NAMES, STRATEGY_FACTORIES
from repro.runtime import AdaptationService
from repro.streaming import StreamingAdaptationService


def fast_config():
    return TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=3,
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
    source_data = nn.ArrayDataset(inputs, targets)
    train_supervised(model, source_data, epochs=15, batch_size=32, lr=3e-3, rng=rng)
    calibration = Tasfar(fast_config()).calibrate_on_source(model, inputs, targets)
    return {
        "model": model,
        "data": source_data,
        "calibration": calibration,
        "target": np.random.default_rng(9).normal(loc=0.2, size=(48, 4)),
    }


def resources(source):
    return SourceResources(
        source_data=source["data"], calibration=source["calibration"]
    )


class TestRegistry:
    def test_all_paper_schemes_registered(self):
        assert set(SCHEME_NAMES) <= set(strategy_names())

    def test_scheme_names_in_paper_order_and_self_named(self):
        assert SCHEME_NAMES == ("baseline", "mmd", "adv", "augfree", "datafree", "tasfar")
        assert strategy_names()[: len(SCHEME_NAMES)] == SCHEME_NAMES
        for name in SCHEME_NAMES:
            assert create_strategy(name).name == name

    def test_baseline_schemes_are_baseline_strategies(self):
        for name in SCHEME_NAMES:
            strategy = create_strategy(name)
            assert isinstance(strategy, BaselineStrategy) == (name != "tasfar")
            assert strategy.supports_stacked

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptation scheme"):
            create_strategy("nonsense")

    def test_shared_kwargs_filtered_per_scheme(self):
        """One kwargs set works for all schemes; extras are dropped."""
        for name in SCHEME_NAMES:
            strategy = create_strategy(name, epochs=2, seed=3, config=fast_config())
            assert isinstance(strategy, AdaptationStrategy)
            assert strategy.name == name

    def test_third_party_registration(self, source):
        class EchoStrategy(AdaptationStrategy):
            name = "echo"

            def adapt(self, source_model, target_inputs, *, seed=None,
                      base_model=None, warm_epochs=None):
                import copy

                return StrategyOutcome(
                    target_model=copy.deepcopy(base_model or source_model),
                    scheme=self.name,
                )

        register_strategy("echo", EchoStrategy)
        try:
            assert "echo" in strategy_names()
            strategy = create_strategy("echo")
            outcome = strategy.adapt(source["model"], source["target"])
            assert outcome.scheme == "echo"
            # A registered scheme serves through the generic service too.
            service = AdaptationService(source["model"], strategy=strategy)
            report = service.adapt("user", source["target"])
            assert report.scheme == "echo"
            assert service.model_for("user") is not None
        finally:
            STRATEGY_FACTORIES.pop("echo", None)


class TestTasfarStrategy:
    def test_requires_calibration(self, source):
        strategy = TasfarStrategy(fast_config())
        with pytest.raises(ValueError, match="no calibration"):
            strategy.adapt(source["model"], source["target"])

    def test_prepare_fits_calibration_from_source_data(self, source):
        strategy = TasfarStrategy(fast_config()).prepare(
            source["model"], SourceResources(calibration_data=source["data"])
        )
        assert strategy.calibration is not None
        assert strategy.calibration.threshold == pytest.approx(
            source["calibration"].threshold
        )

    def test_adapt_matches_direct_tasfar(self, source):
        strategy = TasfarStrategy(fast_config(), calibration=source["calibration"])
        outcome = strategy.adapt(source["model"], source["target"], seed=11)
        direct = Tasfar(fast_config()).adapt(
            source["model"], source["target"], source["calibration"], seed=11
        )
        assert outcome.losses == direct.losses
        assert outcome.density_map is not None
        assert outcome.result is not None
        probe = source["target"][:8]
        np.testing.assert_array_equal(
            outcome.target_model.forward(probe), direct.target_model.forward(probe)
        )

    def test_warm_epochs_shortens_schedule(self, source):
        strategy = TasfarStrategy(fast_config(), calibration=source["calibration"])
        cold = strategy.adapt(source["model"], source["target"], seed=1)
        warm = strategy.adapt(
            source["model"], source["target"], seed=1,
            base_model=cold.target_model, warm_epochs=1,
        )
        assert len(warm.losses) == 1
        assert len(cold.losses) == 3


class TestBaselineStrategy:
    def test_source_based_prepare_requires_source_data(self, source):
        strategy = create_strategy("mmd", epochs=2)
        with pytest.raises(ValueError, match="requires labelled source data"):
            strategy.prepare(source["model"], SourceResources())

    def test_datafree_prepare_requires_statistics_inputs(self, source):
        strategy = create_strategy("datafree", epochs=2)
        with pytest.raises(ValueError, match="feature statistics"):
            strategy.prepare(source["model"], SourceResources())

    def test_unsupported_kwargs_dropped(self):
        strategy = create_strategy("baseline", epochs=9, seed=4, bogus=1)
        assert strategy.default_epochs is None
        strategy = create_strategy("mmd", epochs=7, bogus=1)
        assert (strategy.epochs, strategy.seed) == (7, 0)
        assert not hasattr(strategy, "bogus")

    @pytest.mark.parametrize("scheme", ["augfree", "datafree", "mmd"])
    def test_warm_start_uses_short_schedule_from_base_model(self, source, scheme):
        strategy = create_strategy(scheme, epochs=3, seed=0).prepare(
            source["model"], resources(source)
        )
        cold = strategy.adapt(source["model"], source["target"], seed=0)
        assert len(cold.losses) == 3
        warm = strategy.adapt(
            source["model"], source["target"], seed=0,
            base_model=cold.target_model, warm_epochs=1,
        )
        assert len(warm.losses) == 1

    def test_per_call_seed_overrides_construction_seed(self, source):
        strategy = create_strategy("augfree", epochs=2, seed=0).prepare(
            source["model"], resources(source)
        )
        probe = source["target"][:8]
        one = strategy.adapt(source["model"], source["target"], seed=1)
        two = strategy.adapt(source["model"], source["target"], seed=2)
        one_again = strategy.adapt(source["model"], source["target"], seed=1)
        np.testing.assert_array_equal(
            one.target_model.forward(probe), one_again.target_model.forward(probe)
        )
        assert not np.array_equal(
            one.target_model.forward(probe), two.target_model.forward(probe)
        )


class TestStrategyGenericService:
    def test_service_requires_calibration_or_strategy(self, source):
        with pytest.raises(ValueError, match="calibration"):
            AdaptationService(source["model"])

    @pytest.mark.parametrize("scheme", ["augfree", "mmd", "baseline"])
    def test_adapt_many_serves_baseline_schemes(self, source, scheme):
        strategy = create_strategy(scheme, epochs=2, seed=0).prepare(
            source["model"], resources(source)
        )
        service = AdaptationService(source["model"], strategy=strategy)
        targets = {
            f"user_{i}": np.random.default_rng(50 + i).normal(size=(24, 4))
            for i in range(3)
        }
        service.use_process_workers(2)
        try:
            reports = service.adapt_many(targets)
        finally:
            service.close()
        assert set(reports) == set(targets)
        for name, report in reports.items():
            assert report.scheme == scheme
            assert report.n_samples == 24
            if scheme != "baseline":
                assert len(report.losses) == 2
            assert service.model_for(name) is not None
            assert service.predict(name, targets[name]).shape == (24, 1)

    def test_parallel_matches_serial_for_baseline_scheme(self, source):
        targets = {
            f"user_{i}": np.random.default_rng(80 + i).normal(size=(24, 4))
            for i in range(4)
        }

        def build():
            strategy = create_strategy("augfree", epochs=2, seed=0).prepare(
                source["model"], resources(source)
            )
            return AdaptationService(source["model"], strategy=strategy)

        serial, parallel = build(), build()
        serial_reports = serial.adapt_many(targets)
        parallel.use_process_workers(4)
        try:
            parallel_reports = parallel.adapt_many(targets)
        finally:
            parallel.close()
        probe = np.random.default_rng(3).normal(size=(8, 4))
        for name in targets:
            assert serial_reports[name].losses == parallel_reports[name].losses
            np.testing.assert_array_equal(
                serial.predict(name, probe), parallel.predict(name, probe)
            )

    def test_report_json_roundtrip_carries_scheme(self, source):
        from repro.runtime import AdaptationReport

        strategy = create_strategy("datafree", epochs=2, seed=0).prepare(
            source["model"], resources(source)
        )
        service = AdaptationService(source["model"], strategy=strategy)
        report = service.adapt("user", source["target"])
        restored = AdaptationReport.from_json(report.to_json())
        assert restored == report
        assert restored.scheme == "datafree"
        assert "diagnostics" in restored.extra


class TestWarmEpochDefaults:
    def test_default_epochs_reported_per_strategy(self, source):
        assert TasfarStrategy(fast_config()).default_epochs == 3
        assert create_strategy("augfree", epochs=4).default_epochs == 4
        assert create_strategy("mmd").default_epochs == 20  # constructor default
        assert create_strategy("baseline").default_epochs is None

    def test_streaming_warm_budget_follows_strategy_cold_budget(self, source):
        """A baseline with a 4-epoch cold schedule must not warm-start with
        TasfarConfig.adaptation_epochs // 4 = 10 epochs (warm > cold)."""
        strategy = create_strategy("augfree", epochs=4, seed=0).prepare(
            source["model"], resources(source)
        )
        service = StreamingAdaptationService(
            source["model"],
            source["calibration"],
            config=TasfarConfig(seed=0),  # cold TASFAR budget would be 40
            strategy=strategy,
        )
        assert service.warm_epochs == 1  # max(1, 4 // 4)

    def test_streaming_requires_calibration_even_with_strategy(self, source):
        strategy = create_strategy("augfree", epochs=2).prepare(
            source["model"], resources(source)
        )
        with pytest.raises(ValueError, match="source calibration"):
            StreamingAdaptationService(source["model"], None, strategy=strategy)


class TestStrategyGenericStreaming:
    def test_streaming_warm_readapts_baseline_scheme(self, source):
        strategy = create_strategy("augfree", epochs=2, seed=0).prepare(
            source["model"], resources(source)
        )
        service = StreamingAdaptationService(
            source["model"],
            source["calibration"],
            config=fast_config(),
            strategy=strategy,
            min_adapt_events=32,
            readapt_budget=32,
            warm_epochs=1,
        )
        rng = np.random.default_rng(7)
        actions = []
        for _ in range(6):
            event = service.ingest("user", rng.normal(size=(16, 4)))
            actions.append(event.action)
        assert "cold_adapt" in actions
        assert "warm_adapt" in actions
        stats = service.stream_stats("user")
        assert stats["cold_adaptations"] >= 1
        assert stats["warm_adaptations"] >= 1
        report = service.report_for("user")
        assert report.scheme == "augfree"
        assert report.extra["mode"] == "warm"
        assert report.extra["drift_reference"] is True

    def test_unprobeable_window_publishes_model_and_degrades_to_budget(self, source):
        """A non-TASFAR fine-tune must not be thrown away (and re-paid every
        ingest) just because the reference density probe finds nothing
        confident: the model is published and re-adaptation becomes
        budget-only until a reference map can be estimated."""
        strategy = create_strategy("augfree", epochs=2, seed=0).prepare(
            source["model"], resources(source)
        )
        service = StreamingAdaptationService(
            source["model"],
            source["calibration"],
            config=fast_config(),
            strategy=strategy,
            min_adapt_events=32,
            readapt_budget=64,
        )
        wild = lambda seed: np.random.default_rng(seed).normal(scale=60.0, size=(16, 4))
        assert service.ingest("user", wild(1)).action == "buffered"
        cold = service.ingest("user", wild(2))
        assert cold.action == "cold_adapt"  # published despite no reference map
        report = service.report_for("user")
        assert report is not None and report.scheme == "augfree"
        assert report.extra["drift_reference"] is False
        assert service.model_for("user") is not None
        # Crucially: the next ingests merely buffer (no fine-tune per batch).
        assert service.ingest("user", wild(3)).action == "buffered"
        assert service.ingest("user", wild(4)).action == "buffered"
        assert service.ingest("user", wild(5)).action == "buffered"
        # Budget still triggers re-adaptation, warm-starting the published model.
        assert service.ingest("user", wild(6)).action == "warm_adapt"
        assert service.stream_stats("user") == {
            "target_id": "user",
            "steps": 6,
            "total_events": 96,
            "buffered": 0,
            "cold_adaptations": 1,
            "warm_adaptations": 1,
        }


def module_state(model):
    """Every module's full state, comparable by value.

    Arrays compare by bytes and generators by state, and nothing is left
    out: a pickle comparison would miss dropout masks and backward state,
    which ``Module.__getstate__`` drops.
    """

    def value(item):
        if isinstance(item, nn.Module):
            return type(item).__name__  # walked on its own by modules()
        if isinstance(item, np.ndarray):
            return (item.dtype.str, item.shape, item.tobytes())
        if isinstance(item, np.random.Generator):
            return item.bit_generator.state
        if isinstance(item, (list, tuple)):
            return [value(element) for element in item]
        if isinstance(item, dict):
            return {key: value(element) for key, element in item.items()}
        if hasattr(item, "__dict__"):
            return (type(item).__name__, value(vars(item)))
        return item

    return [(type(module).__name__, value(vars(module))) for module in model.modules()]


@pytest.fixture(scope="module", params=["mlp", "tcn"])
def leg(request):
    if request.param == "mlp":
        fixture, kwargs = build_fixture(), SCHEME_KWARGS
        # Equal lengths: the two stacked jobs share one K=2 stack.
        lengths = (30, 30)
    else:
        fixture, kwargs = build_conv_fixture("tcn"), CONV_SCHEME_KWARGS
        # Conv trees stack one replica at a time, so the jobs differ in length.
        lengths = (40, 24)
    fixture["kwargs"] = kwargs
    fixture["lengths"] = lengths
    return fixture


class TestStartModelUntouched:
    """No scheme changes its start model: it may be serving on other threads."""

    @staticmethod
    def prepared(scheme, leg):
        resources = SourceResources(
            source_data=leg["source_data"], calibration=leg["calibration"]
        )
        if scheme == "tasfar":
            strategy = TasfarStrategy(config=leg["config"])
        else:
            strategy = create_strategy(scheme, **leg["kwargs"][scheme])
        return strategy.prepare(leg["model"], resources)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_adapt_and_adapt_stacked_leave_start_model_untouched(self, scheme, leg, mode):
        strategy = self.prepared(scheme, leg)
        start = getattr(copy.deepcopy(leg["model"]), mode)()
        before = module_state(start)
        inputs = leg["target_inputs"]
        cold = strategy.adapt(start, inputs, seed=3)
        assert module_state(start) == before

        base = cold.target_model
        base_before = module_state(base)
        strategy.adapt(start, inputs, seed=4, base_model=base, warm_epochs=1)
        assert module_state(base) == base_before

        jobs = [
            StackJob(model=start, inputs=inputs[:length], seed=5 + index)
            for index, length in enumerate(leg["lengths"])
        ]
        for outcome, error in strategy.adapt_stacked(jobs):
            assert error is None
            assert outcome.target_model is not start
        assert module_state(start) == before

    def test_tasfar_job_with_nothing_to_fit_returns_a_model_without_masks(self, leg):
        config = dataclasses.replace(leg["config"], include_confident_data=False)
        # Every sample clears an infinite threshold: nothing is uncertain,
        # so the weighted dataset is empty and no fine-tune runs.
        calibration = dataclasses.replace(leg["calibration"], threshold=np.inf)
        result = Tasfar(config).adapt(leg["model"], leg["target_inputs"], calibration, seed=1)
        assert result.losses == []
        held = [
            module for module in result.target_model.modules()
            if module._saved is not None
        ]
        assert held == []
