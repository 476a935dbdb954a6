"""Drift-under-serving coverage: every scheme, through the Gateway.

The batch path of every scheme is pinned by the engine oracle tests; until
now only TASFAR had coverage for the *streaming* story — a drifting stream
arriving through the serving gateway must trigger warm re-adaptation and
end up no worse than re-adapting cold.  This module closes that gap for
every scheme in the strategy registry.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.data.base import TargetScenario
from repro.data.drift import make_drift_stream
from repro.engine import SourceResources, create_strategy, strategy_names
from repro.metrics import mae
from repro.runtime import AdaptationService
from repro.serve import Gateway, PredictRequest, StreamRequest

from gateway_fixtures import fast_config, make_source


@pytest.fixture(scope="module")
def source():
    return make_source()


@pytest.fixture(scope="module")
def scenario():
    """A synthetic target whose label distribution has two clear regimes."""
    rng = np.random.default_rng(42)
    weights = np.array([1.0, -0.5, 0.25, 2.0])

    def block(n, seed):
        block_rng = np.random.default_rng(seed)
        inputs = block_rng.normal(loc=0.25, size=(n, 4))
        targets = inputs @ weights + 0.1 * block_rng.normal(size=n)
        return nn.ArrayDataset(inputs, targets)

    del rng
    return TargetScenario(name="drifter", adaptation=block(120, 1), test=block(60, 2))


def drifted_regime(scenario):
    """The upper-label half of the pooled samples — exactly the pool
    ``make_drift_stream`` drifts toward, used here as the post-drift eval set."""
    pooled = scenario.pooled()
    order = np.argsort(np.linalg.norm(pooled.targets, axis=1), kind="stable")
    upper = order[len(order) // 2 :]
    return pooled.inputs[upper], pooled.targets[upper]


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


@pytest.mark.parametrize("scheme", sorted(strategy_names()))
class TestDriftUnderServing:
    def test_gradual_drift_triggers_warm_readapt_and_matches_cold(
        self, scheme, source, scenario
    ):
        model, calibration = source
        strategy = prepared_strategy(scheme, source)
        stream = make_drift_stream(
            scenario, kind="gradual", n_steps=8, batch_size=16, seed=3
        )
        gateway = Gateway(
            model,
            calibration,
            config=fast_config(),
            strategy=strategy,
            n_shards=2,
            service_options={
                "min_adapt_events": 32,
                "readapt_budget": 48,
                "warm_epochs": 1,
            },
        )
        user = f"{scheme}-user"
        for batch in stream.batches:
            envelope = gateway.submit(StreamRequest(user, batch.inputs))
            assert envelope.ok, envelope.error

        stats = gateway.stream_stats(user)
        assert stats["cold_adaptations"] >= 1, f"{scheme}: never cold-adapted"
        assert stats["warm_adaptations"] >= 1, (
            f"{scheme}: the drifting stream never triggered a warm re-adaptation "
            f"({stats})"
        )
        report = gateway.report_for(user)
        assert report.extra["mode"] == "warm"
        assert report.scheme == scheme

        # Reconstruct the window the final (warm) re-adaptation trained on:
        # every batch ingested after the previous adaptation consumed the
        # buffer (the cap is far above this stream, so nothing was dropped).
        events = gateway.events_for(user)
        adapt_steps = [
            e.step for e in events if e.action in ("cold_adapt", "warm_adapt")
        ]
        window = np.concatenate(
            [
                stream.batches[step - 1].inputs
                for step in range(adapt_steps[-2] + 1, adapt_steps[-1] + 1)
            ],
            axis=0,
        )

        # Cold re-adaptation on the same window, from the pristine source
        # model, with the scheme's full cold schedule.
        cold_service = AdaptationService(
            model, calibration, config=fast_config(), strategy=strategy
        )
        cold_service.adapt("cold", window)

        eval_inputs, eval_targets = drifted_regime(scenario)
        warm = gateway.submit(PredictRequest(user, eval_inputs))
        warm_mae = mae(warm.payload["prediction"], eval_targets)
        cold_mae = mae(cold_service.predict("cold", eval_inputs), eval_targets)
        model.eval()
        source_mae = mae(model.forward(eval_inputs), eval_targets)
        # "No worse than cold": the same quality bar the streaming benchmark
        # holds warm starts to (benchmarks/test_bench_streaming.py), with a
        # tighter band — the warm/cold gap must be small against the
        # adaptation headroom the source model leaves.
        noise_band = 0.10 * max(source_mae, cold_mae)
        assert warm_mae <= cold_mae + noise_band, (
            f"{scheme}: warm re-adaptation MAE {warm_mae:.4f} worse than "
            f"cold re-adaptation MAE {cold_mae:.4f} beyond the noise band "
            f"{noise_band:.4f} (source MAE {source_mae:.4f})"
        )
        gateway.close()
