"""Serial-vs-stacked equivalence for every adaptation scheme.

``AdaptationStrategy.adapt_stacked`` (all six schemes, including TASFAR's
pseudo-label pipeline) must match one ``adapt`` call per target,
independent of packing order, through the warm-start path, for jobs that
fall back to the construction seed, and across targets of different
lengths (which must split into separate stacks).

Everything is compared on losses, early-stop epochs, diagnostics and raw
parameter bytes — ``==`` on floats is bit equality.
"""

import copy

import numpy as np
import pytest
from scheme_oracle_fixture import SCHEME_KWARGS, build_fixture, fast_config

from repro.engine import SourceResources, StackJob, TasfarStrategy, create_strategy
from repro.nn import parameter_bytes

K = 3
SEEDS = [101, 202, 303]


@pytest.fixture(scope="module")
def fixture():
    return build_fixture()


@pytest.fixture(scope="module")
def targets():
    rng = np.random.default_rng(5)
    return [rng.normal(loc=0.3, size=(60, 4)) for _ in range(K)]


def make_strategy(scheme, fixture, **kwargs):
    resources = SourceResources(
        source_data=fixture["source_data"], calibration=fixture["calibration"]
    )
    if scheme == "tasfar":
        return TasfarStrategy(config=fast_config()).prepare(fixture["model"], resources)
    return create_strategy(scheme, **SCHEME_KWARGS[scheme], **kwargs).prepare(
        fixture["model"], resources
    )


def assert_outcome_identical(outcome, error, expected, context):
    assert error is None, (context, error)
    assert outcome.losses == expected.losses, context
    assert outcome.stopped_epoch == expected.stopped_epoch, context
    assert outcome.diagnostics == expected.diagnostics, context
    assert parameter_bytes(outcome.target_model) == parameter_bytes(
        expected.target_model
    ), (context, "parameter bytes differ")


@pytest.mark.parametrize("scheme", sorted(SCHEME_KWARGS))
def test_strategy_stacked_bit_identical_and_order_independent(scheme, fixture, targets):
    model = fixture["model"]
    strategy = make_strategy(scheme, fixture)

    serial = [
        strategy.adapt(copy.deepcopy(model), targets[k], seed=SEEDS[k])
        for k in range(K)
    ]
    stacked = strategy.adapt_stacked(
        [
            StackJob(model=copy.deepcopy(model), inputs=targets[k], seed=SEEDS[k])
            for k in range(K)
        ]
    )
    for k, (outcome, error) in enumerate(stacked):
        assert_outcome_identical(outcome, error, serial[k], (scheme, k))

    # Packing-order independence: reversed jobs give the same per-job bits.
    stacked_reversed = strategy.adapt_stacked(
        [
            StackJob(model=copy.deepcopy(model), inputs=targets[k], seed=SEEDS[k])
            for k in reversed(range(K))
        ]
    )
    for k, (outcome, error) in enumerate(stacked_reversed):
        assert_outcome_identical(outcome, error, serial[K - 1 - k], (scheme, "reversed", k))


@pytest.mark.parametrize("scheme", ["tasfar", "mmd"])
def test_strategy_stacked_warm_start_bit_identical(scheme, fixture, targets):
    model = fixture["model"]
    strategy = make_strategy(scheme, fixture)
    serial = [
        strategy.adapt(copy.deepcopy(model), targets[k], seed=SEEDS[k], warm_epochs=2)
        for k in range(K)
    ]
    stacked = strategy.adapt_stacked(
        [
            StackJob(model=copy.deepcopy(model), inputs=targets[k], seed=SEEDS[k])
            for k in range(K)
        ],
        warm_epochs=2,
    )
    for k, (outcome, error) in enumerate(stacked):
        assert_outcome_identical(outcome, error, serial[k], (scheme, "warm", k))


BASELINE_SCHEMES = [scheme for scheme in sorted(SCHEME_KWARGS) if scheme != "tasfar"]


@pytest.mark.parametrize("scheme", BASELINE_SCHEMES)
def test_unseeded_jobs_use_construction_seed(scheme, fixture, targets):
    model = fixture["model"]
    strategy = make_strategy(scheme, fixture, seed=10)
    unseeded = [strategy.adapt(model, targets[k]) for k in range(K)]
    seeded = [strategy.adapt(model, targets[k], seed=10) for k in range(K)]
    stacked = strategy.adapt_stacked(
        [StackJob(model=copy.deepcopy(model), inputs=targets[k]) for k in range(K)]
    )
    for k, (outcome, error) in enumerate(stacked):
        assert_outcome_identical(outcome, error, unseeded[k], (scheme, k))
        assert_outcome_identical(seeded[k], None, unseeded[k], (scheme, "seed=10", k))


@pytest.mark.parametrize("scheme", ["mmd", "augfree"])
def test_mixed_length_targets_group_and_stay_identical(scheme, fixture):
    # 60/45/60/45 rows: the stacker must split the four jobs into two
    # equal-length groups of two and still reproduce the serial bits.
    model = fixture["model"]
    strategy = make_strategy(scheme, fixture)
    rng = np.random.default_rng(99)
    mixed = [
        rng.normal(size=(60, 4)),
        rng.normal(size=(45, 4)),
        rng.normal(size=(60, 4)),
        rng.normal(size=(45, 4)),
    ]
    serial = [strategy.adapt(model, mixed[k], seed=20 + k) for k in range(4)]
    stacked = strategy.adapt_stacked(
        [StackJob(model=copy.deepcopy(model), inputs=mixed[k], seed=20 + k) for k in range(4)]
    )
    for k, (outcome, error) in enumerate(stacked):
        assert_outcome_identical(outcome, error, serial[k], (scheme, k))
