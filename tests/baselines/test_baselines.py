"""Tests for the UDA baseline schemes, driven through the strategy registry."""

import copy

import numpy as np
import pytest

import repro.nn as nn
from repro.baselines import (
    FeatureStatistics,
    logistic_loss,
    rbf_mmd,
    variance_perturbation,
)
from repro.core import Tasfar, TasfarConfig
from repro.engine import (
    SourceResources,
    StrategyOutcome,
    TasfarStrategy,
    create_strategy,
    train_supervised,
)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    source_inputs = rng.normal(size=(200, 5))
    weights = np.array([1.0, -0.5, 2.0, 0.0, 1.0])
    source_labels = source_inputs @ weights + 0.05 * rng.normal(size=200)
    target_inputs = rng.normal(loc=0.4, size=(80, 5))
    model = nn.build_mlp(5, 1, hidden_dims=(16, 8), dropout=0.2, seed=0)
    source_data = nn.ArrayDataset(source_inputs, source_labels)
    train_supervised(model, source_data, epochs=25, batch_size=32, lr=3e-3, rng=rng)
    return {"model": model, "source": source_data, "target": target_inputs}


class TestRbfMmd:
    def test_identical_sets_give_near_zero(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(30, 4))
        mmd2, grad_a, grad_b = rbf_mmd(features, features.copy())
        assert mmd2 == pytest.approx(0.0, abs=1e-10)
        assert grad_a.shape == features.shape
        assert grad_b.shape == features.shape

    def test_shifted_sets_give_positive(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 4))
        b = rng.normal(loc=3.0, size=(40, 4))
        mmd2, _, _ = rbf_mmd(a, b)
        assert mmd2 > 0.1

    def test_gradient_direction_reduces_mmd(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 3))
        b = rng.normal(loc=2.0, size=(20, 3))
        mmd_before, grad_a, grad_b = rbf_mmd(a, b, bandwidth=1.0)
        step = 0.5
        mmd_after, _, _ = rbf_mmd(a - step * grad_a, b - step * grad_b, bandwidth=1.0)
        assert mmd_after < mmd_before

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            rbf_mmd(np.zeros((1, 2)), np.zeros((5, 2)))


class TestLogisticLoss:
    def test_perfect_predictions_give_small_loss(self):
        logits = np.array([10.0, -10.0])
        labels = np.array([1.0, 0.0])
        value, grad = logistic_loss(logits, labels)
        assert value < 1e-3
        assert np.all(np.abs(grad) < 1e-3)

    def test_gradient_sign(self):
        value, grad = logistic_loss(np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(np.log(2))
        assert grad[0, 0] < 0  # push the logit up

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            logistic_loss(np.zeros(2), np.zeros(3))


def prepared(scheme, setup, **kwargs):
    """A strategy prepared on the fixture's labelled source data."""
    return create_strategy(scheme, **kwargs).prepare(
        setup["model"], SourceResources(source_data=setup["source"])
    )


class TestSourceOnly:
    def test_returns_copy(self, setup):
        outcome = create_strategy("baseline").adapt(setup["model"], setup["target"])
        assert isinstance(outcome, StrategyOutcome)
        assert outcome.target_model is not setup["model"]
        x = setup["target"][:5]
        np.testing.assert_allclose(outcome.target_model.forward(x), setup["model"].forward(x))


class TestMmdUda:
    def test_requires_source_data(self, setup):
        with pytest.raises(ValueError, match="requires labelled source data"):
            create_strategy("mmd", epochs=1).adapt(setup["model"], setup["target"])

    def test_adapt_runs_and_keeps_model_reasonable(self, setup):
        outcome = prepared("mmd", setup, epochs=3, seed=0).adapt(setup["model"], setup["target"])
        assert len(outcome.losses) == 3
        source_mse = float(np.mean((outcome.target_model.forward(setup["source"].inputs)
                                     - setup["source"].targets) ** 2))
        base_mse = float(np.mean((setup["model"].forward(setup["source"].inputs)
                                  - setup["source"].targets) ** 2))
        assert source_mse < base_mse * 3 + 0.5

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            create_strategy("mmd", epochs=0)


class TestAdversarialUda:
    def test_requires_source_data(self, setup):
        with pytest.raises(ValueError, match="requires labelled source data"):
            create_strategy("adv", epochs=1).adapt(setup["model"], setup["target"])

    def test_adapt_runs(self, setup):
        strategy = prepared("adv", setup, epochs=2, seed=0)
        outcome = strategy.adapt(setup["model"], setup["target"])
        assert len(outcome.losses) == 2
        assert outcome.diagnostics["adversarial_weight"] == strategy.adversarial_weight

    def test_adapt_draws_nothing_from_start_model_dropout(self, setup):
        # The discriminator's width comes from the model's structure, not a
        # forward probe, which would draw masks from a train-mode model.
        start = copy.deepcopy(setup["model"]).train()
        before = [layer.rng.bit_generator.state for layer in start.dropout_layers()]
        outcome = prepared("adv", setup, epochs=1, seed=0).adapt(start, setup["target"])
        after = [layer.rng.bit_generator.state for layer in outcome.target_model.dropout_layers()]
        assert before and after == before


class TestDataFree:
    def test_feature_statistics(self, setup):
        features = setup["model"].features(setup["source"].inputs)
        statistics = FeatureStatistics.from_features(features)
        assert statistics.mean.shape == (features.shape[1],)
        np.testing.assert_allclose(statistics.histograms.sum(axis=1), 1.0, atol=1e-9)

    def test_feature_statistics_validation(self):
        with pytest.raises(ValueError):
            FeatureStatistics.from_features(np.zeros((1, 3)))

    def test_requires_statistics(self, setup):
        with pytest.raises(ValueError, match="feature statistics"):
            create_strategy("datafree", epochs=1).adapt(setup["model"], setup["target"])

    def test_prepare_fits_statistics_from_calibration_split(self, setup):
        strategy = create_strategy("datafree", epochs=2, seed=0).prepare(
            setup["model"], SourceResources(calibration_data=setup["source"])
        )
        features = setup["model"].features(setup["source"].inputs)
        np.testing.assert_array_equal(
            strategy.statistics.mean, FeatureStatistics.from_features(features).mean
        )
        outcome = strategy.adapt(setup["model"], setup["target"])
        assert len(outcome.losses) == 2
        # head parameters must be trainable again afterwards
        assert all(p.trainable for p in outcome.target_model.head.parameters())

    def test_head_is_frozen_during_adaptation(self, setup):
        outcome = prepared("datafree", setup, epochs=1, seed=0).adapt(
            setup["model"], setup["target"]
        )
        for before, after in zip(setup["model"].head.parameters(), outcome.target_model.head.parameters()):
            np.testing.assert_array_equal(before.data, after.data)


class TestAugFree:
    def test_variance_perturbation_preserves_shape(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(10, 3, 4))
        perturbed = variance_perturbation(inputs, rng, strength=0.1)
        assert perturbed.shape == inputs.shape
        assert not np.allclose(perturbed, inputs)

    def test_adapt_runs_and_stays_close_to_teacher(self, setup):
        outcome = create_strategy("augfree", epochs=2, seed=0).adapt(
            setup["model"], setup["target"]
        )
        teacher = setup["model"].forward(setup["target"])
        student = outcome.target_model.forward(setup["target"])
        assert np.abs(teacher - student).mean() < 1.0


class TestTasfarStrategyUnseeded:
    def test_adapt_without_seed_matches_core_tasfar(self, setup):
        """The experiments' pooled/mixed-target runs: no per-call seed, the
        config's own seeding, bit for bit what :meth:`Tasfar.adapt` gives."""
        config = TasfarConfig(adaptation_epochs=3, seed=0)
        calibration = Tasfar(config).calibrate_on_source(
            setup["model"], setup["source"].inputs, setup["source"].targets
        )
        outcome = TasfarStrategy(config, calibration=calibration).adapt(
            setup["model"], setup["target"]
        )
        direct = Tasfar(config).adapt(setup["model"], setup["target"], calibration)
        assert outcome.losses == direct.losses
        assert outcome.stopped_epoch == direct.stopped_epoch
        assert nn.parameter_bytes(outcome.target_model) == nn.parameter_bytes(
            direct.target_model
        )
        assert outcome.diagnostics["uncertain_ratio"] == direct.split.uncertain_ratio
        assert 0.0 <= outcome.diagnostics["uncertain_ratio"] <= 1.0
