"""Tests for MC-dropout uncertainty estimation."""

import numpy as np
import pytest

import repro.nn as nn
from repro.engine import train_supervised
from repro.uncertainty import MCDropoutPredictor


class TestMCDropoutPredictor:
    def test_shapes(self):
        model = nn.build_mlp(4, 2, hidden_dims=(8,), dropout=0.2, seed=0)
        predictor = MCDropoutPredictor(model, n_samples=5)
        result = predictor.predict(np.random.default_rng(0).normal(size=(10, 4)))
        assert result.mean.shape == (10, 2)
        assert result.std.shape == (10, 2)
        assert result.uncertainty.shape == (10,)
        assert len(result) == 10

    def test_uncertainty_positive_with_dropout(self):
        model = nn.build_mlp(4, 1, hidden_dims=(16,), dropout=0.3, seed=0)
        predictor = MCDropoutPredictor(model, n_samples=10)
        result = predictor.predict(np.random.default_rng(0).normal(size=(20, 4)))
        assert np.all(result.uncertainty >= 0)
        assert result.uncertainty.mean() > 0

    def test_no_dropout_model_gives_zero_uncertainty(self):
        model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.0, seed=0)
        # Remove the dropout layers entirely by rebuilding the encoder without them.
        model.encoder.layers = [layer for layer in model.encoder.layers if not isinstance(layer, nn.Dropout)]
        predictor = MCDropoutPredictor(model, n_samples=5)
        result = predictor.predict(np.zeros((5, 4)))
        np.testing.assert_array_equal(result.uncertainty, 0.0)

    def test_model_left_in_eval_mode(self):
        model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.2, seed=0)
        predictor = MCDropoutPredictor(model, n_samples=3)
        predictor.predict(np.zeros((4, 4)))
        assert not any(layer.mc_mode for layer in model.dropout_layers())
        assert not model.encoder.layers[0].training

    def test_keep_samples(self):
        model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.2, seed=0)
        predictor = MCDropoutPredictor(model, n_samples=7)
        result = predictor.predict(np.zeros((3, 4)), keep_samples=True)
        assert result.samples.shape == (7, 3, 1)

    def test_minimum_samples_validated(self):
        model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.2, seed=0)
        with pytest.raises(ValueError):
            MCDropoutPredictor(model, n_samples=1)

    def test_hard_inputs_are_more_uncertain(self):
        """Large-magnitude (off-manifold) inputs should yield larger spread."""
        rng = np.random.default_rng(0)
        model = nn.build_mlp(4, 1, hidden_dims=(16, 8), dropout=0.2, seed=0)
        inputs = rng.normal(size=(200, 4))
        targets = inputs @ np.array([1.0, -1.0, 0.5, 2.0])
        train_supervised(
            model, nn.ArrayDataset(inputs, targets), epochs=20, batch_size=32, lr=3e-3, rng=rng
        )
        predictor = MCDropoutPredictor(model, n_samples=20)
        normal = predictor.predict(rng.normal(size=(100, 4)))
        extreme = predictor.predict(5.0 * rng.normal(size=(100, 4)))
        assert extreme.uncertainty.mean() > normal.uncertainty.mean()
