"""Tests for ``train_supervised``, the engine helper that trains source models."""

import numpy as np
import pytest

import repro.nn as nn
from repro.engine import train_supervised
from repro.nn.data import DataLoader
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam, clip_gradients


def make_linear_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 4))
    weights = np.array([1.0, -1.0, 2.0, 0.5])
    targets = inputs @ weights + 0.05 * rng.normal(size=n)
    return nn.ArrayDataset(inputs, targets)


def dataloader_loop(model, dataset, epochs, batch_size, lr, rng):
    """A plain supervised loop: dropout on, Adam, clip 5.0, DataLoader shuffles."""
    optimizer = Adam(model.parameters(), lr=lr)
    loss = MSELoss()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=rng)
    losses = []
    model.train()
    for _ in range(epochs):
        total, batches = 0.0, 0
        for inputs, targets, weights in loader:
            optimizer.zero_grad()
            value, grad = loss(model.forward(inputs), targets, weights)
            model.backward(grad)
            clip_gradients(optimizer.parameters, 5.0)
            optimizer.step()
            total += value
            batches += 1
        losses.append(total / max(batches, 1))
    model.eval()
    return losses


class TestTrainSupervised:
    def test_reduces_loss(self):
        dataset = make_linear_data()
        model = nn.build_mlp(4, 1, hidden_dims=(16,), dropout=0.0, seed=0)
        result = train_supervised(
            model, dataset, epochs=30, batch_size=32, lr=5e-3, rng=np.random.default_rng(0)
        )
        assert result.n_epochs == 30
        assert result.losses[-1] < result.losses[0] * 0.2

    def test_predictions_shape_and_determinism(self):
        dataset = make_linear_data(50)
        model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.3, seed=0)
        train_supervised(model, dataset, epochs=2, batch_size=16)
        assert not model.training
        first = nn.predict_batched(model, dataset.inputs)
        second = nn.predict_batched(model, dataset.inputs)
        assert first.shape == (50, 1)
        np.testing.assert_array_equal(first, second)

    def test_invalid_epochs(self):
        model = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.0)
        with pytest.raises(ValueError):
            train_supervised(model, make_linear_data(10), epochs=0)

    def test_weighted_training_ignores_zero_weight_samples(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(100, 2))
        targets = inputs @ np.array([1.0, 1.0])
        # half the samples have absurd targets but zero weight
        targets[50:] = 1000.0
        weights = np.concatenate([np.ones(50), np.zeros(50)])
        dataset = nn.ArrayDataset(inputs, targets, weights)
        model = nn.build_mlp(2, 1, hidden_dims=(8,), dropout=0.0, seed=1)
        train_supervised(model, dataset, epochs=40, batch_size=25, lr=5e-3, rng=rng)
        clean_predictions = nn.predict_batched(model, inputs[:50])
        assert np.abs(clean_predictions.ravel() - targets[:50]).mean() < 1.0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_a_dataloader_loop(self, weighted):
        dataset = make_linear_data(70, seed=3)  # 70 rows: a ragged tail batch
        if weighted:
            dataset = dataset.with_weights(np.random.default_rng(4).uniform(0.5, 1.5, 70))
        reference = nn.build_mlp(4, 1, hidden_dims=(8, 8), dropout=0.3, seed=2)
        model = nn.build_mlp(4, 1, hidden_dims=(8, 8), dropout=0.3, seed=2)
        expected = dataloader_loop(reference, dataset, 6, 16, 3e-3, np.random.default_rng(5))
        result = train_supervised(
            model, dataset, epochs=6, batch_size=16, lr=3e-3, rng=np.random.default_rng(5)
        )
        assert result.losses == expected
        assert nn.parameter_bytes(model) == nn.parameter_bytes(reference)

    def test_default_shuffle_stream_is_seed_zero(self):
        dataset = make_linear_data(40)
        implicit = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.3, seed=0)
        explicit = nn.build_mlp(4, 1, hidden_dims=(8,), dropout=0.3, seed=0)
        train_supervised(implicit, dataset, epochs=3, batch_size=16)
        train_supervised(explicit, dataset, epochs=3, batch_size=16, rng=np.random.default_rng(0))
        assert nn.parameter_bytes(implicit) == nn.parameter_bytes(explicit)
