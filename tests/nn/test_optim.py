"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Adam, Parameter, StackedAdam


def quadratic_problem(optimizer_factory, steps=200):
    """Minimize ||w - w*||^2 with the given optimizer; return the final distance."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        optimizer.zero_grad()
        param.accumulate_grad(2.0 * (param.data - target))
        optimizer.step()
    return float(np.linalg.norm(param.data - target))


class TestSGD:
    def test_plain_step(self):
        param = Parameter(np.array([1.0]))
        optimizer = nn.SGD([param], lr=0.1)
        param.accumulate_grad(np.array([2.0]))
        optimizer.step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_momentum_accumulates(self):
        param = Parameter(np.array([0.0]))
        optimizer = nn.SGD([param], lr=0.1, momentum=0.9)
        for _ in range(2):
            optimizer.zero_grad()
            param.accumulate_grad(np.array([1.0]))
            optimizer.step()
        # first step: -0.1, second: velocity = 0.9 + 1 = 1.9 -> -0.19
        assert param.data[0] == pytest.approx(-0.1 - 0.19)

    def test_weight_decay(self):
        param = Parameter(np.array([1.0]))
        optimizer = nn.SGD([param], lr=0.1, weight_decay=0.5)
        param.accumulate_grad(np.array([0.0]))
        optimizer.step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_converges_on_quadratic(self):
        assert quadratic_problem(lambda p: nn.SGD(p, lr=0.05)) < 1e-3

    def test_skips_frozen_parameters(self):
        param = Parameter(np.array([1.0]), trainable=False)
        optimizer = nn.SGD([param], lr=0.1)
        param.accumulate_grad(np.array([5.0]))
        optimizer.step()
        assert param.data[0] == 1.0

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(1))], lr=0.0)
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_problem(lambda p: nn.Adam(p, lr=0.05), steps=400) < 1e-2

    def test_first_step_magnitude_close_to_lr(self):
        param = Parameter(np.array([0.0]))
        optimizer = nn.Adam([param], lr=0.01)
        param.accumulate_grad(np.array([123.0]))
        optimizer.step()
        assert abs(param.data[0]) == pytest.approx(0.01, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            nn.Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

    def test_weight_decay_applied(self):
        param = Parameter(np.array([10.0]))
        optimizer = nn.Adam([param], lr=0.1, weight_decay=0.1)
        param.accumulate_grad(np.array([0.0]))
        optimizer.step()
        assert param.data[0] < 10.0


class TestClipGradients:
    def test_norm_reduced(self):
        params = [Parameter(np.zeros(3)) for _ in range(2)]
        for param in params:
            param.accumulate_grad(np.ones(3) * 10.0)
        original = nn.clip_gradients(params, max_norm=1.0)
        assert original > 1.0
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in params))
        assert total == pytest.approx(1.0)

    def test_no_clipping_when_below(self):
        param = Parameter(np.zeros(2))
        param.accumulate_grad(np.array([0.1, 0.1]))
        nn.clip_gradients([param], max_norm=10.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            nn.clip_gradients([], max_norm=0.0)


class TestStackedAdam:
    def test_flat_update_matches_adam_and_skips_frozen(self):
        """One pass over the packed buffer is Adam's per-parameter loop, bit
        for bit; a parameter frozen at construction is never touched."""
        rng = np.random.default_rng(3)
        shapes = [(4, 3), (3,), (3, 2), (2,)]
        serial = [Parameter(rng.normal(size=shape)) for shape in shapes]
        packed = [Parameter(param.data.copy()) for param in serial]
        for params in (serial, packed):
            params[2].trainable = False
        adam = Adam(serial, lr=1e-2, weight_decay=0.01)
        stacked = StackedAdam(packed, 1, lr=1e-2, weight_decay=0.01)
        frozen = packed[2].data.copy()
        for _ in range(3):
            adam.zero_grad()
            stacked.zero_grad()
            for a, b in zip(serial, packed):
                grad = rng.normal(size=a.data.shape)
                a.accumulate_grad(grad)
                b.accumulate_grad(grad)
            adam.step()
            stacked.step()
            for a, b in zip(serial, packed):
                assert a.data.tobytes() == b.data.tobytes()
        assert packed[2].data.tobytes() == frozen.tobytes()
