"""Normalization layers."""

from __future__ import annotations

import numpy as np

from .module import Module
from .parameter import Parameter

__all__ = ["BatchNorm1d", "LayerNorm"]


class BatchNorm1d(Module):
    """Batch normalization over the feature dimension of ``(batch, features)``.

    Keeps running estimates of the mean and variance for evaluation mode, as in
    the standard formulation.  The running statistics are also what the
    ``Datafree`` baseline snapshots as part of its stored source statistics.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn") -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features), name=f"{name}.beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects (batch, {self.num_features}) inputs, got {inputs.shape}"
            )
        if self.training:
            mean = inputs.mean(axis=0)
            var = inputs.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.eps)
        centered = inputs - mean
        normalized = centered / std
        self.save_for_backward((normalized, std, centered))
        return self.gamma.data * normalized + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, std, centered = self.saved()
        batch = grad_output.shape[0]
        self.gamma.accumulate_grad((grad_output * normalized).sum(axis=0))
        self.beta.accumulate_grad(grad_output.sum(axis=0))
        grad_norm = grad_output * self.gamma.data
        grad_var = (-0.5 * (grad_norm * centered).sum(axis=0)) / std**3
        grad_mean = -grad_norm.sum(axis=0) / std + grad_var * (-2.0 * centered.mean(axis=0))
        return grad_norm / std + grad_var * 2.0 * centered / batch + grad_mean / batch


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, num_features: int, eps: float = 1e-5, name: str = "ln") -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features), name=f"{name}.beta")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        mean = inputs.mean(axis=-1, keepdims=True)
        var = inputs.var(axis=-1, keepdims=True)
        std = np.sqrt(var + self.eps)
        normalized = (inputs - mean) / std
        self.save_for_backward((normalized, std))
        return self.gamma.data * normalized + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, std = self.saved()
        axes = tuple(range(grad_output.ndim - 1))
        self.gamma.accumulate_grad((grad_output * normalized).sum(axis=axes))
        self.beta.accumulate_grad(grad_output.sum(axis=axes))
        grad_norm = grad_output * self.gamma.data
        return (
            grad_norm
            - grad_norm.mean(axis=-1, keepdims=True)
            - normalized * (grad_norm * normalized).mean(axis=-1, keepdims=True)
        ) / std
