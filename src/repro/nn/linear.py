"""Fully-connected (dense) layer."""

from __future__ import annotations

import numpy as np

from . import initializers
from .module import Module
from .parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Parameters
    ----------
    in_features:
        Input feature dimension.
    out_features:
        Output feature dimension.
    bias:
        Whether a bias term is learned.
    rng:
        Random generator used for weight initialization.  A fixed default seed
        keeps model construction deterministic when no generator is supplied.
    init:
        Initialization scheme: ``"he"`` (default, ReLU-friendly) or ``"xavier"``.
    name:
        Prefix for parameter names.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        init: str = "he",
        name: str = "linear",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        if init == "he":
            weight = initializers.he_normal((in_features, out_features), rng)
        elif init == "xavier":
            weight = initializers.xavier_normal((in_features, out_features), rng)
        else:
            raise ValueError(f"unknown init scheme {init!r}")

        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight, name=f"{name}.weight")
        self.bias = Parameter(initializers.zeros((out_features,)), name=f"{name}.bias") if bias else None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {inputs.shape[-1]}"
            )
        self.save_for_backward(inputs)
        output = inputs @ self.weight.data
        if self.bias is not None:
            output += self.bias.data
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        flat_inputs = self.saved().reshape(-1, self.in_features)
        flat_grad = grad_output.reshape(-1, self.out_features)
        self.weight.accumulate_grad(flat_inputs.T @ flat_grad)
        if self.bias is not None:
            self.bias.accumulate_grad(flat_grad.sum(axis=0))
        return grad_output @ self.weight.data.T
