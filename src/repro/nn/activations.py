"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from .module import Module

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Identity", "Softplus"]


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        # Bit-equal to ``np.where(inputs > 0, inputs, 0.0)`` at a fraction of
        # its cost: ``fmax`` maps NaN to 0 and ``+= 0.0`` turns -0.0 into +0.0.
        outputs = np.fmax(inputs, 0.0)
        outputs += 0.0
        # ``outputs > 0`` is ``inputs > 0`` (NaN and -0.0 both map to 0), so
        # the backward derives its mask from the output and a forward that
        # keeps nothing computes none.
        self.save_for_backward(outputs)
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (self.saved() > 0)


class LeakyReLU(Module):
    """Leaky rectified linear unit with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        mask = inputs > 0
        self.save_for_backward(mask)
        return np.where(mask, inputs, self.negative_slope * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self.saved(), grad_output, self.negative_slope * grad_output)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = np.tanh(inputs)
        self.save_for_backward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self.saved() ** 2)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = 1.0 / (1.0 + np.exp(-np.clip(inputs, -60.0, 60.0)))
        self.save_for_backward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        output = self.saved()
        return grad_output * output * (1.0 - output)


class Softplus(Module):
    """Softplus activation ``log(1 + exp(x))`` (smooth, positive outputs)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self.save_for_backward(inputs)
        return np.logaddexp(0.0, inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        sigmoid = 1.0 / (1.0 + np.exp(-np.clip(self.saved(), -60.0, 60.0)))
        return grad_output * sigmoid


class Identity(Module):
    """Pass-through layer, useful as a placeholder."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
