"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from .module import Module

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Identity", "Softplus"]


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if self.training:
            self._mask = inputs > 0
        # Bit-equal to ``np.where(inputs > 0, inputs, 0.0)`` at a fraction of
        # its cost: ``fmax`` maps NaN to 0 and ``+= 0.0`` turns -0.0 into +0.0.
        outputs = np.fmax(inputs, 0.0)
        outputs += 0.0
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class LeakyReLU(Module):
    """Leaky rectified linear unit with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        mask = inputs > 0
        if self.training:
            self._mask = mask
        return np.where(mask, inputs, self.negative_slope * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = np.tanh(inputs)
        if self.training:
            self._output = output
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output**2)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = 1.0 / (1.0 + np.exp(-np.clip(inputs, -60.0, 60.0)))
        if self.training:
            self._output = output
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Softplus(Module):
    """Softplus activation ``log(1 + exp(x))`` (smooth, positive outputs)."""

    def __init__(self) -> None:
        super().__init__()
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if self.training:
            self._inputs = inputs
        return np.logaddexp(0.0, inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        sigmoid = 1.0 / (1.0 + np.exp(-np.clip(self._inputs, -60.0, 60.0)))
        return grad_output * sigmoid


class Identity(Module):
    """Pass-through layer, useful as a placeholder."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
