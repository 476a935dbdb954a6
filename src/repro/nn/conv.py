"""Convolution, pooling and reshaping layers.

The convolutions are implemented with im2col-style matrix multiplication so
that the whole substrate stays within numpy.  Shapes follow the channels-first
convention used by most deep-learning frameworks:

* 1-D data: ``(batch, channels, length)``
* 2-D data: ``(batch, channels, height, width)``
"""

from __future__ import annotations

import numpy as np

from . import initializers
from .module import Module
from .parameter import Parameter

__all__ = ["Conv1d", "Conv2d", "MaxPool2d", "GlobalAveragePool2d", "Flatten", "GlobalAveragePool1d"]


def _tap_slices(offset: int, stride: int, size: int, out_size: int) -> tuple[slice, slice]:
    """Where one kernel tap reads real input rather than zero padding.

    Output position ``r`` of the tap reads input position
    ``r * stride + offset``.  Returns the slice of output positions that land
    inside ``[0, size)`` and the input slice they read, so im2col can copy
    straight from the unpadded input (and its backward scatter straight into
    an unpadded gradient) with the padding left as the buffer's zeros.
    """
    lo = min(out_size, max(0, -(offset // stride)))
    hi = max(lo, min(out_size, -((offset - size) // stride)))
    if hi == lo:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi), slice(lo * stride + offset, (hi - 1) * stride + offset + 1, stride)


class Conv1d(Module):
    """1-D convolution with optional dilation (used by the TCN blocks).

    Uses "same" padding when ``padding`` is ``None`` so that stacked layers
    preserve the sequence length, which keeps the temporal-convolution network
    simple to assemble.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        padding: int | None = None,
        rng: np.random.Generator | None = None,
        name: str = "conv1d",
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or dilation <= 0:
            raise ValueError("kernel_size and dilation must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.padding = padding if padding is not None else dilation * (kernel_size - 1) // 2
        weight = initializers.he_normal((in_channels, out_channels, kernel_size), rng)
        self.weight = Parameter(weight, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.bias")

    def _output_length(self, length: int) -> int:
        effective = self.dilation * (self.kernel_size - 1) + 1
        return length + 2 * self.padding - effective + 1

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1d expects (batch, {self.in_channels}, length) inputs, got {inputs.shape}"
            )
        batch, _, length = inputs.shape
        out_length = self._output_length(length)
        if out_length <= 0:
            raise ValueError("input sequence too short for this kernel/dilation")
        # columns: (batch, out_length, in_channels, kernel_size), filled tap by
        # tap from the channels-last input; the zeros stand in for the padding.
        channels_last = inputs.transpose(0, 2, 1)
        columns = np.zeros((batch, out_length, self.in_channels, self.kernel_size))
        for k in range(self.kernel_size):
            out_span, in_span = _tap_slices(k * self.dilation - self.padding, 1, length, out_length)
            columns[:, out_span, :, k] = channels_last[:, in_span]
        self.save_for_backward((columns, length))
        flat = columns.reshape(batch * out_length, self.in_channels * self.kernel_size)
        kernel = self.weight.data.transpose(0, 2, 1).reshape(
            self.in_channels * self.kernel_size, self.out_channels
        )
        output = flat @ kernel
        output += self.bias.data
        return output.reshape(batch, out_length, self.out_channels).transpose(0, 2, 1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        columns, length = self.saved()
        batch, out_length = columns.shape[0], columns.shape[1]
        grad_flat = grad_output.transpose(0, 2, 1).reshape(batch * out_length, self.out_channels)
        flat_columns = columns.reshape(batch * out_length, self.in_channels * self.kernel_size)
        grad_kernel = flat_columns.T @ grad_flat
        grad_weight = grad_kernel.reshape(self.in_channels, self.kernel_size, self.out_channels).transpose(0, 2, 1)
        self.weight.accumulate_grad(grad_weight)
        self.bias.accumulate_grad(grad_flat.sum(axis=0))

        kernel = self.weight.data.transpose(0, 2, 1).reshape(
            self.in_channels * self.kernel_size, self.out_channels
        )
        grad_columns = (grad_flat @ kernel.T).reshape(
            batch, out_length, self.in_channels, self.kernel_size
        )
        # Taps add in k order, as into a padded buffer, so every sum rounds as
        # before.  The gradient comes back as a channels-last view: its
        # consumers are elementwise or copy it through reshape first.
        grad_input = np.zeros((batch, length, self.in_channels))
        for k in range(self.kernel_size):
            out_span, in_span = _tap_slices(k * self.dilation - self.padding, 1, length, out_length)
            grad_input[:, in_span] += grad_columns[:, out_span, :, k]
        return grad_input.transpose(0, 2, 1)


class Conv2d(Module):
    """2-D convolution with stride support, implemented via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
        name: str = "conv2d",
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        weight = initializers.he_normal((in_channels, out_channels, kernel_size, kernel_size), rng)
        self.weight = Parameter(weight, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.bias")

    def _output_size(self, size: int) -> int:
        return (size + 2 * self.padding - self.kernel_size) // self.stride + 1

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (batch, {self.in_channels}, H, W) inputs, got {inputs.shape}"
            )
        batch, _, height, width = inputs.shape
        out_h, out_w = self._output_size(height), self._output_size(width)
        if out_h <= 0 or out_w <= 0:
            raise ValueError("input spatial size too small for this kernel")
        k, pad, stride = self.kernel_size, self.padding, self.stride
        channels_last = inputs.transpose(0, 2, 3, 1)
        columns = np.zeros((batch, out_h, out_w, self.in_channels, k, k))
        for i in range(k):
            rows_out, rows_in = _tap_slices(i - pad, stride, height, out_h)
            for j in range(k):
                cols_out, cols_in = _tap_slices(j - pad, stride, width, out_w)
                columns[:, rows_out, cols_out, :, i, j] = channels_last[:, rows_in, cols_in]
        self.save_for_backward((columns, (height, width)))
        flat = columns.reshape(batch * out_h * out_w, self.in_channels * k * k)
        kernel = self.weight.data.transpose(0, 2, 3, 1).reshape(self.in_channels * k * k, self.out_channels)
        output = flat @ kernel
        output += self.bias.data
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        columns, (height, width) = self.saved()
        batch, out_h, out_w = columns.shape[0], columns.shape[1], columns.shape[2]
        k = self.kernel_size
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, self.out_channels)
        flat_columns = columns.reshape(batch * out_h * out_w, self.in_channels * k * k)
        grad_kernel = flat_columns.T @ grad_flat
        grad_weight = grad_kernel.reshape(self.in_channels, k, k, self.out_channels).transpose(0, 3, 1, 2)
        self.weight.accumulate_grad(grad_weight)
        self.bias.accumulate_grad(grad_flat.sum(axis=0))

        kernel = self.weight.data.transpose(0, 2, 3, 1).reshape(self.in_channels * k * k, self.out_channels)
        grad_columns = (grad_flat @ kernel.T).reshape(batch, out_h, out_w, self.in_channels, k, k)
        pad, stride = self.padding, self.stride
        grad_input = np.zeros((batch, height, width, self.in_channels))
        for i in range(k):
            rows_out, rows_in = _tap_slices(i - pad, stride, height, out_h)
            for j in range(k):
                cols_out, cols_in = _tap_slices(j - pad, stride, width, out_w)
                grad_input[:, rows_in, cols_in] += grad_columns[:, rows_out, cols_out, :, i, j]
        return grad_input.transpose(0, 3, 1, 2)


class MaxPool2d(Module):
    """Non-overlapping 2-D max pooling."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        batch, channels, height, width = inputs.shape
        p = self.pool_size
        out_h, out_w = height // p, width // p
        trimmed = inputs[:, :, : out_h * p, : out_w * p]
        windows = trimmed.reshape(batch, channels, out_h, p, out_w, p)
        output = windows.max(axis=(3, 5))
        if self.training:  # the tie-broken mask is backward-only work
            mask = windows == output[:, :, :, None, :, None]
            # Break ties so the gradient is routed to exactly one element per window.
            counts = mask.sum(axis=(3, 5), keepdims=True)
            self.save_for_backward((mask / counts, inputs.shape))
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask, input_shape = self.saved()
        batch, channels, height, width = input_shape
        p = self.pool_size
        out_h, out_w = height // p, width // p
        grad_windows = mask * grad_output[:, :, :, None, :, None]
        grad_trimmed = grad_windows.reshape(batch, channels, out_h * p, out_w * p)
        grad_input = np.zeros(input_shape)
        grad_input[:, :, : out_h * p, : out_w * p] = grad_trimmed
        return grad_input


class GlobalAveragePool2d(Module):
    """Average over the two spatial dimensions: ``(B, C, H, W) -> (B, C)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self.save_for_backward(inputs.shape)
        return inputs.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = self.saved()
        scale = 1.0 / (shape[2] * shape[3])
        return np.broadcast_to(grad_output[:, :, None, None] * scale, shape).copy()


class GlobalAveragePool1d(Module):
    """Average over the temporal dimension: ``(B, C, L) -> (B, C)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self.save_for_backward(inputs.shape)
        return inputs.mean(axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = self.saved()
        return np.broadcast_to(grad_output[:, :, None] / shape[2], shape).copy()


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self.save_for_backward(inputs.shape)
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self.saved())
