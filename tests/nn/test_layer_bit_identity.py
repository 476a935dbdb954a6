"""Bit-identity of the convolution, ReLU and Dropout layers against their
straightforward reference forms.

The layers on the TCN path trade their textbook implementations for cheaper
ones: im2col columns filled straight from the unpadded input, gradients
scattered into an unpadded buffer, ``fmax`` instead of ``where`` in ReLU,
a multiplied (not divided) dropout mask built in its draw's buffer, and
biases added in place.  Every one of those rewrites claims *exact*
arithmetic, not closeness, and none may write into the caller's inputs.  The reference classes below are
the textbook forms, kept verbatim as oracles; each test asserts that forward
outputs, input gradients, parameter gradients, dropout masks and generator
states match bit for bit, including the memory layout of every forward
output (a reduction downstream sums in layout order, so layout is part of
the bits).

``benchmarks/test_bench_tcn_rows.py`` loads this module for the same
oracles, so there is one copy of them.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.nn import Conv1d, Conv2d, Dropout, Linear, ReLU, StackedLinear
from repro.nn.models import RegressionModel, build_tcn_regressor


class ReferenceConv1d(Conv1d):
    """Conv1d through an explicitly padded input (the textbook im2col)."""

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
        padded = np.pad(inputs, ((0, 0), (0, 0), (self.padding, self.padding)))
        # columns: (batch, out_length, in_channels, kernel_size)
        columns = np.empty((batch, out_length, self.in_channels, self.kernel_size))
        for k in range(self.kernel_size):
            offset = k * self.dilation
            columns[:, :, :, k] = padded[:, :, offset : offset + out_length].transpose(0, 2, 1)
        self._cache = (columns, length)
        flat = columns.reshape(batch * out_length, self.in_channels * self.kernel_size)
        kernel = self.weight.data.transpose(0, 2, 1).reshape(
            self.in_channels * self.kernel_size, self.out_channels
        )
        output = flat @ kernel + self.bias.data
        return output.reshape(batch, out_length, self.out_channels).transpose(0, 2, 1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        columns, length = self._cache
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
        grad_padded = np.zeros((batch, self.in_channels, length + 2 * self.padding))
        for k in range(self.kernel_size):
            offset = k * self.dilation
            grad_padded[:, :, offset : offset + out_length] += grad_columns[:, :, :, k].transpose(0, 2, 1)
        if self.padding:
            return grad_padded[:, :, self.padding : self.padding + length]
        return grad_padded


class ReferenceConv2d(Conv2d):
    """Conv2d through an explicitly padded input (the textbook im2col)."""

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
        pad = self.padding
        padded = np.pad(inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        k = self.kernel_size
        columns = np.empty((batch, out_h, out_w, self.in_channels, k, k))
        for i in range(k):
            for j in range(k):
                patch = padded[
                    :,
                    :,
                    i : i + out_h * self.stride : self.stride,
                    j : j + out_w * self.stride : self.stride,
                ]
                columns[:, :, :, :, i, j] = patch.transpose(0, 2, 3, 1)
        self._cache = (columns, (height, width))
        flat = columns.reshape(batch * out_h * out_w, self.in_channels * k * k)
        kernel = self.weight.data.transpose(0, 2, 3, 1).reshape(self.in_channels * k * k, self.out_channels)
        output = flat @ kernel + self.bias.data
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        columns, (height, width) = self._cache
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
        pad = self.padding
        grad_padded = np.zeros((batch, self.in_channels, height + 2 * pad, width + 2 * pad))
        for i in range(k):
            for j in range(k):
                grad_padded[
                    :,
                    :,
                    i : i + out_h * self.stride : self.stride,
                    j : j + out_w * self.stride : self.stride,
                ] += grad_columns[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        if pad:
            return grad_padded[:, :, pad : pad + height, pad : pad + width]
        return grad_padded


class ReferenceReLU(ReLU):
    """ReLU as ``where(x > 0, x, 0)``."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._mask = inputs > 0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class ReferenceDropout(Dropout):
    """Dropout with the mask divided by the keep probability."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.stochastic:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        rng = self._mc_rng if self._mc_rng is not None else self.rng
        self._mask = (rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


_REFERENCES = {
    Conv1d: ReferenceConv1d,
    Conv2d: ReferenceConv2d,
    ReLU: ReferenceReLU,
    Dropout: ReferenceDropout,
}


def as_reference(model: RegressionModel) -> RegressionModel:
    """A deep copy of ``model`` whose conv, ReLU and Dropout layers run the
    reference forms (same parameters, same generator states)."""
    reference = copy.deepcopy(model)
    for module in reference.modules():
        if type(module) in _REFERENCES:
            module.__class__ = _REFERENCES[type(module)]
    return reference


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray, layout: bool = False) -> None:
    """Same shape and the same float64 bit patterns (NaN payloads and the
    sign of zero included); with ``layout``, the same strides too."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    if layout:
        assert actual.strides == expected.strides
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def twin(layer):
    """``layer`` and its reference twin, sharing parameters and generators."""
    reference = copy.deepcopy(layer)
    reference.__class__ = _REFERENCES[type(layer)]
    return layer, reference


def _inputs(shape, layout, rng):
    if layout == "contiguous":
        return rng.normal(size=shape)
    # A transposed view: channels last in memory, as conv outputs are.
    batch, channels, *rest = shape
    return np.moveaxis(rng.normal(size=(batch, *rest, channels)), -1, 1)


def _check_layer(layer, reference, inputs, grad_layout, rng):
    out = layer.forward(inputs)
    out_reference = reference.forward(inputs)
    assert_bits_equal(out, out_reference, layout=True)
    grad = _inputs(out.shape, grad_layout, rng)
    assert_bits_equal(layer.backward(grad), reference.backward(grad))
    for param, param_reference in zip(layer.parameters(), reference.parameters()):
        assert_bits_equal(param.grad, param_reference.grad)


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("padding", [None, 0, 2, 7])
@pytest.mark.parametrize("dilation", [1, 2, 4])
@pytest.mark.parametrize("kernel_size", [1, 3, 5])
def test_conv1d_matches_reference(kernel_size, dilation, padding, layout):
    rng = np.random.default_rng(kernel_size * 100 + dilation * 10 + (padding or 0))
    layer = Conv1d(3, 4, kernel_size, dilation=dilation, padding=padding, rng=rng)
    layer.bias.data = rng.normal(size=4)
    layer, reference = twin(layer)
    # Lengths around the receptive field, including ones shorter than the
    # padding (whole taps then read nothing but padding).
    effective = dilation * (kernel_size - 1) + 1
    for length in sorted({1, 2, 3, max(1, layer.padding - 1), effective, 20}):
        if layer._output_length(length) <= 0:
            with pytest.raises(ValueError):
                layer.forward(_inputs((2, 3, length), layout, rng))
            with pytest.raises(ValueError):
                reference.forward(_inputs((2, 3, length), layout, rng))
            continue
        inputs = _inputs((5, 3, length), layout, rng)
        for grad_layout in ("contiguous", "transposed"):
            _check_layer(layer, reference, inputs, grad_layout, rng)


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 3])
@pytest.mark.parametrize("kernel_size", [1, 3, 5])
def test_conv2d_matches_reference(kernel_size, padding, stride, layout):
    rng = np.random.default_rng(kernel_size * 100 + padding * 10 + stride)
    layer = Conv2d(2, 3, kernel_size, stride=stride, padding=padding, rng=rng)
    layer.bias.data = rng.normal(size=3)
    layer, reference = twin(layer)
    for height, width in [(1, 1), (2, 5), (7, 6), (9, 9)]:
        if layer._output_size(height) <= 0 or layer._output_size(width) <= 0:
            continue
        inputs = _inputs((3, 2, height, width), layout, rng)
        for grad_layout in ("contiguous", "transposed"):
            _check_layer(layer, reference, inputs, grad_layout, rng)


def _adversarial_values(rng):
    tiny = np.finfo(np.float64).tiny
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, tiny / 2, -tiny / 2,
         tiny, -tiny, np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0]
    )
    # Every bit pattern is fair game: random uint64s cover NaN payloads,
    # subnormals and both signs in their natural proportions.
    patterns = rng.integers(0, 2**64, size=4096, dtype=np.uint64).view(np.float64)
    return np.concatenate([specials, patterns])


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_relu_matches_reference_on_adversarial_values(layout):
    rng = np.random.default_rng(0)
    values = _adversarial_values(rng)[: 4 * 8 * 128].reshape(8, 4, 128)
    inputs = values if layout == "contiguous" else np.moveaxis(values.reshape(8, 128, 4), -1, 1)
    layer, reference = twin(ReLU())
    out = layer.forward(inputs)
    assert_bits_equal(out, reference.forward(inputs), layout=True)
    # The layer keeps its output, whose positives are the reference's mask.
    np.testing.assert_array_equal(layer.saved() > 0, reference._mask)
    grad = _adversarial_values(rng)[: inputs.size].reshape(inputs.shape)
    with np.errstate(invalid="ignore"):  # inf * False is NaN on both sides
        assert_bits_equal(layer.backward(grad), reference.backward(grad))


def test_relu_matches_reference_for_each_special_at_every_alignment():
    # numpy's fmax takes SIMD and scalar paths by size, alignment and
    # stride, and the scalar tail returns -0.0 for fmax(-0.0, 0.0); every
    # special value must come out right on every path.
    rng = np.random.default_rng(2)
    for value in _adversarial_values(rng)[:16]:
        for size in range(1, 40):
            filled = np.full((size, 3), value)
            for inputs in (filled, filled.T, filled[::2], filled[1:]):
                layer, reference = twin(ReLU())
                assert_bits_equal(layer.forward(inputs), reference.forward(inputs), layout=True)


@pytest.mark.parametrize("mode", ["train", "mc", "eval"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 0.9])
def test_dropout_matches_reference(rate, layout, mode):
    rng = np.random.default_rng(1)
    layer, reference = twin(Dropout(rate, rng=np.random.default_rng(7)))
    for module in (layer, reference):
        module.training = mode == "train"
        if mode == "mc":
            module.enable_mc(True)
            module.set_mc_rng(np.random.default_rng(11))
    for shape in [(6, 3, 10), (1, 5), (4, 2, 3, 3)]:
        inputs = _inputs(shape, layout, rng)
        out = layer.forward(inputs)
        assert_bits_equal(out, reference.forward(inputs), layout=True)
        if mode == "train" and rate > 0:
            assert_bits_equal(layer.saved(), reference._mask, layout=True)
        else:
            # Only a training forward keeps its mask; the reference also
            # keeps the one an MC forward draws.
            assert layer._saved is None
        grad = _inputs(shape, layout, rng)
        expected = reference.backward(grad) if mode == "train" else grad
        assert_bits_equal(layer.backward(grad), expected)
    # Same draws from the same streams: the generators end in the same state.
    assert layer.rng.bit_generator.state == reference.rng.bit_generator.state
    if mode == "mc":
        assert layer._mc_rng.bit_generator.state == reference._mc_rng.bit_generator.state


def test_tcn_train_step_and_mc_forward_match_reference():
    model = build_tcn_regressor(6, 20, seed=3)
    reference = as_reference(model)
    rng = np.random.default_rng(5)
    for module in (model, reference):
        module.train()
    for _ in range(2):
        inputs = rng.normal(size=(32, 6, 20))
        out = model.forward(inputs)
        assert_bits_equal(out, reference.forward(inputs), layout=True)
        grad = out - 1.0
        assert_bits_equal(model.backward(grad), reference.backward(grad))
        for param, param_reference in zip(model.parameters(), reference.parameters()):
            assert_bits_equal(param.grad, param_reference.grad)
    for module in (model, reference):
        module.eval()
        for layer in module.dropout_layers():
            layer.enable_mc(True)
    inputs = rng.normal(size=(240, 6, 20))
    assert_bits_equal(model.forward(inputs), reference.forward(inputs), layout=True)


# ----------------------------------------------------------------------
# In-place forwards: the caller's inputs stay as they were, and the values
# are the out-of-place expressions' bit for bit.
# ----------------------------------------------------------------------
def forward_leaving_inputs(layer, inputs):
    """``layer.forward(inputs)``, asserting that ``inputs`` is byte-unchanged."""
    before = inputs.copy(order="K")
    out = layer.forward(inputs)
    assert_bits_equal(inputs, before, layout=True)
    return out


@pytest.mark.parametrize("mode", ["train", "mc", "eval"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("rate", [0.0, 0.2, 0.9])
def test_dropout_forward_matches_the_out_of_place_mask(rate, layout, mode):
    layer = Dropout(rate, rng=np.random.default_rng(7))
    layer.training = mode == "train"
    if mode == "mc":
        layer.enable_mc(True)
        layer.set_mc_rng(np.random.default_rng(11))
    # The stream the layer draws from, replayed.
    draws = np.random.default_rng(11 if mode == "mc" else 7)
    rng = np.random.default_rng(4)
    values = _adversarial_values(rng)
    keep = 1.0 - rate
    for shape in [(6, 3, 10), (1, 5), (4, 2, 3, 3)]:
        inputs = _inputs(shape, layout, rng)
        inputs.flat[: min(inputs.size, 32)] = values[:32][: inputs.size]
        # inf * 0 is NaN and max * 1.25 overflows, on both sides alike.
        with np.errstate(invalid="ignore", over="ignore"):
            out = forward_leaving_inputs(layer, inputs)
            if not layer.stochastic:  # eval mode or rate 0: a pass-through
                assert out is inputs
                assert layer._saved is None
                continue
            mask = (draws.random(shape) < keep) * (1.0 / keep)
            assert_bits_equal(out, inputs * mask, layout=True)
        if mode == "train":
            assert_bits_equal(layer.saved(), mask, layout=True)
        else:
            assert layer._saved is None
    assert (layer._mc_rng or layer.rng).bit_generator.state == draws.bit_generator.state


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("conv", ["conv1d", "conv2d"])
def test_conv_bias_add_matches_the_out_of_place_sum(conv, layout, training):
    # The reference layers keep ``flat @ kernel + bias`` verbatim.
    rng = np.random.default_rng(8)
    if conv == "conv1d":
        layer, shape = Conv1d(3, 4, 3, dilation=2, rng=rng), (5, 3, 11)
    else:
        layer, shape = Conv2d(2, 4, 3, stride=2, padding=1, rng=rng), (3, 2, 7, 6)
    layer.bias.data = rng.normal(size=4)
    layer, reference = twin(layer)
    layer.training = reference.training = training
    inputs = _inputs(shape, layout, rng)
    out = forward_leaving_inputs(layer, inputs)
    assert_bits_equal(out, reference.forward(inputs), layout=True)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_linear_bias_add_matches_the_out_of_place_sum(layout, bias):
    rng = np.random.default_rng(9)
    layer = Linear(5, 3, bias=bias, rng=rng)
    if bias:
        layer.bias.data = rng.normal(size=3)
    for shape in [(7, 5), (2, 4, 5)]:
        inputs = rng.normal(size=shape) if layout == "contiguous" else rng.normal(size=shape[::-1]).T
        out = forward_leaving_inputs(layer, inputs)
        expected = inputs @ layer.weight.data + layer.bias.data if bias else inputs @ layer.weight.data
        assert_bits_equal(out, expected, layout=True)
    single = rng.normal(size=5)
    expected = single[None, :] @ layer.weight.data
    if bias:
        expected = expected + layer.bias.data
    assert_bits_equal(forward_leaving_inputs(layer, single), expected, layout=True)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_stacked_linear_bias_add_matches_the_out_of_place_sum(layout, bias):
    rng = np.random.default_rng(10)
    layers = [Linear(5, 3, bias=bias, rng=rng) for _ in range(4)]
    layer = StackedLinear(layers)
    if bias:
        layer.bias.data = rng.normal(size=(4, 3))
    inputs = rng.normal(size=(4, 6, 5))
    if layout == "transposed":
        inputs = rng.normal(size=(4, 5, 6)).transpose(0, 2, 1)
    out = forward_leaving_inputs(layer, inputs)
    expected = np.matmul(inputs, layer.weight.data)
    if bias:
        expected = expected + layer.bias.data[:, None, :]
    assert_bits_equal(out, expected, layout=True)
