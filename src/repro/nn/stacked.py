"""Replica-stacked layers: K same-architecture models as one batched tree.

The serving side already established the house trick: give every tensor a
leading replica axis and let one ``(K, B, D) @ (K, D, H)`` batched gemm do
the work of K per-model 2-D gemms (``serve/batching.py`` for prediction,
``uncertainty/mc_dropout.py`` for stochastic forwards).  This module brings
the same trick to *training*: :func:`stack_modules` folds K structurally
identical model clones into a single stacked module tree whose parameters
carry a leading ``(K, ...)`` axis, with forward **and backward** passes that
are bit-identical, per replica, to running the K originals one at a time.

Why bit-identical rather than merely close: ``np.matmul`` on a 3-D operand
dispatches one independent 2-D BLAS gemm per leading-axis slice, so slice
``k`` of ``x @ W`` is computed by the very same kernel call as the serial
``x[k] @ W[k]`` — same shape, same blocking, same bits.  Every other stacked
op below is either elementwise (trivially per-replica), a per-replica
reduction with the same length and stride pattern as its serial counterpart
(same pairwise summation tree), or a gather (no arithmetic at all).  The one
thing deliberately *not* offered is batch-axis padding: zero-padding a
ragged batch changes the gemm shape a row is computed in, which is exactly
the ~1 ulp shape drift ``serve/batching.py`` documents.  Training therefore
only stacks replicas whose datasets have equal length — the fixed shape
lives on the replica axis — and callers group targets accordingly.

A one-replica "stack" is not rebuilt at all: :func:`stack_modules` wraps
the lone module in a :class:`ReplicaView`, which runs the original on
``x[0]`` and returns ``out[None]``.  That is bit-identical by construction
and works for every layer, so single-target training of any model (the
PDR TCN and the crowd MCNN included) shares the stacked engine; only
K >= 2 needs the ``Stacked*`` layers below.

``unstack_modules`` copies the trained parameter slices back into the
original clones, so the rest of the system (caches, serialization, serving)
never sees a stacked model.
"""

from __future__ import annotations

import numpy as np

from .activations import Identity, LeakyReLU, ReLU, Sigmoid, Softplus, Tanh
from .container import Residual, Sequential
from .dropout import Dropout
from .gradient_reversal import GradientReversal
from .linear import Linear
from .losses import Loss, WeightedElementwiseLoss
from .models import RegressionModel
from .module import Module
from .normalization import LayerNorm
from .optim import SGD, Adam, clip_gradients
from .parameter import Parameter

__all__ = [
    "StackingError",
    "ReplicaView",
    "assert_stackable",
    "stack_modules",
    "unstack_modules",
    "StackedLinear",
    "StackedDropout",
    "StackedLayerNorm",
    "StackedRegressionModel",
    "StackedSGD",
    "StackedAdam",
    "stacked_clip_gradients",
    "PerReplicaLoss",
]


class StackingError(TypeError):
    """A module tree contains a layer with no stacked-execution equivalent."""


#: Stateless elementwise layers: a fresh instance of the same class computes
#: identical bits on ``(K, B, ...)`` inputs because every output element
#: depends only on its own input element.
_ELEMENTWISE_TYPES = (ReLU, Tanh, Sigmoid, Softplus, Identity)


def _require_uniform(values, what: str):
    first = values[0]
    for value in values[1:]:
        if value != first:
            raise StackingError(
                f"replicas disagree on {what}: {first!r} vs {value!r}"
            )
    return first


class StackedLinear(Module):
    """K :class:`~repro.nn.Linear` layers as one batched affine map.

    Weights are ``(K, in, out)`` and biases ``(K, out)``; forward/backward
    use 3-D ``np.matmul``, which runs one 2-D gemm per replica slice — the
    same kernel call, hence the same bits, as the serial layer.
    """

    def __init__(self, layers: list[Linear]) -> None:
        super().__init__()
        self.n_replicas = len(layers)
        first = layers[0]
        self.in_features = _require_uniform([l.in_features for l in layers], "in_features")
        self.out_features = _require_uniform([l.out_features for l in layers], "out_features")
        _require_uniform([l.bias is None for l in layers], "bias presence")
        self.weight = Parameter(
            np.stack([l.weight.data for l in layers]), name=f"stacked.{first.weight.name}"
        )
        if first.bias is not None:
            self.bias = Parameter(
                np.stack([l.bias.data for l in layers]), name=f"stacked.{first.bias.name}"
            )
        else:
            self.bias = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[0] != self.n_replicas:
            raise ValueError(
                f"expected ({self.n_replicas}, batch, {self.in_features}) inputs, "
                f"got {inputs.shape}"
            )
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {inputs.shape[-1]}"
            )
        self.save_for_backward(inputs)
        output = np.matmul(inputs, self.weight.data)
        if self.bias is not None:
            # (K, 1, out) broadcast: element (k, b, o) sees the same scalar
            # add as the serial layer's (out,) broadcast.
            output += self.bias.data[:, None, :]
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # Per slice: (in, B) @ (B, out) — the serial layer's transposed-view
        # gemm, replica by replica.
        self.weight.accumulate_grad(
            np.matmul(self.saved().transpose(0, 2, 1), grad_output)
        )
        if self.bias is not None:
            # sum over the batch axis of a C-contiguous (K, B, out) array:
            # per replica the same reduction length and stride pattern as
            # the serial (B, out).sum(axis=0).
            self.bias.accumulate_grad(grad_output.sum(axis=1))
        return np.matmul(grad_output, self.weight.data.transpose(0, 2, 1))


class StackedDropout(Module):
    """K :class:`~repro.nn.Dropout` layers sharing one rate, one mask tensor.

    Each replica draws its ``(B, ...)`` mask from *its own* generator — the
    generator object of the clone it was stacked from, so active replicas
    consume exactly the draws the serial fine-tune would have consumed.
    Replicas that early-stopped keep drawing (the stack never reshapes);
    nothing observes a model's dropout generator state after adaptation
    (MC-dropout probing installs its own seeded streams via ``set_mc_rng``),
    so the extra draws are invisible.
    """

    def __init__(self, layers: list[Dropout]) -> None:
        super().__init__()
        self.n_replicas = len(layers)
        self.rate = float(_require_uniform([l.rate for l in layers], "dropout rate"))
        self.rngs = [layer.rng for layer in layers]

    @property
    def stochastic(self) -> bool:
        return self.training and self.rate > 0.0

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.stochastic:
            # The engine zeroes rates to disable dropout mid-training: drop
            # the mask an earlier forward kept.
            self.save_for_backward(None)
            return inputs
        keep = 1.0 - self.rate
        mask = np.empty(inputs.shape, dtype=np.float64)
        for index, rng in enumerate(self.rngs):
            # Same draw shape, same generator, same (< keep) / keep
            # arithmetic as the serial layer's per-replica forward.
            mask[index] = (rng.random(inputs.shape[1:]) < keep) / keep
        self.save_for_backward(mask)
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # No kept mask (rate 0, or no training forward): pass the gradient on.
        mask = self._saved
        if mask is None:
            return grad_output
        return grad_output * mask


class StackedLayerNorm(Module):
    """K :class:`~repro.nn.LayerNorm` layers with ``(K, features)`` affines.

    The serial backward reduces parameter gradients over *every* leading
    axis; on stacked inputs that would sum across replicas, so this class
    reduces over the batch axis only.
    """

    def __init__(self, layers: list[LayerNorm]) -> None:
        super().__init__()
        self.n_replicas = len(layers)
        first = layers[0]
        self.num_features = _require_uniform([l.num_features for l in layers], "num_features")
        self.eps = float(_require_uniform([l.eps for l in layers], "eps"))
        self.gamma = Parameter(
            np.stack([l.gamma.data for l in layers]), name=f"stacked.{first.gamma.name}"
        )
        self.beta = Parameter(
            np.stack([l.beta.data for l in layers]), name=f"stacked.{first.beta.name}"
        )

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        mean = inputs.mean(axis=-1, keepdims=True)
        var = inputs.var(axis=-1, keepdims=True)
        std = np.sqrt(var + self.eps)
        normalized = (inputs - mean) / std
        self.save_for_backward((normalized, std))
        return self.gamma.data[:, None, :] * normalized + self.beta.data[:, None, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, std = self.saved()
        self.gamma.accumulate_grad((grad_output * normalized).sum(axis=1))
        self.beta.accumulate_grad(grad_output.sum(axis=1))
        grad_norm = grad_output * self.gamma.data[:, None, :]
        return (
            grad_norm
            - grad_norm.mean(axis=-1, keepdims=True)
            - normalized * (grad_norm * normalized).mean(axis=-1, keepdims=True)
        ) / std


class ReplicaView(Module):
    """Any module as a one-replica stack: the original runs on ``x[0]``.

    The ``[0]`` and ``[None]`` reshapes are views, so every value is the
    module's own serial forward or backward, bit for bit.  The view's
    parameters are the module's (no replica axis), so training updates the
    original in place and there is nothing to unstack.
    """

    def __init__(self, module: Module) -> None:
        super().__init__()
        self.module = module

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.module.forward(inputs[0])[None]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.module.backward(grad_output[0])[None]


class StackedRegressionModel(Module):
    """K :class:`~repro.nn.RegressionModel` clones as one stacked tree."""

    def __init__(self, encoder: Module, head: Module, n_replicas: int) -> None:
        super().__init__()
        self.encoder = encoder
        self.head = head
        self.n_replicas = int(n_replicas)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.head.forward(self.encoder.forward(inputs))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.encoder.backward(self.head.backward(grad_output))

    def features(self, inputs: np.ndarray) -> np.ndarray:
        return self.encoder.forward(inputs)

    def backward_features(self, grad_features: np.ndarray) -> np.ndarray:
        return self.encoder.backward(grad_features)

    def dropout_layers(self) -> list[StackedDropout | Dropout]:
        # A one-replica stack's dropout layers are the original's, in views.
        return [m for m in self.modules() if isinstance(m, (StackedDropout, Dropout))]


def assert_stackable(module: Module) -> None:
    """Raise :class:`StackingError` if ``module``'s tree cannot be stacked.

    Type-only walk (no allocation), so callers can validate a knob like
    ``train_batching`` at construction time instead of failing mid-fleet.
    """
    if isinstance(module, RegressionModel):
        assert_stackable(module.encoder)
        assert_stackable(module.head)
    elif isinstance(module, Sequential):
        for layer in module.layers:
            assert_stackable(layer)
    elif isinstance(module, Residual):
        assert_stackable(module.body)
    elif isinstance(
        module,
        _ELEMENTWISE_TYPES + (LeakyReLU, GradientReversal, Linear, Dropout, LayerNorm),
    ):
        pass
    else:
        raise StackingError(
            f"layer type {type(module).__name__} has no stacked training "
            f"equivalent (only MLP-style trees of Linear/activation/Dropout/"
            f"LayerNorm layers can share a training stack)"
        )


def stack_modules(modules: list[Module]) -> Module:
    """Fold K structurally identical module trees into one stacked tree.

    The inputs are typically per-target model *clones* about to be
    fine-tuned; their parameter values may differ (warm starts), only the
    architecture must match.  Dropout layers keep a reference to each
    clone's generator, so the stacked tree consumes the clones' RNG streams
    exactly as serial training would.  A single module becomes a
    :class:`ReplicaView` (a regression model keeps the stacked
    encoder/head shape, with each part a view), whatever its layers.
    """
    if not modules:
        raise ValueError("cannot stack an empty list of modules")
    first = modules[0]
    for module in modules[1:]:
        if type(module) is not type(first):
            raise StackingError(
                f"replicas disagree on layer type: "
                f"{type(first).__name__} vs {type(module).__name__}"
            )
    if isinstance(first, RegressionModel):
        return StackedRegressionModel(
            stack_modules([m.encoder for m in modules]),
            stack_modules([m.head for m in modules]),
            len(modules),
        )
    if len(modules) == 1:
        return ReplicaView(first)
    if isinstance(first, Sequential):
        _require_uniform([len(m.layers) for m in modules], "Sequential depth")
        return Sequential(
            *[
                stack_modules([m.layers[i] for m in modules])
                for i in range(len(first.layers))
            ]
        )
    if isinstance(first, Residual):
        return Residual(stack_modules([m.body for m in modules]))
    if isinstance(first, Linear):
        return StackedLinear(modules)
    if isinstance(first, Dropout):
        return StackedDropout(modules)
    if isinstance(first, LayerNorm):
        return StackedLayerNorm(modules)
    if isinstance(first, LeakyReLU):
        return LeakyReLU(_require_uniform([m.negative_slope for m in modules], "negative_slope"))
    if isinstance(first, GradientReversal):
        return GradientReversal(_require_uniform([m.scale for m in modules], "scale"))
    if isinstance(first, _ELEMENTWISE_TYPES):
        return type(first)()
    raise StackingError(
        f"layer type {type(first).__name__} has no stacked training "
        f"equivalent (only MLP-style trees of Linear/activation/Dropout/"
        f"LayerNorm layers can share a training stack)"
    )


def unstack_modules(stacked: Module, modules: list[Module]) -> None:
    """Copy trained ``(K, ...)`` parameter slices back into the K originals.

    Pure data movement (fancy slicing, no arithmetic), so the written-back
    parameters are bitwise the stacked training result.
    """
    if isinstance(stacked, StackedRegressionModel):
        unstack_modules(stacked.encoder, [m.encoder for m in modules])
        unstack_modules(stacked.head, [m.head for m in modules])
    elif isinstance(stacked, Sequential):
        for index, layer in enumerate(stacked.layers):
            unstack_modules(layer, [m.layers[index] for m in modules])
    elif isinstance(stacked, Residual):
        unstack_modules(stacked.body, [m.body for m in modules])
    elif isinstance(stacked, StackedLinear):
        for index, layer in enumerate(modules):
            layer.weight.data[...] = stacked.weight.data[index]
            layer.weight.grad[...] = stacked.weight.grad[index]
            if layer.bias is not None:
                layer.bias.data[...] = stacked.bias.data[index]
                layer.bias.grad[...] = stacked.bias.grad[index]
    elif isinstance(stacked, StackedLayerNorm):
        for index, layer in enumerate(modules):
            layer.gamma.data[...] = stacked.gamma.data[index]
            layer.gamma.grad[...] = stacked.gamma.grad[index]
            layer.beta.data[...] = stacked.beta.data[index]
            layer.beta.grad[...] = stacked.beta.grad[index]
    # Parameter-free layers (activations, dropout, reversal) and one-replica
    # views (which trained the original in place): nothing to copy.


# ---------------------------------------------------------------------------
# Stacked optimization
# ---------------------------------------------------------------------------


class _ReplicaMaskMixin:
    """Shared replica-mask handling for stacked optimizers.

    ``replica_mask`` is a ``(K,)`` float array of 1.0 (active) / 0.0
    (early-stopped).  Masking multiplies the per-parameter update by the
    broadcast mask: for active replicas that is a multiply by exactly 1.0
    (an IEEE-754 identity, so their update bits are unchanged), for stopped
    replicas the update becomes exactly 0.0 and ``data -= lr * 0.0`` leaves
    the frozen parameters bit-for-bit intact.  With no mask installed (the
    common case) the update path is literally the serial optimizer's code.
    """

    replica_mask: np.ndarray | None = None
    n_replicas: int = 0

    def set_replica_mask(self, mask: np.ndarray | None) -> None:
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != (self.n_replicas,):
                raise ValueError(
                    f"replica mask must have shape ({self.n_replicas},), got {mask.shape}"
                )
        self.replica_mask = mask

    def _masked(self, update: np.ndarray) -> np.ndarray:
        mask = self.replica_mask
        if mask is None:
            return update
        return update * mask.reshape((self.n_replicas,) + (1,) * (update.ndim - 1))


class StackedSGD(_ReplicaMaskMixin, SGD):
    """SGD over ``(K, ...)`` stacked parameters; serial update math per slice."""

    def __init__(self, parameters, n_replicas: int, lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        SGD.__init__(self, parameters, lr, momentum, weight_decay)
        self.n_replicas = int(n_replicas)
        self.replica_mask = None

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if not param.trainable:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.lr * self._masked(update)


class StackedAdam(_ReplicaMaskMixin, Adam):
    """Adam over stacked parameters, updated as one flat buffer.

    Adam's update is elementwise, so one pass over every trainable parameter
    packed into a single contiguous buffer gives each element exactly the
    bits the per-parameter loop of :class:`~repro.nn.Adam` gives it, in a
    dozen ufunc calls per step instead of a dozen per parameter.  The
    parameters trainable at construction are rebound to views of that
    buffer (values and gradients alike, so layers and clipping update it in
    place); frozen ones are left out and never updated.

    The shared ``_step_count`` is valid because replicas in one stack step in
    lockstep: a replica either takes the same numbered step as its serial run
    would, or is masked (its moments keep evolving, but its parameters are
    frozen, so the drift is unobservable).
    """

    def __init__(self, parameters, n_replicas: int, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        Adam.__init__(self, parameters, lr, betas, eps, weight_decay)
        self.n_replicas = int(n_replicas)
        self.replica_mask = None
        self._packed = [param for param in self.parameters if param.trainable]
        self._frozen = [param for param in self.parameters if not param.trainable]
        self._data = np.concatenate([np.empty(0)] + [p.data.ravel() for p in self._packed])
        self._grad = np.concatenate([np.empty(0)] + [p.grad.ravel() for p in self._packed])
        offset = 0
        for param in self._packed:
            size = param.data.size
            param.data = self._data[offset : offset + size].reshape(param.data.shape)
            param.grad = self._grad[offset : offset + size].reshape(param.grad.shape)
            offset += size
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._flat_mask: np.ndarray | None = None

    def set_replica_mask(self, mask: np.ndarray | None) -> None:
        super().set_replica_mask(mask)
        if self.replica_mask is None:
            self._flat_mask = None
            return
        # Each packed (K, ...) block is replica-major in C order.
        self._flat_mask = np.concatenate(
            [np.empty(0)]
            + [np.repeat(self.replica_mask, p.data.size // self.n_replicas) for p in self._packed]
        )

    def zero_grad(self) -> None:
        self._grad.fill(0.0)
        for param in self._frozen:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad, m, v = self._grad, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * self._data
        if self._flat_mask is not None:
            update = update * self._flat_mask
        self._data -= self.lr * update


def stacked_clip_gradients(
    parameters: list[Parameter], max_norm: float, n_replicas: int
) -> np.ndarray:
    """Per-replica global-norm clipping; returns the ``(K,)`` original norms.

    Mirrors :func:`~repro.nn.clip_gradients` slice by slice: the squared sum
    of one replica's ``(...,)`` gradient block is the same contiguous
    pairwise reduction as the serial ``(grad**2).sum()``, the accumulation
    across parameters happens in the same order, and replicas below the
    threshold are not multiplied at all (the serial fast path).
    """
    if n_replicas == 1:
        # A one-replica view's parameters carry no replica axis.
        return np.array([clip_gradients(parameters, max_norm)])
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    totals = np.zeros(n_replicas, dtype=np.float64)
    for param in parameters:
        totals += (param.grad**2).reshape(n_replicas, -1).sum(axis=1)
    norms = np.sqrt(totals)
    clipping = (norms > max_norm) & (norms > 0)
    if np.any(clipping):
        scales = np.ones(n_replicas, dtype=np.float64)
        scales[clipping] = max_norm / norms[clipping]
        for param in parameters:
            param.grad *= scales.reshape((n_replicas,) + (1,) * (param.grad.ndim - 1))
    return norms


class PerReplicaLoss:
    """Adapter evaluating one :class:`~repro.nn.Loss` per replica slice.

    Loss reductions fold the whole batch into one scalar, so batching them
    across replicas must keep every replica's reduction its own.  The
    built-in losses (:class:`~repro.nn.losses.WeightedElementwiseLoss`) do
    that in one pass over the stack (``per_replica``: same elementwise
    steps, each reduction over the replica's own contiguous last axis);
    any other loss runs once per replica on contiguous ``(B, ...)`` slices.
    """

    def __init__(self, loss: Loss) -> None:
        self.loss = loss

    def __call__(
        self,
        predictions: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.loss, WeightedElementwiseLoss):
            return self.loss.per_replica(predictions, targets, weights)
        n_replicas = predictions.shape[0]
        values = np.empty(n_replicas, dtype=np.float64)
        grads = np.empty_like(predictions)
        for k in range(n_replicas):
            value, grad = self.loss(
                predictions[k], targets[k], None if weights is None else weights[k]
            )
            values[k] = value
            grads[k] = grad
        return values, grads
