"""Base class for all layers and models in the numpy substrate.

The substrate uses explicit layer-wise backpropagation: every module
implements ``backward`` that maps the gradient of the loss with respect to its
output into the gradient with respect to its input, accumulating parameter
gradients along the way.

Backward state has one owner, :class:`Module`.  A layer's forward hands what
its backward reads to :meth:`Module.save_for_backward`, which keeps it in the
module's one slot, and only in training mode; the backward reads it back with
:meth:`Module.saved`, which raises when the slot is empty.  Evaluation, serving and MC-dropout forwards keep
nothing.  ``eval()`` clears the slot and copies and pickles leave it out, so
a model carries only its parameters, running statistics, dropout generators
and structure.  Layers keep no other per-batch state:
``tests/nn/test_backward_state.py`` fails when a copy or a pickle taken after
a large training forward outweighs the model's parameters.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .parameter import Parameter

__all__ = ["Module", "predict_batched"]


class Module:
    """Base class for layers, containers and models.

    Subclasses implement :meth:`forward` and :meth:`backward`.  The ``training``
    flag controls behaviour of stochastic layers (dropout, batch-norm) and
    whether a forward keeps backward state; it is toggled through
    :meth:`train` and :meth:`eval`.
    """

    #: What the last training forward kept for the backward; set only by
    #: :meth:`save_for_backward`.
    _saved: object = None

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the module output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. inputs."""
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def save_for_backward(self, value: object) -> None:
        """Keep ``value`` for :meth:`backward`, in training mode only."""
        if self.training:
            self._saved = value

    def saved(self) -> object:
        """What the last training forward kept for :meth:`backward`."""
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        return self._saved

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Return all parameters of this module and its sub-modules."""
        params: list[Parameter] = []
        for value in self.__dict__.values():
            params.extend(_collect_parameters(value))
        return params

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs, using parameter names."""
        for param in self.parameters():
            yield param.name, param

    def zero_grad(self) -> None:
        """Reset all parameter gradients to zero."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable values in the module."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Mode handling
    # ------------------------------------------------------------------
    def modules(self) -> list["Module"]:
        """Return this module and every sub-module (depth first)."""
        found: list[Module] = [self]
        for value in self.__dict__.values():
            found.extend(_collect_modules(value))
        return found

    def train(self) -> "Module":
        """Put the module (and sub-modules) in training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put the module (and sub-modules) in evaluation mode.

        Also drops every sub-module's backward state, so a model leaving
        training keeps no activations of its last batch.
        """
        for module in self.modules():
            module.training = False
            module.__dict__.pop("_saved", None)
        return self

    def __getstate__(self) -> dict:
        """Pickle and ``copy.deepcopy`` state: everything but backward state."""
        state = self.__dict__.copy()
        state.pop("_saved", None)
        return state

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping of parameter names to value copies.

        Parameter names are made unique by position when duplicated.
        """
        state: dict[str, np.ndarray] = {}
        for index, param in enumerate(self.parameters()):
            key = param.name or f"param_{index}"
            if key in state:
                key = f"{key}__{index}"
            state[key] = param.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output (by order)."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} entries but the module has "
                f"{len(params)} parameters"
            )
        for param, value in zip(params, state.values()):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter '{param.name}': "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data[...] = value


def predict_batched(model: Module, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Deterministic batched forward pass with dropout disabled."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    model.eval()
    inputs = np.asarray(inputs, dtype=np.float64)
    outputs = []
    for start in range(0, len(inputs), batch_size):
        outputs.append(model.forward(inputs[start : start + batch_size]))
    return np.concatenate(outputs, axis=0)


def _collect_parameters(value: object) -> list[Parameter]:
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        params: list[Parameter] = []
        for item in value:
            params.extend(_collect_parameters(item))
        return params
    return []


def _collect_modules(value: object) -> list[Module]:
    if isinstance(value, Module):
        return value.modules()
    if isinstance(value, (list, tuple)):
        modules: list[Module] = []
        for item in value:
            modules.extend(_collect_modules(item))
        return modules
    return []
