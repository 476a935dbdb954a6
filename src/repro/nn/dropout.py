"""Dropout layer with Monte-Carlo sampling support.

Dropout is central to the reproduction: TASFAR estimates prediction
uncertainty by keeping dropout active at inference time (MC dropout) and
reading the spread of repeated stochastic forward passes.
"""

from __future__ import annotations

import numpy as np

from .module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout.

    During training (or when ``mc_mode`` is enabled) each unit is zeroed with
    probability ``rate`` and survivors are scaled by ``1 / (1 - rate)`` so the
    expected activation is unchanged.  In plain evaluation mode the layer is a
    no-op.

    Parameters
    ----------
    rate:
        Drop probability in ``[0, 1)``.
    rng:
        Random generator used to draw dropout masks.
    """

    def __init__(self, rate: float = 0.2, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.mc_mode = False
        self._mc_rng: np.random.Generator | None = None

    def enable_mc(self, enabled: bool = True) -> None:
        """Keep dropout stochastic even in evaluation mode (MC dropout)."""
        self.mc_mode = enabled

    def set_mc_rng(self, rng: np.random.Generator | None) -> None:
        """Draw masks from a dedicated, layer-private generator.

        Used by :class:`~repro.uncertainty.MCDropoutPredictor`: giving every
        dropout layer its own stream makes stacked-replica forwards
        reproducible — ``rng.random`` fills arrays from the stream in C
        order, so one ``(n_replicas * batch, ...)`` draw is bit-identical to
        ``n_replicas`` consecutive ``(batch, ...)`` draws.  Pass ``None`` to
        restore the default shared-stream behaviour.
        """
        self._mc_rng = rng

    @property
    def stochastic(self) -> bool:
        """Whether the layer currently samples dropout masks."""
        return (self.training or self.mc_mode) and self.rate > 0.0

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.stochastic:
            # The engine zeroes rates to disable dropout mid-training: drop
            # the mask an earlier forward kept.
            self.save_for_backward(None)
            return inputs
        keep = 1.0 - self.rate
        rng = self._mc_rng if self._mc_rng is not None else self.rng
        # The draw becomes the mask in place: 1.0 or 0.0, times the survivor
        # scale, is bit for bit the boolean draw times that scale.
        mask = rng.random(inputs.shape)
        np.less(mask, keep, out=mask)
        mask *= 1.0 / keep
        if self.training:
            self.save_for_backward(mask)
            return inputs * mask
        # MC mode keeps no mask, so the product reuses its buffer.  The
        # buffer is C-ordered, as ``inputs * mask`` would be against a
        # C-ordered mask, so downstream reductions see the same layout.
        return np.multiply(inputs, mask, out=mask)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # No kept mask (rate 0, or no training forward): pass the gradient on.
        mask = self._saved
        if mask is None:
            return grad_output
        return grad_output * mask
