"""Monte-Carlo dropout uncertainty estimation.

The paper estimates prediction confidence with the dropout mechanism
(Section IV-A): "Uncertainty is presented by the standard deviation of
predictions from twenty samplings with a dropout rate of 0.2."  This module
implements exactly that protocol on top of :class:`repro.nn.RegressionModel`.

All ``n_samples`` replicas of each input chunk run as one stacked forward:
the chunk is tiled along the batch axis, and every dropout layer draws from
its own private random stream (:meth:`repro.nn.Dropout.set_mc_rng`).
Because ``Generator.random`` fills arrays from the stream in C order, one
stacked ``(n_samples * batch, ...)`` mask draw is bit-identical to
``n_samples`` consecutive ``(batch, ...)`` draws, so the stacked forward
gives **bit-for-bit** the results of the paper's literal protocol of
sequential passes (``tests/uncertainty/test_mc_dropout_equivalence.py``
keeps that loop as its reference) while amortizing the Python/numpy
per-layer call overhead over ``n_samples`` replicas (see
``benchmarks/test_bench_runtime.py`` for the measured speedup).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.dropout import Dropout
from ..nn.models import RegressionModel

__all__ = ["UncertainPrediction", "MCDropoutPredictor"]


@dataclass
class UncertainPrediction:
    """Mean prediction with its per-sample uncertainty.

    Attributes
    ----------
    mean:
        Mean prediction over the MC samples, shape ``(n_samples, label_dim)``.
    std:
        Per-dimension standard deviation over MC samples, same shape as
        ``mean``.
    uncertainty:
        Scalar uncertainty per sample: the per-dimension std averaged over the
        label dimensions.  This is the quantity compared against the
        confidence threshold ``tau``.
    samples:
        Raw MC samples of shape ``(n_mc, n_samples, label_dim)`` when
        ``keep_samples`` was requested, otherwise ``None``.
    """

    mean: np.ndarray
    std: np.ndarray
    uncertainty: np.ndarray
    samples: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.mean)


class MCDropoutPredictor:
    """Stochastic forward passes with dropout enabled at inference time.

    Parameters
    ----------
    model:
        A regression model containing at least one dropout layer.  If the
        model has no dropout layer a warning-level fallback is used: the
        uncertainty is zero for all samples (the confidence classifier then
        treats every sample as confident).  :meth:`predict` puts the model
        in evaluation mode and switches its dropout layers into MC mode for
        the call, so give it a model no other thread uses: a private copy of
        a model that is serving.
    n_samples:
        Number of Monte-Carlo forward passes (paper default: 20).
    batch_size:
        Maximum number of rows per forward call.  The stacked MC forward
        keeps ``n_samples * mc_batch_rows`` within this budget, which matters
        on small caches (a 20x-tiled 256-row batch thrashes L2 and ends up
        slower than the loop it replaces).  Only a model without dropout
        runs a deterministic pass, partitioned by ``batch_size`` directly.
    seed:
        Seed (or :class:`numpy.random.SeedSequence`) for the per-layer MC
        dropout streams.  With an explicit seed the prediction is a pure
        function of ``(model parameters, inputs, seed)`` — required for the
        parallel :class:`~repro.runtime.AdaptationService` to be
        order-independent.  With ``None`` the entropy is drawn from the
        model's first dropout layer's own generator, so repeated calls
        differ (the historical behaviour).
    mc_batch_rows:
        Input rows per MC chunk.  Defaults to
        ``max(1, batch_size // n_samples)``.
    """

    def __init__(
        self,
        model: RegressionModel,
        n_samples: int = 20,
        batch_size: int = 256,
        seed: int | np.random.SeedSequence | None = None,
        mc_batch_rows: int | None = None,
    ) -> None:
        if n_samples < 2:
            raise ValueError("n_samples must be at least 2 to estimate a spread")
        self.model = model
        self.n_samples = n_samples
        self.batch_size = batch_size
        if mc_batch_rows is None:
            mc_batch_rows = max(1, batch_size // n_samples)
        if mc_batch_rows < 1:
            raise ValueError("mc_batch_rows must be at least 1")
        self.mc_batch_rows = mc_batch_rows
        if isinstance(seed, np.random.SeedSequence):
            self._seed_sequence: np.random.SeedSequence | None = seed
        elif seed is not None:
            self._seed_sequence = np.random.SeedSequence(seed)
        else:
            self._seed_sequence = None

    def predict(self, inputs: np.ndarray, keep_samples: bool = False) -> UncertainPrediction:
        """Return mean prediction and MC-dropout uncertainty for ``inputs``."""
        inputs = np.asarray(inputs, dtype=np.float64)
        # One module-tree walk per call: eval/set_mc_dropout each re-walk the
        # tree, which dominates the runtime for small inputs.
        modules = self.model.modules()
        dropout_layers = [module for module in modules if isinstance(module, Dropout)]

        for module in modules:
            module.training = False
        if not dropout_layers:
            deterministic = self._forward_batched(inputs)
            zeros = np.zeros_like(deterministic)
            return UncertainPrediction(
                mean=deterministic,
                std=zeros,
                uncertainty=np.zeros(len(deterministic)),
                samples=None,
            )

        for layer, rng in zip(dropout_layers, self._layer_rngs(dropout_layers)):
            layer.set_mc_rng(rng)
            layer.enable_mc(True)
        try:
            samples = self._mc_samples(inputs)
        finally:
            for layer in dropout_layers:
                layer.set_mc_rng(None)
                layer.enable_mc(False)

        mean = samples.mean(axis=0)
        std = samples.std(axis=0)
        uncertainty = std.mean(axis=1)
        return UncertainPrediction(
            mean=mean,
            std=std,
            uncertainty=uncertainty,
            samples=samples if keep_samples else None,
        )

    def _layer_rngs(self, dropout_layers: list[Dropout]) -> list[np.random.Generator]:
        """One independent generator per dropout layer.

        Each :meth:`predict` call spawns a fresh batch of children so
        consecutive calls use different masks, while the overall sequence is
        deterministic for a seeded predictor.
        """
        if self._seed_sequence is not None:
            children = self._seed_sequence.spawn(len(dropout_layers))
        else:
            entropy = int(dropout_layers[0].rng.integers(np.iinfo(np.int64).max))
            children = np.random.SeedSequence(entropy).spawn(len(dropout_layers))
        return [np.random.default_rng(child) for child in children]

    def _mc_samples(self, inputs: np.ndarray) -> np.ndarray:
        """All MC passes of each input chunk in one stacked forward."""
        batches = []
        for start in range(0, len(inputs), self.mc_batch_rows):
            chunk = inputs[start : start + self.mc_batch_rows]
            tiled = np.concatenate([chunk] * self.n_samples, axis=0)
            outputs = self.model.forward(tiled)
            batches.append(outputs.reshape(self.n_samples, len(chunk), -1))
        return np.concatenate(batches, axis=1)

    def _forward_batched(self, inputs: np.ndarray) -> np.ndarray:
        outputs = []
        for start in range(0, len(inputs), self.batch_size):
            outputs.append(self.model.forward(inputs[start : start + self.batch_size]))
        return np.concatenate(outputs, axis=0)
