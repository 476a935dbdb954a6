"""Source-based UDA baseline: adversarial feature alignment (DANN/ADDA style).

Stands in for the paper's "ADV" comparison scheme ([35]): a domain
discriminator is trained to tell source features from target features while a
gradient-reversal layer pushes the encoder toward features the discriminator
cannot separate.  Requires source data at adaptation time.
"""

from __future__ import annotations

import copy

import numpy as np

from ..engine.stacked import StackedFineTuneEngine
from ..engine.strategy import BaselineStrategy, StackJob, StrategyOutcome
from ..nn.activations import ReLU
from ..nn.container import Sequential
from ..nn.gradient_reversal import GradientReversal
from ..nn.linear import Linear
from ..nn.losses import MSELoss
from ..nn.models import RegressionModel
from ..nn.stacked import PerReplicaLoss, StackedAdam, stack_modules, unstack_modules

__all__ = ["AdversarialUda", "logistic_loss"]


def logistic_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy on logits; returns ``(value, grad_wrt_logits)``."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if logits.shape != labels.shape:
        raise ValueError("logits and labels must have the same length")
    probabilities = 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))
    eps = 1e-12
    value = float(
        -(labels * np.log(probabilities + eps) + (1 - labels) * np.log(1 - probabilities + eps)).mean()
    )
    grad = (probabilities - labels)[:, None] / len(logits)
    return value, grad


def _feature_width(model: RegressionModel) -> int:
    """Width of ``model``'s encoder features: its head's first ``Linear`` input."""
    return next(m for m in model.head.modules() if isinstance(m, Linear)).in_features


class AdversarialUda(BaselineStrategy):
    """Domain-adversarial re-training of the source model."""

    requires_source_data = True
    name = "adv"

    def __init__(
        self,
        epochs: int = 20,
        lr: float = 2e-4,
        batch_size: int = 32,
        adversarial_weight: float = 0.3,
        discriminator_hidden: int = 32,
        seed: int = 0,
    ) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.adversarial_weight = adversarial_weight
        self.discriminator_hidden = discriminator_hidden
        self.seed = seed

    def _build_discriminator(self, feature_dim: int, seed: int) -> Sequential:
        rng = np.random.default_rng(seed + 1)
        return Sequential(
            GradientReversal(self.adversarial_weight),
            Linear(feature_dim, self.discriminator_hidden, rng=rng, name="adv.disc0"),
            ReLU(),
            Linear(self.discriminator_hidden, 1, rng=rng, name="adv.disc1"),
        )

    def _adapt_stack(self, jobs: list[StackJob], epochs: int) -> list[StrategyOutcome]:
        source_data = self._source_data
        n_replicas = len(jobs)
        target_arrs = [np.asarray(job.inputs, dtype=np.float64) for job in jobs]
        rngs = [np.random.default_rng(job.seed) for job in jobs]
        models = [copy.deepcopy(job.model) for job in jobs]
        # One discriminator per replica (its own seed stream), stacked
        # alongside the models; the gradient-reversal scale is uniform.  The
        # feature width is read from the model's structure: a forward probe
        # would draw from a train-mode model's dropout generators.
        discriminators = [
            self._build_discriminator(_feature_width(model), job.seed)
            for job, model in zip(jobs, models)
        ]
        stacked = stack_modules(models)
        stacked_disc = stack_modules(discriminators)
        optimizer = StackedAdam(
            stacked.parameters() + stacked_disc.parameters(), n_replicas, lr=self.lr
        )
        per_loss = PerReplicaLoss(MSELoss())
        n_target = len(target_arrs[0])

        def step(inputs: np.ndarray, targets: np.ndarray, _weights) -> np.ndarray:
            # Supervised loss on the (replicated) source batch.
            predictions = stacked.forward(inputs)
            task_values, task_grads = per_loss(predictions, targets)
            stacked.backward(task_grads)

            # Domain-adversarial loss: per-replica target draws, batched
            # feature and discriminator gemms, per-replica logistic losses on
            # contiguous slices.
            size = min(inputs.shape[1], n_target)
            target_batch = np.stack(
                [
                    arr[rng.choice(n_target, size=size, replace=False)]
                    for arr, rng in zip(target_arrs, rngs)
                ]
            )
            domain_inputs = np.concatenate([inputs, target_batch], axis=1)
            domain_labels = np.concatenate([np.ones(inputs.shape[1]), np.zeros(size)])
            features = stacked.features(domain_inputs)
            logits = stacked_disc.forward(features)
            domain_values = np.empty(n_replicas, dtype=np.float64)
            domain_grads = np.empty_like(logits)
            for k in range(n_replicas):
                domain_values[k], domain_grads[k] = logistic_loss(logits[k], domain_labels)
            grad_features = stacked_disc.backward(domain_grads)
            stacked.backward_features(grad_features)
            return task_values + domain_values

        # Dropout is disabled during re-training for the same reason as in the
        # other schemes (self-distillation noise on compact models).
        engine = StackedFineTuneEngine(epochs, self.batch_size)
        outcomes = engine.run(
            stacked,
            [source_data] * n_replicas,
            optimizer,
            step,
            rngs=rngs,
            extra_modules=(stacked_disc,),
        )
        unstack_modules(stacked, models)
        return [
            StrategyOutcome(
                target_model=model,
                scheme=self.name,
                losses=outcome.losses,
                diagnostics={"adversarial_weight": self.adversarial_weight},
            )
            for model, outcome in zip(models, outcomes)
        ]
