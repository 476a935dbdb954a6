"""The one training loop: K >= 1 models through one stacked epoch loop.

Every scheme trains through :class:`StackedFineTuneEngine`, and so does
source-model training (:func:`train_supervised`).  The model is a
:func:`~repro.nn.stacked.stack_modules` tree whose tensors carry a leading
replica axis; a single target is the K=1 case, where the tree is a
one-replica view of the original model (any layer, convolutions included).
A scheme contributes only its batch step (forward, scheme loss, backward);
the engine owns everything around it.  Each of the K replicas sees

* **its own dataset** — once per epoch the engine gathers every replica's
  shuffled rows into one preallocated ``(K, N, ...)`` buffer, and the
  batches are fixed slices of it, so the batch loop allocates nothing;
* **its own shuffle stream** — one generator per replica, consuming exactly
  the draws the pre-engine ``DataLoader`` loop consumed (one ``shuffle`` of
  an identity permutation per epoch);
* **its own early-stop state** — one optional stopper per replica.  A
  replica that trips its stopper is *masked, not resliced*: it keeps
  flowing through the batched gemms (so shapes never change), but the
  optimizer multiplies its update by 0.0 and its loss history freezes.
  The wasted replica-batches are reported as ``engine.stack_padding_batches``.

Gradient clipping, the optimizer step, per-epoch loss averaging and the
train/eval + dropout-rate bracketing are the engine's too.

The contract is the house correctness bar: every replica's loss history,
stop epoch, and final parameter bytes are **bit-identical** to training
that replica alone (see ``tests/engine/test_stacked_engine.py``, the
``DataLoader`` reference loop in ``tests/engine/test_finetune.py`` and the
scheme oracles in ``tests/engine/``).  That is why the engine requires
equal dataset lengths instead of padding ragged datasets: a zero-padded
tail batch changes the gemm shape a row is computed in, the exact ~1 ulp
drift ``serve/batching.py`` documents for the prediction tiler.  Callers
group targets by dataset length; a group of one is a one-replica stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..nn.data import ArrayDataset
from ..nn.losses import MSELoss
from ..nn.module import Module
from ..nn.parameter import Parameter
from ..nn.stacked import (
    PerReplicaLoss,
    StackedAdam,
    stack_modules,
    stacked_clip_gradients,
    unstack_modules,
)
from ..obs import active_metrics, now
from ..obs.metrics import RATIO_BUCKETS
from .early_stopping import LossDropEarlyStopper

__all__ = [
    "FineTuneResult",
    "StackedBatchStep",
    "StackedFineTuneEngine",
    "train_supervised",
]

#: A scheme's batch step: forward + per-replica loss + backward on one
#: ``(K, batch, ...)`` batch; returns the ``(K,)`` per-replica loss values.
#: Gradients are already zeroed; the engine clips and steps after.
StackedBatchStep = Callable[
    [np.ndarray, np.ndarray, "np.ndarray | None"], np.ndarray
]


@dataclass
class FineTuneResult:
    """Outcome of one replica's fine-tune."""

    losses: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None

    @property
    def n_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.losses)


class StackedFineTuneEngine:
    """Run K >= 1 fine-tunes as one batched epoch/batch/clip/step loop.

    Parameters
    ----------
    epochs:
        Maximum number of epochs.
    batch_size:
        Mini-batch size; the final batch of an epoch may be smaller.
    grad_clip:
        Per-replica global gradient-norm clip applied after every batch
        step (``None`` disables clipping).
    disable_dropout:
        Zero the model's dropout rates for the duration of the run (restored
        afterwards).  Every scheme in this repo fine-tunes with dropout off
        — self-distillation noise hurts the compact models — except TASFAR's
        explicit ``dropout_during_adaptation`` ablation.
    stoppers:
        One optional :class:`~repro.engine.LossDropEarlyStopper` per
        replica; a replica stops once its per-epoch loss-drop collapses.
    min_batch_size:
        Batches smaller than this are skipped entirely (DataFree's feature
        statistics need at least two samples).
    shuffle:
        Reshuffle each replica's sample order every epoch from its ``rng``.
    """

    def __init__(
        self,
        epochs: int,
        batch_size: int = 32,
        *,
        grad_clip: float | None = 5.0,
        disable_dropout: bool = True,
        stoppers: Sequence[LossDropEarlyStopper | None] | None = None,
        min_batch_size: int = 1,
        shuffle: bool = True,
    ) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if grad_clip is not None and grad_clip <= 0:
            raise ValueError("grad_clip must be positive (or None to disable)")
        if min_batch_size < 1:
            raise ValueError("min_batch_size must be at least 1")
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.grad_clip = grad_clip
        self.disable_dropout = bool(disable_dropout)
        self.stoppers = None if stoppers is None else list(stoppers)
        self.min_batch_size = int(min_batch_size)
        self.shuffle = bool(shuffle)

    def run(
        self,
        model,
        datasets: Sequence[ArrayDataset],
        optimizer,
        step: StackedBatchStep,
        *,
        rngs: Sequence[np.random.Generator],
        clip_parameters: Sequence[Parameter] | None = None,
        extra_modules: Sequence = (),
    ) -> list[FineTuneResult]:
        """Fine-tune the stacked ``model``, one dataset and rng per replica.

        Parameters
        ----------
        model:
            A :func:`~repro.nn.stacked.stack_modules` tree; bracketed in
            ``train()``/``eval()`` and (optionally) dropout-disabled.
        datasets:
            One equal-length dataset per replica.
        optimizer:
            A stacked optimizer (``set_replica_mask`` is called once a
            replica stops while others train on).  The engine calls
            ``zero_grad`` before and ``step`` after every batch step.
        step:
            The scheme's batch step (forward + loss + backward).
        rngs:
            One generator per replica driving its per-epoch shuffles.
            Schemes that draw extra randomness inside their batch step
            (MMD/ADV target batch choice, AUGfree perturbations) share these
            generators, preserving the draw order of the pre-engine code.
        clip_parameters:
            Parameters to clip; defaults to the optimizer's parameter list
            (DataFree clips only the encoder).
        extra_modules:
            Additional modules to bracket in ``train()``/``eval()`` (the
            adversarial baseline's discriminator).

        Returns one :class:`FineTuneResult` per replica, in input order.
        """
        n_replicas = len(datasets)
        if n_replicas == 0:
            raise ValueError("need at least one replica dataset")
        if len(rngs) != n_replicas:
            raise ValueError(
                f"got {n_replicas} datasets but {len(rngs)} shuffle generators"
            )
        stoppers = self.stoppers
        if stoppers is not None and len(stoppers) != n_replicas:
            raise ValueError(
                f"got {n_replicas} datasets but {len(stoppers)} stoppers"
            )
        results = [FineTuneResult() for _ in range(n_replicas)]
        if stoppers is not None:
            for stopper in stoppers:
                if stopper is not None and stopper.losses:
                    # LossDropEarlyStopper is stateful (it keeps its loss
                    # history and stays tripped once tripped): silently
                    # reusing one across runs would cap the second run at
                    # one epoch.
                    raise ValueError(
                        "an early stopper has already observed losses; construct "
                        "fresh stoppers (and engine) per run"
                    )
        n_samples = len(datasets[0])
        for dataset in datasets[1:]:
            if len(dataset) != n_samples:
                raise ValueError(
                    "stacked replicas must share one dataset length "
                    f"(got {sorted({len(d) for d in datasets})}); group targets "
                    "by length before stacking"
                )
        if n_samples == 0:
            return results
        has_weights = datasets[0].weights is not None
        for dataset in datasets[1:]:
            if (dataset.weights is not None) != has_weights:
                raise ValueError(
                    "stacked replicas must agree on whether samples are weighted"
                )
        clip_params = (
            optimizer.parameters if clip_parameters is None else list(clip_parameters)
        )

        # One (K, N, ...) buffer per tensor, refilled every epoch with each
        # replica's rows in its shuffled order (np.take is a gather, so the
        # rows are bitwise the dataset's).
        fields = ("inputs", "targets", "weights") if has_weights else ("inputs", "targets")
        gathers = []
        for name in fields:
            sources = [getattr(dataset, name) for dataset in datasets]
            buffer = np.empty((n_replicas,) + sources[0].shape, dtype=sources[0].dtype)
            gathers.append((buffer, sources))

        # Batch spans are fixed for the whole run, so the batches are fixed
        # views of the epoch buffers; tail batches below min_batch_size are
        # skipped (for every replica alike).
        batches = []
        for start in range(0, n_samples, self.batch_size):
            stop = min(start + self.batch_size, n_samples)
            if stop - start >= self.min_batch_size:
                views = [buffer[:, start:stop] for buffer, _ in gathers]
                batches.append((views[0], views[1], views[2] if has_weights else None))
        n_batches = len(batches)
        # Divide, don't multiply by a reciprocal: ``total / n`` is the exact
        # expression the per-scheme loops used, and bit-identity is the bar.
        loss_denominator = max(n_batches, 1)

        identity = np.arange(n_samples)
        orders = np.tile(identity, (n_replicas, 1))  # C-contiguous rows

        saved_rates: list[tuple] = []
        if self.disable_dropout and hasattr(model, "dropout_layers"):
            for layer in model.dropout_layers():
                saved_rates.append((layer, layer.rate))
                layer.rate = 0.0

        # Ambient registry, if a caller installed one with ``use_metrics``;
        # when absent the loop takes zero timing calls.  The stack counters
        # describe real stacks only, so a lone replica leaves them alone.
        metrics = active_metrics()
        stacking = n_replicas > 1
        if metrics is not None:
            metrics.counter("engine.runs", n_replicas)
            if stacking:
                metrics.counter("engine.stacks")
                metrics.counter("engine.stack_replicas", n_replicas)

        active = [True] * n_replicas
        n_active = n_replicas
        grad_clip = self.grad_clip
        zero_grad = optimizer.zero_grad
        apply_step = optimizer.step

        model.train()
        for module in extra_modules:
            module.train()
        try:
            for epoch in range(self.epochs):
                epoch_started = now() if metrics is not None else 0.0
                for k in range(n_replicas):
                    if not active[k]:
                        continue  # a stopped replica's rows are padding
                    order = orders[k]
                    if self.shuffle:
                        # Reset to the identity permutation before shuffling
                        # so the generator sees exactly the draws the
                        # pre-engine ``DataLoader`` construction consumed.
                        np.copyto(order, identity)
                        rngs[k].shuffle(order)
                    # ``mode="clip"`` skips the bounds re-check: the order is
                    # a permutation of ``arange(N)``, in bounds by construction.
                    for buffer, sources in gathers:
                        np.take(sources[k], order, axis=0, out=buffer[k], mode="clip")
                totals = np.zeros(n_replicas)
                for inputs, targets, weights in batches:
                    zero_grad()
                    totals += step(inputs, targets, weights)
                    if grad_clip is not None:
                        stacked_clip_gradients(clip_params, grad_clip, n_replicas)
                    apply_step()
                epoch_losses = totals / loss_denominator
                if metrics is not None:
                    metrics.counter("engine.epochs", n_active)
                    metrics.counter("engine.batches", n_batches * n_active)
                    if stacking:
                        # Replicas active this epoch did real work; stopped
                        # ones rode along as padding (fixed gemm shapes).
                        # Mirrors the serve tiler's tiles / rows /
                        # padding-rows accounting.
                        metrics.counter("engine.stack_batches", n_batches)
                        metrics.counter(
                            "engine.stack_padding_batches",
                            n_batches * (n_replicas - n_active),
                        )
                        metrics.observe(
                            "engine.stack_occupancy",
                            n_active / n_replicas,
                            buckets=RATIO_BUCKETS,
                        )
                    metrics.observe("engine.epoch_seconds", now() - epoch_started)
                mask_changed = False
                for k in range(n_replicas):
                    if not active[k]:
                        continue
                    epoch_loss = float(epoch_losses[k])
                    results[k].losses.append(epoch_loss)
                    stopper = None if stoppers is None else stoppers[k]
                    if stopper is not None and stopper.update(epoch_loss):
                        results[k].stopped_epoch = epoch + 1
                        active[k] = False
                        n_active -= 1
                        mask_changed = True
                if n_active == 0:
                    break
                if mask_changed:
                    optimizer.set_replica_mask(np.array(active, dtype=np.float64))
        finally:
            model.eval()
            for module in extra_modules:
                module.eval()
            for layer, rate in saved_rates:
                layer.rate = rate
        return results


def train_supervised(
    model: Module,
    dataset: ArrayDataset,
    *,
    epochs: int,
    batch_size: int = 32,
    lr: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> FineTuneResult:
    """Train ``model`` in place on labelled data: how source models train.

    The model is a one-replica stack on :class:`StackedFineTuneEngine` with
    dropout left on, Adam at ``lr``, gradient clipping at 5.0 and MSE loss
    (weighted when ``dataset`` carries weights).  ``rng`` drives the
    per-epoch shuffles; without one, ``default_rng(0)`` does, as for
    :class:`~repro.nn.DataLoader`.  The model is left in eval mode; the
    result holds its per-epoch training losses.
    """
    stacked = stack_modules([model])
    loss = PerReplicaLoss(MSELoss())

    def step(inputs: np.ndarray, targets: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        values, grads = loss(stacked.forward(inputs), targets, weights)
        stacked.backward(grads)
        return values

    engine = StackedFineTuneEngine(epochs, batch_size, grad_clip=5.0, disable_dropout=False)
    [result] = engine.run(
        stacked,
        [dataset],
        StackedAdam(stacked.parameters(), 1, lr=lr),
        step,
        rngs=[rng if rng is not None else np.random.default_rng(0)],
    )
    unstack_modules(stacked, [model])
    # The stack's eval() reached the model's layers, not the model itself.
    model.eval()
    return result
