"""Micro-benchmark for batched (stacked) training.

Adapts K=8 same-architecture clones — each with its own dataset and
shuffle stream — first serially, as K one-replica runs of
:class:`repro.engine.StackedFineTuneEngine`, then as one K-replica stack.  Stacking replaces K small per-batch gemms with one 3-D ``matmul``
and amortizes the per-batch Python overhead across replicas, which is
where compact-model fine-tuning actually spends its time:

* the stacked run must be **bit-identical** to the serial runs — losses
  and every parameter byte (this is a hard assertion, never downgraded);
* the stacked run must be at least **3x** faster at K=8 (wall-clock bar,
  downgraded to a warning under ``REPRO_BENCH_SMOKE=1``).
"""

from __future__ import annotations

import copy

import numpy as np

import repro.nn as nn
from repro.engine import StackedFineTuneEngine
from repro.nn import (
    PerReplicaLoss,
    StackedAdam,
    parameter_bytes,
    stack_modules,
    unstack_modules,
)
from repro.nn.data import ArrayDataset
from repro.nn.losses import MSELoss

K = 8
N_ROWS = 160
FEATURES = 8
EPOCHS = 12
# Adaptation-sized mini-batches (streamed targets adapt on ~dozen-row
# batches): small batches are exactly the regime where per-batch Python
# overhead dominates and stacking pays the most.
BATCH_SIZE = 12
LR = 1e-3
SPEEDUP_BAR = 3.0


def make_datasets():
    rng = np.random.default_rng(0)
    datasets = []
    for _ in range(K):
        inputs = rng.normal(size=(N_ROWS, FEATURES))
        targets = inputs @ rng.normal(size=FEATURES) + 0.1 * rng.normal(size=N_ROWS)
        weights = rng.uniform(0.25, 1.75, size=N_ROWS)
        datasets.append(ArrayDataset(inputs, targets[:, None], weights))
    return datasets


def make_source():
    return nn.build_mlp(FEATURES, 1, hidden_dims=(16, 16), dropout=0.2, seed=0)


def serial_adapt(source, datasets):
    models, losses = [], []
    for k in range(K):
        model = copy.deepcopy(source)
        stacked = stack_modules([model])
        loss = PerReplicaLoss(MSELoss())
        optimizer = StackedAdam(stacked.parameters(), 1, lr=LR)

        def step(inputs, targets, weights, stacked=stacked, loss=loss):
            values, grads = loss(stacked.forward(inputs), targets, weights)
            stacked.backward(grads)
            return values

        engine = StackedFineTuneEngine(EPOCHS, BATCH_SIZE)
        [result] = engine.run(
            stacked, [datasets[k]], optimizer, step, rngs=[np.random.default_rng(100 + k)]
        )
        models.append(model)
        losses.append(result.losses)
    return models, losses


def stacked_adapt(source, datasets):
    models = [copy.deepcopy(source) for _ in range(K)]
    stacked = stack_modules(models)
    optimizer = StackedAdam(stacked.parameters(), K, lr=LR)
    per_loss = PerReplicaLoss(MSELoss())

    def step(inputs, targets, weights):
        values, grads = per_loss(stacked.forward(inputs), targets, weights)
        stacked.backward(grads)
        return values

    engine = StackedFineTuneEngine(EPOCHS, BATCH_SIZE)
    results = engine.run(
        stacked, datasets, optimizer, step,
        rngs=[np.random.default_rng(100 + k) for k in range(K)],
    )
    unstack_modules(stacked, models)
    return models, [r.losses for r in results]


def test_stacked_training_matches_serial_and_hits_speedup_bar(
    record_bench, perf_check, paired_timer
):
    datasets = make_datasets()
    source = make_source()

    # Correctness first — and unconditionally: stacked must be bit-identical.
    serial_models, serial_losses = serial_adapt(source, datasets)
    stacked_models, stacked_losses = stacked_adapt(source, datasets)
    assert stacked_losses == serial_losses
    for k in range(K):
        assert parameter_bytes(stacked_models[k]) == parameter_bytes(serial_models[k])

    # Then the wall clock, by paired rounds: the median of the per-round
    # serial/stacked ratios.
    timing = paired_timer(
        lambda: serial_adapt(source, datasets), lambda: stacked_adapt(source, datasets), rounds=9
    )
    serial_seconds, stacked_seconds = timing.first, timing.second
    speedup = timing.ratio

    text = (
        f"[bench_batched_train] serial vs stacked fine-tune "
        f"(K={K} replicas, {N_ROWS} samples x {EPOCHS} epochs, batch {BATCH_SIZE}), "
        f"median over 9 paired rounds\n"
        f"serial  ({K} engine runs): {serial_seconds * 1e3:8.2f} ms\n"
        f"stacked (1 batched run):   {stacked_seconds * 1e3:8.2f} ms  "
        f"(bit-identical, {speedup:.2f}x, noise ±{timing.noise:.2f}x)"
    )
    print("\n" + text)
    record_bench(
        text,
        tags={"k": K},
        wall_seconds={"serial": serial_seconds, "stacked": stacked_seconds},
    )

    perf_check(
        speedup >= SPEEDUP_BAR,
        f"stacked training speedup {speedup:.2f}x at K={K} below the "
        f"{SPEEDUP_BAR:.1f}x bar (serial {serial_seconds * 1e3:.2f} ms, "
        f"stacked {stacked_seconds * 1e3:.2f} ms)",
    )
