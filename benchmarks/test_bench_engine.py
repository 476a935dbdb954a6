"""Micro-benchmark for the one fine-tune hot path at K=1.

Compares one adaptation-sized fine-tune through :class:`repro.engine.
StackedFineTuneEngine` on a one-replica stack (per-epoch gathers into
preallocated buffers, in-place shuffles) against a replica of the
pre-refactor per-scheme loop (a fresh ``DataLoader`` with fancy-indexed
batch copies).  The engine is the only training hot path in the repo —
TASFAR, all five baselines, and streaming warm-starts run through it, and
a single target is its K=1 case — so this is the regression bar for the
whole training stack:

* the two paths must produce **bit-identical** losses and weights;
* the engine must be wall-clock **equal or better** than the legacy loop.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.engine import StackedFineTuneEngine
from repro.nn import PerReplicaLoss, StackedAdam, stack_modules
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam, clip_gradients

EPOCHS = 12
BATCH_SIZE = 32
LR = 1e-3


def make_workload(n_rows=160, features=8, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n_rows, features))
    targets = inputs @ rng.normal(size=features) + 0.1 * rng.normal(size=n_rows)
    weights = rng.uniform(0.25, 1.75, size=n_rows)
    return ArrayDataset(inputs, targets, weights)


def make_model(features=8):
    return nn.build_mlp(features, 1, hidden_dims=(16, 16), dropout=0.2, seed=0)


def legacy_finetune(model, dataset, seed):
    """Replica of the pre-engine loop every scheme used to carry."""
    rng = np.random.default_rng(seed)
    saved = [(layer, layer.rate) for layer in model.dropout_layers()]
    for layer, _ in saved:
        layer.rate = 0.0
    optimizer = Adam(model.parameters(), lr=LR)
    loss = MSELoss()
    loader = DataLoader(dataset, batch_size=BATCH_SIZE, shuffle=True, rng=rng)
    losses = []
    model.train()
    for _ in range(EPOCHS):
        total, batches = 0.0, 0
        for inputs, targets, weights in loader:
            optimizer.zero_grad()
            value, grad = loss(model.forward(inputs), targets, weights)
            model.backward(grad)
            clip_gradients(optimizer.parameters, 5.0)
            optimizer.step()
            total += value
            batches += 1
        losses.append(total / max(batches, 1))
    model.eval()
    for layer, rate in saved:
        layer.rate = rate
    return losses


def engine_finetune(model, dataset, seed):
    stacked = stack_modules([model])
    optimizer = StackedAdam(stacked.parameters(), 1, lr=LR)
    loss = PerReplicaLoss(MSELoss())

    def step(inputs, targets, weights):
        values, grads = loss(stacked.forward(inputs), targets, weights)
        stacked.backward(grads)
        return values

    engine = StackedFineTuneEngine(EPOCHS, BATCH_SIZE)
    return engine.run(
        stacked, [dataset], optimizer, step, rngs=[np.random.default_rng(seed)]
    )[0].losses


def test_engine_matches_and_beats_legacy_loop(record_bench, perf_check, paired_timer):
    dataset = make_workload()

    # Correctness first: both paths, same seed, fresh models — bit-identical.
    legacy_model, engine_model = make_model(), make_model()
    legacy_losses = legacy_finetune(legacy_model, dataset, seed=3)
    engine_losses = engine_finetune(engine_model, dataset, seed=3)
    assert engine_losses == legacy_losses
    for old, new in zip(legacy_model.parameters(), engine_model.parameters()):
        np.testing.assert_array_equal(old.data, new.data)

    # Then the wall clock on fresh models, by paired rounds: the median of
    # the per-round legacy/engine ratios.
    timing = paired_timer(
        lambda: legacy_finetune(make_model(), dataset, seed=3),
        lambda: engine_finetune(make_model(), dataset, seed=3),
        rounds=15,
    )
    legacy_seconds, engine_seconds = timing.first, timing.second

    text = (
        f"[bench_engine] one-replica StackedFineTuneEngine vs pre-refactor loop "
        f"({len(dataset)} samples x {EPOCHS} epochs, batch {BATCH_SIZE}), "
        f"median over 15 paired rounds\n"
        f"legacy loop: {legacy_seconds * 1e3:8.2f} ms\n"
        f"engine:      {engine_seconds * 1e3:8.2f} ms  "
        f"(identical losses, {timing.ratio:.2f}x, noise ±{timing.noise:.2f}x)"
    )
    print("\n" + text)
    record_bench(text)

    # The acceptance bar: equal or better (10% headroom for timer noise).
    perf_check(
        timing.ratio * 1.10 >= 1.0,
        f"engine fine-tune ({engine_seconds * 1e3:.2f} ms) slower than the "
        f"pre-refactor loop ({legacy_seconds * 1e3:.2f} ms): {timing.ratio:.2f}x",
    )
