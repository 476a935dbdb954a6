"""Quickstart: adapt a regression model to a new domain without source data.

This example builds the smallest possible end-to-end TASFAR run:

1. train a small MLP on a synthetic *source* regression task;
2. calibrate TASFAR on the source data (this is the only source-side step —
   only a threshold and two line coefficients travel with the model);
3. adapt the model to a *target* domain with unlabeled data only;
4. compare the error of the source model and the adapted model.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised
from repro.metrics import mae, mse


def make_source_data(rng: np.random.Generator, n: int = 600):
    """A noisy 4-feature linear task: the source domain."""
    inputs = rng.normal(size=(n, 4))
    weights = np.array([1.5, -2.0, 0.8, 0.3])
    labels = inputs @ weights + 0.1 * rng.normal(size=n)
    return inputs, labels


def make_target_data(rng: np.random.Generator, n: int = 300):
    """The target domain: narrower label band plus corrupted (hard) inputs.

    One third of the target inputs are garbled — the source model will be
    both wrong and uncertain on them, while their labels still follow the
    target scenario's label distribution.  That is the structure TASFAR
    exploits.
    """
    inputs = rng.normal(size=(n, 4)) * 0.4 + 0.6
    weights = np.array([1.5, -2.0, 0.8, 0.3])
    labels = inputs @ weights + 0.1 * rng.normal(size=n)
    hard = rng.random(n) < 0.3
    inputs[hard] = rng.normal(scale=4.0, size=(hard.sum(), 4))
    return inputs, labels


def main() -> None:
    rng = np.random.default_rng(0)
    source_inputs, source_labels = make_source_data(rng)
    target_inputs, target_labels = make_target_data(rng)

    # 1. Train the source model (a small MLP with dropout).
    model = nn.build_mlp(input_dim=4, output_dim=1, hidden_dims=(32, 16), dropout=0.2, seed=0)
    history = train_supervised(
        model, nn.ArrayDataset(source_inputs, source_labels),
        epochs=40, batch_size=32, lr=3e-3, rng=rng,
    )
    print(f"source training loss: {history.losses[0]:.3f} -> {history.losses[-1]:.3f}")

    # 2. Calibrate TASFAR on the source data (before deployment).
    tasfar = Tasfar(TasfarConfig(seed=0))
    calibration = tasfar.calibrate_on_source(model, source_inputs, source_labels)
    print(f"confidence threshold tau = {calibration.threshold:.4f}")
    print(f"sigma curve Q_s(u) = {calibration.calibrators[0].intercept:.3f} "
          f"+ {calibration.calibrators[0].slope:.3f} * u")

    # 3. Adapt to the target domain using ONLY unlabeled target inputs.
    result = tasfar.adapt(model, target_inputs, calibration)
    print(f"target data: {result.split.n_confident} confident / "
          f"{result.split.n_uncertain} uncertain samples")
    print(f"adaptation stopped after {len(result.losses)} epochs")

    # 4. Evaluate (labels are used here only to report the improvement).
    adapted = result.target_model
    labels_2d = target_labels[:, None]
    before_mse = mse(nn.predict_batched(model, target_inputs), labels_2d)
    after_mse = mse(nn.predict_batched(adapted, target_inputs), labels_2d)
    before_mae = mae(nn.predict_batched(model, target_inputs), labels_2d)
    after_mae = mae(nn.predict_batched(adapted, target_inputs), labels_2d)
    print(f"target MSE: {before_mse:.3f} -> {after_mse:.3f} "
          f"({100 * (before_mse - after_mse) / before_mse:+.1f}% reduction)")
    print(f"target MAE: {before_mae:.3f} -> {after_mae:.3f} "
          f"({100 * (before_mae - after_mae) / before_mae:+.1f}% reduction)")


if __name__ == "__main__":
    main()
