"""Shared fixture for the per-scheme equivalence oracle.

The oracle (``oracle_schemes.json``) pins, for every entry of
``SCHEME_NAMES``, the exact fine-tuning losses and adapted-model predictions
produced by the **pre-refactor** adaptation code paths on this fixture.  The
equivalence test adapts the same fixture through the strategy engine and
asserts bitwise-identical numbers, so any refactor of the training hot path
that changes results — RNG consumption order, arithmetic order, batch
assembly — fails loudly.

The fixture is deliberately tiny (a 4-feature linear task, a 12x8 MLP,
three adaptation epochs) so the full six-scheme sweep stays fast enough for
tier-1.  :func:`build_conv_fixture` adds two equally tiny convolutional
legs — a TCN (the PDR task's model) and a multi-column CNN (the crowd
task's model) — pinned by ``oracle_schemes_conv.json``.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.core import Tasfar, TasfarConfig
from repro.engine import train_supervised

#: Seed handed to every scheme's adaptation run.
ADAPT_SEED = 7

#: Construction keywords per scheme, mirroring what the strategy registry
#: passes (epochs/seed for the trainable baselines, nothing for `baseline`,
#: the TasfarConfig for `tasfar`).
SCHEME_KWARGS = {
    "baseline": {},
    "mmd": {"epochs": 3},
    "adv": {"epochs": 2},
    "augfree": {"epochs": 3},
    "datafree": {"epochs": 3},
    "tasfar": {},
}


def fast_config() -> TasfarConfig:
    return TasfarConfig(
        n_mc_samples=8,
        n_segments=5,
        adaptation_epochs=3,
        min_adaptation_epochs=1,
        early_stop=False,
        seed=0,
    )


def build_fixture() -> dict:
    """Trained source model, calibration, source/target data and a probe set."""
    rng = np.random.default_rng(0)
    weights = np.array([1.0, -0.5, 0.25, 2.0])
    source_inputs = rng.normal(size=(120, 4))
    source_labels = source_inputs @ weights + 0.1 * rng.normal(size=120)
    target_inputs = rng.normal(loc=0.3, size=(60, 4))
    probe = rng.normal(size=(12, 4))

    model = nn.build_mlp(4, 1, hidden_dims=(12, 8), dropout=0.2, seed=0)
    source_data = nn.ArrayDataset(source_inputs, source_labels)
    train_supervised(model, source_data, epochs=10, batch_size=32, lr=3e-3, rng=rng)

    config = fast_config()
    calibration = Tasfar(config).calibrate_on_source(model, source_inputs, source_labels)
    return {
        "model": model,
        "source_data": source_data,
        "target_inputs": target_inputs,
        "probe": probe,
        "config": config,
        "calibration": calibration,
    }


def fingerprint(losses, target_model, probe) -> dict:
    """JSON-exact fingerprint of one adaptation outcome.

    ``json`` round-trips Python floats exactly (shortest-repr), so equality
    on the decoded values is bitwise equality.
    """
    target_model.eval()
    predictions = np.asarray(target_model.forward(probe), dtype=np.float64).ravel()
    return {
        "losses": [float(value) for value in losses],
        "predictions": [float(value) for value in predictions],
    }


#: Construction keywords per scheme for the convolutional legs.  Batch sizes
#: are chosen so every scheme sees a ragged tail batch on the 40-row target
#: (DataFree's 1-row tail is skipped by its ``min_batch_size``) or on the
#: 64-row source set.
CONV_SCHEME_KWARGS = {
    "baseline": {},
    "mmd": {"epochs": 2, "batch_size": 24},
    "adv": {"epochs": 2, "batch_size": 24},
    "augfree": {"epochs": 2, "batch_size": 16},
    "datafree": {"epochs": 2, "batch_size": 13},
    "tasfar": {},
}

#: The convolutional legs, by name.
CONV_LEGS = ("tcn", "mcnn")


def _conv_leg(kind: str, rng: np.random.Generator):
    """Model and an input sampler for one convolutional leg."""
    if kind == "tcn":
        model = nn.build_tcn_regressor(
            3, 12, output_dim=2, channel_sizes=(4, 4), head_hidden=8, seed=0
        )

        def sample(n: int, shift: float = 0.0) -> np.ndarray:
            return rng.normal(loc=shift, size=(n, 3, 12))

        def label(inputs: np.ndarray) -> np.ndarray:
            means = inputs.mean(axis=2)
            return np.stack([means[:, 0], means[:, 1] - 0.5 * means[:, 2]], axis=1)

    elif kind == "mcnn":
        model = nn.build_mcnn_counter(
            image_size=8, column_channels=(2, 3), column_kernels=(3, 5), head_hidden=8, seed=0
        )

        def sample(n: int, shift: float = 0.0) -> np.ndarray:
            return rng.random(size=(n, 1, 8, 8)) + shift

        def label(inputs: np.ndarray) -> np.ndarray:
            return inputs.reshape(len(inputs), -1).mean(axis=1, keepdims=True) * 4.0

    else:
        raise ValueError(f"unknown conv leg {kind!r}; expected one of {CONV_LEGS}")
    return model, sample, label


def build_conv_fixture(kind: str) -> dict:
    """The :func:`build_fixture` layout for a tiny TCN or MCNN leg."""
    rng = np.random.default_rng(1)
    model, sample, label = _conv_leg(kind, rng)
    source_inputs = sample(64)
    source_labels = label(source_inputs) + 0.05 * rng.normal(size=(64, 1))
    target_inputs = sample(40, shift=0.2)
    probe = sample(6)

    source_data = nn.ArrayDataset(source_inputs, source_labels)
    train_supervised(model, source_data, epochs=4, batch_size=16, lr=3e-3, rng=rng)

    config = fast_config()
    calibration = Tasfar(config).calibrate_on_source(model, source_inputs, source_labels)
    return {
        "model": model,
        "source_data": source_data,
        "target_inputs": target_inputs,
        "probe": probe,
        "config": config,
        "calibration": calibration,
    }
