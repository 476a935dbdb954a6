"""Every task's source model, pinned bit for bit.

A bundle's source model is what every figure, oracle and transcript starts
from, so the training loop that produces it must not move a single bit.
The digests below were taken from the ``nn.Trainer`` loop that trained
source models before :func:`repro.engine.train_supervised` replaced it:
the SHA-256 of the model's parameter bytes and of its per-epoch training
losses as float64 bytes, at seed 0.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import get_bundle
from repro.nn import model_digest

#: (task, scale, parameter digest, loss-history digest)
SOURCE_FINGERPRINTS = [
    ("pdr", "tiny", "5ef5acf3e5c2ecfee2fe49d78c5da5ce0b0ef552fc053ef73a89fe8157a4e45c", "67ea1d023d71b4a31cf826d43407aaee57b6aa61d49edab37953593c4453881c"),
    ("crowd", "tiny", "cf9be5efb3832e9efef6b895752a3148c1fb5753cec1d7be587afdce1705205e", "0f6dd8c98b1dbad74646b6d13d42a339f90cf005a27b2cb881f2375537dd8982"),
    ("housing", "tiny", "f8c23a67061a8a69c762e8328bb7ea6b43d90070b83944ada823198d1b6da9d8", "c52015edad3a0eba1dc6284def1b1f425cb52c53e48a09ef5ef79296c39b8f5b"),
    ("taxi", "tiny", "f125c76212c3e8c27399ce57a89c5c3541516f1ffe0f1a35ec869be145df0724", "cca2942ec73718076156e703f2a597d690c8e9c71bf58c25dbe3b6c1301d0f05"),
    ("pdr", "small", "8f39d6aed81efbb2dfa04029de23126329ce7c8db08e809ec95bff9ebc9b8a13", "2582d6e3c115894c9db0a21c45f6eee967befd3b7fcad389d4f53ddef4700e19"),
    ("crowd", "small", "373ae523f77e9710b49777d333e59c709e7d6aa1b2e26aa5fa052a1b7ecb06b3", "66035dd0d32ec816b0f059ad740c79739f690d68c2c06450745205b795531ecb"),
    ("housing", "small", "c018e099e1f3d48c170ae72004c7164c3c6590fdc45b32b06edd51815872823b", "f3e601fcfa168f4e1e5e993eb64eb06f464751b6d469b0dcef917a7ef9608215"),
    ("taxi", "small", "d275958093ccac9ad697f3668ce0978beb7c6c82828055e095e177b61dc8f3e1", "364cf3b86440963bbb1708f39144f4fc7f798c4133d3be8c92b086a94b9be021"),
]


def _source_losses(bundle) -> list[float]:
    # The same file also checks the tree before the switch, where the
    # history lived on ``bundle.training_history.losses``.
    losses = getattr(bundle, "source_losses", None)
    return losses if losses is not None else bundle.training_history.losses


@pytest.mark.parametrize(
    "task,scale,params_sha,losses_sha",
    SOURCE_FINGERPRINTS,
    ids=[f"{task}-{scale}" for task, scale, _, _ in SOURCE_FINGERPRINTS],
)
def test_source_model_is_bit_identical(task, scale, params_sha, losses_sha):
    bundle = get_bundle(task, scale, seed=0)
    losses = np.asarray(_source_losses(bundle), dtype=np.float64)
    assert model_digest(bundle.source_model) == params_sha
    assert hashlib.sha256(losses.tobytes()).hexdigest() == losses_sha
