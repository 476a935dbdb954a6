"""Backward state is training-only.

A layer's forward keeps what its backward reads (im2col columns, masks,
inputs) only in training mode.  Evaluation and MC-dropout forwards keep
nothing but the masks a dropout layer draws in MC mode; ``eval()`` clears
the state, and copies and pickles leave it out, so a model copy, a pickled
worker result or a snapshot carries parameters and structure only.
"""

import copy
import pickle

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Conv1d, Conv2d, Dropout, Linear, ReLU, parameter_bytes
from repro.nn.module import BACKWARD_STATE
from repro.uncertainty import MCDropoutPredictor

MODELS = {
    "tcn": (lambda: nn.build_tcn_regressor(6, 20, seed=0), (32, 6, 20)),
    "mcnn": (lambda: nn.build_mcnn_counter(seed=0), (16, 1, 16, 16)),
    "mlp": (lambda: nn.build_mlp(8, 1, seed=0), (32, 8)),
}


@pytest.fixture(params=sorted(MODELS))
def case(request):
    build, shape = MODELS[request.param]
    return build, np.random.default_rng(1).normal(size=shape)


def held_state(model):
    """``(layer type, attribute)`` of every backward-state value a module holds."""
    return [
        (type(module).__name__, name)
        for module in model.modules()
        for name in BACKWARD_STATE
        if getattr(module, name, None) is not None
    ]


def test_eval_forward_keeps_no_state(case):
    build, inputs = case
    model = build().eval()
    model.forward(inputs)
    assert held_state(model) == []


def test_mc_predict_keeps_only_dropout_masks(case):
    build, inputs = case
    model = build()
    MCDropoutPredictor(model, n_samples=20, seed=0).predict(inputs)
    held = held_state(model)
    assert held, "MC mode keeps the masks it drew"
    assert set(held) == {("Dropout", "_mask")}


def test_mc_predicted_model_pickles_to_its_parameters(case):
    build, inputs = case
    model = build()
    MCDropoutPredictor(model, n_samples=20, seed=0).predict(inputs)
    assert len(pickle.dumps(model)) <= 3 * len(parameter_bytes(model))


def test_copy_between_forward_and_backward_carries_no_state(case):
    build, inputs = case
    model, twin = build().train(), build().train()
    out = model.forward(inputs)
    clone = copy.deepcopy(model)
    assert held_state(clone) == []
    assert parameter_bytes(clone) == parameter_bytes(model)

    # Copying kept the original's state: its backward matches an untouched twin.
    assert twin.forward(inputs).tobytes() == out.tobytes()
    grad = np.random.default_rng(2).normal(size=out.shape)
    assert model.backward(grad).tobytes() == twin.backward(grad).tobytes()
    for param, twin_param in zip(model.parameters(), twin.parameters()):
        assert param.grad.tobytes() == twin_param.grad.tobytes()


def test_eval_clears_state(case):
    build, inputs = case
    model = build().train()
    model.forward(inputs)
    assert held_state(model)
    model.eval()
    assert held_state(model) == []


def test_mc_masks_drop_out_of_copies_and_eval(case):
    build, inputs = case
    model = build()
    MCDropoutPredictor(model, n_samples=2, seed=0).predict(inputs)
    assert any(isinstance(m, Dropout) and m._mask is not None for m in model.modules())
    assert held_state(copy.deepcopy(model)) == []
    assert held_state(pickle.loads(pickle.dumps(model))) == []
    model.eval()
    assert held_state(model) == []


@pytest.mark.parametrize(
    "layer, shape",
    [
        (Linear(4, 3), (5, 4)),
        (Conv1d(2, 3, 3), (5, 2, 8)),
        (Conv2d(2, 3, 3, padding=1), (5, 2, 6, 6)),
        (ReLU(), (5, 4)),
    ],
    ids=["linear", "conv1d", "conv2d", "relu"],
)
def test_backward_after_eval_forward_raises(layer, shape):
    layer.eval()
    out = layer.forward(np.random.default_rng(0).normal(size=shape))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))
