"""Backward state is training-only, in one slot.

A layer's forward hands what its backward reads (im2col columns, masks,
inputs) to ``Module.save_for_backward``, which keeps it in the module's one
slot and only in training mode.  Evaluation and MC-dropout forwards keep
nothing; ``eval()`` clears the slot, and copies and pickles leave it out, so
a model copy, a pickled worker result or a snapshot carries parameters and
structure only.
"""

import copy
import pickle

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import (
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Flatten,
    GlobalAveragePool1d,
    GlobalAveragePool2d,
    LayerNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Softplus,
    StackedLayerNorm,
    StackedLinear,
    Tanh,
    parameter_bytes,
)
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
    """Type names of the modules whose slot holds backward state."""
    return [type(module).__name__ for module in model.modules() if module._saved is not None]


def test_eval_forward_keeps_no_state(case):
    build, inputs = case
    model = build().eval()
    model.forward(inputs)
    assert held_state(model) == []


def test_mc_predict_keeps_nothing(case):
    build, inputs = case
    model = build()
    MCDropoutPredictor(model, n_samples=20, seed=0).predict(inputs)
    assert held_state(model) == []


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
    assert held_state(pickle.loads(pickle.dumps(model))) == []
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


@pytest.mark.parametrize(
    "layer, shape",
    [
        (Linear(4, 3), (5, 4)),
        (Conv1d(2, 3, 3), (5, 2, 8)),
        (Conv2d(2, 3, 3, padding=1), (5, 2, 6, 6)),
        (ReLU(), (5, 4)),
        (LeakyReLU(0.1), (5, 4)),
        (Tanh(), (5, 4)),
        (Sigmoid(), (5, 4)),
        (Softplus(), (5, 4)),
        (BatchNorm1d(4), (5, 4)),
        (LayerNorm(4), (5, 4)),
        (MaxPool2d(2), (5, 2, 6, 6)),
        (GlobalAveragePool1d(), (5, 2, 8)),
        (GlobalAveragePool2d(), (5, 2, 6, 6)),
        (Flatten(), (5, 2, 3)),
        (StackedLinear([Linear(4, 3), Linear(4, 3)]), (2, 5, 4)),
        (StackedLayerNorm([LayerNorm(4), LayerNorm(4)]), (2, 5, 4)),
    ],
    ids=[
        "linear", "conv1d", "conv2d", "relu", "leaky_relu", "tanh", "sigmoid",
        "softplus", "batchnorm1d", "layernorm", "maxpool2d", "gap1d", "gap2d",
        "flatten", "stacked_linear", "stacked_layernorm",
    ],
)
def test_backward_after_eval_forward_raises(layer, shape):
    layer.eval()
    out = layer.forward(np.random.default_rng(0).normal(size=shape))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))


def _mlp_with_batchnorm():
    rng = np.random.default_rng(0)
    encoder = nn.Sequential(
        Linear(8, 64, rng=rng), BatchNorm1d(64), ReLU(), nn.Dropout(0.2, rng=rng)
    )
    return nn.RegressionModel(encoder, Linear(64, 1, rng=rng))


#: Training batches large enough that any activation a copy or a pickle kept
#: would outweigh the model's parameters several times over.
LARGE_BATCHES = {
    "tcn": (lambda: nn.build_tcn_regressor(6, 8, seed=0), (2048, 6, 8)),
    "mcnn": (lambda: nn.build_mcnn_counter(seed=0), (2048, 1, 4, 4)),
    "mlp": (lambda: nn.build_mlp(8, 1, seed=0), (2048, 8)),
    "mlp_batchnorm": (_mlp_with_batchnorm, (2048, 8)),
    "stacked_mlp": (
        lambda: nn.stack_modules([nn.build_mlp(8, 1, seed=seed) for seed in (0, 1)]),
        (2, 2048, 8),
    ),
}


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_array_bytes(item) for item in value.values())
    return 0


def held_array_bytes(model) -> int:
    """Bytes of every array the modules hold outside their parameters,
    whatever the attribute's name."""
    return sum(_array_bytes(vars(module)) for module in model.modules())


@pytest.mark.parametrize("name", sorted(LARGE_BATCHES))
def test_copies_and_pickles_after_a_large_training_forward_stay_small(name):
    build, shape = LARGE_BATCHES[name]
    model = build().train()
    model.forward(np.random.default_rng(3).normal(size=shape))
    budget = 3 * len(parameter_bytes(model))
    assert len(pickle.dumps(model)) <= budget
    assert held_array_bytes(copy.deepcopy(model)) <= budget
