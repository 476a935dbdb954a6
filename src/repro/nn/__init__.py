"""Numpy neural-network substrate used by the TASFAR reproduction.

This package is a compact, self-contained replacement for the PyTorch layer
stack the paper builds on: explicit layer-wise backpropagation, SGD/Adam
optimizers, dropout with Monte-Carlo sampling, and temporal and 2-D
convolutions.  Training loops live in :mod:`repro.engine`.
"""

from .activations import Identity, LeakyReLU, ReLU, Sigmoid, Softplus, Tanh
from .container import Residual, Sequential
from .conv import (
    Conv1d,
    Conv2d,
    Flatten,
    GlobalAveragePool1d,
    GlobalAveragePool2d,
    MaxPool2d,
)
from .data import ArrayDataset, DataLoader, train_test_split
from .dropout import Dropout
from .gradient_reversal import GradientReversal
from .linear import Linear
from .losses import HuberLoss, Loss, MAELoss, MSELoss, get_loss
from .models import (
    RegressionModel,
    build_domain_discriminator,
    build_mcnn_counter,
    build_mlp,
    build_tcn_regressor,
)
from .module import Module, predict_batched
from .normalization import BatchNorm1d, LayerNorm
from .optim import SGD, Adam, Optimizer, clip_gradients
from .parameter import Parameter
from .stacked import (
    PerReplicaLoss,
    StackedAdam,
    StackedDropout,
    StackedLayerNorm,
    StackedLinear,
    StackedRegressionModel,
    StackedSGD,
    StackingError,
    assert_stackable,
    stack_modules,
    stacked_clip_gradients,
    unstack_modules,
)
from .serialization import (
    copy_parameters,
    load_model,
    model_digest,
    parameter_bytes,
    save_model,
)
from .tcn import TemporalBlock, TemporalConvNet

__all__ = [
    "Adam",
    "ArrayDataset",
    "BatchNorm1d",
    "Conv1d",
    "Conv2d",
    "DataLoader",
    "Dropout",
    "Flatten",
    "GlobalAveragePool1d",
    "GlobalAveragePool2d",
    "GradientReversal",
    "HuberLoss",
    "Identity",
    "LayerNorm",
    "LeakyReLU",
    "Linear",
    "Loss",
    "MAELoss",
    "MSELoss",
    "MaxPool2d",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "RegressionModel",
    "Residual",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Softplus",
    "StackedAdam",
    "StackedDropout",
    "StackedLayerNorm",
    "StackedLinear",
    "StackedRegressionModel",
    "StackedSGD",
    "StackingError",
    "PerReplicaLoss",
    "Tanh",
    "TemporalBlock",
    "TemporalConvNet",
    "predict_batched",
    "build_domain_discriminator",
    "build_mcnn_counter",
    "build_mlp",
    "build_tcn_regressor",
    "assert_stackable",
    "clip_gradients",
    "copy_parameters",
    "stack_modules",
    "stacked_clip_gradients",
    "unstack_modules",
    "get_loss",
    "load_model",
    "model_digest",
    "parameter_bytes",
    "save_model",
    "train_test_split",
    "get_loss",
]
