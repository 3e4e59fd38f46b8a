"""Numpy neural-network substrate.

Replaces the paper's TensorFlow dependency with a small, exact-gradient
framework: dense layers (:mod:`repro.nn.layers`), masked autoregressive
models (:mod:`repro.nn.masked`), losses including the mean q-error loss
(:mod:`repro.nn.losses`), Adam (:mod:`repro.nn.optimizers`), the
training loop (:mod:`repro.nn.network`), target scaling
(:mod:`repro.nn.scaling`) and the npz array I/O that model checkpoints
use (:mod:`repro.nn.serialization`).
"""

from repro.nn.layers import (
    Dropout,
    Layer,
    Linear,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
)
from repro.nn.losses import (
    Loss,
    MSELoss,
    QErrorLoss,
    log_softmax,
    softmax_cross_entropy,
)
from repro.nn.masked import MADE, MADESweep, MaskedLinear, hidden_degrees
from repro.nn.network import Regressor, TrainingHistory, build_mlp
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.scaling import LogMinMaxScaler
from repro.nn.serialization import load_arrays, save_arrays

__all__ = [
    "Dropout",
    "Layer",
    "Linear",
    "Parameter",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Loss",
    "MSELoss",
    "QErrorLoss",
    "log_softmax",
    "softmax_cross_entropy",
    "MADE",
    "MADESweep",
    "MaskedLinear",
    "hidden_degrees",
    "Regressor",
    "TrainingHistory",
    "build_mlp",
    "Adam",
    "Optimizer",
    "LogMinMaxScaler",
    "load_arrays",
    "save_arrays",
]
