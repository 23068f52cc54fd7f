"""Deep learning from scratch (numpy), with simulated scale-out training.

Challenge C1 calls for "distributed scale-out deep learning techniques for
the classification of remote sensing images". This package provides:

* layers (Dense, Conv2D, MaxPool2D, ReLU, Dropout, BatchNorm, Flatten) with
  exact analytic gradients (verified against numeric differentiation in the
  test suite)
* losses, optimizers (SGD+momentum, Adam) and the large-minibatch learning
  rate schedule of Goyal et al. (linear scaling + warmup) the paper cites [8]
* :class:`~repro.ml.distributed.DataParallelTrainer` — bitwise-exact
  data-parallel SGD whose communication time is charged to the alpha-beta
  collective models from :mod:`repro.cluster.comm` (allreduce / parameter
  server / broadcast), powering experiments E4 and E5
* hyperparameter search (grid/random) mirroring the HOPS "parallel
  experiments" service
"""

from repro.ml.network import Sequential, classify_patches
from repro.ml.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Parameter,
    ReLU,
)
from repro.ml.losses import mse_loss, softmax_cross_entropy
from repro.ml.optimizers import SGD, Adam, WarmupLinearScalingSchedule
from repro.ml.metrics import accuracy, confusion_matrix, f1_scores, mean_iou
from repro.ml.distributed import DataParallelTrainer, TrainingReport
from repro.ml.active import (
    ActiveLearner,
    margin_sampling,
    self_training,
    uncertainty_sampling,
)
from repro.ml.hyperparam import grid_search, random_search

__all__ = [
    "ActiveLearner",
    "Adam",
    "BatchNorm",
    "Conv2D",
    "DataParallelTrainer",
    "Dense",
    "Dropout",
    "Flatten",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "TrainingReport",
    "WarmupLinearScalingSchedule",
    "accuracy",
    "classify_patches",
    "confusion_matrix",
    "f1_scores",
    "grid_search",
    "margin_sampling",
    "mean_iou",
    "mse_loss",
    "random_search",
    "self_training",
    "softmax_cross_entropy",
    "uncertainty_sampling",
]
