from .ops import (
    avgpool2,
    conv2d,
    global_avgpool,
    linear,
    mse,
    record_relu_masks,
    relu,
    softmax_cross_entropy,
)
from .optim import OptimState, adam_step, sgd_step, zero_grads
from .tensor import Tensor, training

__all__ = [
    "Tensor",
    "training",
    "conv2d",
    "relu",
    "avgpool2",
    "global_avgpool",
    "linear",
    "softmax_cross_entropy",
    "mse",
    "OptimState",
    "sgd_step",
    "adam_step",
    "zero_grads",
    "record_relu_masks",
]
