"""SGD-with-momentum and Adam parameter updates.

State lives in an :class:`OptimState` so it can be checkpointed; the
step functions mutate parameter data in place. Zero gradients with zero
accumulated moments leave parameters bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass
class OptimState:
    """Per-parameter moment buffers plus hyperparameters and a step counter."""

    kind: str  # "sgd-momentum" or "adam"
    lr: float
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    slots: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd-momentum", "adam"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")

    def slot(self, name: str, key: str, shape: tuple) -> np.ndarray:
        buf = self.slots.setdefault(name, {})
        if key not in buf:
            buf[key] = np.zeros(shape, dtype=np.float32)
        return buf[key]


def _check(name: str, param: Tensor, grad: np.ndarray) -> np.ndarray:
    grad = np.asarray(grad, dtype=np.float32)
    if grad.shape != param.data.shape:
        raise ShapeError(
            f"gradient for {name!r} has shape {grad.shape}, parameter is {param.data.shape}"
        )
    return grad


def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: OptimState) -> None:
    """p <- p - lr * v with v <- momentum * v + g."""
    if state.kind != "sgd-momentum":
        raise ConfigError(f"sgd_step called with {state.kind!r} state")
    state.step_count += 1
    for name, p in params.items():
        g = _check(name, p, grads[name])
        v = state.slot(name, "velocity", p.data.shape)
        v *= np.float32(state.momentum)
        v += g
        p.data -= np.float32(state.lr) * v


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: OptimState) -> None:
    """Bias-corrected Adam update."""
    if state.kind != "adam":
        raise ConfigError(f"adam_step called with {state.kind!r} state")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = _check(name, p, grads[name])
        m = state.slot(name, "m", p.data.shape)
        v = state.slot(name, "v", p.data.shape)
        m *= np.float32(state.beta1)
        m += np.float32(1.0 - state.beta1) * g
        v *= np.float32(state.beta2)
        v += np.float32(1.0 - state.beta2) * (g * g)
        m_hat = m / np.float32(bc1)
        v_hat = v / np.float32(bc2)
        p.data -= np.float32(state.lr) * m_hat / (np.sqrt(v_hat) + np.float32(state.eps))


def grads_of(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Collect .grad buffers, treating missing gradients as zero."""
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
