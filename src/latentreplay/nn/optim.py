"""SGD-with-momentum and Adam parameter updates.

State lives in an :class:`OptimState` so it can be checkpointed; the
step functions read each parameter's `.grad` (a missing gradient counts
as zero) and mutate parameter data in place. Zero gradients with zero
accumulated moments leave parameters bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimState:
    """Per-parameter moment buffers plus hyperparameters and a step counter."""

    lr: float
    momentum: float = 0.0
    step_count: int = 0
    slots: dict = field(default_factory=dict)

    def slot(self, name: str, key: str, shape: tuple) -> np.ndarray:
        buf = self.slots.setdefault(name, {})
        if key not in buf:
            buf[key] = np.zeros(shape, dtype=np.float32)
        return buf[key]


def _grad(p: Tensor) -> np.ndarray:
    return p.grad if p.grad is not None else np.zeros_like(p.data)


def sgd_step(params: dict[str, Tensor], state: OptimState) -> None:
    """p <- p - lr * v with v <- momentum * v + g."""
    state.step_count += 1
    for name, p in params.items():
        v = state.slot(name, "velocity", p.data.shape)
        v *= np.float32(state.momentum)
        v += _grad(p)
        p.data -= np.float32(state.lr) * v


def adam_step(params: dict[str, Tensor], state: OptimState) -> None:
    """Bias-corrected Adam update."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = _grad(p)
        m = state.slot(name, "m", p.data.shape)
        v = state.slot(name, "v", p.data.shape)
        m *= np.float32(BETA1)
        m += np.float32(1.0 - BETA1) * g
        v *= np.float32(BETA2)
        v += np.float32(1.0 - BETA2) * (g * g)
        m_hat = m / np.float32(bc1)
        v_hat = v / np.float32(bc2)
        p.data -= np.float32(state.lr) * m_hat / (np.sqrt(v_hat) + np.float32(EPS))


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
