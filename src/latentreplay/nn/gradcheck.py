"""Central finite-difference gradient checker.

The analytic gradient is taken from the regular float32 backward pass,
inside `training(inputs)`, so the inputs are constants again afterwards.
The numeric side re-evaluates the function on float64 copies of the
inputs, because at eps = 1e-3 the difference of two float32 forward
passes is dominated by rounding noise rather than by the derivative.
Ops preserve float64, so both paths run identical code.

Elements whose +-eps perturbation flips any relu sign mask are singular
for central differences (the two evaluations straddle a kink) and are
excluded from the comparison; `finite_diff_report` says how many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ops import record_relu_masks
from .tensor import Tensor, training


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    checked: int
    skipped_singular: int


def finite_diff_report(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-3,
) -> GradCheckReport:
    """Compare analytic gradients of fn against central differences.

    fn must map the given tensors to a scalar Tensor. Relative error for
    one element is |a - n| / max(|a|, |n|, 1e-3), so tiny gradients are
    compared absolutely at the 1e-3 floor.
    """
    for t in inputs:
        t.zero_grad()
    with training(inputs):
        loss = fn(*inputs)
        if loss.data.size != 1:
            raise ValueError("finite_diff_report needs a scalar-valued function")
        loss.backward()
    analytic = [
        np.zeros_like(t.data, dtype=np.float64) if t.grad is None else t.grad.astype(np.float64)
        for t in inputs
    ]

    base64 = [t.data.astype(np.float64) for t in inputs]

    def eval64(arrays, sink: list) -> float:
        ts = [Tensor(a, dtype=np.float64) for a in arrays]
        with record_relu_masks(sink):
            return float(fn(*ts).data)

    base_masks: list = []
    eval64(base64, base_masks)

    def crosses_kink(masks: list) -> bool:
        if len(masks) != len(base_masks):
            return True
        return any(not np.array_equal(a, b) for a, b in zip(masks, base_masks))

    worst = 0.0
    checked = 0
    skipped = 0
    for idx, base in enumerate(base64):
        flat = base.reshape(-1)
        a_flat = analytic[idx].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            hi_masks: list = []
            lo_masks: list = []
            flat[j] = orig + eps
            hi = eval64(base64, hi_masks)
            flat[j] = orig - eps
            lo = eval64(base64, lo_masks)
            flat[j] = orig
            if crosses_kink(hi_masks) or crosses_kink(lo_masks):
                skipped += 1
                continue
            numeric = (hi - lo) / (2.0 * eps)
            a = a_flat[j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, rel)
            checked += 1
    if checked == 0:
        raise ValueError("every element crossed a relu kink; nothing was checked")
    return GradCheckReport(worst, checked, skipped)

