"""Task-agnostic evaluation metrics: label ranks (a top-k hit is a rank below k), AOC, LAST.

AOC is the arithmetic mean of the per-evaluation-step accuracies over
all classes seen so far; LAST is the final one, `boundary_top1(records)[-1]`.
Ties in the top-k ranking go to the lowest class index; a NaN logit ranks last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def label_ranks(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's 0-based rank of its label: the classes with a larger logit, plus those with
    an equal logit and a lower index; a NaN ranks after every number, as in `np.sort`."""
    logits, labels = np.asarray(logits), np.asarray(labels)
    if logits.ndim != 2:
        raise DataError(f"logits must be (N, C), got shape {logits.shape}")
    n, c = logits.shape
    if n == 0:
        raise DataError("label ranks of an empty batch")
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= c:
        raise DataError(f"labels {labels.min()}..{labels.max()} are not integers in 0..{c - 1}")
    own = logits[np.arange(n), labels][:, None]
    lower = np.arange(c) < labels[:, None]
    nan, own_nan = np.isnan(logits), np.isnan(own)
    ahead = (logits > own) | ((logits == own) | nan & own_nan) & lower | ~nan & own_nan
    return np.count_nonzero(ahead, axis=1)


def aoc(per_step_accuracies) -> float:
    """Arithmetic mean of per-evaluation-step accuracies."""
    values = list(per_step_accuracies)
    if not values:
        raise DataError("aoc of an empty accuracy list")
    return float(np.mean(np.asarray(values, dtype=np.float64)))


@dataclass(frozen=True)
class MetricRecord:
    """One evaluation point of the stream.

    The fields, in order, are the keys of a `metrics.jsonl` line and the
    columns of a checkpoint's records row.
    """

    step: int  # online steps completed when the evaluation ran
    task: int  # most recent task streamed (1-based)
    seen_classes: int
    top1: float
    top5: float
    boundary: bool = True  # False for intra-task cadence evaluations


def boundary_top1(records) -> list[float]:
    """Per-task-boundary accuracies, the AOC/LAST input sequence."""
    return [r.top1 for r in records if r.boundary]
