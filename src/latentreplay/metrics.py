"""Task-agnostic evaluation metrics: top-k accuracy, AOC, LAST.

AOC is the arithmetic mean of the per-evaluation-step accuracies over
all classes seen so far; LAST is the final one, `boundary_top1(records)[-1]`.
Ties in the top-k ranking are broken toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose label is among the k largest logits."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DataError(f"logits must be (N, C), got shape {logits.shape}")
    n, c = logits.shape
    if n == 0:
        raise DataError("top_k_accuracy on an empty batch")
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match batch size {n}")
    if not (1 <= k <= c):
        raise DataError(f"k={k} outside 1..{c}")
    # sort on (-logit, class index): equal logits rank lowest-index first
    order = np.lexsort((np.broadcast_to(np.arange(c), (n, c)), -logits), axis=1)
    topk = order[:, :k]
    return float((topk == labels[:, None]).any(axis=1).mean())


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
