"""Metrics files and the memory-budget accounting table.

JSONL field order is fixed: step, task, seen_classes, top1, top5,
boundary. The summary CSV has one data row with columns
aoc,last,memory_bytes,exemplar_count,exemplar_shape; an empty log
produces the header only.
"""

from __future__ import annotations

import json
import os

from .metrics import MetricsLog
from .reservoir import as_mb, memory_bytes

CSV_HEADER = "aoc,last,memory_bytes,exemplar_count,exemplar_shape"

# (exemplar count, stored shape, displayed megabytes, displayed decimals)
BUDGET_TABLE = (
    (130000, (8, 7, 7), "50.96", 2),
    (130000, (32, 7, 7), "203.84", 2),
    (2000, (3, 224, 224), "301.06", 2),
    (2000, (3, 32, 32), "6.14", 2),
    (25000, (4, 8, 8), "6.40", 2),
    (50000, (4, 8, 8), "12.8", 1),
    (500, (3, 32, 32), "1.536", 3),
    (24000, (1, 8, 8), "1.536", 3),
)


def budget_line(count: int, shape: tuple, decimals: int = 2) -> str:
    mb = as_mb(memory_bytes(count, shape))
    dims = "x".join(str(d) for d in shape)
    return f"{count} exemplars of {dims} (1 B/elem) -> {mb:.{decimals}f} MB"


def membudget_lines() -> list[str]:
    """The reference accounting table, one formatted line per entry."""
    return [budget_line(count, shape, decimals) for count, shape, _, decimals in BUDGET_TABLE]


def emit_metrics(records, out_dir: str, *, capacity: int, code_shape: tuple, exemplar_count: int) -> tuple:
    """Write metrics.jsonl and summary.csv; returns both paths.

    AOC and LAST are computed over boundary records only, matching the
    per-task accuracy sequence. memory_bytes uses one byte per stored
    element (the codes are bytes).
    """
    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, "metrics.jsonl")
    csv_path = os.path.join(out_dir, "summary.csv")

    with open(jsonl_path, "w") as fh:
        for r in records:
            fh.write(json.dumps({
                "step": r.step,
                "task": r.task,
                "seen_classes": r.seen_classes,
                "top1": r.top1,
                "top5": r.top5,
                "boundary": r.boundary,
            }) + "\n")

    log = MetricsLog(records)
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        if log.boundary_top1():
            mem = memory_bytes(capacity, code_shape, 1)
            dims = "x".join(str(d) for d in code_shape)
            fh.write(f"{log.aoc()},{log.last()},{mem},{exemplar_count},{dims}\n")
    return jsonl_path, csv_path


def read_metrics(jsonl_path: str) -> list[dict]:
    with open(jsonl_path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
