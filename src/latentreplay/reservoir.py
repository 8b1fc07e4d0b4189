"""Bounded class-balanced store of quantized exemplars.

The memory is two preallocated arrays: `codes[capacity, s, H, W]` of
uint8 PQ codes and `labels[capacity]` of uint16, the dtypes the
checkpoint stores (`config` caps the classes at 65536). Rows
`0..size-1` are live, in insertion order; `engine.state_arrays` names
them. Class counts are not stored: eviction counts the live labels when
the memory is full.

Eviction targets the most-populated class: among classes tied at the
maximum count one is chosen uniformly (ties in ascending label order),
then a uniform member of that class, in row order, is removed. Later
rows shift down one and the new row goes last. Rehearsal sampling draws
row indices uniformly, without replacement. Memory
accounting is exact integer byte arithmetic at CODE_BYTES per stored
element (the codes are bytes); megabytes are decimal (10^6 bytes), the
convention the stored-size bookkeeping is built around.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

CODE_BYTES = 1  # bytes per stored element: the codes are uint8


class Reservoir:
    def __init__(self, capacity: int, code_shape: tuple):
        if capacity < 1:
            raise ConfigError("reservoir capacity must be positive")
        self.capacity = capacity
        try:
            self.codes = np.zeros((capacity, *code_shape), dtype=np.uint8)
            self.labels = np.zeros(capacity, dtype=np.uint16)
        except (MemoryError, ValueError):  # ValueError: past numpy's largest array
            need = memory_bytes(capacity, code_shape) + 2 * capacity  # codes and uint16 labels
            raise ConfigError(f"reservoir.capacity = {capacity} needs {need} bytes") from None
        self.size = 0

    def __len__(self) -> int:
        return self.size


def insert_with_eviction(
    res: Reservoir, codes: np.ndarray, label: int, rng: np.random.Generator
) -> int | None:
    """Append one row, evicting from a maximal class when full.

    Returns the evicted row's label, or None when there was room.
    """
    evicted = None
    if res.size == res.capacity:
        counts = np.bincount(res.labels[: res.size])
        tied = np.flatnonzero(counts == counts.max())
        evicted = int(tied[int(rng.integers(len(tied)))])
        members = np.flatnonzero(res.labels[: res.size] == evicted)
        victim = int(members[int(rng.integers(len(members)))])
        res.codes[victim:-1] = res.codes[victim + 1 :]
        res.labels[victim:-1] = res.labels[victim + 1 :]
        res.size -= 1
    res.codes[res.size] = codes
    res.labels[res.size] = label
    res.size += 1
    return evicted


def sample_batch(res: Reservoir, n: int, rng: np.random.Generator) -> np.ndarray:
    """Up to n distinct row indices drawn uniformly; every row if n >= size."""
    size = res.size
    if n <= 0 or size == 0:
        return np.zeros(0, dtype=np.int64)
    if n >= size:
        return np.arange(size)
    return rng.choice(size, size=n, replace=False)


def memory_bytes(count: int, shape: tuple) -> int:
    """count * prod(shape) * CODE_BYTES, exact."""
    if count < 1 or any(d < 1 for d in shape):
        raise DataError("memory_bytes needs positive count and dims")
    total = count * CODE_BYTES
    for d in shape:
        total *= d
    return total


def as_mb(total_bytes: int) -> float:
    """Decimal megabytes: bytes / 10^6."""
    return total_bytes / 1_000_000
