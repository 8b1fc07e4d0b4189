"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces each traced function at every place a caller
looks it up (a module attribute or a class attribute) with a wrapper that
records a span: name, start, end, parent span, and the run id. It also
counts the work each call did. Spans stay in memory; `write` saves them
once, when the run ends. Leaving the `install()` block restores the
original functions, so an untraced pass runs the package's own code
unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from latentreplay import autoencoder, checkpoint, datasets, engine, network, quantizer, reporting
from latentreplay.nn import Tensor


def _shape(a) -> str:
    return "x".join(str(d) for d in a.shape)


def _conv_key(args, kwargs, out) -> dict:
    return {f"nn.conv2d.{_shape(args[0])}.w{_shape(args[1])}": 1}


def _positions(shape) -> int:
    n, _, h, w = shape
    return n * h * w


# span name -> ([(owner, attribute), ...] where callers look the function up,
#               counter(args, kwargs, result) -> {count name: increment} or None)
TRACED = {
    "datasets.load_dataset": ([(datasets, "load_dataset")], None),
    "engine.initialize": ([(engine, "initialize")], None),
    "engine.online_step": ([(engine, "online_step")], None),
    "engine.encode_sample": ([(engine, "encode_sample")], None),
    "engine.crop": ([(engine, "feature_random_resized_crop")], None),
    "engine.evaluate": (
        [(engine, "evaluate")],
        lambda a, k, r: {"engine.evaluated_samples": len(a[2])},
    ),
    "network.train_offline": ([(engine, "train_offline")], None),
    "network.forward_backbone": ([(network.SplitModel, "forward_backbone")], None),
    "network.forward_head": ([(network.SplitModel, "forward_head")], None),
    "autoencoder.train_compressor": ([(engine, "train_compressor")], None),
    "autoencoder.compress": ([(engine, "compress"), (autoencoder, "compress")], None),
    "autoencoder.decompress": ([(engine, "decompress"), (autoencoder, "decompress")], None),
    "quantizer.kmeans_fit": ([(quantizer, "kmeans_fit")], None),
    "quantizer.pq_encode": (
        [(engine, "pq_encode_batch")],
        lambda a, k, r: {"quantizer.pq_encode_vectors": _positions(a[0].shape)},
    ),
    "quantizer.pq_decode": (
        [(engine, "pq_decode_batch")],
        lambda a, k, r: {"quantizer.pq_decode_vectors": _positions(a[0].shape)},
    ),
    "reservoir.insert": (
        [(engine, "insert_with_eviction")],
        lambda a, k, r: {"reservoir.evictions": int(r is not None)},
    ),
    "reservoir.sample": (
        [(engine, "sample_batch")],
        lambda a, k, r: {"reservoir.sampled": len(r)},
    ),
    "nn.conv2d_fwd": ([(network, "conv2d"), (autoencoder, "conv2d")], _conv_key),
    "nn.backward": ([(Tensor, "backward")], None),
    "nn.sgd_step": ([(engine, "sgd_step"), (network, "sgd_step")], None),
    "nn.adam_step": ([(autoencoder, "adam_step")], None),
    "checkpoint.save": ([(checkpoint, "save_checkpoint")], None),
    "checkpoint.load": ([(checkpoint, "load_checkpoint")], None),
    "reporting.emit_metrics": ([(reporting, "emit_metrics")], None),
}


class Tracer:
    """In-memory span log; one instance per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def install(self):
        """Patch every traced lookup site; restore the originals on exit."""
        saved = []
        try:
            for name, (sites, counter) in TRACED.items():
                for owner, attr in sites:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _durations(self):
        """Each span's duration and self time (duration minus its direct children)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        dur, self_time = self._durations()
        out: dict = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += float(dur[i])
            s["self_s"] += float(self_time[i])
        return out

    def subtree_self(self, root_name: str) -> dict:
        """Self seconds by span name, summed under every span named root_name.

        The self times of a subtree add up to the duration of its root.
        """
        _, self_time = self._durations()
        inside = np.zeros(len(self.names), dtype=bool)
        for i, name in enumerate(self.names):  # a parent precedes its children
            p = self.parents[i]
            inside[i] = name == root_name or (p >= 0 and inside[p])
        out: Counter = Counter()
        for i in np.flatnonzero(inside):
            out[self.names[i]] += float(self_time[i])
        return dict(out)

    def write(self, path: str) -> None:
        """One JSON line per span: id, parent, name, start, end, run id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps(
                    [i, self.parents[i], name, self.starts[i], self.ends[i], self.run_id]
                ) + "\n")
