"""Dense float32 tensor with reverse-mode autodiff.

A Tensor wraps a numpy array (float32 for data, float64 allowed for
zero-dim reduction outputs) plus an optional gradient buffer of the same
shape. Operations in :mod:`latentreplay.nn.ops` build a backward tape by
recording parent tensors and a closure that routes the incoming gradient
to them; ``Tensor.backward()`` walks the tape once, in reverse
topological order, and frees it as it goes, so the patch matrices a
closure holds die within the call, not when the next forward replaces
the graph. Forward passes are pure: the same inputs always produce
bit-identical outputs.

Passing ``dtype=np.float64`` keeps the buffer in double precision and
every op preserves it; only the finite-difference checker uses this, so
its central differences are not swamped by float32 rounding. Production
code never constructs float64 tensors.

``training(params)`` lets the named tensors take gradients inside its
block and clears their flags on exit, even by exception: every loop
that takes gradients names what it trains, and outside such a block
every parameter is a constant. ``no_grad()`` records no tape at all.

Op outputs are not checked for NaN/Inf. The guards sit where values
enter or settle: ``datasets.Dataset.check`` refuses a non-finite pixel,
or one outside [0, 1], when a dataset loads, ``engine.online_step``
rejects a non-finite input image or loss before the head changes,
``quantizer.Codebooks`` rejects a non-finite centroid, and
``engine.check_state`` refuses a state with a non-finite parameter,
optimizer value or centroid (the float arrays of ``state_arrays``; the
reservoir rows are integers) after ``initialize``, at every task
boundary and when a checkpoint loads.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def training(params):
    """Let `params` (tensors, or a name -> tensor dict) take gradients inside the block."""
    tensors = list(params.values() if isinstance(params, dict) else params)
    for t in tensors:
        t.requires_grad = True
    try:
        yield
    finally:
        for t in tensors:
            t.requires_grad = False


class Tensor:
    """n-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype != np.float32 and not (arr.ndim == 0 and arr.dtype == np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward_fn = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        """Wrap an op output, attaching the tape node when grads are live."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g.astype(self.data.dtype, copy=False)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape, freeing it as it goes:
        each node keeps its data and gradient only, so a second call reaches no parameter."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            node._parents, node._backward_fn = (), None

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError("can only add Tensor to Tensor")
        if self.data.shape != other.data.shape:
            raise ShapeError(f"add shape mismatch: {self.shape} vs {other.shape}")
        a, b = self, other
        out_data = a.data + b.data

        def backward(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g)

        return Tensor._from_op(out_data, (a, b), backward)
