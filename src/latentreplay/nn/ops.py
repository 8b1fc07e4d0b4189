"""Forward/backward implementations for every layer in the pipeline.

Shapes follow the NCHW convention. Compute is float32; reductions
(matmul contractions, means, the loss scalars) accumulate in float64 so
finite-difference gradient checks stay clean. Every function is pure.
Ops preserve float64 buffers end to end; see tensor.py for why.

Float order. The contractions of conv2d (forward, input grad and weight
grad) and of linear go through BLAS dgemm, so their float64 summation
order is the BLAS library's, not numpy's; the input grad is one dgemm
of the flipped filters with the columns of the padded output gradient.
Every other reduction (bias grads, pools, losses) is a numpy reduction
with numpy's fixed order. Two summation orders of the same float64
products differ by a few float64 ulps (about 1e-16 relative), and the
result is then cast to a float32 buffer, whose rounding step is 2**29
times coarser: the cast lands on a different float32 only if the exact
sum lies within those few ulps of a float32 rounding midpoint. On every
conv shape the shipped workloads run, both grads cast to the same
float32 bits as the former `np.einsum` weight grad and per-tap
scatter-add input grad; tests/test_kernels.py pins that, and that a
whole run is byte-identical under one and two BLAS threads.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError, DataError, ShapeError
from .tensor import Tensor

_F32 = np.float32
_F64 = np.float64

_relu_mask_sink: list | None = None


@contextmanager
def record_relu_masks(sink: list):
    """Collect the sign mask of every relu call inside the block.

    The finite-difference checker uses this to spot perturbations that
    cross a relu kink, where central differences are invalid.
    """
    global _relu_mask_sink
    prev = _relu_mask_sink
    _relu_mask_sink = sink
    try:
        yield sink
    finally:
        _relu_mask_sink = prev


def _out_dtype(*tensors: Tensor):
    return _F64 if any(t.data.dtype == _F64 for t in tensors) else _F32


def _im2col(xp: np.ndarray, kernel: int) -> np.ndarray:
    """Extract (N, C*K*K, Ho*Wo) patch columns from a padded NCHW array."""
    n, c, hp, wp = xp.shape
    ho, wo = hp - kernel + 1, wp - kernel + 1
    sn, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kernel, kernel, ho, wo),
        strides=(sn, sc, sh, sw, sh, sw),
        writeable=False,
    )
    return patches.reshape(n, c * kernel * kernel, ho * wo)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, *, pad: int = 0) -> Tensor:
    """Stride-1 cross-correlation of an NCHW batch with OIKK filters.

    Output spatial size is H + 2*pad - K + 1, which must be positive.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.shape} / {weight.shape}")
    n, c, h, w = x.shape
    o, i, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernel must be square, got {kh}x{kw}")
    if i != c:
        raise ShapeError(f"input has {c} channels but weight expects {i}")
    if bias.shape != (o,):
        raise ShapeError(f"bias shape {bias.shape} does not match {o} output channels")
    if pad < 0:
        raise ConfigError(f"invalid pad={pad}")
    k = kh
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    if ho < 1 or wo < 1:
        raise ConfigError(f"conv2d output size {ho}x{wo} is not positive")

    # widen to float64 before im2col, so the patch columns are copied once
    if pad > 0:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=_F64)
        xp[:, :, pad : pad + h, pad : pad + w] = x.data
    else:
        xp = x.data.astype(_F64)
    cols = _im2col(xp, k)
    wmat = weight.data.reshape(o, -1).astype(_F64)
    out = np.matmul(wmat, cols) + bias.data.astype(_F64)[:, None]
    out = out.reshape(n, o, ho, wo).astype(_out_dtype(x, weight, bias))

    def backward(g):
        go = g.astype(_F64).reshape(n, o, ho * wo)
        if weight.requires_grad:
            gw = np.tensordot(go, cols, axes=([0, 2], [0, 2])).reshape(weight.shape)
            weight.accumulate_grad(gw)
        if bias.requires_grad:
            bias.accumulate_grad(go.sum(axis=(0, 2)))
        if x.requires_grad:
            # correlate the flipped filters with go padded by q (cropped if q < 0)
            q = k - 1 - pad
            go4 = go.reshape(n, o, ho, wo)
            pads = [(0, 0), (0, 0), (q, q), (q, q)]
            gop = np.pad(go4, pads) if q > 0 else go4[:, :, -q : ho + q, -q : wo + q]
            wflip = wmat.reshape(o, c, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = np.matmul(wflip.reshape(c, -1), _im2col(gop, k))
            x.accumulate_grad(gx.reshape(n, c, h, w))

    return Tensor._from_op(out, (x, weight, bias), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient is masked where input <= 0."""
    mask = x.data > 0
    if _relu_mask_sink is not None:
        _relu_mask_sink.append(mask)
    out = np.where(mask, x.data, 0).astype(x.data.dtype)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.where(mask, g, 0))

    return Tensor._from_op(out, (x,), backward)


def avgpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping mean pool; H and W must be even."""
    if x.ndim != 4:
        raise ShapeError(f"avgpool2 expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 != 0 or w % 2 != 0:
        raise ConfigError(f"avgpool2 needs even spatial dims, got {h}x{w}")
    out = (
        x.data.astype(_F64)
        .reshape(n, c, h // 2, 2, w // 2, 2)
        .mean(axis=(3, 5))
        .astype(_out_dtype(x))
    )

    def backward(g):
        if x.requires_grad:
            gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25
            x.accumulate_grad(gx)

    return Tensor._from_op(out, (x,), backward)


def global_avgpool(x: Tensor) -> Tensor:
    """Spatial mean per channel: NCHW -> NC."""
    if x.ndim != 4:
        raise ShapeError(f"global_avgpool expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.astype(_F64).mean(axis=(2, 3)).astype(_out_dtype(x))

    def backward(g):
        if x.requires_grad:
            gx = np.broadcast_to(g[:, :, None, None], x.shape) / (h * w)
            x.accumulate_grad(gx)

    return Tensor._from_op(out, (x,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (N, D) x (C, D)^T + (C,) -> (N, C)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear expects 2-d input/weight, got {x.shape} / {weight.shape}")
    n, d = x.shape
    c, dw = weight.shape
    if d != dw:
        raise ShapeError(f"linear input dim {d} does not match weight dim {dw}")
    if bias.shape != (c,):
        raise ShapeError(f"bias shape {bias.shape} does not match {c} outputs")
    out = (x.data.astype(_F64) @ weight.data.astype(_F64).T + bias.data.astype(_F64)).astype(
        _out_dtype(x, weight, bias)
    )

    def backward(g):
        g64 = g.astype(_F64)
        if x.requires_grad:
            x.accumulate_grad(g64 @ weight.data.astype(_F64))
        if weight.requires_grad:
            weight.accumulate_grad(g64.T @ x.data.astype(_F64))
        if bias.requires_grad:
            bias.accumulate_grad(g64.sum(axis=0))

    return Tensor._from_op(out, (x, weight, bias), backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Mean cross-entropy over a batch.

    Returns the scalar loss (a float64 zero-dim tensor on the tape) and
    the logit gradient (softmax - one_hot) / N as a plain array.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, C), got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"label out of range for {c} classes")
    if n == 0:
        raise DataError("softmax_cross_entropy on an empty batch")
    z = logits.data.astype(_F64)
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    loss = -np.log(p[np.arange(n), labels]).mean()
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n

    def backward(g):
        if logits.requires_grad:
            logits.accumulate_grad(float(g) * grad)

    out = Tensor._from_op(np.float64(loss), (logits,), backward)
    return out, grad.astype(logits.data.dtype)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, as a float64 scalar."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data.astype(_F64) - target.data.astype(_F64)
    loss = np.float64((diff * diff).mean())
    scale = 2.0 / diff.size

    def backward(g):
        gd = (float(g) * scale) * diff
        if pred.requires_grad:
            pred.accumulate_grad(gd)
        if target.requires_grad:
            target.accumulate_grad(-gd)

    return Tensor._from_op(loss, (pred, target), backward)
