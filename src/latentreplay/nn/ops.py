"""Forward/backward implementations for every layer in the pipeline.

Shapes follow the NCHW convention. Compute is float32; reductions
(matmul contractions, means, the loss scalars) accumulate in float64 so
finite-difference gradient checks stay clean. Every function is pure.
Ops preserve float64 buffers end to end; see tensor.py for why.

Float order. Each conv2d contraction (forward, weight grad, and input
grad as the flipped filters times the padded output gradient's patches)
is one BLAS dgemm over a batch-last (C*K*K, Ho*Wo*N) patch matrix, whose
columns run over (y, x, n) so each patch copy moves Wo*N contiguous
doubles; it is summed in the BLAS library's order, as in linear, and
that order can depend on the matrix size (it does for the 1x1 32 -> 8
conv on 2x2 maps). The forward and the input grad keep their
contraction order over (c, di, dj) and (o, di, dj): against NCHW
columns only the columns are permuted. A kernel that sums some columns
in another order, as OpenBLAS's AVX-512 dgemm does with the ones past
its last 16-column block, can still move an output by an ulp (of the
conv shapes tests/test_kernels.py lists, only the 32 -> 8 encoder at
batch 9, which no workload runs). The weight grad sums the positions in
(y, x, n) order, which moves it by a few float64 ulps.
avgpool2 sums each window as ((a + b) + (c + d)), or as
(((a + b) + c) + d) for a one-column output, numpy's order for
reshape(...).mean(axis=(3, 5)). Other reductions are numpy's, in its
fixed order. Two summation orders of the same float64 products differ
by a few float64 ulps, and the float32 cast that follows is 2**29 times
coarser, so it moves only if the exact sum lies within those ulps of a
float32 rounding midpoint. tests/test_kernels.py pins, on every shape
the shipped workloads run, the same float32 bits as a per-sample matmul
forward, an einsum weight grad, a per-tap scatter-add input grad and
numpy's pool and relu, the float64 bits of the forward and input grad
of the NCHW-column GEMM, and byte-identical runs under one and two BLAS
threads and under the OpenBLAS Haswell, Sandybridge and Prescott kernels.

Tape. A conv's backward keeps its input, not its float64 patch matrix
(18 times as large at K = 3), which glibc mapped and faulted in afresh
for every batch the tape kept it; the weight grad builds it again (same
bits) and drops it before the input grad, and a frozen conv builds none.

Float32 GEMMs were measured and turned down. Keeping the padded buffer
and `wmat` in the tensor's float32 makes forward plus backward 0.35-0.77x
of the float64 time at ten workload shapes (init + stream through the
CLI, one BLAS thread: 4.5 -> 3.75 s on paper-default, 7.2 -> 5.5 s on
deep-head, big-memory flat). But an sgemm rounds each partial sum to
float32, the result's own precision, so each kernel's order shows: on
the tiny config the checkpoint hashed differently under the default
kernel (SkylakeX) and under each of Haswell, Sandybridge and Prescott,
while metrics.jsonl stayed equal; on paper-default, Sandybridge moved
metrics.jsonl too. The float64 checkpoints are byte-identical under all
four. Do not retry it without a float32 reduction of fixed order.
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


def _padded(a: np.ndarray, pad: int) -> np.ndarray:
    """Float64 copy of a batch-last (C, H, W, N) array, zero-padded by `pad` on each side of
    H and W (cropped if < 0), as a C-contiguous (C, H + 2*pad, W + 2*pad, N) buffer."""
    c, h, w, n = a.shape
    i, j = max(pad, 0), max(-pad, 0)
    out = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=_F64)
    out[:, i : i + h - 2 * j, i : i + w - 2 * j] = a[:, j : h - j, j : w - j]
    return out


def _im2col(xp: np.ndarray, kernel: int) -> np.ndarray:
    """(C*K*K, Ho*Wo*N) patch columns of a `_padded` buffer; rows in (c, di, dj) order,
    columns in (y, x, n) order, so each copied run is Wo*N contiguous doubles."""
    c, hp, wp, n = xp.shape
    ho, wo = hp - kernel + 1, wp - kernel + 1
    sc, sh, sw, sn = xp.strides
    patches = np.ndarray(
        (c, kernel, kernel, ho, wo, n), _F64, buffer=xp, offset=0,
        strides=(sc, sh, sw, sh, sw, sn),
    )
    return patches.reshape(c * kernel * kernel, ho * wo * n)


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

    # one dgemm per use of the batch-last patch columns, built for it; outputs and grads stay NCHW
    x_bl = x.data.transpose(1, 2, 3, 0)
    wmat = weight.data.reshape(o, -1).astype(_F64)
    out = wmat @ _im2col(_padded(x_bl, pad), k) + bias.data.astype(_F64)[:, None]
    out = out.reshape(o, ho, wo, n).transpose(3, 0, 1, 2).astype(_out_dtype(x, weight, bias), order="C")

    def backward(g):
        go = g.astype(_F64)
        go_bl = go.transpose(1, 2, 3, 0).reshape(o, ho * wo * n)
        if weight.requires_grad:
            weight.accumulate_grad((go_bl @ _im2col(_padded(x_bl, pad), k).T).reshape(weight.shape))
        if bias.requires_grad:
            bias.accumulate_grad(go.reshape(n, o, ho * wo).sum(axis=(0, 2)))
        if x.requires_grad:
            # correlate the flipped filters with go padded by K - 1 - pad
            wflip = wmat.reshape(o, c, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            go_cols = _im2col(_padded(go_bl.reshape(o, ho, wo, n), k - 1 - pad), k)
            gx = (wflip.reshape(c, -1) @ go_cols).reshape(c, h, w, n).transpose(3, 0, 1, 2)
            x.accumulate_grad(gx.astype(x.data.dtype, order="C"))

    return Tensor._from_op(out, (x, weight, bias), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient is masked where input <= 0."""
    mask = x.data > 0
    if _relu_mask_sink is not None:
        _relu_mask_sink.append(mask)
    # np.where(mask, v, 0) bit for bit, as an AND of the float bits without a branch
    keep = -mask.astype(f"i{x.data.itemsize}")
    out = (x.data.view(keep.dtype) & keep).view(x.data.dtype)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad((g.view(keep.dtype) & keep).view(g.dtype))

    return Tensor._from_op(out, (x,), backward)


def avgpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping mean pool; H and W must be even."""
    if x.ndim != 4:
        raise ShapeError(f"avgpool2 expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 != 0 or w % 2 != 0:
        raise ConfigError(f"avgpool2 needs even spatial dims, got {h}x{w}")
    v = x.data  # float64 sums in numpy's mean order (module docstring)
    out = np.add(v[:, :, 0::2, 0::2], v[:, :, 0::2, 1::2], dtype=_F64)
    if w > 2:
        out += np.add(v[:, :, 1::2, 0::2], v[:, :, 1::2, 1::2], dtype=_F64)
    else:
        out = out + v[:, :, 1::2, 0::2] + v[:, :, 1::2, 1::2]
    out = (out * 0.25).astype(_out_dtype(x))

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


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over a batch, as a float64 zero-dim tensor on the tape.

    Its backward routes (softmax - one_hot) / N to the logits; that
    gradient is reached only through the tape.
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

    return Tensor._from_op(np.float64(loss), (logits,), backward)


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
