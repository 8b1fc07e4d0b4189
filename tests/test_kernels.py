"""Hot-path kernels against the straightforward code they replaced.

Each reference below is the earlier implementation, kept here only as an
oracle. The kernels must match it bit for bit (and, for the crop and the
synthetic noise, leave the rng in the same state), because the whole
run's output depends on them. The loaders must also stay within a
memory bound that the whole-set code they replaced broke. The last tests
check that a run does not depend on the BLAS thread count or on the
OpenBLAS kernel, now that both conv gradients go through BLAS.
"""

import importlib.util
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentreplay
from latentreplay import datasets, engine, quantizer
from latentreplay.autoencoder import build_compressor, compress, decompress
from latentreplay.config import parse_config
from latentreplay.datasets import gen_synthetic, load_cifar_bin, load_dataset, load_idx
from latentreplay.engine import feature_random_resized_crop
from latentreplay.network import build_model
from latentreplay.nn import Tensor, avgpool2, conv2d, relu
from latentreplay.quantizer import Codebooks, kmeans_fit, pq_decode_batch, pq_encode_batch
from test_acceptance import TINY_CONFIG, tensor_forward
from test_config_io import idx_bytes


# ------------------------------------------------------------------ conv2d


def _nchw_im2col(xp, k):
    """(N, C*K*K, Ho*Wo) patch columns of a padded NCHW array, float64."""
    n, c, hp, wp = xp.shape
    ho, wo = hp - k + 1, wp - k + 1
    patches = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, k, k, ho, wo), strides=xp.strides[:2] + xp.strides[2:] * 2
    )
    return patches.reshape(n, c * k * k, ho * wo).astype(np.float64)


def _stacked_forward(x, w, b, pad):
    """Forward as one (O, C*K*K) x (C*K*K, Ho*Wo) matmul per sample, float32 out."""
    n, o, k = x.shape[0], w.shape[0], w.shape[2]
    cols = _nchw_im2col(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), k)
    out = np.matmul(w.reshape(o, -1).astype(np.float64), cols) + b.astype(np.float64)[:, None]
    ho = x.shape[2] + 2 * pad - k + 1
    return out.reshape(n, o, ho, -1).astype(np.float32)


def _einsum_weight_grad(x, w, g, pad):
    """Weight gradient as an einsum over np.pad-ded im2col columns."""
    o, k = w.shape[0], w.shape[2]
    cols = _nchw_im2col(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), k)
    go = g.astype(np.float64).reshape(g.shape[0], o, -1)
    return np.einsum("nol,nkl->ok", go, cols).reshape(w.shape).astype(np.float32)


def _col2im_input_grad(x_shape, w, g, pad):
    """Input gradient as per-tap columns scatter-added onto the padded input, then cropped."""
    n, c, h, wd = x_shape
    o, k = w.shape[0], w.shape[2]
    ho, wo = g.shape[2:]
    go = g.astype(np.float64).reshape(n, o, -1)
    cols = np.matmul(w.reshape(o, -1).astype(np.float64).T, go).reshape(n, c, k, k, ho, wo)
    gxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki : ki + ho, kj : kj + wo] += cols[:, :, ki, kj]
    return gxp[:, :, pad : pad + h, pad : pad + wd].astype(np.float32)


def _conv_grads(x_shape, w_shape, pad):
    """Random x, w and output gradient g, and conv2d's float32 (x.grad, weight.grad)."""
    rng = np.random.default_rng(sum(x_shape) * 31 + sum(w_shape))
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(0.0, 0.3, size=w_shape).astype(np.float32)
    inp, weight = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bias = Tensor(np.zeros(w_shape[0], np.float32), requires_grad=True)
    out = conv2d(inp, weight, bias, pad=pad)
    g = rng.normal(size=out.shape).astype(np.float32)
    out.backward(g)
    assert inp.grad.dtype == weight.grad.dtype == np.float32
    return x, w, g, inp.grad, weight.grad


_NET = ((3, 8, 16), (8, 8, 16), (8, 16, 8), (16, 16, 8), (16, 32, 4), (32, 32, 4))


def _workload_conv_shapes():
    """(input, weight) shapes of every conv a shipped workload runs."""
    shapes = set()
    # offline training of the default (3, 16, 16) net, full and last batch
    for n in (16, 8):
        for c_in, c_out, hw in _NET:
            shapes.add(((n, c_in, hw, hw), (c_out, c_in, 3, 3)))
    # compressor training at the split after block 2, 1 and 3, its forward over
    # all of task 1 (2 classes of 100 or, on big-memory, 500), and decoding the
    # rehearsed maps plus the new one
    for c, latent, hw in ((16, 8, 4), (8, 4, 8), (32, 8, 2)):
        for n in (32, 8, 9, 200, 1000):
            shapes.add(((n, c, hw, hw), (latent, c, 1, 1)))
            shapes.add(((n, latent, hw, hw), (c, latent, 1, 1)))
    # the compressor's CE term backprops through the frozen head convs
    for n in (32, 8):
        for c_in, c_out, hw in _NET[2:]:
            shapes.add(((n, c_in, hw, hw), (c_out, c_in, 3, 3)))
    # online head steps on 8 rehearsed maps plus the new one
    for c_in, c_out, hw in _NET[2:]:
        shapes.add(((9, c_in, hw, hw), (c_out, c_in, 3, 3)))
    # encoding one stream sample, and whole-net forward passes in full and last
    # chunks (every image count is a multiple of 8)
    for n in {1, *range(8, engine._FORWARD_BATCH + 1, 8)}:
        for c_in, c_out, hw in _NET:
            shapes.add(((n, c_in, hw, hw), (c_out, c_in, 3, 3)))
    for c, latent, hw in ((16, 8, 4), (8, 4, 8), (32, 8, 2)):
        shapes.add(((1, c, hw, hw), (latent, c, 1, 1)))
    return sorted(shapes)


@pytest.mark.parametrize("x_shape,w_shape", _workload_conv_shapes())
def test_conv_forward_matches_stacked_matmul(x_shape, w_shape):
    rng = np.random.default_rng(sum(x_shape) * 7 + sum(w_shape))
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(0.0, 0.3, size=w_shape).astype(np.float32)
    b = rng.normal(0.0, 0.1, size=w_shape[0]).astype(np.float32)
    pad = w_shape[2] // 2
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), pad=pad).data
    assert got.flags.c_contiguous
    assert got.tobytes() == _stacked_forward(x, w, b, pad).tobytes()


@pytest.mark.parametrize("x_shape,w_shape", _workload_conv_shapes())
def test_conv_weight_grad_matches_einsum(x_shape, w_shape):
    pad = w_shape[2] // 2
    x, w, g, _, w_grad = _conv_grads(x_shape, w_shape, pad)
    assert w_grad.tobytes() == _einsum_weight_grad(x, w, g, pad).tobytes()


@pytest.mark.parametrize("x_shape,w_shape", _workload_conv_shapes())
def test_conv_input_grad_matches_col2im(x_shape, w_shape):
    pad = w_shape[2] // 2
    x, w, g, x_grad, _ = _conv_grads(x_shape, w_shape, pad)
    assert x_grad.tobytes() == _col2im_input_grad(x_shape, w, g, pad).tobytes()


def _nchw_gemm(wmat, x, pad, k):
    """wmat times the (C*K*K, N*Ho*Wo) patch matrix of x padded by `pad`, columns in
    (n, y, x) order: the NCHW-column GEMM, as an NCHW array."""
    n, _, h, w = x.shape
    cols = _nchw_im2col(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), k)
    out = wmat @ cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    return out.reshape(len(wmat), n, ho, wo).transpose(1, 0, 2, 3)


# No workload runs the 32 -> 8 encoder at batch 9. Its dgemm has 36 columns, and
# OpenBLAS's AVX-512 (SkylakeX) kernel sums the 4 past its last 16-column block
# in another order, so which outputs get that order follows the column order;
# there only the float32 cast is pinned (its Haswell kernel is bit-equal).
_TAIL_ORDER_SHAPES = {((9, 32, 2, 2), (8, 32, 1, 1))}


@pytest.mark.parametrize("x_shape,w_shape", _workload_conv_shapes())
def test_conv_float64_order_matches_nchw_column_gemm(x_shape, w_shape):
    # float64 tensors of float32 values: the products are exact, as they are in
    # the float32 pipeline, and a reordered sum shows in the last float64 bits
    # rather than only where it crosses a float32 rounding midpoint
    rng = np.random.default_rng(sum(x_shape) * 5 + sum(w_shape))

    def draw(scale, shape):
        return rng.normal(0.0, scale, size=shape).astype(np.float32).astype(np.float64)

    o, c, k = w_shape[:3]
    pad = k // 2
    x, w, b = draw(1.0, x_shape), draw(0.3, w_shape), draw(0.1, o)
    g = draw(1.0, (x_shape[0], o, *x_shape[2:]))  # pad = k // 2 keeps H x W
    f64 = np.float64
    inp = Tensor(x, requires_grad=True, dtype=f64)
    out = conv2d(inp, Tensor(w, dtype=f64), Tensor(b, dtype=f64), pad=pad)
    out.backward(g)
    assert out.data.dtype == inp.grad.dtype == f64
    want = np.ascontiguousarray(_nchw_gemm(w.reshape(o, -1), x, pad, k) + b[:, None, None])
    if (x_shape, w_shape) in _TAIL_ORDER_SHAPES:
        assert out.data.astype(np.float32).tobytes() == want.astype(np.float32).tobytes()
    else:
        assert out.data.tobytes() == want.tobytes()
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    gx = _nchw_gemm(wflip, g, k - 1 - pad, k)
    assert inp.grad.tobytes() == np.ascontiguousarray(gx).tobytes()


@pytest.mark.parametrize(
    "k,pad", [(3, 0), (3, 1), (3, 2), (1, 0), (1, 1), (3, 3)]  # the last two pad past k - 1
)
def test_conv_input_grad_matches_col2im_at_every_pad(k, pad):
    x_shape = (4, 5, 7, 6)
    x, w, g, x_grad, _ = _conv_grads(x_shape, (3, 5, k, k), pad)
    assert x_grad.tobytes() == _col2im_input_grad(x_shape, w, g, pad).tobytes()


def test_padded_conv_matches_np_pad():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 6, 5)).astype(np.float32)
    w = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
    b = np.zeros(2, np.float32)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), pad=2).data
    xp = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)))
    want = conv2d(Tensor(xp), Tensor(w), Tensor(b)).data
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------------- avgpool2


def _pool_shapes():
    """Every avgpool2 input shape a shipped workload runs, and output width 1."""
    shapes = {(1, 8, 2, 2), (3, 5, 4, 2), (2, 3, 2, 6), (9, 4, 6, 6)}
    for n in {1, 8, 9, 16, 32, *range(8, engine._FORWARD_BATCH + 1, 8)}:
        for c, hw in ((8, 16), (16, 8), (32, 4)):
            shapes.add((n, c, hw, hw))
    return sorted(shapes)


def _wide_exponents(shape, dtype, seed):
    # values across 2**120: unlike normal data, their sums round differently per order
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) * 2.0 ** rng.integers(-60, 61, size=shape)).astype(dtype)


@pytest.mark.parametrize("shape", _pool_shapes())
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avgpool2_matches_reshape_mean(shape, dtype):
    n, c, h, w = shape
    x = Tensor(_wide_exponents(shape, dtype, sum(shape)), requires_grad=True, dtype=dtype)
    out = avgpool2(x)
    want = x.data.astype(np.float64).reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    assert out.data.dtype == dtype
    assert out.data.tobytes() == want.astype(dtype).tobytes()
    g = _wide_exponents(out.shape, dtype, sum(shape) + 1)
    out.backward(g)
    assert x.grad.tobytes() == (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where(dtype):
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45]
    data = np.concatenate([special, _wide_exponents(200, np.float64, 3)]).astype(dtype)
    x = Tensor(data.reshape(2, 2, 2, -1), requires_grad=True, dtype=dtype)
    out = relu(x)
    assert out.data.tobytes() == np.where(x.data > 0, x.data, 0).tobytes()
    g = np.concatenate([special, _wide_exponents(200, np.float64, 4)]).astype(dtype)[::-1]
    out.backward(g.reshape(x.shape))
    assert x.grad.tobytes() == np.where(x.data > 0, g.reshape(x.shape), 0).tobytes()


# ----------------------------------------------------------- forward chunks


@pytest.mark.parametrize("batch", [1, engine._FORWARD_BATCH, 256])
def test_forward_logits_do_not_depend_on_the_chunk(batch):
    # the backbone on arrays in chunks of `batch` rows, against the tape's forward in 300
    cfg = parse_config(
        "net.replay_block = 1\nacae.latent_channels = 4\npq.s = 4\ndataset.test_per_class = 100\n"
    )
    model = build_model(cfg.net_config(), cfg.seed)
    images = load_dataset(cfg).test_images[:600]
    want = np.concatenate([model.forward(Tensor(images[i : i + 300])).data for i in (0, 300)])
    got = np.concatenate([model.forward(images[i : i + batch]).data for i in range(0, 600, batch)])
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------ frozen side on arrays

_BENCH_PAIR = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


def _frozen_configs() -> dict:
    """The config of each perfbench workload (its WORKLOADS table, parsed as tools/bench_pair.py
    reads it) and of the tiny CLI run."""
    spec = importlib.util.spec_from_file_location("bench_pair", _BENCH_PAIR)
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    names = ("paper-default", "deep-head", "big-memory", "tiny")
    return {"cli-tiny": parse_config(TINY_CONFIG),
            **{name: parse_config(bench_pair.workload_text(name, 0)) for name in names}}


@pytest.mark.parametrize("name", ["paper-default", "deep-head", "big-memory", "tiny", "cli-tiny"])
def test_frozen_array_path_is_the_tape_forward_byte_for_byte(name):
    # every batch a frozen pass runs: 1 to encode a stream sample, 1..32 for the task-1 latents
    # and split features in 32-row chunks (any seen-class count leaves some short last chunk),
    # all of task 1 for its codes, rehearsal_n + 1 to decode the rehearsal batch
    cfg = _frozen_configs()[name]
    net = cfg.net_config()
    model = build_model(net, cfg.seed)
    comp = build_compressor(net.feature_channels, cfg.acae_latent_channels, cfg.seed + 1)
    rng = np.random.default_rng(cfg.seed)
    task1 = cfg.split_first_classes * cfg.dataset_per_class
    images = rng.random((task1, *net.in_shape), dtype=np.float32)
    for n in range(1, engine._FORWARD_BATCH + 1):
        assert model.forward_backbone(images[:n]).tobytes() == \
            model.forward_backbone(Tensor(images[:n])).data.tobytes(), n
    latents = np.concatenate([model.forward_backbone(images[i : i + engine._FORWARD_BATCH])
                              for i in range(0, task1, engine._FORWARD_BATCH)])
    assert latents.tobytes() == tensor_forward(model.forward_backbone, images).tobytes()
    for n in (1, task1):
        assert compress(comp, latents[:n]).tobytes() == \
            compress(comp, Tensor(latents[:n])).data.tobytes(), n
    s, k = cfg.pq_s, cfg.pq_k
    books = Codebooks(rng.normal(size=(s, k, cfg.acae_latent_channels // s)).astype(np.float32))
    codes = rng.integers(0, k, size=(cfg.online_rehearsal_n + 1, s, *net.feature_hw))
    u = pq_decode_batch(codes.astype(np.uint8), books)
    assert decompress(comp, u).tobytes() == decompress(comp, Tensor(u)).data.tobytes()


# ------------------------------------------------------------------- k-means


def _broadcast_assign(vectors, centroids):
    d2 = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _masked_kmeans_fit(vectors, k, iters, rng, repairs):
    """Lloyd's algorithm, a boolean mask per cluster; logs (cluster, robbed cluster) per repair."""
    vectors = np.asarray(vectors, dtype=np.float64)
    centroids = quantizer._kmeans_plus_plus(vectors, k, rng)
    assign = _broadcast_assign(vectors, centroids)
    for _ in range(iters):
        for c in range(k):
            members = vectors[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dist = ((vectors - centroids[assign]) ** 2).sum(axis=1)
                far = int(dist.argmax())
                centroids[c] = vectors[far]
                repairs.append((c, int(assign[far])))
                assign[far] = c
        new_assign = _broadcast_assign(vectors, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids


def _kmeans_fit_without_exit(vectors, k, iters, rng):
    """kmeans_fit without its fixed-point exit: it stops only when an assignment repeats."""
    vectors = np.asarray(vectors, dtype=np.float64)
    centroids = quantizer._kmeans_plus_plus(vectors, k, rng)
    assign = quantizer._assign(vectors[:, None], centroids[None])[:, 0]
    for _ in range(iters):
        grouped = vectors[np.argsort(assign, kind="stable")]
        ends = np.concatenate([[0], np.cumsum(np.bincount(assign, minlength=k))])
        robbed = set()
        for c in range(k):
            members = vectors[assign == c] if c in robbed else grouped[ends[c] : ends[c + 1]]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dist = ((vectors - centroids[assign]) ** 2).sum(axis=1)
                far = int(dist.argmax())
                centroids[c] = vectors[far]
                robbed.add(int(assign[far]))
                assign[far] = c
        new_assign = quantizer._assign(vectors[:, None], centroids[None])[:, 0]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids


def _tied_set(rng, n, d, dtype):
    # coarse values make exact distance ties between centroids common
    coarse = rng.integers(-4, 5, size=(n, d)) * 0.5
    jitter = rng.normal(size=(n, d)) * 0.01 * (rng.random((n, 1)) < 0.5)
    return (coarse + jitter).astype(dtype)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(3))
def test_assign_matches_broadcast(d, dtype, seed):
    rng = np.random.default_rng(seed)
    vectors = _tied_set(rng, 700, d, dtype)
    centroids = np.concatenate([vectors[:20], vectors[:5]])  # duplicated centroids tie
    got = quantizer._assign(vectors[:, None], centroids[None])
    assert got.shape == (700, 1)
    assert np.array_equal(got[:, 0], _broadcast_assign(vectors, centroids))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_kmeans_fit_matches_masked_loop(d, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(1200, d))
    vectors[:300] = np.round(vectors[:300], 1)  # ties
    want = _masked_kmeans_fit(vectors, 64, 25, np.random.default_rng(seed), [])
    got = kmeans_fit(vectors, 64, 25, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got, _kmeans_fit_without_exit(vectors, 64, 25, np.random.default_rng(seed)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", [0, 2])
def test_kmeans_fit_repairs_empty_clusters_like_masked_loop(d, seed):
    # relu-like coarse values with k near n / 3: many clusters come up empty
    rng = np.random.default_rng(seed)
    vectors = np.round(np.maximum(rng.normal(size=(400, d)), 0), 3 - d)
    repairs = []
    want = _masked_kmeans_fit(vectors, 128, 25, np.random.default_rng(seed), repairs)
    got = kmeans_fit(vectors, 128, 25, np.random.default_rng(seed))
    # a repair that takes a row from a later cluster changes that cluster's mean
    assert any(old > c for c, old in repairs), "the set was meant to force such repairs"
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got, _kmeans_fit_without_exit(vectors, 128, 25, np.random.default_rng(seed)))


def _degenerate_sets():
    rng = np.random.default_rng(5)
    return {
        # a dead relu channel pair: every position is the zero vector
        "identical": np.zeros((3200, 2)),
        # the mean of copies of 0.1 is not 0.1, so Lloyd cycles instead of resting
        "identical-inexact-mean": np.full((3200, 2), 0.1),
        "identical-inexact-mean-0.3": np.full((3200, 1), 0.3),
        "identical-inexact-mean-1/3": np.full((3200, 1), 1 / 3),
        "three-values": rng.choice([-1.0, 0.25, 2.0], size=(3200, 2)),
    }


@pytest.mark.parametrize("name", sorted(_degenerate_sets()))
def test_kmeans_fit_fixed_point_exit_keeps_the_centroids(name):
    vectors = _degenerate_sets()[name]
    want = _kmeans_fit_without_exit(vectors, 256, 25, np.random.default_rng(3))
    got = kmeans_fit(vectors, 256, 25, np.random.default_rng(3))
    assert np.array_equal(got, want)


def test_kmeans_fit_stops_at_its_fixed_point(monkeypatch):
    calls = []
    assign = quantizer._assign
    monkeypatch.setattr(quantizer, "_assign", lambda v, c: calls.append(1) or assign(v, c))
    kmeans_fit(_degenerate_sets()["identical"], 256, 25, np.random.default_rng(3))
    # one assignment from the seeds, one after the first update, which reached
    # the state it started from; without the exit all 25 iterations run
    assert len(calls) <= 3


@pytest.mark.parametrize("name", ["identical-inexact-mean", "identical-inexact-mean-0.3",
                                  "identical-inexact-mean-1/3"])
@pytest.mark.parametrize("iters", [25, 24, 5])
def test_kmeans_fit_stops_on_a_two_cycle(name, iters, monkeypatch):
    # the two states alternate, so which one the last iteration leaves
    # depends on the parity of the iterations left
    vectors = _degenerate_sets()[name]
    want = _kmeans_fit_without_exit(vectors, 256, iters, np.random.default_rng(3))
    calls = []
    assign = quantizer._assign
    monkeypatch.setattr(quantizer, "_assign", lambda v, c: calls.append(1) or assign(v, c))
    got = kmeans_fit(vectors, 256, iters, np.random.default_rng(3))
    assert np.array_equal(got, want)
    assert len(calls) <= 4


# ----------------------------------------------------------- PQ idempotency


@st.composite
def _codebook_and_codes(draw):
    s = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12))
    subdim = draw(st.sampled_from([1, 2, 3, 8, 9, 16]))
    # values on a 1/8 grid: distinct centroids differ by a square of at
    # least 1/64 per coordinate, so nothing underflows into a false tie
    size = s * k * subdim
    grid = draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size))
    cents = (np.array(grid, dtype=np.float32) / 8).reshape(s, k, subdim)
    dup = draw(st.integers(0, k - 1))
    cents[:, dup] = cents[:, 0]  # ties must go to the lowest index
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = n * s * h * w
    codes = np.array(draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size)))
    return Codebooks(cents), codes.astype(np.uint8).reshape(n, s, h, w)


@settings(max_examples=150, deadline=None)
@given(_codebook_and_codes())
def test_decode_then_encode_returns_lowest_equal_code(case):
    books, codes = case
    again = pq_encode_batch(pq_decode_batch(codes, books), books)
    for i in range(books.s):
        cents = books.centroids[i]
        # the lowest index whose centroid equals the stored one
        same = (cents[:, None, :] == cents[None, :, :]).all(axis=2)
        lowest = same.argmax(axis=0)
        assert np.array_equal(again[:, i], lowest[codes[:, i]])
    assert np.array_equal(pq_encode_batch(pq_decode_batch(again, books), books), again)


# ---------------------------------------------------------------------- crop


def _per_map_crop(z, scale, rng):
    """One (C, H, W) map at a time, as the stream step used to call it."""
    c, h, w = z.shape
    lo, hi = scale
    area = rng.uniform(lo, hi)
    side = np.sqrt(area)
    crop_h, crop_w = side * h, side * w
    top = rng.uniform(0.0, (h - 1) - (crop_h - 1))
    left = rng.uniform(0.0, (w - 1) - (crop_w - 1))
    rows = top + np.arange(h) * (crop_h - 1) / (h - 1)
    cols = left + np.arange(w) * (crop_w - 1) / (w - 1)
    r0 = np.clip(np.floor(rows).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(cols).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0).astype(np.float32)
    fc = (cols - c0).astype(np.float32)
    top_rows = z[:, r0][:, :, c0] * (1 - fc) + z[:, r0][:, :, c1] * fc
    bot_rows = z[:, r1][:, :, c0] * (1 - fc) + z[:, r1][:, :, c1] * fc
    out = top_rows * (1 - fr[:, None]) + bot_rows * fr[:, None]
    return out.astype(z.dtype)


@pytest.mark.parametrize(
    "shape",
    [(9, 16, 8, 8), (9, 32, 4, 4), (9, 64, 2, 2), (4, 16, 4, 4), (5, 2, 9, 3), (1, 1, 2, 2),
     (9, 16, 4, 4), (9, 32, 2, 2)],
)
@pytest.mark.parametrize("scale", [(0.64, 1.0), (1.0, 1.0), (0.1, 0.5), (0.3, 0.9)])
def test_batched_crop_matches_per_map_loop(shape, scale):
    # the loop draws each window with three scalar rng.uniform calls; the
    # kernel takes all of them from one rng.random((m, 3))
    z = np.random.default_rng(sum(shape)).normal(size=shape).astype(np.float32)
    for seed in (11, 12, 13):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.stack([_per_map_crop(f, scale, ref_rng) for f in z])
        got = feature_random_resized_crop(z, scale, rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


# ----------------------------------------------------------------- loaders


def _whole_set_noise(clean, noise, sample_rng):
    """The synthetic noise as one whole-set draw, float32 cast, add and clip."""
    if noise > 0:
        jitter = sample_rng.normal(0.0, noise, size=clean.shape).astype(np.float32)
        return np.clip(clean + jitter, 0.0, 1.0)
    return clean.copy()


def _sample_rng_spy(monkeypatch):
    """Record every generator numpy's default_rng makes, by its seed argument."""
    made, make = {}, np.random.default_rng

    def spy(seed=None):
        made[seed] = rng = make(seed)
        return rng

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


_BLOCK = datasets._NOISE_BLOCK_ROWS


@pytest.mark.parametrize("classes,per_class,shape,seed,noise,stream", [
    (10, 500, (3, 16, 16), 0, 0.25, 0),  # the big-memory train set
    (10, 20, (3, 16, 16), 3, 0.25, 1),
    (4, 37, (1, 8, 8), 1, 0.5, 0),
    (5, 13, (3, 16, 16), 0, 0.0, 0),
    (3, 301, (3, 32, 32), 7, 0.25, 0),
    (2, _BLOCK // 2 + 1, (2, 4, 4), 5, 0.1, 2),  # one row past a block
    (1, 1, (1, 1, 1), 0, 0.25, 0),
])
def test_gen_synthetic_matches_whole_set_noise(classes, per_class, shape, seed, noise, stream,
                                              monkeypatch):
    clean, clean_labels = gen_synthetic(classes, per_class, shape, seed=seed, noise=0.0)
    ref_rng = np.random.default_rng((seed, 1 + stream))
    ref = _whole_set_noise(clean, noise, ref_rng)
    made = _sample_rng_spy(monkeypatch)
    images, labels = gen_synthetic(classes, per_class, shape, seed=seed, noise=noise,
                                   sample_stream=stream)
    assert images.dtype == ref.dtype and images.tobytes() == ref.tobytes()
    assert np.array_equal(labels, clean_labels)
    assert made[(seed, 1 + stream)].random() == ref_rng.random()


def _idx_u1_oracle(images_path):
    raw = datasets._read_idx(images_path, (3, 4))
    raw = raw[:, None] if raw.ndim == 3 else raw
    return raw.astype(np.float32) / 255.0


def _cifar_oracle(path):
    records = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8).reshape(-1, 3073)
    return records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0


def _u1_idx_pair(tmp_path, dims, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.permutation(np.resize(np.arange(256, dtype=np.uint8), dims))
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(idx_bytes(0x08, dims, pixels.tobytes()))
    labels.write_bytes(idx_bytes(0x08, dims[:1], bytes(i % 10 for i in range(dims[0]))))
    return str(images), str(labels)


def _cifar_file(tmp_path, n, seed=0):
    records = np.random.default_rng(seed).integers(0, 256, size=(n, 3073), dtype=np.uint8)
    records[:, 0] %= 10
    records[0, 1:257] = np.arange(256)  # every byte value
    path = tmp_path / "data.bin"
    path.write_bytes(records.tobytes())
    return str(path)


@pytest.mark.parametrize("dims", [(7, 5, 3), (300, 1, 16, 16), (2, 3, 16, 16)])
def test_load_idx_u1_matches_divide(tmp_path, dims):
    images, labels = _u1_idx_pair(tmp_path, dims)
    x, _ = load_idx(images, labels)
    ref = _idx_u1_oracle(images)
    assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 5])
def test_load_cifar_bin_matches_divide(tmp_path, n):
    path = _cifar_file(tmp_path, n)
    x, _ = load_cifar_bin(path)
    ref = _cifar_oracle(path)
    assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes()


def _traced_peak(fn):
    """fn's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("loader", ["synthetic", "idx-u1", "cifar-bin"])
def test_loader_peak_is_the_output_plus_the_file(tmp_path, loader):
    # the whole-set noise draw alone is twice the synthetic output, in float64
    if loader == "synthetic":
        call, file_bytes = (lambda: gen_synthetic(10, 500, (3, 16, 16))), 0
    elif loader == "idx-u1":
        images, labels = _u1_idx_pair(tmp_path, (5000, 3, 16, 16))
        call = lambda: load_idx(images, labels)  # noqa: E731
        file_bytes = os.path.getsize(images) + os.path.getsize(labels)
    else:
        path = _cifar_file(tmp_path, 2000)
        call, file_bytes = (lambda: load_cifar_bin(path)), os.path.getsize(path)
    (x, y), peak = _traced_peak(call)
    bound = 1.5 * (x.nbytes + y.nbytes + file_bytes)
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB > bound {bound / 1e6:.1f} MB"


# ------------------------------------------------------------- BLAS threads


_RUN = """
import sys
from latentreplay.cli import main
cfg, ckpt, out = sys.argv[1:4]
assert main(["init", "--config", cfg, "--out", ckpt]) == 0
assert main(["stream", "--checkpoint", ckpt, "--out", out]) == 0
"""


def test_run_is_identical_under_one_and_two_blas_threads(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG)
    src = str(Path(latentreplay.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        ckpt, out = tmp_path / f"t{threads}.ckpt", tmp_path / f"t{threads}"
        subprocess.run(
            [sys.executable, "-c", _RUN, str(cfg), str(ckpt), str(out)],
            env=env, check=True, capture_output=True, timeout=600,
        )
        outputs.append((ckpt.read_bytes(), (out / "metrics.jsonl").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


# ------------------------------------------------------------- BLAS kernels


_CORENAME = """
import ctypes, numpy
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
getters = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")
for lib in map(ctypes.CDLL, libs):
    for fn in (getattr(lib, name, None) for name in getters):
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            print(fn().decode())
            raise SystemExit
"""

# the CPU flags (as /proc/cpuinfo names them) each forced OpenBLAS kernel executes
_CORE_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}, "Prescott": {"pni"}}


def _blas_env(coretype):
    """This environment with one BLAS thread, OpenBLAS `coretype` (None: its own choice) and
    the package source on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(latentreplay.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


def _tiny_run_under(coretype, tmp_path):
    """(OpenBLAS core name, checkpoint bytes, metrics.jsonl bytes) of the tiny config."""
    env, tag = _blas_env(coretype), coretype or "default"
    name = subprocess.run([sys.executable, "-c", _CORENAME], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip()
    cfg, ckpt, out = tmp_path / "cfg.txt", tmp_path / f"{tag}.ckpt", tmp_path / tag
    cfg.write_text(TINY_CONFIG)
    subprocess.run([sys.executable, "-c", _RUN, str(cfg), str(ckpt), str(out)],
                   env=env, check=True, capture_output=True, timeout=600)
    return name, ckpt.read_bytes(), (out / "metrics.jsonl").read_bytes()


@pytest.fixture(scope="module")
def default_kernel_run(tmp_path_factory):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS core types are x86-64 kernels; this is {platform.machine()}")
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    build = blas.get("openblas configuration", "")
    if "DYNAMIC_ARCH" not in build:
        pytest.skip(f"numpy's BLAS is not OpenBLAS DYNAMIC_ARCH: {blas.get('name')} {build}")
    run = _tiny_run_under(None, tmp_path_factory.mktemp("default-kernel"))
    if not run[0]:
        pytest.skip("the OpenBLAS library does not report its core name")
    return run


@pytest.mark.parametrize("coretype", sorted(_CORE_FLAGS))
def test_run_is_identical_under_every_openblas_kernel(coretype, default_kernel_run, tmp_path):
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError as err:
        pytest.skip(f"cannot read the CPU flags: {err}")
    flags = {f for line in cpuinfo if line.startswith("flags") for f in line.split(":", 1)[1].split()}
    missing = _CORE_FLAGS[coretype] - flags
    if missing:
        pytest.skip(f"this CPU lacks {sorted(missing)}, which the {coretype} kernel executes")
    default_name, default_ckpt, default_metrics = default_kernel_run
    name, ckpt, metrics = _tiny_run_under(coretype, tmp_path)
    if name == default_name:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} runs the default kernel {name}")
    # the checkpoint holds every weight's bits; metrics.jsonl can stay equal when they move
    assert ckpt == default_ckpt, f"checkpoint bytes differ under {name} from {default_name}"
    assert metrics == default_metrics, f"metrics.jsonl differs under {name} from {default_name}"
