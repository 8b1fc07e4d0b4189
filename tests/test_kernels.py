"""Hot-path kernels against the straightforward code they replaced.

Each reference below is the earlier implementation, kept here only as an
oracle. The kernels must match it bit for bit (and, for the crop, leave
the rng in the same state), because the whole run's output depends on
them. The last test checks that a run does not depend on the BLAS
thread count, now that the conv weight gradient goes through BLAS.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentreplay
from latentreplay import quantizer
from latentreplay.engine import feature_random_resized_crop
from latentreplay.nn import Tensor, conv2d
from latentreplay.nn.ops import _im2col
from latentreplay.quantizer import Codebooks, kmeans_fit, pq_decode_batch, pq_encode_batch
from test_acceptance import TINY_CONFIG


# ------------------------------------------------------------ conv weight grad


def _einsum_weight_grad(x, w, g, pad):
    """Weight gradient as an einsum over np.pad-ded im2col columns."""
    o, k = w.shape[0], w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, k, 1).astype(np.float64)
    go = g.astype(np.float64).reshape(g.shape[0], o, -1)
    return np.einsum("nol,nkl->ok", go, cols).reshape(w.shape).astype(np.float32)


def _workload_conv_shapes():
    """(input, weight) shapes of every conv whose weight gradient a shipped workload takes."""
    shapes = set()
    # offline training of the default (3, 16, 16) net, full and last batch
    for n in (16, 8):
        for c_in, c_out, hw in (
            (3, 8, 16), (8, 8, 16), (8, 16, 8), (16, 16, 8), (16, 32, 4), (32, 32, 4)
        ):
            shapes.add(((n, c_in, hw, hw), (c_out, c_in, 3, 3)))
    # compressor training at the split after block 2, 1 and 3
    for n in (32, 8):
        for c, latent, hw in ((16, 8, 4), (8, 4, 8), (32, 8, 2)):
            shapes.add(((n, c, hw, hw), (latent, c, 1, 1)))
            shapes.add(((n, latent, hw, hw), (c, latent, 1, 1)))
    # online head steps on 8 rehearsed maps plus the new one
    for c_in, c_out, hw in ((8, 16, 8), (16, 16, 8), (16, 32, 4), (32, 32, 4)):
        shapes.add(((9, c_in, hw, hw), (c_out, c_in, 3, 3)))
    return sorted(shapes)


@pytest.mark.parametrize("x_shape,w_shape", _workload_conv_shapes())
def test_conv_weight_grad_matches_einsum(x_shape, w_shape):
    rng = np.random.default_rng(sum(x_shape) * 31 + sum(w_shape))
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(0.0, 0.3, size=w_shape).astype(np.float32)
    pad = w_shape[2] // 2
    weight = Tensor(w, requires_grad=True)
    bias = Tensor(np.zeros(w_shape[0], np.float32), requires_grad=True)
    out = conv2d(Tensor(x), weight, bias, 1, pad)
    g = rng.normal(size=out.shape).astype(np.float32)
    out.backward(g)
    assert weight.grad.dtype == np.float32
    assert weight.grad.tobytes() == _einsum_weight_grad(x, w, g, pad).tobytes()


def test_padded_conv_matches_np_pad():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 6, 5)).astype(np.float32)
    w = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
    b = np.zeros(2, np.float32)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 2).data
    xp = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)))
    want = conv2d(Tensor(xp), Tensor(w), Tensor(b), 1, 0).data
    assert got.tobytes() == want.tobytes()


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
    got = quantizer._assign(vectors, centroids)
    assert np.array_equal(got, _broadcast_assign(vectors, centroids))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_kmeans_fit_matches_masked_loop(d, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(1200, d))
    vectors[:300] = np.round(vectors[:300], 1)  # ties
    want = _masked_kmeans_fit(vectors, 64, 25, np.random.default_rng(seed), [])
    got = kmeans_fit(vectors, 64, 25, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


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
    return Codebooks(s, k, subdim, cents), codes.astype(np.uint8).reshape(n, s, h, w)


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
    [(9, 16, 8, 8), (9, 32, 4, 4), (9, 64, 2, 2), (4, 16, 4, 4), (5, 2, 9, 3), (1, 1, 2, 2)],
)
@pytest.mark.parametrize("scale", [(0.64, 1.0), (1.0, 1.0), (0.1, 0.5)])
def test_batched_crop_matches_per_map_loop(shape, scale):
    z = np.random.default_rng(sum(shape)).normal(size=shape).astype(np.float32)
    ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    want = np.stack([_per_map_crop(f, scale, ref_rng) for f in z])
    got = feature_random_resized_crop(z, scale, rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
