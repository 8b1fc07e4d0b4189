"""Layer forward/backward checks against independent oracles."""

import numpy as np
import pytest

from latentreplay.errors import DataError, ShapeError
from latentreplay.gradsuite import EPS, finite_diff_report
from latentreplay.nn import (
    Tensor,
    avgpool2,
    conv2d,
    global_avgpool,
    linear,
    mse,
    relu,
    softmax_cross_entropy,
    training,
)


def conv2d_reference(x, w, b, stride, pad):
    """Six-nested-loop cross-correlation, float64 throughout."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    xp[ni, ci, yi * stride + ky, xi * stride + kx]
                                    * w[oi, ci, ky, kx]
                                )
                    out[ni, oi, yi, xi] = acc + b[oi]
    return out


class TestConv2d:
    def test_scalar_multiply_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv2d(x, w, b, pad=0)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0, dtype=np.float32))

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(3, dtype=np.float32)), pad=1)
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("size,stride,pad", [(8, 1, 0), (8, 1, 1), (8, 1, 2), (9, 2, 0), (7, 2, 1)])
    def test_matches_naive_loop_oracle(self, seed, size, stride, pad):
        # conv2d is stride 1; a stride-s oracle output is its every s-th position
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, size, size)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), pad=pad).data[:, :, ::stride, ::stride]
        want = conv2d_reference(x, w, b, stride, pad)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        assert rel.max() <= 1e-5

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)), pad=1)

    def test_pad_is_keyword_only(self):
        # a call written for the old (stride, pad) signature fails instead of padding by 1
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        with pytest.raises(TypeError):
            conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)), 1, 1)

    def test_empty_output_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)))


class TestRelu:
    def test_basic(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32)))
        assert np.array_equal(out.data, np.array([0.0, 0.0, 2.0], dtype=np.float32))

    def test_all_negative_zero_gradient(self):
        x = Tensor(np.full((4,), -3.0, dtype=np.float32), requires_grad=True)
        out = relu(x)
        out.backward(np.ones(4, dtype=np.float32))
        assert np.array_equal(out.data, np.zeros(4, dtype=np.float32))
        assert np.array_equal(x.grad, np.zeros(4, dtype=np.float32))


class TestAvgPool:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.5, dtype=np.float32))
        assert np.allclose(avgpool2(x).data, 3.5)

    def test_patch_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        assert avgpool2(x).data.reshape(()) == np.float32(2.5)

    def test_odd_dims_raise(self):
        with pytest.raises(ShapeError):
            avgpool2(Tensor(np.zeros((1, 1, 3, 4), dtype=np.float32)))


class TestGlobalAvgPool:
    def test_constant_map(self):
        x = Tensor(np.full((2, 3, 5, 5), 1.25, dtype=np.float32))
        assert np.allclose(global_avgpool(x).data, 1.25)

    def test_single_position_identity(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3, 1, 1)
        out = global_avgpool(Tensor(x))
        assert np.array_equal(out.data, x.reshape(2, 3))


class TestLinear:
    def test_identity_weight(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        w = Tensor(np.eye(4, dtype=np.float32))
        out = linear(Tensor(x), w, Tensor(np.zeros(4, dtype=np.float32)))
        assert np.array_equal(out.data, x)

    def test_zero_weight_gives_bias(self):
        b = np.array([1.0, -2.0], dtype=np.float32)
        out = linear(
            Tensor(np.ones((3, 5), dtype=np.float32)),
            Tensor(np.zeros((2, 5), dtype=np.float32)),
            Tensor(b),
        )
        assert np.array_equal(out.data, np.tile(b, (3, 1)))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_triple_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        w = rng.normal(size=(4, 6)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        want = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                acc = 0.0
                for d in range(6):
                    acc += float(x[i, d]) * float(w[j, d])
                want[i, j] = acc + b[j]
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        assert rel.max() <= 1e-5

    def test_dim_mismatch_raises(self):
        with pytest.raises(ShapeError):
            linear(
                Tensor(np.zeros((2, 3), dtype=np.float32)),
                Tensor(np.zeros((4, 5), dtype=np.float32)),
                Tensor(np.zeros(4, dtype=np.float32)),
            )


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 10), dtype=np.float32)), np.zeros(4, dtype=np.int64))
        assert abs(float(loss.data) - np.log(10.0)) < 1e-6

    def test_confident_correct(self):
        logits = np.zeros((1, 5), dtype=np.float32)
        logits[0, 2] = 50.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert float(loss.data) < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)), np.array([0, 3]))


class TestTraining:
    def test_named_tensors_take_gradients_inside_the_block_only(self):
        w = Tensor(np.ones((2, 3), dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        x = Tensor(np.ones((1, 3), dtype=np.float32))
        with training({"w": w}):
            assert w.requires_grad and not b.requires_grad
            linear(x, w, b).backward(np.ones((1, 2), dtype=np.float32))
        assert not w.requires_grad
        assert np.array_equal(w.grad, np.ones((2, 3), dtype=np.float32)) and b.grad is None
        assert linear(x, w, b)._backward_fn is None  # constants again: no tape

    def test_flags_cleared_when_the_block_raises(self):
        ts = [Tensor(np.zeros(2, dtype=np.float32)) for _ in range(2)]
        with pytest.raises(DataError), training(ts):
            raise DataError("boom")
        assert not any(t.requires_grad for t in ts)


class TestFiniteDifferences:
    """Analytic gradients vs central differences of step EPS."""

    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=2).astype(np.float32), requires_grad=True)
        labels = rng.integers(0, 2, size=3)

        def f(x, w, b):
            loss = softmax_cross_entropy(linear(x, w, b), labels)
            return loss

        assert finite_diff_report("linear", seed, f, [x, w, b], EPS).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        labels = rng.integers(0, 3, size=2)

        def f(x, w, b):
            loss = softmax_cross_entropy(global_avgpool(conv2d(x, w, b, pad=1)), labels)
            return loss

        assert finite_diff_report("conv2d", seed, f, [x, w, b], EPS).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_relu_away_from_kink(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(4, 6)).astype(np.float32)
        data[np.abs(data) < 0.1] = 0.2  # keep inputs off the kink
        x = Tensor(data, requires_grad=True)
        labels = rng.integers(0, 6, size=4)

        def f(x):
            loss = softmax_cross_entropy(relu(x), labels)
            return loss

        assert finite_diff_report("relu", seed, f, [x], EPS).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_pools(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        labels = rng.integers(0, 3, size=2)

        def f(x):
            loss = softmax_cross_entropy(global_avgpool(avgpool2(x)), labels)
            return loss

        assert finite_diff_report("pools", seed, f, [x], EPS).passed

    @pytest.mark.parametrize("seed", range(3))
    def test_mse(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        assert finite_diff_report("mse", seed, lambda a: mse(a, b), [a], EPS).passed


class TestPurity:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        a = conv2d(Tensor(x), Tensor(w), Tensor(b), pad=1).data
        bb = conv2d(Tensor(x), Tensor(w), Tensor(b), pad=1).data
        assert np.array_equal(a, bb)
