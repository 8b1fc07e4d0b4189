"""Channel compressor: shapes, frozen contract, loss terms, training."""

import hashlib

import numpy as np
import pytest

from latentreplay.autoencoder import (
    CompressorParams,
    build_compressor,
    compress,
    compression_loss,
    decompress,
    train_compressor,
)
from latentreplay.config import parse_config
from latentreplay.errors import ConfigError, ContractError, DataError
from latentreplay.network import NetConfig, build_model, train_offline
from latentreplay.nn import Tensor, training


def param_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def identity_compressor(channels: int) -> CompressorParams:
    """C' = C with identity 1x1 convs; relu is transparent for z >= 0."""
    eye = np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1)
    params = {
        "enc.weight": Tensor(eye.copy(), requires_grad=True),
        "enc.bias": Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True),
        "dec.weight": Tensor(eye.copy(), requires_grad=True),
        "dec.bias": Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True),
    }
    return CompressorParams(params)


def small_model(seed=0, replay_block=1):
    cfg = NetConfig(
        num_blocks=2, channels=(8, 16), in_shape=(1, 16, 16), num_classes=4, replay_block=replay_block
    )
    return build_model(cfg, seed)


class TestShapes:
    def test_encode_reduces_channels_only(self):
        comp = build_compressor(64, 8, seed=0)
        u = compress(comp, Tensor(np.zeros((2, 64, 7, 7), dtype=np.float32)))
        assert u.shape == (2, 8, 7, 7)

    def test_decode_restores_channels(self):
        comp = build_compressor(64, 8, seed=0)
        zhat = decompress(comp, Tensor(np.zeros((2, 8, 7, 7), dtype=np.float32)))
        assert zhat.shape == (2, 64, 7, 7)

    def test_zero_input_zero_bias_gives_zero(self):
        comp = build_compressor(16, 4, seed=1)
        u = compress(comp, Tensor(np.zeros((1, 16, 5, 5), dtype=np.float32)))
        assert np.array_equal(u.data, np.zeros_like(u.data))

    def test_encode_pure(self):
        comp = build_compressor(16, 4, seed=1)
        z = Tensor(np.random.default_rng(0).normal(size=(2, 16, 5, 5)).astype(np.float32))
        assert np.array_equal(compress(comp, z).data, compress(comp, z).data)

    def test_non_compressing_width_rejected(self):
        # the default replay block (net.replay_block = 2) has 16 channels
        with pytest.raises(ConfigError, match=r"^acae\.latent_channels = 16 \(line 1\) must be "
                                              r"below the replay-block channel count 16"):
            parse_config("acae.latent_channels = 16\n")
        with pytest.raises(ConfigError, match=r"^acae\.latent_channels = 0 \(line 1\) must be"):
            parse_config("acae.latent_channels = 0\n")


class TestLoss:
    def test_identity_compressor_reduces_to_ce_only(self):
        model = small_model()
        comp = identity_compressor(8)
        rng = np.random.default_rng(0)
        z = model.forward_backbone(Tensor(rng.normal(size=(4, 1, 16, 16)).astype(np.float32)))
        labels = np.array([0, 1, 2, 3])
        loss, zhat = compression_loss(comp, model, z, labels, use_ce=True)
        assert np.allclose(zhat.data, z.data, atol=1e-6)
        from latentreplay.nn import softmax_cross_entropy

        ce_only = softmax_cross_entropy(model.forward_head(z), labels)
        assert abs(float(loss.data) - float(ce_only.data)) < 1e-5

    def test_use_ce_off_is_plain_mse(self):
        model = small_model()
        comp = build_compressor(8, 2, seed=3)
        rng = np.random.default_rng(1)
        z = model.forward_backbone(Tensor(rng.normal(size=(3, 1, 16, 16)).astype(np.float32)))
        loss, zhat = compression_loss(comp, model, z, np.array([0, 1, 2]), use_ce=False)
        diff = zhat.data.astype(np.float64) - z.data.astype(np.float64)
        assert abs(float(loss.data) - (diff * diff).mean()) < 1e-9

    def test_use_ce_off_ignores_labels(self):
        model = small_model()
        comp = build_compressor(8, 2, seed=3)
        rng = np.random.default_rng(1)
        z = model.forward_backbone(Tensor(rng.normal(size=(3, 1, 16, 16)).astype(np.float32)))
        a, _ = compression_loss(comp, model, z, np.array([0, 1, 2]), use_ce=False)
        b, _ = compression_loss(comp, model, z, np.array([3, 3, 3]), use_ce=False)
        assert float(a.data) == float(b.data)

    def test_unfrozen_head_rejected(self):
        model = small_model()
        comp = build_compressor(8, 2, seed=0)
        z = Tensor(np.zeros((1, 8, 8, 8), dtype=np.float32))
        with training(model.head_params()), pytest.raises(ContractError):
            compression_loss(comp, model, z, np.array([0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_combined_loss_gradient_vs_finite_differences(self, seed):
        from latentreplay.gradsuite import compression_loss_check

        result = compression_loss_check(seed)
        assert result.passed
        assert result.checked > 0


class TestTraining:
    def _features(self, model, n=96, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 1, 16, 16)).astype(np.float32)
        y = rng.integers(0, 4, size=n)
        z = model.forward_backbone(Tensor(x)).data
        return z, y

    def test_frozen_halves_unchanged(self):
        model = small_model()
        z, y = self._features(model)
        before = param_digest(model.params)
        comp = build_compressor(8, 2, seed=0)
        train_compressor(comp, model, z, y, epochs=2, lr=1e-3, rng=np.random.default_rng(0))
        assert param_digest(model.params) == before

    def test_reconstruction_mse_not_worse_than_init(self):
        model = small_model()
        z, y = self._features(model)
        comp = build_compressor(8, 2, seed=0)
        history = train_compressor(comp, model, z, y, epochs=5, lr=1e-3, rng=np.random.default_rng(0))
        assert len(history) == 6
        assert history[-1] <= history[0]

    def test_empty_features_rejected(self):
        model = small_model()
        comp = build_compressor(8, 2, seed=0)
        with pytest.raises(DataError):
            train_compressor(
                comp, model,
                np.zeros((0, 8, 8, 8), dtype=np.float32), np.zeros(0, dtype=np.int64),
                epochs=1, lr=1e-3, rng=np.random.default_rng(0),
            )

    def test_fixed_seed_bit_identical(self):
        model = small_model()
        z, y = self._features(model)
        digests = []
        for _ in range(2):
            comp = build_compressor(8, 2, seed=5)
            train_compressor(comp, model, z, y, epochs=2, lr=1e-3, rng=np.random.default_rng(7))
            digests.append(param_digest(comp.params))
        assert digests[0] == digests[1]

    def test_ce_term_helps_post_compression_accuracy(self):
        """With-CE beats no-CE on frozen-head accuracy for most seeds."""
        wins = 0
        for seed in range(5):
            cfg = NetConfig(
                num_blocks=2, channels=(8, 16), in_shape=(1, 16, 16), num_classes=4, replay_block=1
            )
            model = build_model(cfg, seed)
            rng = np.random.default_rng(seed)
            centers = rng.normal(0.0, 1.0, size=(4, 1, 16, 16)).astype(np.float32)
            x = np.concatenate(
                [c + rng.normal(0, 0.6, size=(40, 1, 16, 16)).astype(np.float32) for c in centers]
            )
            y = np.repeat(np.arange(4), 40)
            train_offline(model, x, y, epochs=3, lr=0.05, augment=False, rng=np.random.default_rng(seed))
            z = model.forward_backbone(Tensor(x)).data

            accs = {}
            for use_ce in (True, False):
                comp = build_compressor(8, 2, seed=seed + 100)
                train_compressor(
                    comp, model, z, y, epochs=6, lr=1e-3, use_ce=use_ce,
                    rng=np.random.default_rng(seed + 200),
                )
                zhat = decompress(comp, compress(comp, Tensor(z)))
                pred = model.forward_head(zhat).data.argmax(axis=1)
                accs[use_ce] = (pred == y).mean()
            if accs[True] >= accs[False]:
                wins += 1
        assert wins >= 3
