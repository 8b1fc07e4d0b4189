"""Split-CNN construction, composition, and step-1 training."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from latentreplay.errors import ConfigError, DataError
from latentreplay.network import NetConfig, SplitModel, build_model, train_offline
from latentreplay.nn import Tensor, no_grad, softmax_cross_entropy, training


def make_blobs(rng, n_per_class, centers, dim_shape, spread=0.3):
    """Gaussian blobs around per-class center values, shaped as images."""
    xs, ys = [], []
    for label, center in enumerate(centers):
        x = rng.normal(center, spread, size=(n_per_class, *dim_shape)).astype(np.float32)
        xs.append(x)
        ys.append(np.full(n_per_class, label, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


class TestNetConfig:
    def test_defaults_valid(self):
        NetConfig().validate()

    def test_backbone_shape_arithmetic(self):
        cfg = NetConfig(num_blocks=3, channels=(16, 32, 64), in_shape=(3, 32, 32), replay_block=2)
        assert cfg.feature_channels == 32
        assert cfg.feature_hw == (8, 8)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError):
            NetConfig(num_blocks=3, channels=(4, 4, 4), in_shape=(3, 20, 20)).validate()

    def test_replay_block_out_of_range(self):
        with pytest.raises(ConfigError):
            NetConfig(replay_block=4).validate()
        with pytest.raises(ConfigError):
            NetConfig(replay_block=0).validate()

    def test_channel_count_mismatch(self):
        with pytest.raises(ConfigError):
            NetConfig(num_blocks=2, channels=(16, 32, 64), in_shape=(3, 32, 32)).validate()

    @pytest.mark.parametrize("shape", [dict(channels=(0, 32, 64)), dict(in_shape=(3, 0, 0)),
                                       dict(in_shape=(0, 32, 32))])
    def test_entry_below_one_rejected(self, shape):
        with pytest.raises(ConfigError, match="every entry >= 1"):
            NetConfig(**shape).validate()


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(NetConfig(), seed=5)
        b = build_model(NetConfig(), seed=5)
        assert set(a.params) == set(b.params)
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)

    def test_different_seeds_differ(self):
        a = build_model(NetConfig(), seed=5)
        b = build_model(NetConfig(), seed=6)
        assert not np.array_equal(a.params["block1.conv1.weight"].data, b.params["block1.conv1.weight"].data)

    def test_split_at_last_block_leaves_classifier_only_head(self):
        cfg = NetConfig(num_blocks=3, channels=(16, 32, 64), in_shape=(3, 32, 32), replay_block=3)
        model = build_model(cfg, seed=0)
        assert sorted(model.head_names()) == ["classifier.bias", "classifier.weight"]

    def test_partition_covers_every_param_exactly_once(self):
        for n in (1, 2, 3):
            cfg = NetConfig(replay_block=n)
            model = build_model(cfg, seed=1)
            backbone, head = set(model.backbone_names()), set(model.head_names())
            assert backbone | head == set(model.params)
            assert not (backbone & head)


class TestForward:
    def test_backbone_output_shape(self):
        cfg = NetConfig(num_blocks=3, channels=(16, 32, 64), in_shape=(3, 32, 32), replay_block=2)
        model = build_model(cfg, seed=0)
        z = model.forward_backbone(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert z.shape == (2, 32, 8, 8)

    def test_backbone_shape_at_block1(self):
        cfg = NetConfig(num_blocks=3, channels=(16, 32, 64), in_shape=(3, 32, 32), replay_block=1)
        model = build_model(cfg, seed=0)
        z = model.forward_backbone(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert z.shape == (1, 16, 16, 16)

    def test_zero_input_zero_biases_gives_zero_features(self):
        model = build_model(NetConfig(), seed=0)
        z = model.forward_backbone(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert np.array_equal(z.data, np.zeros_like(z.data))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_split_composition_matches_unsplit(self, n):
        # oracle: the same parameters run through an unsplit forward pass
        cfg = NetConfig(replay_block=n)
        model = build_model(cfg, seed=7)
        unsplit = SplitModel(NetConfig(replay_block=cfg.num_blocks), model.params)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        with no_grad():
            composed = model.forward_head(model.forward_backbone(Tensor(x)))
            whole = unsplit.forward_head(unsplit.forward_backbone(Tensor(x)))
        assert np.array_equal(composed.data, whole.data)

    def test_logit_width_is_num_classes(self):
        model = build_model(NetConfig(num_classes=7), seed=0)
        with no_grad():
            out = model.forward(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.shape == (2, 7)


class TestTrainOffline:
    def test_separable_blobs_reach_high_accuracy(self):
        cfg = NetConfig(num_blocks=2, channels=(8, 8), in_shape=(1, 8, 8), num_classes=2, replay_block=1)
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        x, y = make_blobs(rng, 40, centers=(-1.0, 1.0), dim_shape=(1, 8, 8))
        train_offline(model, x, y, epochs=5, lr=0.05, rng=np.random.default_rng(1), augment=False)
        with no_grad():
            pred = model.forward(Tensor(x)).data.argmax(axis=1)
        assert (pred == y).mean() >= 0.95

    def test_single_sample_memorized(self):
        cfg = NetConfig(num_blocks=2, channels=(4, 4), in_shape=(1, 8, 8), num_classes=2, replay_block=1)
        model = build_model(cfg, seed=2)
        x = np.random.default_rng(0).normal(size=(1, 1, 8, 8)).astype(np.float32)
        y = np.array([1], dtype=np.int64)
        losses = train_offline(
            model, x, y, epochs=50, lr=0.1, batch_size=1, augment=False, rng=np.random.default_rng(0)
        )
        assert losses[-1] < 1e-3

    def test_fixed_seed_bit_identical_parameters(self):
        cfg = NetConfig(num_blocks=2, channels=(4, 4), in_shape=(1, 8, 8), num_classes=2, replay_block=1)
        rng = np.random.default_rng(4)
        x, y = make_blobs(rng, 10, centers=(-1.0, 1.0), dim_shape=(1, 8, 8))
        finals = []
        for _ in range(2):
            model = build_model(cfg, seed=3)
            train_offline(model, x, y, epochs=2, lr=0.05, rng=np.random.default_rng(9))
            finals.append({k: p.data.copy() for k, p in model.params.items()})
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k])

    def test_empty_dataset_rejected(self):
        model = build_model(NetConfig(), seed=0)
        with pytest.raises(DataError):
            train_offline(
                model,
                np.zeros((0, 3, 32, 32), dtype=np.float32),
                np.zeros(0, dtype=np.int64),
                epochs=1,
                lr=0.1,
                rng=np.random.default_rng(0),
            )

    def test_out_of_range_label_rejected(self):
        model = build_model(NetConfig(num_classes=2), seed=0)
        with pytest.raises(DataError):
            train_offline(
                model,
                np.zeros((2, 3, 32, 32), dtype=np.float32),
                np.array([0, 2], dtype=np.int64),
                epochs=1,
                lr=0.1,
                rng=np.random.default_rng(0),
            )

    def test_trainable_subset_leaves_rest_untouched(self):
        cfg = NetConfig(num_blocks=2, channels=(4, 4), in_shape=(1, 8, 8), num_classes=2, replay_block=1)
        model = build_model(cfg, seed=1)
        frozen_before = {k: p.data.copy() for k, p in model.backbone_params().items()}
        rng = np.random.default_rng(4)
        x, y = make_blobs(rng, 10, centers=(-1.0, 1.0), dim_shape=(1, 8, 8))
        train_offline(
            model, x, y, epochs=1, lr=0.05, rng=np.random.default_rng(0),
            trainable=model.head_names(), augment=False,
        )
        for k, before in frozen_before.items():
            assert np.array_equal(model.params[k].data, before)


class TestTapeLifetime:
    """backward frees the tape it walks, so no loop carries one batch's tape into the next."""

    CFG = NetConfig(in_shape=(3, 16, 16))

    def batch(self, n, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, *self.CFG.in_shape), dtype=np.float32)
        return x, rng.integers(0, self.CFG.num_classes, n)

    def test_backward_leaves_no_patch_matrix_reachable(self):
        model = build_model(self.CFG, seed=0)
        x, y = self.batch(16)
        with training(model.params):
            logits = model.forward(Tensor(x))
            loss = softmax_cross_entropy(logits, y)
            held, stack, seen = [], [loss], set()
            while stack:  # the float64 arrays the tape's closures hold: conv patch matrices
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
                    cells = node._backward_fn.__closure__ if node._backward_fn else None
                    held += [weakref.ref(c.cell_contents) for c in cells or ()
                             if isinstance(c.cell_contents, np.ndarray)
                             and c.cell_contents.dtype == np.float64 and c.cell_contents.ndim == 2]
            assert len(held) >= self.CFG.num_blocks
            loss.backward()
        gc.collect()
        assert [ref for ref in held if ref() is not None] == []
        assert all(p.grad is not None for p in model.params.values())

    def test_two_batches_peak_near_one_batch_tape(self):
        # at 1.3x the tape one forward records, the second batch's forward cannot
        # start while the first batch's tape is alive (2.2x when it was)
        x, y = self.batch(32)
        model = build_model(self.CFG, seed=0)
        tracemalloc.start()
        try:
            with training(model.params):
                loss = softmax_cross_entropy(model.forward(Tensor(x[:16])), y[:16])
                tape = tracemalloc.get_traced_memory()[0]
            del loss
            model = build_model(self.CFG, seed=0)
            tracemalloc.reset_peak()
            train_offline(model, x, y, epochs=1, lr=0.01, batch_size=16, augment=False,
                          rng=np.random.default_rng(0))
            two = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert two <= 1.3 * tape, (tape, two)
