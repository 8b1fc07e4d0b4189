"""Engine contracts: stream shape, frozen parameters, online-step math."""

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import latentreplay.engine as engine
from latentreplay.checkpoint import load_checkpoint, save_checkpoint
from latentreplay.autoencoder import compress, decompress
from latentreplay.config import RunConfig
from latentreplay.datasets import load_dataset
from latentreplay.engine import (
    EngineState,
    Task,
    build_task_stream,
    encode_sample,
    evaluate,
    feature_random_resized_crop,
    fit_compressor,
    forward_batched,
    frozen_backbone_study,
    frozen_checksums,
    initialize,
    online_step,
    run_stream,
    seen_class_record,
    task_classes,
    _decode_codes,
)
from latentreplay.errors import ConfigError, ContractError, DataError
from latentreplay.metrics import MetricRecord, label_ranks
from latentreplay.network import build_model, train_offline
from latentreplay.nn import Tensor, no_grad, softmax_cross_entropy, training, zero_grads
from latentreplay.quantizer import pq_decode_batch, pq_encode_batch


def micro_config(**overrides):
    base = dict(
        dataset_per_class=40,
        dataset_test_per_class=10,
        offline_epochs=10,
        acae_epochs=30,
        pq_k=16,
        reservoir_capacity=80,
        online_rehearsal_n=4,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def micro_run():
    cfg = micro_config()
    ds = load_dataset(cfg)
    stream = build_task_stream(ds, cfg)
    state = initialize(stream.tasks[0], cfg)
    return cfg, ds, stream, state


class TestTaskStream:
    def test_split_covers_every_class_once(self):
        cfg = micro_config()
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        all_classes = [c for t in stream.tasks for c in t.classes]
        assert sorted(all_classes) == list(range(10))
        assert [t.task_id for t in stream.tasks] == [1, 2, 3, 4, 5]
        assert len(stream.tasks[0].classes) == 2

    def test_sample_counts_match_split(self):
        cfg = micro_config()
        ds = load_dataset(cfg)
        for task in build_task_stream(ds, cfg).tasks:
            assert len(task.labels) == 40 * len(task.classes)
            assert set(np.unique(task.labels)) == set(task.classes)

    def test_class_order_seed_changes_order(self):
        cfg_a = micro_config(class_order_seed=0)
        cfg_b = micro_config(class_order_seed=1)
        ds = load_dataset(cfg_a)
        order_a = [t.classes for t in build_task_stream(ds, cfg_a).tasks]
        order_b = [t.classes for t in build_task_stream(ds, cfg_b).tasks]
        assert order_a != order_b
        assert order_a == [t.classes for t in build_task_stream(ds, cfg_a).tasks]

    def test_out_of_order_ids_rejected(self, micro_run):
        # a hand-built task 3 straight after task 1: refused before any step
        _, ds, stream, state = micro_run
        state, t3 = copy.deepcopy(state), stream.tasks[2]
        skipped = Task(3, t3.classes, ds, t3.rows[:1])
        with pytest.raises(DataError, match="task 3 arrived after task 1"):
            run_stream(state, [skipped], ds)
        assert state.current_task == 1 and state.global_step == 0

    @pytest.mark.parametrize("overrides", [
        {}, dict(seed=3, class_order_seed=5, split_steps=2),
        dict(dataset_classes=4096, dataset_per_class=3, dataset_test_per_class=1,
             split_steps=2047, net_in_shape=(1, 8, 8)),  # 2048 tasks of 2 classes
    ])
    def test_tasks_gather_the_shuffled_rows_of_their_classes(self, overrides):
        cfg = micro_config(**overrides)
        ds = load_dataset(cfg)
        for task in build_task_stream(ds, cfg).tasks:
            rows = np.flatnonzero(np.isin(ds.train_labels, task.classes))
            rows = rows[np.random.default_rng((cfg.seed, task.task_id)).permutation(len(rows))]
            assert np.array_equal(task.rows, rows)
            images, want = task.images, ds.train_images[rows]
            assert (len(images), images.shape, images.dtype) == (len(want), want.shape, want.dtype)
            reads = [(images[:], want), (task.labels, ds.train_labels[rows])]
            reads += [(images[key], want[key]) for key in (
                0, -1, np.int64(len(rows) // 2), slice(3, 9), slice(None, None, -3),
                np.array([5, 0, 5, len(rows) - 1]), np.array([], dtype=np.intp),
            )]
            for got, ref in reads:
                assert type(got) is np.ndarray
                assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())

    def test_reading_ids_classes_or_slicing_gathers_nothing(self):
        cfg = micro_config()
        ds = load_dataset(cfg)
        reads = {"images": 0, "labels": 0}

        def counted(name):
            class Counted(np.ndarray):
                def __getitem__(self, key):
                    reads[name] += 1
                    return np.asarray(super().__getitem__(key))

            return getattr(ds, f"train_{name}").view(Counted)

        stream = build_task_stream(replace(ds, train_images=counted("images")), cfg)
        assert reads["images"] == 0
        stream = build_task_stream(replace(ds, train_labels=counted("labels")), cfg)
        reads["labels"] = 0  # building maps each label to its task; only later reads count
        assert [t.task_id for t in stream.tasks[1:]] == [2, 3, 4, 5]
        assert [c for t in stream.tasks for c in t.classes]
        assert reads == {"images": 0, "labels": 0}
        task = stream.tasks[1]
        assert task.labels is task.labels and reads["labels"] == 1  # gathered once, then kept

    def test_no_task_holds_an_image_array_after_init_and_stream(self):
        cfg = micro_config(dataset_per_class=8, offline_epochs=1, acae_epochs=1)
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        run_stream(initialize(stream.tasks[0], cfg), stream.tasks[1:], ds)
        for task in stream.tasks:
            held = {k: v for k, v in vars(task).items() if isinstance(v, np.ndarray)}
            assert sorted(held) == ["labels", "rows"], sorted(held)  # 8 B a row each
            assert all(v.ndim == 1 and v.base is None for v in held.values())

    def test_loaded_arrays_are_read_only_and_a_task_row_cannot_be_written(self):
        cfg = micro_config(offline_epochs=1, acae_epochs=1)
        ds = load_dataset(cfg)
        assert not any(a.flags.writeable for a in
                       (ds.train_images, ds.train_labels, ds.test_images, ds.test_labels))
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        task2 = stream.tasks[1]
        with pytest.raises(ValueError, match="read-only"):
            task2.images[0][...] = 0
        online_step(state, task2.images[0], int(task2.labels[0]))
        assert state.global_step == 1

    def test_task_classes_are_the_stream_split(self):
        cfg = micro_config(class_order_seed=3)
        stream = build_task_stream(load_dataset(cfg), cfg)
        assert task_classes(cfg) == [t.classes for t in stream.tasks]
        assert all(type(c) is int for t in task_classes(cfg) for c in t)


class TestInitialize:
    def test_reservoir_filled_to_task_size(self, micro_run):
        cfg, ds, stream, state = micro_run
        assert len(state.reservoir) == min(cfg.reservoir_capacity, 80)
        labels = state.reservoir.labels[: len(state.reservoir)]
        assert set(labels.tolist()) == set(stream.tasks[0].classes)

    def test_small_capacity_caps_fill(self):
        cfg = micro_config(reservoir_capacity=30)
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        assert len(state.reservoir) == 30

    def test_checksums_recorded(self, micro_run):
        _, _, _, state = micro_run
        assert set(state.frozen_digest) == {"backbone", "encoder", "decoder", "codebooks"}
        assert frozen_checksums(state) == state.frozen_digest

    def test_empty_task_rejected(self):
        cfg = micro_config()
        empty = Task(1, (0, 1), load_dataset(cfg), np.zeros(0, np.int64))
        with pytest.raises(DataError):
            initialize(empty, cfg)

    def test_non_finite_task1_pixel_raises_data_error(self):
        # handed straight to initialize, past load_dataset's check: the
        # bit-mask relu keeps the forward and so every loss finite, but the
        # weight gradient carries the NaN into the backbone, and offline
        # training refuses the weights it ends with, before the compressor
        cfg = micro_config(offline_epochs=1, acae_epochs=1)
        ds = load_dataset(cfg)
        t1 = build_task_stream(ds, cfg).tasks[0]
        images = ds.train_images.copy()
        images[t1.rows[5], 0, 7, 7] = np.nan
        with pytest.raises(DataError, match=r"non-finite offline-trained weights .*offline\.lr"):
            initialize(Task(1, t1.classes, replace(ds, train_images=images), t1.rows), cfg)

    def test_pq_k_above_task1_position_vectors_is_a_config_error_before_training(
        self, monkeypatch
    ):
        # 2 classes x 4 samples, each a 4x4 map at block 2 of a 16x16 input: 128 vectors
        cfg = micro_config(dataset_per_class=4, pq_k=129)
        task1 = build_task_stream(load_dataset(cfg), cfg).tasks[0]

        def no_training(*args, **kwargs):
            raise AssertionError("training started under a pq.k that k-means cannot fit")

        monkeypatch.setattr(engine, "train_first_task", no_training)
        with pytest.raises(ConfigError, match=r"pq\.k = 129 is above the 128 position vectors"):
            initialize(task1, cfg)

    def test_decoded_replay_close_to_uncompressed(self, micro_run):
        # held-out task-1 data through the frozen head: the replay path
        # (compress, quantize, decode) may cost at most 5 points
        cfg, ds, stream, state = micro_run
        mask = np.isin(ds.test_labels, stream.tasks[0].classes)
        xt, yt = ds.test_images[mask], ds.test_labels[mask]
        z = forward_batched(state.model.forward_backbone, xt)
        with no_grad():
            raw = state.model.forward_head(Tensor(z)).data
        zhat = decode_batch(state, z)
        with no_grad():
            dec = state.model.forward_head(Tensor(zhat)).data
        raw_acc = np.count_nonzero(label_ranks(raw, yt) < 1) / len(yt)
        dec_acc = np.count_nonzero(label_ranks(dec, yt) < 1) / len(yt)
        assert dec_acc >= raw_acc - 0.05


def decode_batch(state, z):
    with no_grad():
        u = compress(state.compressor, Tensor(z)).data
    codes = pq_encode_batch(u, state.books)
    with no_grad():
        return decompress(state.compressor, Tensor(pq_decode_batch(codes, state.books))).data


class TestEncodeDecode:
    def test_encode_matches_composed_modules(self, micro_run):
        cfg, ds, stream, state = micro_run
        x = ds.test_images[0]
        codes = encode_sample(state, x)
        with no_grad():
            z = state.model.forward_backbone(Tensor(x[None]))
            u = compress(state.compressor, z).data
        expected = pq_encode_batch(u, state.books)[0]
        assert np.array_equal(codes, expected)

    def test_decode_matches_composed_modules(self, micro_run):
        _, ds, _, state = micro_run
        codes = encode_sample(state, ds.test_images[1])
        zhat = _decode_codes(state, codes[None])
        u = pq_decode_batch(codes[None], state.books)
        with no_grad():
            expected = decompress(state.compressor, Tensor(u)).data
        assert np.array_equal(zhat, expected)

    def test_encode_is_pure(self, micro_run):
        _, ds, _, state = micro_run
        x = ds.test_images[2]
        a = encode_sample(state, x)
        b = encode_sample(state, x)
        assert np.array_equal(a, b)

    def test_encode_decode_fixed_point(self, micro_run):
        # decoded exemplars re-encode to the same codes
        _, ds, _, state = micro_run
        codes = encode_sample(state, ds.test_images[3])
        u = pq_decode_batch(codes[None], state.books)
        again = pq_encode_batch(u, state.books)[0]
        assert np.array_equal(codes, again)

    def test_encode_shape_mismatch(self, micro_run):
        _, _, _, state = micro_run
        with pytest.raises(DataError):
            encode_sample(state, np.zeros((3, 8, 8), np.float32))


class TestFeatureCrop:
    def test_full_scale_is_identity(self):
        z = np.random.default_rng(0).normal(size=(6, 5, 7)).astype(np.float32)
        out = feature_random_resized_crop(z[None], (1.0, 1.0), np.random.default_rng(1))
        assert np.array_equal(out[0], z)

    def test_constant_stays_constant(self):
        rng = np.random.default_rng(2)
        z = np.full((3, 4, 4), -1.7, dtype=np.float32)
        for _ in range(20):
            out = feature_random_resized_crop(z[None], (0.64, 1.0), rng)
            assert np.allclose(out, -1.7, atol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 2, 2), (4, 4, 4), (2, 9, 3)])
    def test_shape_preserved(self, shape):
        rng = np.random.default_rng(3)
        z = rng.normal(size=shape).astype(np.float32)
        for _ in range(10):
            assert feature_random_resized_crop(z[None], (0.64, 1.0), rng).shape == (1, *shape)

    def test_one_pixel_map_crops_to_itself(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 4, 1, 1)).astype(np.float32)
        for _ in range(10):
            out = feature_random_resized_crop(z, (0.1, 1.0), rng)
            assert np.allclose(out, z, rtol=1e-6, atol=0)

    def test_one_by_two_map_stays_finite_and_in_range(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(3, 4, 1, 2)).astype(np.float32)
        for _ in range(10):
            out = feature_random_resized_crop(z, (0.1, 1.0), rng)
            assert np.isfinite(out).all()
            assert out.min() >= z.min() - 1e-6 and out.max() <= z.max() + 1e-6

    def test_output_within_input_range(self):
        # bilinear interpolation cannot overshoot the input extremes
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2, 6, 6)).astype(np.float32)
        for _ in range(20):
            out = feature_random_resized_crop(z[None], (0.64, 1.0), rng)
            assert out.min() >= z.min() - 1e-6 and out.max() <= z.max() + 1e-6


class TestOnlineStep:
    def test_label_outside_universe_rejected(self, micro_run):
        cfg, ds, _, _ = micro_run
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        with pytest.raises(DataError):
            online_step(state, ds.train_images[0], 10)

    def test_reservoir_grows_below_capacity(self):
        cfg = micro_config(reservoir_capacity=200)
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        before = len(state.reservoir)
        task2 = stream.tasks[1]
        online_step(state, task2.images[0], int(task2.labels[0]))
        assert len(state.reservoir) == before + 1
        assert state.reservoir.labels[before] == task2.labels[0]
        assert state.optim.step_count == 1

    def test_frozen_checksums_survive_steps(self):
        cfg = micro_config()
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        base = frozen_checksums(state)
        task2 = stream.tasks[1]
        for i in range(5):
            online_step(state, task2.images[i], int(task2.labels[i]))
        assert frozen_checksums(state) == base

    @staticmethod
    def _untouched_parts(state):
        res = state.reservoir
        return (
            {k: p.data.copy() for k, p in state.model.head_params().items()},
            res.codes[: res.size].copy(), res.labels[: res.size].copy(),
            state.global_step, state.optim.step_count,
        )

    def _assert_untouched(self, state, before):
        after = self._untouched_parts(state)
        for k in before[0]:
            assert np.array_equal(after[0][k], before[0][k], equal_nan=True), k
        for a, b in zip(after[1:3], before[1:3]):
            assert np.array_equal(a, b)
        assert after[3:] == before[3:]

    def test_non_finite_image_rejected_before_any_update(self):
        cfg = micro_config(offline_epochs=1, acae_epochs=1)
        stream = build_task_stream(load_dataset(cfg), cfg)
        state = initialize(stream.tasks[0], cfg)
        task2 = stream.tasks[1]
        for bad in (np.nan, np.inf):
            x = task2.images[0].copy()
            x[1, 2, 3] = bad
            before = self._untouched_parts(state)
            with pytest.raises(DataError, match="non-finite value in the input image"):
                online_step(state, x, int(task2.labels[0]))
            self._assert_untouched(state, before)

    def test_non_finite_loss_rejected_before_the_head_step(self):
        cfg = micro_config(offline_epochs=1, acae_epochs=1)
        stream = build_task_stream(load_dataset(cfg), cfg)
        state = initialize(stream.tasks[0], cfg)
        task2 = stream.tasks[1]
        state.model.params["classifier.bias"].data[0] = np.inf
        before = self._untouched_parts(state)
        with pytest.raises(DataError, match=r"non-finite loss .*online\.lr"):
            online_step(state, task2.images[0], int(task2.labels[0]))
        self._assert_untouched(state, before)

    def test_n0_no_augment_matches_direct_gradient(self):
        # with no rehearsal and no crop, the head update is exactly one
        # SGD-momentum step on the quantized current sample's CE
        cfg = micro_config(online_rehearsal_n=0, online_augment=False)
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        task2 = stream.tasks[1]
        x, y = task2.images[0], int(task2.labels[0])

        before = {k: p.data.copy() for k, p in state.model.head_params().items()}
        zhat = decode_batch(state, forward_batched(state.model.forward_backbone, x[None]))
        lr = np.float32(state.optim.lr)

        online_step(state, x, y)

        scratch = build_model(state.model.config, seed=0)
        for k in scratch.params:
            scratch.params[k].data = (
                before[k].copy() if k in before else state.model.params[k].data.copy()
            )
        head = scratch.head_params()
        zero_grads(head)
        with training(head):
            softmax_cross_entropy(
                scratch.forward_head(Tensor(zhat)), np.array([y], np.int64)
            ).backward()
        for k, p in state.model.head_params().items():
            expected = before[k] - lr * head[k].grad.astype(np.float32)
            assert np.array_equal(p.data, expected), k

    def test_batch_size_is_min_n_reservoir_plus_one(self, monkeypatch):
        cfg = micro_config(online_rehearsal_n=50, reservoir_capacity=200)
        ds = load_dataset(cfg)
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        seen = []
        import latentreplay.engine as eng

        real = eng.softmax_cross_entropy

        def spy(logits, labels):
            seen.append(len(labels))
            return real(logits, labels)

        monkeypatch.setattr(eng, "softmax_cross_entropy", spy)
        task2 = stream.tasks[1]
        online_step(state, task2.images[0], int(task2.labels[0]))
        assert seen == [min(50, 80) + 1]


class TestRunStream:
    def test_step_count_equals_streamed_samples(self, micro_run):
        cfg, ds, _, _ = micro_run
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        run_stream(state, stream.tasks[1:], ds)
        expected = sum(len(t.labels) for t in stream.tasks[1:])
        assert state.optim.step_count == expected
        assert state.global_step == expected

    def test_out_of_order_task_rejected(self, micro_run):
        cfg, ds, _, _ = micro_run
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        with pytest.raises(DataError):
            run_stream(state, stream.tasks[2:], ds)

    def test_overlapping_classes_rejected_at_the_boundary(self, micro_run):
        # a hand-built task 2 that reuses a task-1 class
        _, ds, stream, state = micro_run
        state, t1, t2 = copy.deepcopy(state), stream.tasks[0], stream.tasks[1]
        bad = Task(2, (t1.classes[0], t2.classes[0]), ds, t2.rows[:3])
        with pytest.raises(ContractError, match="seen_classes"):
            run_stream(state, [bad], ds)
        assert state.global_step == 3

    def test_foreign_label_rejected_at_the_boundary(self, micro_run, monkeypatch):
        # task 2's classes, but its samples carry a label of task 3: the boundary
        # check_state refuses the state before the boundary evaluation runs
        _, ds, stream, state = micro_run
        state, t2, t3 = copy.deepcopy(state), stream.tasks[1], stream.tasks[2]
        foreign = np.full_like(ds.train_labels, t3.classes[0])
        bad = Task(2, t2.classes, replace(ds, train_labels=foreign), t2.rows[:3])
        evaluated = []
        real = engine.evaluate
        monkeypatch.setattr(engine, "evaluate", lambda *a: evaluated.append(a) or real(*a))
        with pytest.raises(ContractError, match=rf"reservoir labels \[{t3.classes[0]}\]"):
            run_stream(state, [bad, *stream.tasks[2:]], ds)
        assert state.current_task == 2 and state.global_step == 3 and evaluated == []

    def test_boundary_eval_after_each_task(self, micro_run):
        cfg, ds, _, _ = micro_run
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        records = run_stream(state, stream.tasks[1:3], ds)
        assert [(r.task, r.boundary) for r in records] == [(2, True), (3, True)]
        assert [(r.step, r.seen_classes) for r in records] == [(80, 4), (160, 6)]
        assert records[-1] == seen_class_record(ds, state)

    def test_intra_task_eval_cadence(self, micro_run):
        _, ds, _, _ = micro_run
        cfg = micro_config(online_eval_every=25)
        stream = build_task_stream(ds, cfg)
        state = initialize(stream.tasks[0], cfg)
        records = run_stream(state, stream.tasks[1:2], ds)
        steps = [(r.step, r.task, r.boundary) for r in records]
        assert steps == [(25, 2, False), (50, 2, False), (75, 2, False), (80, 2, True)]

    def test_identical_seed_identical_log(self):
        def one():
            cfg = micro_config(offline_epochs=3, acae_epochs=5)
            ds = load_dataset(cfg)
            stream = build_task_stream(ds, cfg)
            state = initialize(stream.tasks[0], cfg)

            return run_stream(state, stream.tasks[1:3], ds)

        a, b = one(), one()
        assert a == b


class TestEvaluate:
    def test_deterministic_and_task_free(self, micro_run):
        _, ds, _, state = micro_run
        r1 = evaluate(state, ds.test_images[:40], ds.test_labels[:40])
        r2 = evaluate(state, ds.test_images[:40], ds.test_labels[:40])
        assert r1 == r2

    def test_empty_rejected(self, micro_run):
        _, _, _, state = micro_run
        with pytest.raises(DataError):
            evaluate(state, np.zeros((0, 3, 16, 16), np.float32), np.zeros(0, np.int64))

    def test_seen_class_record_covers_seen_classes_only(self, micro_run):
        _, ds, stream, state = micro_run
        mask = np.isin(ds.test_labels, stream.tasks[0].classes)
        expected = evaluate(state, ds.test_images[mask], ds.test_labels[mask])
        record = seen_class_record(ds, state)
        assert record == MetricRecord(0, 1, 2, expected["top1"], expected["top5"], True)

    def test_most_classes_evaluate_without_stacking_every_logit(self):
        # 100 samples of 65536 classes are 26 MB of float32 logits, and ranking them all at
        # once took 105 MB; counting hits per chunk of 32 rows peaks at 42 MB for any count
        cfg = RunConfig(dataset_classes=65536, split_first_classes=65535, split_steps=1,
                        net_in_shape=(1, 8, 8), net_channels=(2, 4, 4), acae_latent_channels=2,
                        pq_s=2, pq_k=8)
        state = engine.blank_state(cfg, 0, np.random.default_rng(0))
        images = np.random.default_rng(1).random((100, 1, 8, 8), dtype=np.float32)
        labels = np.arange(100) * 655  # zero logits tie: only labels 0..4 rank in the top 5
        tracemalloc.start()
        try:
            result = evaluate(state, images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == {"top1": 0.01, "top5": 0.01}
        assert peak < 64e6, f"{peak / 1e6:.1f} MB"


class TestBlankState:
    @pytest.mark.parametrize("replay_block", [1, 2, 3])
    def test_layout_is_that_of_a_real_state(self, replay_block):
        cfg = RunConfig(
            dataset_per_class=10, dataset_test_per_class=2, offline_epochs=1, acae_epochs=1,
            acae_latent_channels=4, pq_k=4, reservoir_capacity=20, online_rehearsal_n=2,
            net_replay_block=replay_block,
        )
        task1, task2 = build_task_stream(load_dataset(cfg), cfg).tasks[:2]
        state = initialize(task1, cfg)
        rng = np.random.default_rng(0)

        def layout(s):
            return [(name, a.dtype, a.shape) for name, a in engine.state_arrays(s)]

        for steps in (0, 1):
            if steps:
                online_step(state, task2.images[0], int(task2.labels[0]))
            blank = engine.blank_state(cfg, steps, rng, len(state.reservoir))
            assert layout(blank) == layout(state)
            assert blank.optim.step_count == state.optim.step_count == steps
            assert blank.reservoir.codes.shape == state.reservoir.codes.shape
            assert len(blank.reservoir) == len(state.reservoir) and blank.rng is rng


def _trainable(state: EngineState) -> list:
    """Names of the model and compressor parameters that take gradients now."""
    params = [*state.model.params.items(), *state.compressor.params.items()]
    return [name for name, p in params if p.requires_grad]


class TestTrainingScope:
    """Outside a `training` scope every parameter is a constant."""

    def test_no_parameter_trains_after_initialize_blank_state_or_load(self, micro_run, tmp_path):
        cfg, _, _, state = micro_run
        assert _trainable(state) == []
        for steps in (0, 1):
            assert _trainable(engine.blank_state(cfg, steps, np.random.default_rng(0))) == []
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(state, path)
        assert _trainable(load_checkpoint(path).state) == []

    def test_no_parameter_trains_after_online_step(self, micro_run):
        _, _, stream, state = micro_run
        state, task2 = copy.deepcopy(state), stream.tasks[1]
        online_step(state, task2.images[0], int(task2.labels[0]))
        assert _trainable(state) == []

    def test_no_parameter_trains_after_a_rejected_loss(self, micro_run):
        _, _, stream, state = micro_run
        state, task2 = copy.deepcopy(state), stream.tasks[1]
        state.model.params["classifier.bias"].data[0] = np.inf
        with pytest.raises(DataError, match="non-finite loss"):
            online_step(state, task2.images[0], int(task2.labels[0]))
        assert _trainable(state) == []

    def test_no_parameter_trains_after_offline_or_compressor_training(self, micro_run):
        cfg, _, stream, _ = micro_run
        task1 = stream.tasks[0]
        model = build_model(cfg.net_config(), seed=0)
        for trainable in (None, model.head_names()):
            train_offline(model, task1.images[:8], task1.labels[:8], epochs=1, lr=0.01,
                          rng=np.random.default_rng(0), trainable=trainable)
            assert [k for k, p in model.params.items() if p.requires_grad] == []
        latents = forward_batched(model.forward_backbone, task1.images[:8])
        comp = fit_compressor(model, latents, task1.labels[:8], replace(cfg, acae_epochs=1))
        params = [*model.params.values(), *comp.params.values()]
        assert not any(p.requires_grad for p in params)


class TestFrozenBackboneStudy:
    def test_blocks_outside_the_net_rejected_before_training(self, monkeypatch):
        cfg = micro_config()
        ds = load_dataset(cfg)
        monkeypatch.setattr(engine, "train_offline", lambda *a, **k: pytest.fail("trained"))
        for blocks in ([0, 4], [9, -4], [-1]):
            with pytest.raises(ConfigError, match=r"outside 0\.\.3"):
                frozen_backbone_study(ds, cfg, blocks)

    def test_nothing_frozen_equals_joint_training(self):
        cfg = micro_config(dataset_per_class=30, offline_epochs=3)
        ds = load_dataset(cfg)
        study = frozen_backbone_study(ds, cfg, [0])

        model = build_model(cfg.net_config(), seed=0)
        rng = np.random.default_rng((0, 7, 0))
        train_offline(
            model, ds.train_images, ds.train_labels, epochs=3, lr=0.01,
            momentum=0.9, batch_size=16, augment=True, rng=rng,
            trainable=list(model.params),
        )
        logits = forward_batched(model.forward, ds.test_images)
        joint = np.count_nonzero(label_ranks(logits, ds.test_labels) < 1) / len(ds.test_labels)
        assert study[0] == joint

    def test_most_classes_evaluate_without_stacking_every_logit(self):
        # 4096 test samples of 4096 classes are 67 MB of float32 logits; ranked per chunk of
        # 32 rows, the study's peak does not grow with the sample count
        cfg = RunConfig(dataset_classes=4096, split_first_classes=1, split_steps=1,
                        dataset_per_class=1, dataset_test_per_class=1, net_in_shape=(1, 8, 8),
                        net_num_blocks=1, net_channels=(4,), net_replay_block=1, offline_epochs=0,
                        acae_latent_channels=1, pq_s=1)
        ds = load_dataset(cfg)
        tracemalloc.start()
        try:
            frozen_backbone_study(ds, cfg, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"{peak / 1e6:.1f} MB"

    def test_larger_first_task_smaller_final_drop(self):
        # freezing everything hurts less when task 1 saw more classes
        wins = 0
        for seed in range(3):
            cfg = micro_config(dataset_per_class=30, seed=seed, offline_epochs=4)
            ds = load_dataset(cfg)
            drops = {}
            for first in (2, 5):
                accs = frozen_backbone_study(ds, replace(cfg, split_first_classes=first), [0, 3])
                drops[first] = accs[0] - accs[3]
            if drops[5] <= drops[2]:
                wins += 1
        assert wins >= 2
