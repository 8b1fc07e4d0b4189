"""Config text format, binary loaders, checkpoints, metrics files, CLI."""

import json
import os
import struct
import zlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from latentreplay import checkpoint
from latentreplay.checkpoint import load_checkpoint, save_checkpoint
from latentreplay.cli import main
from latentreplay.config import KEYS, RunConfig, parse_config, serialize_config
from latentreplay.datasets import gen_synthetic, load_cifar_bin, load_dataset, load_idx
from latentreplay.engine import build_task_stream, initialize, run_stream, seen_class_record
from latentreplay.errors import CheckpointError, ConfigError, DataError
from latentreplay.metrics import MetricRecord, aoc
from latentreplay.reporting import BUDGET_TABLE, emit_metrics, membudget_lines, read_metrics
from latentreplay.reservoir import memory_bytes


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'pq\.banana'"):
            parse_config("seed = 1\npq.banana = 2\n")

    def test_type_error_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*seed.*integer"):
            parse_config("seed = abc\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_divisibility_error_names_both_keys(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("pq.s = 8\nacae.latent_channels = 10\n")
        msg = str(exc.value)
        assert "pq.s" in msg and "acae.latent_channels" in msg

    def test_split_constraint_checked(self):
        with pytest.raises(ConfigError, match="split.steps"):
            parse_config("split.steps = 3\n")  # 8 leftover classes, not divisible

    def test_crop_range_constraint(self):
        with pytest.raises(ConfigError, match="crop"):
            parse_config("online.crop_min_area = 0.9\nonline.crop_max_area = 0.5\n")

    def test_latent_must_fit_replay_block(self):
        with pytest.raises(ConfigError, match="latent_channels"):
            parse_config("acae.latent_channels = 16\n")  # replay block has 16 channels

    def test_every_field_reachable_from_a_key(self):
        from dataclasses import fields

        covered = {field for field, _ in KEYS.values()}
        assert covered == {f.name for f in fields(RunConfig)}

    def test_round_trip_is_semantically_idempotent(self):
        text = (
            "seed = 9\nnet.channels = 4, 8, 16\nacae.latent_channels = 4\n"
            "offline.augment = false\npq.k = 64\n"
        )
        once = parse_config(text)
        again = parse_config(serialize_config(once))
        assert once == again
        assert serialize_config(once) == serialize_config(again)

    def test_tuple_and_bool_parsing(self):
        cfg = parse_config("net.in_shape = 3, 32, 32\nonline.augment = off\n")
        assert cfg.net_in_shape == (3, 32, 32)
        assert cfg.online_augment is False


def idx_bytes(dtype_code, dims, payload):
    head = bytes([0, 0, dtype_code, len(dims)])
    head += b"".join(struct.pack(">I", d) for d in dims)
    return head + payload


class TestLoadIdx:
    def test_hand_built_pair_round_trips(self, tmp_path):
        images = idx_bytes(0x08, (2, 3, 4), bytes(range(24)))
        labels = idx_bytes(0x08, (2,), bytes([5, 1]))
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(images)
        lp.write_bytes(labels)
        x, y = load_idx(str(ip), str(lp))
        assert x.shape == (2, 1, 3, 4) and x.dtype == np.float32
        assert y.tolist() == [5, 1]

    def test_payload_byte_lands_at_documented_position(self, tmp_path):
        # row-major: byte i -> image i//12, row (i%12)//4, col i%4
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(idx_bytes(0x08, (2, 3, 4), bytes(range(24))))
        lp.write_bytes(idx_bytes(0x08, (2,), bytes(2)))
        x, _ = load_idx(str(ip), str(lp))
        for i in (0, 5, 11, 12, 23):
            n, r, c = i // 12, (i % 12) // 4, i % 4
            assert x[n, 0, r, c] == np.float32(i / 255.0)

    def test_values_scaled_to_unit_interval(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(idx_bytes(0x08, (1, 2, 2), bytes([0, 255, 128, 64])))
        lp.write_bytes(idx_bytes(0x08, (1,), bytes(1)))
        x, _ = load_idx(str(ip), str(lp))
        assert x.min() == 0.0 and x.max() == 1.0

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")
        with pytest.raises(DataError, match="magic"):
            load_idx(str(p), str(p))

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(idx_bytes(0x08, (2, 3, 4), bytes(10)))
        lp = tmp_path / "lb.idx"
        lp.write_bytes(idx_bytes(0x08, (2,), bytes(2)))
        with pytest.raises(DataError, match="truncated"):
            load_idx(str(p), str(lp))

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.idx"
        p.write_bytes(idx_bytes(0x08, (1, 2, 2), bytes(4)) + b"junk")
        lp = tmp_path / "lb.idx"
        lp.write_bytes(idx_bytes(0x08, (1,), bytes(1)))
        with pytest.raises(DataError, match="trailing"):
            load_idx(str(p), str(lp))

    def test_label_count_mismatch_rejected(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(idx_bytes(0x08, (2, 2, 2), bytes(8)))
        lp.write_bytes(idx_bytes(0x08, (3,), bytes(3)))
        with pytest.raises(DataError, match="count"):
            load_idx(str(ip), str(lp))

    def test_unknown_dtype_code_rejected(self, tmp_path):
        p = tmp_path / "odd.idx"
        p.write_bytes(idx_bytes(0x05, (1,), bytes(1)))
        with pytest.raises(DataError, match="dtype"):
            load_idx(str(p), str(p))

    def test_big_endian_dims_honored(self, tmp_path):
        # dimension 256 encodes as 00 00 01 00; a little-endian reader
        # would see 65536 and fail
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(idx_bytes(0x08, (1, 1, 256), bytes(256)))
        lp.write_bytes(idx_bytes(0x08, (1,), bytes(1)))
        x, _ = load_idx(str(ip), str(lp))
        assert x.shape == (1, 1, 1, 256)


class TestLoadCifarBin:
    def test_two_record_file(self, tmp_path):
        rec0 = bytes([7]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
        rec1 = bytes([2]) + bytes(3072)
        p = tmp_path / "data.bin"
        p.write_bytes(rec0 + rec1)
        x, y = load_cifar_bin(str(p))
        assert x.shape == (2, 3, 32, 32)
        assert y.tolist() == [7, 2]
        assert np.allclose(x[0, 0], 10 / 255) and np.allclose(x[0, 2], 30 / 255)

    def test_byte_position_oracle(self, tmp_path):
        # record r, channel c, row y, col x sits at r*3073 + 1 + c*1024 + y*32 + x
        blob = bytearray(2 * 3073)
        marks = [(0, 1, 5, 9, 200), (1, 2, 31, 31, 123)]
        for r, c, yy, xx, val in marks:
            blob[r * 3073 + 1 + c * 1024 + yy * 32 + xx] = val
        p = tmp_path / "data.bin"
        p.write_bytes(bytes(blob))
        x, _ = load_cifar_bin(str(p))
        for r, c, yy, xx, val in marks:
            assert x[r, c, yy, xx] == np.float32(val / 255.0)

    def test_indivisible_size_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes(3073 + 17))
        with pytest.raises(DataError, match="3073"):
            load_cifar_bin(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        with pytest.raises(DataError):
            load_cifar_bin(str(p))


class TestGenSynthetic:
    def test_zero_noise_identical_within_class(self):
        x, y = gen_synthetic(4, 8, (2, 8, 8), seed=5, noise=0.0)
        for c in range(4):
            imgs = x[y == c]
            assert all(np.array_equal(imgs[0], im) for im in imgs)

    def test_nearest_centroid_accuracy(self):
        xtr, ytr = gen_synthetic(10, 50, (3, 16, 16), seed=0, sample_stream=0)
        xte, yte = gen_synthetic(10, 20, (3, 16, 16), seed=0, sample_stream=1)
        centroids = np.stack([xtr[ytr == c].mean(axis=0) for c in range(10)])
        d = ((xte[:, None] - centroids[None]) ** 2).sum(axis=(2, 3, 4))
        assert (d.argmin(axis=1) == yte).mean() >= 0.9

    def test_same_seed_bit_identical(self):
        a = gen_synthetic(6, 10, (3, 12, 12), seed=9)
        b = gen_synthetic(6, 10, (3, 12, 12), seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sample_streams_share_classes_not_samples(self):
        a, _ = gen_synthetic(3, 5, (1, 8, 8), seed=2, sample_stream=0)
        b, _ = gen_synthetic(3, 5, (1, 8, 8), seed=2, sample_stream=1)
        assert not np.array_equal(a, b)
        a0, _ = gen_synthetic(3, 5, (1, 8, 8), seed=2, noise=0.0, sample_stream=0)
        b0, _ = gen_synthetic(3, 5, (1, 8, 8), seed=2, noise=0.0, sample_stream=1)
        assert np.array_equal(a0, b0)  # class shapes come from the seed alone

    def test_label_layout_is_interleaved(self):
        _, y = gen_synthetic(5, 3, (1, 8, 8), seed=0)
        assert y[:5].tolist() == [0, 1, 2, 3, 4]

    def test_values_stay_in_unit_interval(self):
        x, _ = gen_synthetic(4, 20, (3, 16, 16), seed=1, noise=0.5)
        assert x.min() >= 0.0 and x.max() <= 1.0


def tiny_run(tmp_path, seed=0, **overrides):
    cfg = RunConfig(
        seed=seed, dataset_per_class=20, dataset_test_per_class=5,
        offline_epochs=2, acae_epochs=4, pq_k=8, reservoir_capacity=40,
        online_rehearsal_n=3, **overrides,
    )
    ds = load_dataset(cfg)
    stream = build_task_stream(ds, cfg)
    state = initialize(stream.tasks[0], cfg)
    return cfg, ds, stream, state


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg, ds, stream, state = tiny_run(tmp_path)
        text = serialize_config(cfg)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(state, p1, config_text=text)
        bundle = load_checkpoint(p1)
        save_checkpoint(bundle.state, p2, config_text=bundle.config_text)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        res, back = state.reservoir, bundle.state.reservoir
        assert back.capacity == res.capacity and len(back) == len(res)
        assert np.array_equal(back.codes, res.codes)
        assert np.array_equal(back.labels, res.labels)
        assert np.array_equal(back.counts, res.counts)
        assert bundle.state.config == cfg

    def test_reservoir_blob_layout(self, tmp_path):
        _, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "l.ckpt")
        save_checkpoint(state, p)
        blob = open(p, "rb").read()
        res = state.reservoir
        n = len(res)
        for name, tag, dims, payload in (
            (b"reservoir.codes", 3, (n, 4, 4, 4), res.codes[:n].tobytes()),
            (b"reservoir.labels", 5, (n,), res.labels[:n].astype("<u2").tobytes()),
        ):
            at = blob.index(name)
            assert blob[at - 4 : at] == struct.pack("<I", len(name))
            at += len(name)
            assert blob[at] == tag
            assert blob[at + 1 : at + 5] == struct.pack("<I", len(dims))
            at += 5
            assert blob[at : at + 4 * len(dims)] == struct.pack(f"<{len(dims)}I", *dims)
            at += 4 * len(dims)
            assert blob[at : at + len(payload)] == payload

    def test_default_config_text_is_the_state_config(self, tmp_path):
        cfg, _, _, state = tiny_run(tmp_path, net_replay_block=3)
        p = str(tmp_path / "d.ckpt")
        save_checkpoint(state, p)
        bundle = load_checkpoint(p)
        assert bundle.config_text == serialize_config(cfg)
        assert bundle.state.config == cfg

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "w.ckpt")
        save_checkpoint(state, p)
        old = open(p, "rb").read()

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(
            checkpoint, "open", lambda path, mode: HalfWrite(open(path, mode)), raising=False
        )
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, p, records=[MetricRecord(0, 1, 2, 0.5, 1.0, True)])
        monkeypatch.undo()
        assert open(p, "rb").read() == old
        assert os.listdir(tmp_path) == ["w.ckpt"]
        assert load_checkpoint(p).state.config == cfg

    def test_resumed_run_matches_unbroken(self, tmp_path):
        cfg, ds, stream, state = tiny_run(tmp_path)
        text = serialize_config(cfg)

        hook = partial(seen_class_record, ds)
        unbroken = run_stream(state, stream.tasks[1:], hook).records

        _, _, _, state2 = tiny_run(tmp_path)
        p = str(tmp_path / "mid.ckpt")
        first = run_stream(state2, stream.tasks[1:3], hook).records
        save_checkpoint(state2, p, config_text=text, records=first)
        bundle = load_checkpoint(p)
        rest = run_stream(bundle.state, stream.tasks[3:], hook).records
        assert bundle.records + rest == unbroken

    def test_optimizer_and_rng_state_survive(self, tmp_path):
        cfg, ds, stream, state = tiny_run(tmp_path)
        run_stream(state, stream.tasks[1:2])
        p = str(tmp_path / "s.ckpt")
        save_checkpoint(state, p, config_text=serialize_config(cfg))
        loaded = load_checkpoint(p).state
        assert loaded.optim.step_count == state.optim.step_count
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        for name, slots in state.optim.slots.items():
            for key, buf in slots.items():
                assert np.array_equal(loaded.optim.slots[name][key], buf)

    def test_truncated_rejected(self, tmp_path):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "t.ckpt")
        save_checkpoint(state, p, config_text=serialize_config(cfg))
        blob = open(p, "rb").read()
        short = str(tmp_path / "short.ckpt")
        open(short, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(short)

    def test_corrupt_payload_rejected(self, tmp_path):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "c.ckpt")
        save_checkpoint(state, p, config_text=serialize_config(cfg))
        blob = bytearray(open(p, "rb").read())
        blob[60] ^= 0x55
        open(p, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(p)

    def test_unknown_version_rejected(self, tmp_path):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "v.ckpt")
        save_checkpoint(state, p, config_text=serialize_config(cfg))
        blob = bytearray(open(p, "rb").read())
        for version in (1, 42):  # 1: the layout before the reservoir became blobs
            blob[4:8] = struct.pack("<I", version)
            blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
            open(p, "wb").write(bytes(blob))
            with pytest.raises(CheckpointError, match="version"):
                load_checkpoint(p)

    def test_reservoir_out_of_range_or_mismatched_rejected(self, tmp_path, capsys):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "r.ckpt")

        def rejected(message, config_text=None):
            save_checkpoint(state, p, config_text=config_text)  # CRC-valid, content wrong
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(p)
            assert main(["eval", "--checkpoint", p]) == 6
            assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"

        res = state.reservoir
        res.codes[0, 0, 0, 0] = cfg.pq_k
        rejected("code")
        res.codes[0, 0, 0, 0] = 0
        res.labels[0] = cfg.dataset_classes
        rejected("label")
        res.labels[0] = 0
        rejected("capacity", serialize_config(replace(cfg, reservoir_capacity=10)))
        rejected("do not match", serialize_config(replace(cfg, net_replay_block=3)))

    def test_parameters_must_match_the_config(self, tmp_path, capsys):
        cfg, _, stream, state = tiny_run(tmp_path)
        p = str(tmp_path / "p.ckpt")

        def rejected(message, config_text=None):
            save_checkpoint(state, p, config_text=config_text)  # CRC-valid, content wrong
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(p)
            for command in (["eval", "--checkpoint", p],
                            ["stream", "--checkpoint", p, "--out", str(tmp_path / "o")]):
                assert main(command) == 6
                assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"

        # a 10-class model under a 12-class config
        twelve = replace(cfg, dataset_classes=12, split_steps=5)
        rejected("classifier.weight", serialize_config(twelve))
        params = state.model.params
        dropped = params.pop("block3.conv1.weight")
        rejected(r"missing \['model.block3.conv1.weight'\]")
        params["block3.conv1.weight"] = dropped
        params["block9.conv1.weight"] = dropped
        rejected(r"extra \['model.block9.conv1.weight'\]")
        del params["block9.conv1.weight"]
        enc_bias = state.compressor.params["enc.bias"]
        trained = enc_bias.data
        enc_bias.data = trained[:3]
        rejected("enc.bias")
        enc_bias.data = trained.astype(np.float64)
        rejected("enc.bias")
        enc_bias.data = trained
        # velocity buffers must exist exactly when the head has stepped
        run_stream(state, stream.tasks[1:2])
        state.optim.slots.pop("classifier.bias")
        rejected("missing")
        state.optim.step_count = 0
        state.optim.slots.clear()
        save_checkpoint(state, p)
        load_checkpoint(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = str(tmp_path / "m.ckpt")
        open(p, "wb").write(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)


class TestEmitMetrics:
    def records(self):
        return [
            MetricRecord(0, 1, 2, 0.9, 1.0, True),
            MetricRecord(10, 2, 4, 0.8, 0.95, False),
            MetricRecord(20, 2, 4, 0.7, 0.9, True),
        ]

    def test_jsonl_field_order_fixed(self, tmp_path):
        jsonl, _ = emit_metrics(
            self.records(), str(tmp_path), capacity=10, code_shape=(4, 4, 4), exemplar_count=7
        )
        with open(jsonl) as fh:
            first = fh.readline()
        keys = list(json.loads(first, object_pairs_hook=lambda p: [k for k, _ in p]))
        assert keys == ["step", "task", "seen_classes", "top1", "top5", "boundary"]

    def test_aoc_recomputable_from_emitted_rows(self, tmp_path):
        jsonl, csv = emit_metrics(
            self.records(), str(tmp_path), capacity=10, code_shape=(4, 4, 4), exemplar_count=7
        )
        rows = read_metrics(jsonl)
        boundary = [r["top1"] for r in rows if r["boundary"]]
        with open(csv) as fh:
            header, data = fh.read().strip().split("\n")
        assert float(data.split(",")[0]) == aoc(boundary)
        assert float(data.split(",")[1]) == boundary[-1]

    def test_memory_column_uses_capacity(self, tmp_path):
        _, csv = emit_metrics(
            self.records(), str(tmp_path), capacity=10, code_shape=(4, 4, 4), exemplar_count=7
        )
        data = open(csv).read().strip().split("\n")[1].split(",")
        assert int(data[2]) == memory_bytes(10, (4, 4, 4), 1)
        assert data[3] == "7" and data[4] == "4x4x4"

    def test_empty_log_header_only(self, tmp_path):
        jsonl, csv = emit_metrics(
            [], str(tmp_path), capacity=10, code_shape=(4, 4, 4), exemplar_count=0
        )
        assert open(jsonl).read() == ""
        assert open(csv).read() == "aoc,last,memory_bytes,exemplar_count,exemplar_shape\n"


class TestBudgetLines:
    def test_reference_table_strings(self):
        lines = membudget_lines()
        shown = [line.split("-> ")[1] for line in lines]
        assert shown == [f"{mb} MB" for _, _, mb, _ in BUDGET_TABLE]


class TestCli:
    def test_membudget_prints_reference_pairs(self, capsys):
        assert main(["membudget"]) == 0
        out = capsys.readouterr().out
        for _, _, mb, _ in BUDGET_TABLE:
            assert f"{mb} MB" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("pq.s = 7\n")
        code = main(["init", "--config", str(p), "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_missing_checkpoint_io_code(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")])
        assert code == 7
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_init_stream_eval_cycle(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(
            "dataset.per_class = 20\ndataset.test_per_class = 5\n"
            "offline.epochs = 2\nacae.epochs = 4\npq.k = 8\n"
            "reservoir.capacity = 40\nonline.rehearsal_n = 3\n"
        )
        ckpt = str(tmp_path / "run.ckpt")
        outdir = str(tmp_path / "out")
        assert main(["init", "--config", str(cfgp), "--out", ckpt]) == 0
        assert "class order:" in capsys.readouterr().out
        assert main(["stream", "--checkpoint", ckpt, "--out", outdir]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["seen_classes"] == 10 and result["task"] == 5
        rows = read_metrics(outdir + "/metrics.jsonl")
        assert [r["task"] for r in rows] == [1, 2, 3, 4, 5]
        assert rows[0]["step"] == 0  # the post-init record rides along

    def test_until_task_split_matches_full_run(self, tmp_path):
        cfg_text = (
            "dataset.per_class = 20\ndataset.test_per_class = 5\n"
            "offline.epochs = 2\nacae.epochs = 4\npq.k = 8\n"
            "reservoir.capacity = 40\nonline.rehearsal_n = 3\n"
        )
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(cfg_text)

        full_ckpt = str(tmp_path / "full.ckpt")
        assert main(["init", "--config", str(cfgp), "--out", full_ckpt]) == 0
        assert main(["stream", "--checkpoint", full_ckpt, "--out", str(tmp_path / "full")]) == 0

        split_ckpt = str(tmp_path / "split.ckpt")
        assert main(["init", "--config", str(cfgp), "--out", split_ckpt]) == 0
        assert main(["stream", "--checkpoint", split_ckpt, "--out", str(tmp_path / "p1"),
                     "--until-task", "3"]) == 0
        assert main(["stream", "--checkpoint", split_ckpt, "--out", str(tmp_path / "p2")]) == 0

        full = open(tmp_path / "full" / "metrics.jsonl").read()
        split = open(tmp_path / "p2" / "metrics.jsonl").read()
        assert full == split
        assert open(tmp_path / "full" / "summary.csv").read() == open(tmp_path / "p2" / "summary.csv").read()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds the JSON line only
    def test_non_finite_stream_input_exits_3(self, tmp_path, capsys):
        # an IDX float dataset whose first task-2 training image holds a NaN
        cfg = RunConfig(dataset_per_class=20, dataset_test_per_class=5, offline_epochs=1,
                        acae_epochs=1, pq_k=8, reservoir_capacity=40, online_rehearsal_n=3)
        ds = load_dataset(cfg)
        task2 = build_task_stream(ds, cfg).tasks[1]
        train = ds.train_images.copy()
        in_task2 = np.flatnonzero(np.isin(ds.train_labels, task2.classes))
        hit = next(i for i in in_task2 if np.array_equal(ds.train_images[i], task2.images[0]))
        train[hit, 0, 0, 0] = np.nan

        def write_idx(path, arr, code):
            head = bytes([0, 0, code, arr.ndim]) + struct.pack(f">{arr.ndim}I", *arr.shape)
            path.write_bytes(head + arr.astype(">f4" if code == 0x0D else ">u1").tobytes())

        root = tmp_path / "idx"
        root.mkdir()
        write_idx(root / "train-images.idx", train, 0x0D)
        write_idx(root / "train-labels.idx", ds.train_labels, 0x08)
        write_idx(root / "test-images.idx", ds.test_images, 0x0D)
        write_idx(root / "test-labels.idx", ds.test_labels, 0x08)
        cfg = replace(cfg, dataset_kind="idx", dataset_path=str(root))
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(serialize_config(cfg))
        ckpt = str(tmp_path / "run.ckpt")
        assert main(["init", "--config", str(cfgp), "--out", ckpt]) == 0
        before = open(ckpt, "rb").read()
        capsys.readouterr()
        assert main(["stream", "--checkpoint", ckpt, "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and "non-finite value in the input image" in err["message"]
        assert open(ckpt, "rb").read() == before

        # a head that produces a non-finite loss, on the clean images
        write_idx(root / "train-images.idx", ds.train_images, 0x0D)
        state = load_checkpoint(ckpt).state
        state.model.params["classifier.bias"].data[0] = np.inf
        save_checkpoint(state, ckpt)
        assert main(["stream", "--checkpoint", ckpt, "--out", str(tmp_path / "out")]) == 3
        assert "non-finite loss" in json.loads(capsys.readouterr().err)["message"]

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        assert "passed" in capsys.readouterr().out
