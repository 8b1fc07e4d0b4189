"""Config text format, binary loaders, checkpoints, metrics files, CLI."""

import ast
import json
import math
import os
import re
import struct
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

import latentreplay
from latentreplay import checkpoint
from latentreplay.checkpoint import load_checkpoint, save_checkpoint
from latentreplay.cli import main
from latentreplay.config import (
    _DOMAINS, KEYS, RunConfig, parse_config, serialize_config, validate_config,
)
from latentreplay.datasets import Dataset, gen_synthetic, load_cifar_bin, load_dataset, load_idx
from latentreplay.engine import (
    blank_state,
    build_task_stream,
    check_state,
    frozen_backbone_study,
    frozen_checksums,
    initialize,
    run_stream,
    task_classes,
)
from latentreplay.errors import (
    CheckpointError, ConfigError, ContractError, DataError, LatentReplayError,
)
from latentreplay.metrics import MetricRecord, aoc
from latentreplay.reporting import BUDGET_TABLE, emit_metrics, membudget_lines
from latentreplay.reservoir import memory_bytes


_BY_TYPE = {bool: st.booleans(), str: st.text()}


def in_domain(key, most=2**40):
    """A strategy for `key`'s values (each entry's, for a list key) in its `_DOMAINS` interval,
    an integer one capped at `most`."""
    least, top, brackets = _DOMAINS[key]
    if isinstance(least, int):
        return st.integers(least, min(top, most))
    return st.floats(least, None if math.isinf(top) else top, allow_nan=False,
                     allow_infinity=False, exclude_min=brackets[0] == "(",
                     exclude_max=brackets[1] == ")" and not math.isinf(top))


@st.composite
def valid_configs(draw):
    """RunConfigs that pass validate_config: each key drawn from its `_DOMAINS` interval, the
    keys that a cross-field rule ties together drawn to satisfy it."""
    values = {KEYS[key][0]: draw(in_domain(key)) for key in _DOMAINS
              if key not in ("net.channels", "net.in_shape")}
    values.update({name: draw(_BY_TYPE[typ]) for name, typ in KEYS.values() if typ in _BY_TYPE})
    blocks = draw(in_domain("net.num_blocks", 4))
    channels = draw(st.lists(in_domain("net.channels", 64), min_size=blocks, max_size=blocks))
    replay_block = draw(in_domain("net.replay_block", blocks))
    # the replay block needs room for a narrower latent below it
    feat = channels[replay_block - 1] = draw(in_domain("net.channels", 64).filter(lambda c: c > 1))
    s = draw(in_domain("pq.s", feat - 1))
    classes = draw(in_domain("dataset.classes"))
    first = draw(in_domain("split.first_classes", classes - 1))
    rest = classes - first
    lo = draw(in_domain("online.crop_min_area"))
    values.update(
        dataset_kind=draw(st.sampled_from(["synthetic", "idx", "cifar-bin"])),
        dataset_classes=classes,
        split_first_classes=first,
        split_steps=draw(st.sampled_from([d for d in range(1, rest + 1) if rest % d == 0])),
        net_num_blocks=blocks,
        net_channels=tuple(channels),
        net_in_shape=(draw(in_domain("net.in_shape", 4)),
                      *(draw(st.integers(1, 4)) * 2**blocks for _ in range(2))),
        net_replay_block=replay_block,
        pq_s=s,
        acae_latent_channels=s * draw(st.integers(1, (feat - 1) // s)),
        online_crop_min_area=lo,
        online_crop_max_area=draw(st.floats(lo, _DOMAINS["online.crop_max_area"][1])),
    )
    return RunConfig(**values)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'pq\.banana'"):
            parse_config("seed = 1\npq.banana = 2\n")

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: pq\.k is already set on line 1"):
            parse_config("pq.k = 64\nseed = 1\npq.k = 16\n")

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

    def test_in_shape_needs_three_dims(self):
        with pytest.raises(ConfigError, match="in_shape"):
            parse_config("net.in_shape = 3, 16\n")

    @settings(max_examples=200, deadline=None)
    @given(cfg=valid_configs())
    def test_serialized_config_parses_back_equal(self, cfg):
        validate_config(cfg)

        def survives_one_line(key, value):
            try:
                return getattr(parse_config(f"{key} = {value}\n"), KEYS[key][0]) == value
            except ConfigError:
                return False

        # the text values a plain `key = value` line cannot carry
        lost = [key for key, (name, typ) in KEYS.items()
                if typ is str and not survives_one_line(key, getattr(cfg, name))]
        if lost:
            with pytest.raises(ConfigError, match="|".join(map(re.escape, lost))):
                serialize_config(cfg)
        else:
            assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("path", ["data#1", " lead", "trail ", "a\nb", "a\rb"])
    def test_unwritable_text_value_rejected(self, path):
        with pytest.raises(ConfigError, match="dataset.path"):
            serialize_config(RunConfig(dataset_path=path))

    def test_every_config_field_is_read(self):
        # a RunConfig field that no attribute read in the package names is a key nothing uses
        package = Path(latentreplay.__file__).parent
        read = {
            node.attr
            for source in package.rglob("*.py")
            for node in ast.walk(ast.parse(source.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        unread = sorted(f.name for f in fields(RunConfig) if f.name not in read)
        assert unread == []

    def test_tuple_and_bool_parsing(self):
        cfg = parse_config("net.in_shape = 3, 32, 32\nonline.augment = off\n")
        assert cfg.net_in_shape == (3, 32, 32)
        assert cfg.online_augment is False


def test_src_reads_no_environment_variable():
    # run settings come from the config file alone, never from the environment
    package = Path(latentreplay.__file__).parent
    reads = sorted(
        f"{source.name}:{node.lineno}"
        for source in package.rglob("*.py")
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in ("environ", "getenv") for alias in node.names)
    )
    assert reads == []


def idx_bytes(dtype_code, dims, payload):
    head = bytes([0, 0, dtype_code, len(dims)])
    head += b"".join(struct.pack(">I", d) for d in dims)
    return head + payload


def write_idx(path, arr, code):
    """One IDX file of `arr`: big-endian float32 for code 0x0D, unsigned bytes for 0x08."""
    payload = arr.astype(">f4" if code == 0x0D else ">u1").tobytes()
    path.write_bytes(idx_bytes(code, arr.shape, payload))


def write_idx_dataset(root, ds):
    """`ds` as the four files of an IDX dataset directory, float32 pixels."""
    root.mkdir(exist_ok=True)
    write_idx(root / "train-images.idx", ds.train_images, 0x0D)
    write_idx(root / "train-labels.idx", ds.train_labels, 0x08)
    write_idx(root / "test-images.idx", ds.test_images, 0x0D)
    write_idx(root / "test-labels.idx", ds.test_labels, 0x08)


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

    @pytest.mark.parametrize("dims, payload", [
        ((2, 3, 4), bytes(10)),
        ((2**31, 2**31, 4), b""),  # 2^64 elements, which an int64 product wraps to 0
    ], ids=["short", "dims-past-int64"])
    def test_truncated_payload_rejected(self, tmp_path, dims, payload):
        p = tmp_path / "short.idx"
        p.write_bytes(idx_bytes(0x08, dims, payload))
        lp = tmp_path / "lb.idx"
        lp.write_bytes(idx_bytes(0x08, (2,), bytes(2)))
        with pytest.raises(DataError, match="truncated IDX payload"):
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

    @pytest.mark.parametrize("label", [1.5, np.nan])
    def test_float_labels_rejected(self, tmp_path, label):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        ip.write_bytes(idx_bytes(0x08, (1, 2, 2), bytes(4)))
        lp.write_bytes(idx_bytes(0x0D, (1,), np.array([label], ">f4").tobytes()))
        with pytest.raises(DataError, match="labels must be integers"):
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


class TestLoadDataset:
    CFG = RunConfig(dataset_per_class=4, dataset_test_per_class=2)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, split, value):
        ds = load_dataset(self.CFG)
        images = getattr(ds, f"{split}_images").copy()
        images[-1, 2, 15, 15] = value
        write_idx_dataset(tmp_path, replace(ds, **{f"{split}_images": images}))
        cfg = replace(self.CFG, dataset_kind="idx", dataset_path=str(tmp_path))
        with pytest.raises(DataError, match=f"non-finite pixel in the {split} images"):
            load_dataset(cfg)

    def test_float64_pixel_past_float32_rejected(self, tmp_path):
        # a finite >f8 value that the float32 cast turns into inf
        ds = load_dataset(self.CFG)
        write_idx_dataset(tmp_path, ds)
        train = ds.train_images.astype(np.float64)
        train[0, 0, 0, 0] = 1e300
        (tmp_path / "train-images.idx").write_bytes(
            idx_bytes(0x0E, train.shape, train.astype(">f8").tobytes())
        )
        cfg = replace(self.CFG, dataset_kind="idx", dataset_path=str(tmp_path))
        with pytest.raises(DataError, match="non-finite pixel in the train images"):
            load_dataset(cfg)

    @pytest.mark.parametrize("in_shape", [(1, 16, 16), (3, 32, 32), (3, 16, 8)])
    def test_image_shape_must_be_the_net_input(self, tmp_path, in_shape):
        write_idx_dataset(tmp_path, load_dataset(self.CFG))
        cfg = replace(self.CFG, dataset_kind="idx", dataset_path=str(tmp_path),
                      net_in_shape=in_shape)
        with pytest.raises(DataError, match=r"train images are \(3, 16, 16\), but net.in_shape"):
            load_dataset(cfg)

    def test_float_idx_pixels_at_both_ends_of_the_unit_interval_load(self, tmp_path):
        ds = load_dataset(self.CFG)
        train = ds.train_images.copy()
        train[0, 0, 0, :2] = 0.0, 1.0
        write_idx_dataset(tmp_path, replace(ds, train_images=train))
        back = load_dataset(replace(self.CFG, dataset_kind="idx", dataset_path=str(tmp_path)))
        assert back.train_images.tobytes() == train.tobytes()
        assert back.train_images.min() == 0.0 and back.train_images.max() == 1.0

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("value", [-1e-6, 1.000001])
    def test_float_pixel_outside_the_unit_interval_rejected(self, tmp_path, split, value):
        ds = load_dataset(self.CFG)
        images = getattr(ds, f"{split}_images").copy()
        images[-1, 2, 15, 15] = value
        write_idx_dataset(tmp_path, replace(ds, **{f"{split}_images": images}))
        cfg = replace(self.CFG, dataset_kind="idx", dataset_path=str(tmp_path))
        with pytest.raises(DataError, match=rf"{split} pixels span .*, outside \[0, 1\]"):
            load_dataset(cfg)

    def test_clean_idx_copy_loads_the_same_bytes(self, tmp_path):
        ds = load_dataset(self.CFG)
        write_idx_dataset(tmp_path, ds)
        back = load_dataset(replace(self.CFG, dataset_kind="idx", dataset_path=str(tmp_path)))
        assert back.train_images.tobytes() == ds.train_images.tobytes()
        assert back.test_images.tobytes() == ds.test_images.tobytes()


def blob_table(data: bytes) -> list:
    """(start, name length, rank, payload start, end) of each blob of a checkpoint, parsed here
    from the documented layout."""
    itemsize = {0: 4, 3: 1, 5: 2}
    (count,) = struct.unpack_from("<I", data, 8)
    blobs, at = [], 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, at)
        tag = data[at + 4 + name_len]
        (rank,) = struct.unpack_from("<I", data, at + 5 + name_len)
        dims = struct.unpack_from(f"<{rank}I", data, at + 9 + name_len)
        payload = at + 9 + name_len + 4 * rank
        end = payload + math.prod(dims) * itemsize[tag]
        blobs.append((at, name_len, rank, payload, end))
        at = end
    return blobs


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
        assert bundle.state.config == cfg

    def test_every_task_position_round_trips(self, tmp_path):
        # meta.json holds six keys; the seen classes a load derives from `current_task` are
        # the unbroken run's at every task, and a re-save writes the same bytes
        cfg, ds, stream, state = tiny_run(tmp_path)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        for task in stream.tasks:
            if task.task_id > 1:
                run_stream(state, [task], ds)
            assert state.current_task == task.task_id
            save_checkpoint(state, p1)
            loaded = load_checkpoint(p1).state
            assert loaded.seen_classes == state.seen_classes
            save_checkpoint(loaded, p2)
            good = open(p1, "rb").read()
            assert open(p2, "rb").read() == good
            _, _, _, payload, end = blob_table(good)[-1]  # meta.json is the last blob
            assert list(json.loads(good[payload:end])) == [
                "config_text", "rng", "current_task", "optim_step_count", "frozen_digest",
                "records",
            ]
        assert state.current_task == cfg.split_steps + 1
        assert state.seen_classes == set(range(cfg.dataset_classes))

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

        unbroken = run_stream(state, stream.tasks[1:], ds)

        _, _, _, state2 = tiny_run(tmp_path)
        p = str(tmp_path / "mid.ckpt")
        first = run_stream(state2, stream.tasks[1:3], ds)
        save_checkpoint(state2, p, config_text=text, records=first)
        bundle = load_checkpoint(p)
        rest = run_stream(bundle.state, stream.tasks[3:], ds)
        assert bundle.records + rest == unbroken

    def test_optimizer_and_rng_state_survive(self, tmp_path):
        cfg, ds, stream, state = tiny_run(tmp_path)
        run_stream(state, stream.tasks[1:2], ds)
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

    def test_unknown_version_rejected(self, tmp_path, capsys):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "v.ckpt")
        save_checkpoint(state, p, config_text=serialize_config(cfg))
        blob = bytearray(open(p, "rb").read())
        # 1: the layout before the reservoir became blobs; 2: meta.json with `global_step`
        # and `seen_classes`
        for version in (1, 2, 42):
            blob[4:8] = struct.pack("<I", version)
            blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))  # CRC-valid
            open(p, "wb").write(bytes(blob))
            message = f"unsupported format version {version}$"
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(p)
            assert main(["eval", "--checkpoint", p]) == 6
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "checkpoint" and re.search(message, err["message"])

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

        # one label fewer than the codes: the labels blob gives the row count, so the codes
        # blob is the one named
        save_checkpoint(state, p)
        good = open(p, "rb").read()
        n = len(res)
        spans = {good[start + 4 : start + 4 + name_len]: (start, end)
                 for start, name_len, _, _, end in blob_table(good)}
        a, b = spans[b"reservoir.labels"]
        body = good[:a] + checkpoint._pack_blob("reservoir.labels", res.labels[: n - 1])
        body += good[b:-4]
        open(p, "wb").write(body + struct.pack("<I", zlib.crc32(body)))  # CRC-valid
        message = rf"'reservoir.codes' is uint8\({n}, 4, 4, 4\), not uint8\({n - 1}, 4, 4, 4\)"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(p)
        assert main(["eval", "--checkpoint", p]) == 6
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "checkpoint" and re.search(message, err["message"])

    def test_parameters_must_match_the_config(self, tmp_path, capsys):
        cfg, ds, stream, state = tiny_run(tmp_path)
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
        enc_bias.data = trained.astype(np.uint16)  # a dtype the format has, the wrong one
        rejected("enc.bias")
        enc_bias.data = trained.astype(np.float64)  # a dtype the format has no tag for
        with pytest.raises(CheckpointError, match="enc.bias.*unsupported dtype"):
            save_checkpoint(state, p)
        enc_bias.data = trained
        cents = state.books.centroids
        cents[0, 0, 0], finite = np.nan, cents[0, 0, 0]
        rejected(r"non-finite values in \['pq.centroids'\]")
        cents[0, 0, 0] = finite
        # velocity buffers must exist exactly when the head has stepped
        run_stream(state, stream.tasks[1:2], ds)
        state.optim.slots.pop("classifier.bias")
        rejected("missing")
        state.optim.step_count = 0
        state.optim.slots.clear()
        save_checkpoint(state, p)
        load_checkpoint(p)

    def test_each_missing_blob_is_named(self, tmp_path, capsys):
        _, ds, stream, state = tiny_run(tmp_path)
        run_stream(state, stream.tasks[1:2], ds)  # the head's velocity buffers exist
        p = str(tmp_path / "b.ckpt")
        save_checkpoint(state, p)
        good = open(p, "rb").read()

        # name -> (start, end) of each blob
        spans = {good[start + 4 : start + 4 + name_len].decode(): (start, end)
                 for start, name_len, _, _, end in blob_table(good)}
        assert max(end for _, end in spans.values()) == len(good) - 4

        def rejected(blobs, message):
            body = good[:8] + struct.pack("<I", len(blobs)) + b"".join(blobs)
            open(p, "wb").write(body + struct.pack("<I", zlib.crc32(body)))  # CRC-valid
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(p)
            assert main(["eval", "--checkpoint", p]) == 6
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "checkpoint" and re.search(message, err["message"])

        slot = "optim.classifier.bias.velocity"
        for name in ("pq.centroids", "reservoir.codes", "meta.json", slot):
            kept = [good[a:b] for n, (a, b) in spans.items() if n != name]
            rejected(kept, f"missing.*{re.escape(name)}")
        foo = checkpoint._pack_blob("foo", np.zeros(3, dtype=np.uint8))
        rejected([good[a:b] for a, b in spans.values()] + [foo], r"extra \['foo'\]")

    def test_every_mismatching_blob_is_named(self, tmp_path):
        cfg, ds, stream, state = tiny_run(tmp_path)
        run_stream(state, stream.tasks[1:2], ds)
        p = str(tmp_path / "w.ckpt")
        # a 10-class head under a 12-class config: two parameters and their two velocities
        save_checkpoint(state, p, config_text=serialize_config(
            replace(cfg, dataset_classes=12, split_steps=5)))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        named = re.findall(r"'([\w.]+)' is float32", str(err.value))
        assert named == [
            "model.classifier.bias", "model.classifier.weight",
            "optim.classifier.bias.velocity", "optim.classifier.weight.velocity",
        ]

    def test_non_finite_parameters_rejected(self, tmp_path, capsys):
        cfg, ds, stream, state = tiny_run(tmp_path)
        run_stream(state, stream.tasks[1:2], ds)  # the head's velocity buffers exist
        p = str(tmp_path / "n.ckpt")
        cases = [
            (state.model.params["classifier.weight"].data, "model.classifier.weight"),
            (state.model.params["block1.conv1.bias"].data, "model.block1.conv1.bias"),
            (state.compressor.params["dec.weight"].data, "acae.dec.weight"),
            (state.optim.slots["classifier.bias"]["velocity"], "optim.classifier.bias.velocity"),
        ]
        for arr, name in cases:
            for bad in (np.nan, np.inf):
                arr.flat[0], kept = bad, arr.flat[0]
                state.frozen_digest = frozen_checksums(state)  # as if frozen with the NaN
                save_checkpoint(state, p)
                with pytest.raises(CheckpointError, match=rf"non-finite values in \['{name}'\]"):
                    load_checkpoint(p)
                for command in (["eval", "--checkpoint", p],
                                ["stream", "--checkpoint", p, "--out", str(tmp_path / "o")]):
                    assert main(command) == 6
                    assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"
                arr.flat[0] = kept
        state.frozen_digest = frozen_checksums(state)
        save_checkpoint(state, p)
        load_checkpoint(p)

    def test_current_task_out_of_range_rejected(self, tmp_path, capsys):
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "t.ckpt")
        last = cfg.split_steps + 1
        for task in (0, -1, last + 1, 99):
            state.current_task = task
            save_checkpoint(state, p)
            with pytest.raises(CheckpointError, match=rf"current_task {task} is outside 1..{last}"):
                load_checkpoint(p)
            for command in (["eval", "--checkpoint", p],
                            ["stream", "--checkpoint", p, "--out", str(tmp_path / "o")]):
                assert main(command) == 6
                assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"
        for task in (1, last):
            state.current_task = task
            state.seen_classes = set().union(*task_classes(cfg)[:task])
            save_checkpoint(state, p)
            assert load_checkpoint(p).state.current_task == task

    def test_seen_classes_out_of_range_rejected(self, tmp_path):
        # a live state's seen classes must be the task union; a checkpoint stores none, so a
        # load derives them from the task counter
        cfg, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "s.ckpt")
        last = cfg.dataset_classes - 1
        for seen in ({4, 6, 99}, {-1, 0}, {last + 1}):
            state.seen_classes = seen
            message = rf"seen_classes {re.escape(str(sorted(seen)))} are not \[4, 6\]"
            with pytest.raises(ContractError, match=message):
                check_state(state)
            save_checkpoint(state, p)
            assert load_checkpoint(p).state.seen_classes == {4, 6}

    def test_negative_step_count_rejected(self, tmp_path, capsys):
        # the one step count, meta.json's `optim_step_count`, must be >= 0
        _, ds, stream, state = tiny_run(tmp_path)
        p = str(tmp_path / "c.ckpt")

        def rejected(optim_steps, message):
            save_checkpoint(state, p)
            good = open(p, "rb").read()
            meta_at = good.index(b"meta.json") - 4  # the last blob, right before the CRC
            meta = json.loads(good[meta_at + 4 + len("meta.json") + 1 + 4 + 4 : -4])
            meta.update(optim_step_count=optim_steps)
            out = good[:meta_at] + checkpoint._pack_blob(
                "meta.json", np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            )
            open(p, "wb").write(out + struct.pack("<I", zlib.crc32(out)))  # CRC-valid
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(p)
            for command in (["eval", "--checkpoint", p],
                            ["stream", "--checkpoint", p, "--out", str(tmp_path / "o")]):
                assert main(command) == 6
                assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"

        rejected(-5, "step count -5 is negative")  # no state has stepped -5 times
        run_stream(state, stream.tasks[1:2], ds)  # velocity buffers exist once the head has stepped
        streamed = state.global_step
        save_checkpoint(state, p)
        assert load_checkpoint(p).state.global_step == streamed == state.optim.step_count

    def test_seen_classes_not_the_task_union_rejected(self, tmp_path):
        # every class in range, but not the classes of tasks 1..current_task: refused in a live
        # state; a checkpoint stores none, so a load derives the union
        cfg, _, stream, state = tiny_run(tmp_path)
        p = str(tmp_path / "u.ckpt")
        assert stream.tasks[0].classes == (4, 6)
        for task, seen in ((1, {4, 6, 0}), (1, {4}), (2, {4, 6})):
            state.current_task, state.seen_classes = task, seen
            union = set().union(*task_classes(cfg)[:task])
            message = rf"are not {re.escape(str(sorted(union)))}, the classes of tasks 1"
            with pytest.raises(ContractError, match=message):
                check_state(state)
            save_checkpoint(state, p)
            assert load_checkpoint(p).state.seen_classes == union

    def test_unseen_reservoir_label_rejected(self, tmp_path, capsys):
        # a label inside the dataset's classes, of a task not yet streamed
        _, _, stream, state = tiny_run(tmp_path)
        p = str(tmp_path / "l.ckpt")
        unseen = stream.tasks[2].classes[0]
        state.reservoir.labels[0] = unseen
        save_checkpoint(state, p)
        with pytest.raises(CheckpointError, match=rf"reservoir labels \[{unseen}\] are of classes"):
            load_checkpoint(p)
        for command in (["eval", "--checkpoint", p],
                        ["stream", "--checkpoint", p, "--out", str(tmp_path / "o")]):
            assert main(command) == 6
            assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"

    def test_check_state_changes_nothing(self, tmp_path):
        _, ds, stream, state = tiny_run(tmp_path)
        run_stream(state, stream.tasks[1:2], ds)  # the head's velocity buffers exist
        before, after = str(tmp_path / "before.ckpt"), str(tmp_path / "after.ckpt")
        save_checkpoint(state, before)
        check_state(state)
        save_checkpoint(state, after)
        assert open(before, "rb").read() == open(after, "rb").read()

    def test_malformed_meta_rejected(self, tmp_path, capsys):
        _, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "j.ckpt")
        save_checkpoint(state, p)
        good = open(p, "rb").read()
        meta_at = good.index(b"meta.json") - 4  # the last blob, right before the CRC
        # name length, name, dtype tag, rank 1, its one dim, then the payload
        meta = json.loads(good[meta_at + 4 + len("meta.json") + 1 + 4 + 4 : -4])

        def rejected(message, payload):
            out = good[:meta_at] + checkpoint._pack_blob(
                "meta.json", np.frombuffer(payload, dtype=np.uint8)
            )
            open(p, "wb").write(out + struct.pack("<I", zlib.crc32(out)))  # CRC-valid
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(p)
            assert main(["eval", "--checkpoint", p]) == 6
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "checkpoint" and re.search(message, err["message"])

        rejected("not UTF-8 JSON", b"\xff\xfe")
        rejected("not UTF-8 JSON", b'{"config_text": ')
        rejected("not a JSON object", b"[]")
        step = meta.pop("optim_step_count")
        rejected("optim_step_count", json.dumps(meta).encode())
        meta["optim_step_count"] = step
        # a checkpoint written before `output_dir` was removed from the config
        stale = dict(meta, config_text=meta["config_text"] + "output_dir = runs/latest\n")
        rejected("stored config does not parse.*output_dir", json.dumps(stale).encode())
        rejected("stored config does not parse.*pq.k", json.dumps(
            dict(meta, config_text=meta["config_text"] + "pq.k = 0\n")).encode())
        # a checkpoint written while rehearsal could draw with replacement
        rejected("stored config does not parse.*online.sample_with_replacement", json.dumps(
            dict(meta, config_text=meta["config_text"] + "online.sample_with_replacement = false\n")
        ).encode())
        # damaged values of present keys
        rng = meta["rng"]
        for bad_rng in (
            {k: v for k, v in rng.items() if k != "state"},
            dict(rng, state="x"),
            dict(rng, state={"state": "abc", "inc": "1"}),
            dict(rng, has_uint32="x"),
            [],
            # in JSON range, out of the generator's: numpy raises OverflowError on these
            dict(rng, uinteger=-1),
            dict(rng, has_uint32=2**64),
            dict(rng, state=dict(rng["state"], state=str(2**200))),
        ):
            rejected("'rng'", json.dumps(dict(meta, rng=bad_rng)).encode())
        for row in ([0, 1], [0, 1, 2, 0.5, 1.0], "row", [0, 1, 2, "0.5", 1.0, True]):
            rejected("'records'", json.dumps(dict(meta, records=[row])).encode())
        for key, value in (
            ("frozen_digest", [1]), ("current_task", None), ("optim_step_count", "0"),
            ("optim_step_count", 1.5), ("optim_step_count", True), ("config_text", 0),
        ):
            rejected(f"'{key}'", json.dumps(dict(meta, **{key: value})).encode())

    def test_unused_dtype_tags_rejected(self, tmp_path, capsys):
        # the format has no tag 1, 2 or 4 (no blob is <f8, <i8 or <u4)
        _, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "g.ckpt")
        save_checkpoint(state, p)
        good = open(p, "rb").read()
        tag_at = good.index(b"reservoir.labels") + len(b"reservoir.labels")
        assert good[tag_at] == 5
        for tag in (1, 2, 4):
            out = good[:tag_at] + bytes([tag]) + good[tag_at + 1 : -4]
            open(p, "wb").write(out + struct.pack("<I", zlib.crc32(out)))  # CRC-valid
            with pytest.raises(CheckpointError, match=f"unknown dtype tag {tag}"):
                load_checkpoint(p)
            assert main(["eval", "--checkpoint", p]) == 6
            assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"

    def test_damage_at_every_blob_boundary_rejected(self, tmp_path, capsys):
        _, _, _, state = tiny_run(tmp_path)
        p = str(tmp_path / "f.ckpt")
        save_checkpoint(state, p)
        good = open(p, "rb").read()
        blobs = blob_table(good)
        count = len(blobs)
        assert all(end > payload for *_, payload, end in blobs)
        assert blobs[-1][-1] == len(good) - 4 and count > 20

        def rejected(data, recrc=False):
            if recrc:
                data = data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))
            open(p, "wb").write(data)
            with pytest.raises(CheckpointError):
                load_checkpoint(p)
            assert main(["eval", "--checkpoint", p]) == 6
            assert json.loads(capsys.readouterr().err)["error"] == "checkpoint"

        def flipped(data, i):
            return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :]

        for start, name_len, _, payload, end in blobs:
            rejected(good[:start])
            rejected(good[:payload])
            rejected(flipped(good, start + 4))  # a name byte, CRC left stale
            rejected(flipped(good, payload))
            rejected(flipped(good, start + 4), recrc=True)  # a name that is not UTF-8
            # the same blob twice in a row, with the blob count raised to match
            body = good[:start] + good[start:end] + good[start:-4]
            rejected(body[:8] + struct.pack("<I", count + 1) + body[12:] + bytes(4), recrc=True)

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
        rows = [json.loads(line) for line in Path(jsonl).read_text().splitlines()]
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
        assert int(data[2]) == memory_bytes(10, (4, 4, 4))
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


def domain_edges(key):
    """(inside, outside) at each bound of `key` in `_DOMAINS`: a closed bound and the value one
    past it, or an open bound and the value one inside it, the next integer or float (the
    largest float, for an open inf); an integer key has no edge at inf."""
    least, most, brackets = _DOMAINS[key]
    is_int = isinstance(least, int)

    def toward(value, way):
        return value + way if is_int else math.nextafter(value, way * math.inf)

    pairs = []
    for bound, is_open, out in ((least, brackets[0] == "(", -1), (most, brackets[1] == ")", 1)):
        if not (is_int and math.isinf(bound)):
            pairs.append((toward(bound, -out), bound) if is_open else (bound, toward(bound, out)))
    return pairs


def key_value(key, value, base):
    """`value` as `key`'s setting: `base`'s list with its first entry replaced, for a list key."""
    default = getattr(base, KEYS[key][0])
    return (value, *default[1:]) if isinstance(default, tuple) else value


def config_line(key, value):
    return f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}"


# each value one past a bound of the table, and nan, inf and -inf for every float key, after
# the values refused before the table existed
OUT_OF_DOMAIN = list(dict.fromkeys([
    "pq.s = 0", "offline.batch_size = 0", "acae.batch_size = 0", "offline.epochs = -1",
    "acae.epochs = -1", "pq.iters = -1", "online.rehearsal_n = -1", "online.eval_every = -1",
    "reservoir.capacity = 0", "dataset.per_class = 0", "dataset.test_per_class = 0",
    "acae.latent_channels = 0", "net.in_shape = 3, 0, 0", "net.channels = 0, 16, 32",
    "dataset.classes = 70000", "dataset.noise = -0.5", "online.lr = nan", "offline.lr = inf",
    "acae.lr = -inf", "online.momentum = nan", "seed = -1", "class_order_seed = -1",
    "offline.lr = 0.0", "acae.lr = -0.5", "online.lr = -0.5", "offline.momentum = 1.0",
    "online.momentum = -0.1", "online.momentum = 1.5", "pq.k = 0", "pq.k = 257",
    *(config_line(key, key_value(key, outside, RunConfig()))
      for key in _DOMAINS for _, outside in domain_edges(key)),
    *(f"{key} = {v}" for key, (least, _, _) in _DOMAINS.items() if isinstance(least, float)
      for v in ("nan", "inf", "-inf")),
]))

# 4 samples a class of 1x8x8 images, channels 2,4,4 and one epoch: the replay map is 2x2, and
# task 1 has 32 position vectors
SWEEP_BASE = RunConfig(
    dataset_classes=4, split_first_classes=2, split_steps=2, dataset_per_class=4,
    dataset_test_per_class=1, net_in_shape=(1, 8, 8), net_channels=(2, 4, 4), offline_epochs=1,
    acae_epochs=1, acae_latent_channels=2, pq_s=2, pq_k=8, pq_iters=2, reservoir_capacity=8,
    online_rehearsal_n=2,
)
# what an edge of a key needs set beside it, on SWEEP_BASE, to meet the cross-field rules
_BESIDE = {
    "dataset.classes": dict(split_first_classes=1, split_steps=1),
    "split.first_classes": dict(split_steps=1),
    "net.num_blocks": dict(net_channels=(4,), net_replay_block=1),
    "net.replay_block": dict(acae_latent_channels=1, pq_s=1),
    "acae.latent_channels": dict(pq_s=1),
    "online.crop_max_area": dict(online_crop_min_area=math.nextafter(0.0, 1.0)),
}
# (key, settings): each in-domain bound on SWEEP_BASE, then each cross-field edge; 65536
# classes, whose full run would take minutes, is TestDomainSweep's checkpoint round trip
# instead
IN_DOMAIN = [
    *((key, {KEYS[key][0]: key_value(key, inside, SWEEP_BASE), **_BESIDE.get(key, {})})
      for key in _DOMAINS for inside, _ in domain_edges(key)
      if (key, inside) != ("dataset.classes", 65536)),
    ("net.replay_block", dict(net_replay_block=3)),  # replay block = num_blocks, a 1x1 map
    ("net.replay_block", dict(net_replay_block=3, net_in_shape=(1, 8, 16))),  # a 1x2 map
    ("split.first_classes", dict(split_first_classes=3, split_steps=1)),  # classes - 1
    ("online.crop_min_area", dict(online_crop_min_area=0.5, online_crop_max_area=0.5)),
    ("acae.latent_channels", dict(acae_latent_channels=3, pq_s=1)),  # feature channels - 1
]


class TestDomainSweep:
    @pytest.mark.parametrize("key, settings", IN_DOMAIN,
                             ids=[f"{key}:{settings}" for key, settings in IN_DOMAIN])
    def test_each_in_domain_edge_runs_or_names_its_key(self, key, settings, tmp_path):
        cfg = replace(SWEEP_BASE, **settings)
        assert parse_config(serialize_config(cfg)) == cfg  # the config itself is accepted
        path = str(tmp_path / "run.ckpt")
        try:
            ds = load_dataset(cfg)
            tasks = build_task_stream(ds, cfg).tasks
            state = initialize(tasks[0], cfg)
            records = run_stream(state, tasks[1:], ds)
            save_checkpoint(state, path, records=records)
            back = load_checkpoint(path)
        except LatentReplayError as err:  # any other exception fails the test
            assert key in str(err)
            return
        save_checkpoint(back.state, str(tmp_path / "again.ckpt"), records=back.records)
        assert (tmp_path / "again.ckpt").read_bytes() == Path(path).read_bytes()

    def test_most_classes_round_trip_the_largest_label(self, tmp_path):
        cfg = replace(SWEEP_BASE, dataset_classes=65536, split_first_classes=65535, split_steps=1)
        assert parse_config(serialize_config(cfg)) == cfg
        state = blank_state(cfg, 0, np.random.default_rng(0), rows=1)
        res = state.reservoir
        res.codes[0], res.labels[0] = 1, 65535
        state.current_task, state.seen_classes = 2, set(range(65536))
        state.frozen_digest = frozen_checksums(state)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(state, path)
        back = load_checkpoint(path).state.reservoir
        assert back.labels[: back.size].tolist() == [65535]
        assert np.array_equal(back.codes[: back.size], res.codes[:1])


# one of each JSON kind, and the integers and floats past what a field can hold
JSON_VALUES = [None, True, False, 0, 1, -1, 2**31, 2**64, -2**70, 2**200, 1.5, 1e308, "", "x",
               "-1", str(2**200), [], [0], {}, {"x": 0}]
_IDX_CODES = [0x08, 0x09, 0x0B, 0x0C, 0x0D, 0x0E]
_IDX_ITEMSIZE = dict(zip(_IDX_CODES, [1, 1, 2, 4, 4, 8]))


def json_paths(value, most=3) -> list:
    """The key paths of depth 1..`most` into a JSON object or list."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [path for key, child in items for path in [(key,)] + (
        [(key, *rest) for rest in json_paths(child, most - 1)]
        if most > 1 and isinstance(child, (dict, list)) else [])]


@st.composite
def idx_files(draw, ranks, count):
    """An IDX file of a rank in `ranks` whose first dim is `count`, with at most one damage:
    its magic or dtype code replaced, a rank of 0..5 or 65 instead (the dims and payload to
    match), its dims redrawn from 0 and powers of two whose int64 product can wrap to 0 (the
    payload then empty), its header cut, or its payload resized."""
    damage = draw(st.sampled_from([None, "magic", "code", "rank", "dims", "cut", "payload"]))
    code = draw(st.sampled_from(_IDX_CODES))
    rank = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 65] if damage == "rank" else ranks))
    dims = ([count] + draw(st.lists(st.integers(1, 4), min_size=5, max_size=5)) + [1] * 64)[:rank]
    size = math.prod(dims) * _IDX_ITEMSIZE[code]
    payload = draw(st.binary(min_size=size, max_size=size))
    head = bytearray([0, 0, code, rank]) + struct.pack(f">{rank}I", *dims)
    if damage == "magic":
        head[:2] = draw(st.binary(min_size=2, max_size=2))
    elif damage == "code":
        head[2] = draw(st.integers(0, 255))
    elif damage == "dims":
        big = st.sampled_from([2**31, 0, 2**16])
        head[4:] = struct.pack(f">{rank}I", *draw(st.lists(big, min_size=rank, max_size=rank)))
        payload = b""
    elif damage == "cut":
        return bytes(head[: draw(st.integers(0, len(head) - 1))])
    elif damage == "payload":
        payload = draw(st.binary(max_size=size + 8))
    return bytes(head) + payload


@pytest.fixture(scope="module")
def saved_after_task_2(tmp_path_factory):
    """The bytes of a SWEEP_BASE checkpoint after task 2, and a path to write mutants to."""
    root = tmp_path_factory.mktemp("drawn")
    ds = load_dataset(SWEEP_BASE)
    tasks = build_task_stream(ds, SWEEP_BASE).tasks
    state = initialize(tasks[0], SWEEP_BASE)
    path = str(root / "mutant.ckpt")
    save_checkpoint(state, path, records=run_stream(state, tasks[1:2], ds))
    return open(path, "rb").read(), path


def loads_or_is_refused(data: bytes, path: str) -> None:
    """`data`, CRC-valid, either is refused with CheckpointError or loads a valid state."""
    open(path, "wb").write(data + struct.pack("<I", zlib.crc32(data)))
    try:
        bundle = load_checkpoint(path)
    except CheckpointError:
        return
    check_state(bundle.state)


class TestDrawnInputs:
    """Drawn damage to each file the CLI reads: a load either succeeds with what the run needs
    or raises the file's own error category; any other exception fails."""

    @hypothesis.seed(1)
    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_meta_value_replaced_at_depth_1_to_3(self, saved_after_task_2, data):
        good, path = saved_after_task_2
        start, _, _, payload, end = blob_table(good)[-1]  # meta.json is the last blob
        meta = json.loads(good[payload:end])
        *parents, key = data.draw(st.sampled_from(json_paths(meta)))
        node = meta
        for parent in parents:
            node = node[parent]
        node[key] = data.draw(st.sampled_from(JSON_VALUES))
        text = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        loads_or_is_refused(good[:start] + checkpoint._pack_blob("meta.json", text), path)

    @hypothesis.seed(1)
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_blob_header_or_byte_damaged(self, saved_after_task_2, data):
        good, path = saved_after_task_2
        blobs = blob_table(good)
        body = bytearray(good[:-4])
        start, name_len, rank, _, _ = data.draw(st.sampled_from(blobs))
        at = start + 4 + name_len  # the dtype tag, then the rank, then the dims
        u32 = st.integers(0, 2**32 - 1).map(lambda v: struct.pack("<I", v))
        kind = data.draw(st.sampled_from(["name", "tag", "rank", "dims", "flip", "cut"]))
        if kind == "name":
            names = [good[s + 4 : s + 4 + n] for s, n, *_ in blobs]
            name = data.draw(st.one_of(st.sampled_from(names), st.binary(max_size=20)))
            body[start : at] = struct.pack("<I", len(name)) + name
        elif kind == "tag":
            body[at] = data.draw(st.integers(0, 255))
        elif kind == "rank":
            body[at + 1 : at + 5] = data.draw(u32)
        elif kind == "dims" and rank:
            i = at + 5 + 4 * data.draw(st.integers(0, rank - 1))
            body[i : i + 4] = data.draw(u32)
        elif kind == "flip":
            bit = data.draw(st.integers(0, 8 * len(body) - 1))
            body[bit // 8] ^= 1 << bit % 8
        elif kind == "cut":
            del body[data.draw(st.integers(0, len(body) - 1)) :]
        loads_or_is_refused(bytes(body), path)

    @staticmethod
    def checked_or_refused(x, y, num_classes):
        """Arrays a loader returned either pass `Dataset.check`, pixels in [0, 1], or raise
        DataError there."""
        try:
            Dataset(x, y, x, y, num_classes).check(x.shape[1:])
        except DataError:
            return
        assert ((0 <= x) & (x <= 1)).all()

    @hypothesis.seed(1)
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_idx_pair_loads_or_is_refused(self, tmp_path_factory, data):
        images = tmp_path_factory.getbasetemp() / "drawn-images.idx"
        labels = tmp_path_factory.getbasetemp() / "drawn-labels.idx"
        count = data.draw(st.integers(1, 4))
        images.write_bytes(data.draw(idx_files(ranks=(3, 4), count=count)))
        labels.write_bytes(data.draw(idx_files(ranks=(1,), count=count)))
        try:
            x, y = load_idx(str(images), str(labels))
        except DataError:
            return
        self.checked_or_refused(x, y, data.draw(st.integers(2, 300)))

    @hypothesis.seed(1)
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_cifar_file_loads_or_is_refused(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "drawn.bin"
        length = data.draw(st.sampled_from([3073, 2 * 3073]) | st.integers(0, 3 * 3073))
        path.write_bytes(data.draw(st.binary(min_size=length, max_size=length)))
        try:
            x, y = load_cifar_bin(str(path))
        except DataError:
            return
        self.checked_or_refused(x, y, data.draw(st.integers(2, 300)))

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

    @pytest.mark.parametrize("line", OUT_OF_DOMAIN)
    def test_out_of_range_count_is_a_config_error_before_any_data(
        self, line, tmp_path, capsys, monkeypatch
    ):
        def no_loading(*args, **kwargs):
            raise AssertionError("the dataset loaded under a config that should be refused")

        monkeypatch.setattr(latentreplay.cli, "load_dataset", no_loading)
        p = tmp_path / "bad.txt"
        p.write_text(f"# the line under test is line 2\n{line}\n")
        code = main(["init", "--config", str(p), "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith(f"{line} (line 2) ")
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("key", ["offline.lr", "acae.lr"])
    def test_huge_training_lr_exits_3_naming_the_key_before_k_means(
        self, key, tmp_path, capsys, monkeypatch
    ):
        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means ran on features of a training gone non-finite")

        monkeypatch.setattr(latentreplay.quantizer, "kmeans_fit", no_kmeans)
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(
            "dataset.per_class = 20\ndataset.test_per_class = 5\n"
            "offline.epochs = 2\nacae.epochs = 4\npq.k = 8\n"
            f"reservoir.capacity = 40\nonline.rehearsal_n = 3\n{key} = 1e308\n"
        )
        assert main(["init", "--config", str(cfgp), "--out", str(tmp_path / "x.ckpt")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and f"an {key} too large" in err["message"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_huge_online_lr_exits_3_with_the_json_line_alone(self, tmp_path, capsys):
        # `init` never steps the head; `stream`'s first step casts 1e308 to a float32 inf and
        # the second step's loss is refused. A numpy warning would add to the CLI's stderr;
        # under pytest it is an error (pyproject.toml) and fails this test
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(
            "dataset.per_class = 20\ndataset.test_per_class = 5\n"
            "offline.epochs = 2\nacae.epochs = 4\npq.k = 8\n"
            "reservoir.capacity = 40\nonline.rehearsal_n = 3\nonline.lr = 1e308\n"
        )
        ckpt = str(tmp_path / "x.ckpt")
        assert main(["init", "--config", str(cfgp), "--out", ckpt]) == 0
        capsys.readouterr()
        assert main(["stream", "--checkpoint", ckpt, "--out", str(tmp_path / "o")]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "data" and "online.lr" in err["message"]

    def test_idx_dims_past_int64_exit_3(self, tmp_path, capsys):
        cfg = RunConfig(dataset_per_class=4, dataset_test_per_class=2)
        root = tmp_path / "idx"
        write_idx_dataset(root, load_dataset(cfg))
        (root / "train-images.idx").write_bytes(idx_bytes(0x08, (2**31, 2**31, 4), b""))
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(serialize_config(replace(cfg, dataset_kind="idx", dataset_path=str(root))))
        assert main(["init", "--config", str(cfgp), "--out", str(tmp_path / "x.ckpt")]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "data" and "truncated IDX payload" in err["message"]
        assert not (tmp_path / "x.ckpt").exists()

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
        rows = [json.loads(line) for line in Path(outdir, "metrics.jsonl").read_text().splitlines()]
        assert [r["task"] for r in rows] == [1, 2, 3, 4, 5]
        assert rows[0]["step"] == 0  # the post-init record rides along

    def test_frozen_study_takes_the_seed_from_the_config(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(
            "seed = 1\ndataset.per_class = 10\ndataset.test_per_class = 5\noffline.epochs = 1\n"
        )
        assert main(["frozen-study", "--config", str(cfgp), "--blocks", "0,3"]) == 0
        cfg = parse_config(cfgp.read_text())
        accs = frozen_backbone_study(load_dataset(cfg), cfg, [0, 3])
        assert capsys.readouterr().out == (
            f"frozen through block 0: top1 {accs[0]:.4f}\n"
            f"frozen through block 3: top1 {accs[3]:.4f}\n"
        )

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

    def test_non_finite_stream_input_exits_3(self, tmp_path, capsys):
        # init on a clean IDX float dataset, then a NaN in the first task-2
        # training image: the loader refuses it before `stream` takes a step
        cfg = RunConfig(dataset_per_class=20, dataset_test_per_class=5, offline_epochs=1,
                        acae_epochs=1, pq_k=8, reservoir_capacity=40, online_rehearsal_n=3)
        ds = load_dataset(cfg)
        root = tmp_path / "idx"
        write_idx_dataset(root, ds)
        cfg = replace(cfg, dataset_kind="idx", dataset_path=str(root))
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(serialize_config(cfg))
        ckpt = str(tmp_path / "run.ckpt")
        assert main(["init", "--config", str(cfgp), "--out", ckpt]) == 0
        before = open(ckpt, "rb").read()

        task2 = build_task_stream(ds, cfg).tasks[1]
        train = ds.train_images.copy()
        in_task2 = np.flatnonzero(np.isin(ds.train_labels, task2.classes))
        hit = next(i for i in in_task2 if np.array_equal(ds.train_images[i], task2.images[0]))
        train[hit, 0, 0, 0] = np.nan
        write_idx(root / "train-images.idx", train, 0x0D)
        capsys.readouterr()
        assert main(["stream", "--checkpoint", ckpt, "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and "non-finite pixel in the train images" in err["message"]
        assert open(ckpt, "rb").read() == before

        # a finite head whose loss is not, on the clean images: the bias
        # drives every other class's softmax to 0 (a non-finite parameter
        # is refused at load: TestCheckpoint)
        write_idx(root / "train-images.idx", ds.train_images, 0x0D)
        state = load_checkpoint(ckpt).state
        state.model.params["classifier.bias"].data[0] = 3e38
        save_checkpoint(state, ckpt)
        before = open(ckpt, "rb").read()
        assert main(["stream", "--checkpoint", ckpt, "--out", str(tmp_path / "out")]) == 3
        assert "non-finite loss" in json.loads(capsys.readouterr().err)["message"]
        assert open(ckpt, "rb").read() == before

    def test_wrong_image_shape_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        # 3x32x32 CIFAR records under the default net.in_shape = 3, 16, 16
        root = tmp_path / "cifar"
        root.mkdir()
        rng = np.random.default_rng(0)
        for name, n in (("train.bin", 40), ("test.bin", 10)):
            records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            records[:, 0] = np.arange(n) % 10
            (root / name).write_bytes(records.tobytes())
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(f"dataset.kind = cifar-bin\ndataset.path = {root}\n")
        monkeypatch.setattr(latentreplay.engine, "train_first_task", self._no_training)
        assert main(["init", "--config", str(cfgp), "--out", str(tmp_path / "x.ckpt")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and "but net.in_shape is (3, 16, 16)" in err["message"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_non_finite_task1_pixel_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        # an IDX float dataset with one NaN in a task-1 training image
        cfg = RunConfig(dataset_per_class=8, dataset_test_per_class=2)
        ds = load_dataset(cfg)
        train = ds.train_images.copy()
        train[np.flatnonzero(np.isin(ds.train_labels, task_classes(cfg)[0]))[3], 1, 4, 5] = np.nan
        write_idx_dataset(tmp_path / "idx", replace(ds, train_images=train))
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(serialize_config(replace(cfg, dataset_kind="idx",
                                                 dataset_path=str(tmp_path / "idx"))))
        monkeypatch.setattr(latentreplay.engine, "train_first_task", self._no_training)
        assert main(["init", "--config", str(cfgp), "--out", str(tmp_path / "x.ckpt")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and "non-finite pixel in the train images" in err["message"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_signed_idx_pixels_outside_the_unit_interval_exit_3(self, tmp_path, capsys,
                                                                monkeypatch):
        # >i2 pixels load unscaled: -500 and 1000 are no image's values
        cfg = RunConfig(dataset_per_class=8, dataset_test_per_class=2)
        ds = load_dataset(cfg)
        write_idx_dataset(tmp_path / "idx", ds)
        pixels = np.resize(np.array([-500, 0, 1000, 7]), ds.train_images.shape)
        (tmp_path / "idx" / "train-images.idx").write_bytes(
            idx_bytes(0x0B, pixels.shape, pixels.astype(">i2").tobytes()))
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(serialize_config(replace(cfg, dataset_kind="idx",
                                                 dataset_path=str(tmp_path / "idx"))))
        monkeypatch.setattr(latentreplay.engine, "train_first_task", self._no_training)
        assert main(["init", "--config", str(cfgp), "--out", str(tmp_path / "x.ckpt")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data"
        assert "train pixels span [-500.0, 1000.0], outside [0, 1]" in err["message"]
        assert not (tmp_path / "x.ckpt").exists()

    @staticmethod
    def _no_training(*args, **kwargs):
        raise AssertionError("training started on data the loader should have refused")

    def test_capacity_past_memory_exits_6_from_eval_and_2_from_init_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg, _, _, state = tiny_run(tmp_path)
        huge = serialize_config(replace(cfg, reservoir_capacity=10**12))
        message = "reservoir.capacity = 1000000000000 needs"
        ckpt = str(tmp_path / "huge.ckpt")
        save_checkpoint(state, ckpt, config_text=huge)  # CRC-valid, its config past memory
        assert main(["eval", "--checkpoint", ckpt]) == 6
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "checkpoint" and message in err["message"]

        def no_training(*args, **kwargs):
            raise AssertionError("training started under a capacity past memory")

        monkeypatch.setattr(latentreplay.engine, "train_first_task", no_training)
        cfgp, out = tmp_path / "huge.txt", tmp_path / "x.ckpt"
        cfgp.write_text(huge)
        assert main(["init", "--config", str(cfgp), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["frozen-study", "--blocks", "1,x"],
        ["frozen-study", "--blocks", ""],
        ["frozen-study", "--blocks", "9,-4"],
        ["gradcheck", "--seeds", "0"],
        ["gradcheck", "--seeds", "-2"],
    ])
    def test_bad_flag_values_are_config_errors(self, argv, tmp_path, capsys):
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text("dataset.per_class = 10\ndataset.test_per_class = 2\noffline.epochs = 1\n")
        if argv[0] == "frozen-study":
            argv = argv + ["--config", str(cfgp)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_negative_until_task_is_a_config_error(self, tmp_path, capsys):
        _, _, _, state = tiny_run(tmp_path)
        ckpt = str(tmp_path / "run.ckpt")
        save_checkpoint(state, ckpt)
        before = open(ckpt, "rb").read()
        out = tmp_path / "out"
        assert main(["stream", "--checkpoint", ckpt, "--out", str(out), "--until-task", "-1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert open(ckpt, "rb").read() == before and not out.exists()

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        assert "passed" in capsys.readouterr().out
