"""Dataset ingestion: IDX files, CIFAR-style .bin files, synthetic blobs.

All loaders return images as float32 NCHW arrays in [0, 1] and labels as
int64 vectors, and reject malformed input with DataError rather than
crashing mid-parse. Each builds its float32 images in place: a file
loader casts the raw pixels once and scales that array, and the
synthetic generator adds its noise to the gathered class images a block
of rows at a time. The peak is therefore the output (plus the file's
bytes) and one block, with no whole-set temporary. `load_dataset` also
refuses images whose (C, H, W) is not `net.in_shape` and non-finite
pixels, before any training sees them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "load_idx",
    "load_cifar_bin",
    "gen_synthetic",
    "load_dataset",
]


@dataclass(frozen=True)
class Dataset:
    """Train/test split with a shared label universe 0..num_classes-1."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    num_classes: int

    def check(self, in_shape: tuple) -> None:
        """Raise DataError unless both splits are finite (C, H, W) = `in_shape` images with
        one label in 0..num_classes-1 each."""
        for split, images, labels in (
            ("train", self.train_images, self.train_labels),
            ("test", self.test_images, self.test_labels),
        ):
            if images.ndim != 4 or images.shape[0] != labels.shape[0]:
                raise DataError("images must be NCHW with one label per image")
            if images.shape[1:] != tuple(in_shape):
                raise DataError(
                    f"{split} images are {images.shape[1:]}, but net.in_shape is {tuple(in_shape)}"
                )
            # min and max propagate NaN and reach any +-inf, without a whole-set mask
            if images.size and not np.isfinite([images.min(), images.max()]).all():
                raise DataError(f"non-finite pixel in the {split} images")
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise DataError("label outside 0..num_classes-1")


_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def _read_idx(path: str) -> np.ndarray:
    """Parse one IDX file.

    Layout: two zero magic bytes, a dtype code byte, a rank byte, then
    rank big-endian u32 dimension sizes, then the payload in row-major
    order (last dimension fastest). Payload byte i of a ubyte file
    therefore lands at flat index i of the returned array.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise DataError(f"{path}: too short for an IDX header")
    if blob[0] != 0 or blob[1] != 0:
        raise DataError(f"{path}: bad IDX magic bytes {blob[0]:#04x} {blob[1]:#04x}")
    code, rank = blob[2], blob[3]
    if code not in _IDX_DTYPES:
        raise DataError(f"{path}: unknown IDX dtype code {code:#04x}")
    dtype = _IDX_DTYPES[code]
    header_end = 4 + 4 * rank
    if len(blob) < header_end:
        raise DataError(f"{path}: truncated IDX dimension list")
    dims = tuple(
        int(v) for v in np.frombuffer(blob, dtype=">u4", count=rank, offset=4)
    )
    expected = header_end + int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
    if len(blob) < expected:
        raise DataError(f"{path}: truncated IDX payload ({len(blob)} < {expected} bytes)")
    if len(blob) > expected:
        raise DataError(f"{path}: {len(blob) - expected} trailing bytes after IDX payload")
    return np.frombuffer(blob, dtype=dtype, offset=header_end).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label file pair.

    Images of rank 3 (count, height, width) gain a singleton channel
    axis; rank 4 is taken as NCHW. Unsigned-byte pixels are scaled by
    1/255 so the result lies in [0, 1].
    """
    raw = _read_idx(images_path)
    if raw.ndim == 3:
        raw = raw[:, None, :, :]
    elif raw.ndim != 4:
        raise DataError(f"{images_path}: expected rank 3 or 4 image data, got rank {raw.ndim}")
    with np.errstate(over="ignore"):  # a value past float32 becomes inf: Dataset.check refuses it
        images = raw.astype(np.float32)
    if raw.dtype == np.dtype(">u1"):
        images /= 255.0
    labels_raw = _read_idx(labels_path)
    if labels_raw.ndim != 1:
        raise DataError(f"{labels_path}: labels must be rank 1, got rank {labels_raw.ndim}")
    labels = labels_raw.astype(np.int64)
    if labels.shape[0] != images.shape[0]:
        raise DataError(
            f"label count {labels.shape[0]} does not match image count {images.shape[0]}"
        )
    return images, labels


_CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 channel-planar pixels


def load_cifar_bin(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a CIFAR-style .bin file of 3073-byte records."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % _CIFAR_RECORD != 0:
        raise DataError(
            f"{path}: size {len(blob)} is not a positive multiple of {_CIFAR_RECORD}"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32)
    images /= 255.0
    return images, labels


def _class_params(classes: int, shape: tuple, rng: np.random.Generator):
    """Per-class blob parameters: center, covariance, channel amplitudes.

    Centers sit on a jittered lattice so no two classes collapse onto
    the same spot regardless of seed.
    """
    channels, height, width = shape
    side = int(np.ceil(np.sqrt(classes)))
    grid = np.linspace(0.22, 0.78, side)
    cells = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    order = rng.permutation(len(cells))[:classes]
    centers = cells[order] + rng.uniform(-0.03, 0.03, size=(classes, 2))
    centers = centers * np.array([height - 1, width - 1])

    span = min(height, width)
    params = []
    for c in range(classes):
        theta = rng.uniform(0.0, np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        scales = rng.uniform(0.10, 0.22, size=2) * span
        cov = rot @ np.diag(scales**2) @ rot.T
        amps = rng.uniform(0.35, 1.0, size=channels)
        params.append((centers[c], np.linalg.inv(cov), amps))
    return params


_NOISE_BLOCK_ROWS = 256  # a 3x16x16 block's float64 draw is 1.5 MB


def gen_synthetic(
    classes: int,
    per_class: int,
    image_shape: tuple = (3, 16, 16),
    seed: int = 0,
    noise: float = 0.25,
    sample_stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate Gaussian-blob images: one blob shape per class plus noise.

    Class parameters depend only on `seed`, draws on (seed,
    sample_stream), so two streams with the same seed share classes but
    not samples. Labels come out interleaved 0, 1, .., classes-1, 0, ..
    so any prefix is roughly class balanced.
    """
    channels, height, width = image_shape
    param_rng = np.random.default_rng(seed)
    sample_rng = np.random.default_rng((seed, 1 + sample_stream))

    params = _class_params(classes, image_shape, param_rng)
    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    bases = np.empty((classes, channels, height, width), dtype=np.float32)
    for c, (center, cov_inv, amps) in enumerate(params):
        dr = rows - center[0]
        dc = cols - center[1]
        quad = (
            cov_inv[0, 0] * dr * dr
            + (cov_inv[0, 1] + cov_inv[1, 0]) * dr * dc
            + cov_inv[1, 1] * dc * dc
        )
        bump = np.exp(-0.5 * quad)
        bases[c] = (amps[:, None, None] * bump[None]).astype(np.float32)

    labels = np.tile(np.arange(classes, dtype=np.int64), per_class)
    images = bases[labels]  # a fresh array, noised in place below
    if noise > 0:
        # row-order blocks draw the same doubles as one whole-set call
        for i in range(0, len(images), _NOISE_BLOCK_ROWS):
            block = images[i : i + _NOISE_BLOCK_ROWS]
            with np.errstate(over="ignore"):  # noise past float32 becomes inf: the clip maps it
                block += sample_rng.normal(0.0, noise, size=block.shape).astype(np.float32)
            np.clip(block, 0.0, 1.0, out=block)
    return images, labels


def load_dataset(cfg) -> Dataset:
    """Materialize the dataset a RunConfig describes.

    synthetic: generated on the fly, train and test from separate draw
    streams. idx: `dataset.path` is a directory holding
    train-images.idx, train-labels.idx, test-images.idx,
    test-labels.idx. cifar-bin: a directory holding train.bin and
    test.bin. Raises DataError, before any training, for images that
    are not `net.in_shape` or hold a non-finite pixel.
    """
    if cfg.dataset_kind == "synthetic":
        shape = tuple(cfg.net_in_shape)
        train = gen_synthetic(
            cfg.dataset_classes, cfg.dataset_per_class, shape,
            seed=cfg.seed, noise=cfg.dataset_noise, sample_stream=0,
        )
        test = gen_synthetic(
            cfg.dataset_classes, cfg.dataset_test_per_class, shape,
            seed=cfg.seed, noise=cfg.dataset_noise, sample_stream=1,
        )
        ds = Dataset(*train, *test, num_classes=cfg.dataset_classes)
    elif cfg.dataset_kind == "idx":
        root = cfg.dataset_path
        train = load_idx(
            os.path.join(root, "train-images.idx"), os.path.join(root, "train-labels.idx")
        )
        test = load_idx(
            os.path.join(root, "test-images.idx"), os.path.join(root, "test-labels.idx")
        )
        ds = Dataset(*train, *test, num_classes=cfg.dataset_classes)
    elif cfg.dataset_kind == "cifar-bin":
        train = load_cifar_bin(os.path.join(cfg.dataset_path, "train.bin"))
        test = load_cifar_bin(os.path.join(cfg.dataset_path, "test.bin"))
        ds = Dataset(*train, *test, num_classes=cfg.dataset_classes)
    else:
        raise DataError(f"unknown dataset kind {cfg.dataset_kind!r}")
    ds.check(cfg.net_in_shape)
    for array in (ds.train_images, ds.train_labels, ds.test_images, ds.test_labels):
        array.flags.writeable = False  # read-only: a Task hands out its rows as views
    return ds
