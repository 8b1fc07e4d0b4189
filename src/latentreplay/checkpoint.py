"""Binary checkpoint format for a full engine state.

Layout, all integers little-endian:

    offset 0   magic "ACRM"
    offset 4   format version, u32 (currently 2)
    offset 8   blob count, u32
    ...        named blobs: name length u32, name bytes, dtype tag u8,
               rank u32, dims u32 each, raw payload (C order)
    tail       crc32 of everything before it, u32

Every part of the state is a named blob: `model.*` and `acae.*`
parameters, `optim.<param>.<slot>` moment buffers, `pq.centroids`
(<f4, shape (s, k, d')), the live reservoir rows as `reservoir.codes`
(u1, shape (n, s, H, W)) and `reservoir.labels` (<u2, shape (n,)), and
`meta.json`, a UTF-8 JSON object holding the config text plus what the
config cannot give: the rng state, the task and step counters, the
seen classes, the optimizer step count, the frozen digests and the
metrics emitted so far. Loading checks the blobs against the config:
the exact set of parameter and optimizer blob names, and every shape and
dtype.
load(save(x)) is bit-identical; resuming must reproduce an unbroken
run exactly. Files of any other version are refused.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .autoencoder import CompressorParams, compressor_shapes
from .config import parse_config, serialize_config
from .engine import EngineState, frozen_checksums, online_optim
from .errors import CheckpointError
from .metrics import MetricRecord
from .network import SplitModel, in_backbone, param_shapes
from .nn import Tensor
from .quantizer import Codebooks
from .reservoir import Reservoir

MAGIC = b"ACRM"
VERSION = 2

_DTYPE_TAGS = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<i8"): 2,
    np.dtype("u1"): 3,
    np.dtype("<u4"): 4,
    np.dtype("<u2"): 5,
}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


@dataclass
class CheckpointBundle:
    """Everything a resumed run needs besides the dataset itself."""

    state: EngineState
    config_text: str
    records: list


def _pack_blob(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    arr = arr.astype(dt, copy=False)
    if arr.dtype not in _DTYPE_TAGS:
        raise CheckpointError(f"blob {name!r} has unsupported dtype {arr.dtype}")
    raw = name.encode()
    head = struct.pack("<I", len(raw)) + raw
    head += struct.pack("<BI", _DTYPE_TAGS[arr.dtype], arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return head + arr.tobytes()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_blob(r: _Reader) -> tuple[str, np.ndarray]:
    name = r.take(r.u32()).decode()
    tag = r.take(1)[0]
    if tag not in _TAG_DTYPES:
        raise CheckpointError(f"blob {name!r} has unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    rank = r.u32()
    dims = tuple(r.u32() for _ in range(rank))
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    payload = r.take(count * dtype.itemsize)
    return name, np.frombuffer(payload, dtype=dtype).reshape(dims)


def _rng_state_json(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {
        "bit_generator": st["bit_generator"],
        "state": {k: str(v) for k, v in st["state"].items()},
        "has_uint32": st["has_uint32"],
        "uinteger": st["uinteger"],
    }


def _rng_from_json(d: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    if d["bit_generator"] != rng.bit_generator.state["bit_generator"]:
        raise CheckpointError(f"unsupported rng kind {d['bit_generator']!r}")
    rng.bit_generator.state = {
        "bit_generator": d["bit_generator"],
        "state": {k: int(v) for k, v in d["state"].items()},
        "has_uint32": d["has_uint32"],
        "uinteger": d["uinteger"],
    }
    return rng


def save_checkpoint(
    state: EngineState, path: str, *, config_text: str | None = None, records: list | None = None
) -> None:
    """Serialize the engine state; see the module docstring for layout.

    `config_text` defaults to the serialized `state.config`. The file is
    written beside `path`, synced, then renamed over it, so a failed
    write leaves any earlier checkpoint at `path` intact.
    """
    if config_text is None:
        config_text = serialize_config(state.config)
    if state.config.dataset_classes > 1 << 16:
        raise CheckpointError("labels above 65535 do not fit the u2 label blob")
    res = state.reservoir
    arrays = [(f"model.{name}", p.data) for name, p in sorted(state.model.params.items())]
    arrays += [(f"acae.{name}", p.data) for name, p in sorted(state.compressor.params.items())]
    for pname, slots in sorted(state.optim.slots.items()):
        arrays += [(f"optim.{pname}.{key}", buf) for key, buf in sorted(slots.items())]
    arrays += [
        ("pq.centroids", state.books.centroids),
        ("reservoir.codes", res.codes[: res.size]),
        ("reservoir.labels", res.labels[: res.size].astype("<u2")),
    ]

    meta = {
        "config_text": config_text,
        "rng": _rng_state_json(state.rng),
        "current_task": state.current_task,
        "global_step": state.global_step,
        "seen_classes": sorted(state.seen_classes),
        "optim_step_count": state.optim.step_count,
        "frozen_digest": state.frozen_digest,
        "records": [
            [r.step, r.task, r.seen_classes, r.top1, r.top5, r.boundary]
            for r in (records or [])
        ],
    }
    arrays.append(("meta.json", np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)))

    out = MAGIC + struct.pack("<II", VERSION, len(arrays))
    out += b"".join(_pack_blob(name, arr) for name, arr in arrays)
    out += struct.pack("<I", zlib.crc32(out))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(out)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _param_blob_shapes(cfg, optim_steps: int) -> dict[str, tuple]:
    """The `model.*`, `acae.*` and `optim.*` blob names and shapes a config implies.

    The head's velocity buffers exist once the online optimizer has stepped.
    """
    net = cfg.net_config()
    model = param_shapes(net)
    comp = compressor_shapes(net.feature_channels, cfg.acae_latent_channels)
    shapes = {f"model.{name}": shape for name, shape in model.items()}
    shapes.update({f"acae.{name}": shape for name, shape in comp.items()})
    if optim_steps:
        shapes.update({
            f"optim.{name}.velocity": shape
            for name, shape in model.items()
            if not in_backbone(name, net.replay_block)
        })
    return shapes


def _check_params(path: str, arrays: dict, expected: dict) -> None:
    missing = sorted(expected.keys() - arrays.keys())
    extra = sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter blobs do not match the config (missing {missing}, extra {extra})"
        )
    for name, shape in expected.items():
        arr = arrays[name]
        if arr.dtype != np.dtype("<f4") or arr.shape != shape:
            raise CheckpointError(
                f"{path}: blob {name!r} is {arr.dtype}{arr.shape}, the config needs <f4{shape}"
            )


def load_checkpoint(path: str) -> CheckpointBundle:
    """Parse and validate a checkpoint; inverse of save_checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")

    r = _Reader(blob[:-4])
    r.take(4)
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name, arr = _read_blob(r)
        arrays[name] = arr
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} bytes after the last blob")

    def take(name: str) -> np.ndarray:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing blob {name!r}")
        return arrays.pop(name)

    meta = json.loads(take("meta.json").tobytes().decode())
    cfg = parse_config(meta["config_text"])
    net = cfg.net_config()
    s, k = cfg.pq_s, cfg.pq_k
    code_shape = (s, *net.feature_hw)

    cents = take("pq.centroids")
    if cents.shape != (s, k, cfg.acae_latent_channels // s):
        raise CheckpointError(f"{path}: centroid table {cents.shape} does not match the config")
    books = Codebooks(s, k, cents.shape[2], cents.copy())

    codes, labels = take("reservoir.codes"), take("reservoir.labels")
    n = len(labels)
    if (
        codes.dtype != np.uint8
        or labels.dtype != np.dtype("<u2")
        or codes.shape != (n, *code_shape)
        or labels.shape != (n,)
    ):
        raise CheckpointError(
            f"{path}: reservoir blobs {codes.dtype}{codes.shape} / {labels.dtype}{labels.shape} "
            f"do not match {n} rows of u1 codes {code_shape} and <u2 labels"
        )
    if n > cfg.reservoir_capacity:
        raise CheckpointError(f"{path}: {n} reservoir rows exceed capacity {cfg.reservoir_capacity}")
    if codes.max(initial=0) >= k:
        raise CheckpointError(f"{path}: reservoir code {int(codes.max())} out of range for k={k}")
    if labels.max(initial=0) >= cfg.dataset_classes:
        raise CheckpointError(
            f"{path}: reservoir label {int(labels.max())} outside {cfg.dataset_classes} classes"
        )
    reservoir = Reservoir(cfg.reservoir_capacity, code_shape, cfg.dataset_classes)
    reservoir.fill(codes, labels)

    optim = online_optim(cfg)
    optim.step_count = meta["optim_step_count"]
    _check_params(path, arrays, _param_blob_shapes(cfg, optim.step_count))
    model_params = {}
    acae_params = {}
    for name, arr in arrays.items():
        group, _, rest = name.partition(".")
        if group == "model":
            model_params[rest] = Tensor(arr.copy())
        elif group == "acae":
            acae_params[rest] = Tensor(arr.copy())
        elif group == "optim":
            pname, key = rest.rsplit(".", 1)
            optim.slots.setdefault(pname, {})[key] = arr.copy()
    model = SplitModel(net, model_params)
    for name in model.head_names():
        model.params[name].requires_grad = True

    state = EngineState(
        config=cfg,
        model=model,
        compressor=CompressorParams(cfg.acae_latent_channels, acae_params),
        books=books,
        reservoir=reservoir,
        optim=optim,
        rng=_rng_from_json(meta["rng"]),
        current_task=meta["current_task"],
        global_step=meta["global_step"],
        frozen_digest=dict(meta["frozen_digest"]),
        seen_classes=set(meta["seen_classes"]),
    )
    if frozen_checksums(state) != state.frozen_digest:
        raise CheckpointError(f"{path}: frozen parameter digests do not match stored values")

    records = [MetricRecord(*row) for row in meta["records"]]
    return CheckpointBundle(state, meta["config_text"], records)
