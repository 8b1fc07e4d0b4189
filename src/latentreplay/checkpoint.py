"""Binary checkpoint format for a full engine state.

Layout, all integers little-endian:

    offset 0   magic "ACRM"
    offset 4   format version, u32 (currently 2)
    offset 8   blob count, u32
    ...        named blobs: name length u32, name bytes, dtype tag u8,
               rank u32, dims u32 each, raw payload (C order)
    tail       crc32 of everything before it, u32

Blob names are UTF-8 and unique. The dtype tags are 0 (<f4), 3 (u1) and
5 (<u2); any other tag is refused.

This module owns the bytes; `engine.state_arrays` owns the layout. The
blobs are the arrays it names (`model.*`, `acae.*`, `optim.<param>.<slot>`,
`pq.centroids`, and the live reservoir rows as `reservoir.codes` and
`reservoir.labels`), and `meta.json`, a UTF-8 JSON object holding the
config text plus what the config cannot give: the rng state, the task
counter, the seen classes, the step count (under `global_step` and
`optim_step_count`, which must agree), the frozen digests and the
metrics so far.
Loading checks the blob table and the metadata's JSON types, copies
each blob into the `engine.blank_state` of the stored config with as
many reservoir rows as the `reservoir.labels` blob holds, refusing names,
dtypes and shapes that differ from its `state_arrays`, and maps a
refused row count or a failed `engine.check_state`, the run's state
contract, to CheckpointError. load(save(x)) is bit-identical; resuming
reproduces an unbroken run exactly. Other versions are refused.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .config import parse_config, serialize_config
from .engine import EngineState, blank_state, check_state, state_arrays
from .errors import CheckpointError, ConfigError, ContractError
from .metrics import MetricRecord

MAGIC = b"ACRM"
VERSION = 2

# the tag numbers are part of the file format; a tag not listed is refused
_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("u1"): 3, np.dtype("<u2"): 5}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}
# meta.json key -> JSON type of its value
_META_KEYS = {
    "config_text": str, "rng": dict, "current_task": int, "global_step": int,
    "seen_classes": list, "optim_step_count": int, "frozen_digest": dict, "records": list,
}
# a records row holds the MetricRecord fields in order: field name -> JSON types allowed
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}
_RECORD_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(MetricRecord)}


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
    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_blob(r: _Reader) -> tuple[str, np.ndarray]:
    raw = r.take(*r.unpack("<I"))
    try:
        name = str(raw, "utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"blob name {bytes(raw[:32])!r} is not UTF-8") from None
    tag, rank = r.unpack("<BI")
    if tag not in _TAG_DTYPES:
        raise CheckpointError(f"blob {name!r} has unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    dims = r.unpack(f"<{rank}I")
    payload = r.take(math.prod(dims) * dtype.itemsize)
    try:
        return name, np.frombuffer(payload, dtype=dtype).reshape(dims)
    except ValueError as err:  # more axes, or a larger empty shape, than an ndarray may have
        raise CheckpointError(f"blob {name!r} of rank {rank}: {err}") from None


def _rng_state_json(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {
        "bit_generator": st["bit_generator"],
        "state": {k: str(v) for k, v in st["state"].items()},
        "has_uint32": st["has_uint32"],
        "uinteger": st["uinteger"],
    }


def _rng_from_json(path: str, d: dict) -> np.random.Generator:
    """The generator `_rng_state_json` described; CheckpointError if `d` is not such a state."""
    rng = np.random.default_rng()
    try:
        if d["bit_generator"] != rng.bit_generator.state["bit_generator"]:
            raise CheckpointError(f"{path}: unsupported rng kind {d['bit_generator']!r}")
        rng.bit_generator.state = {
            "bit_generator": d["bit_generator"],
            "state": {k: int(v) for k, v in d["state"].items()},
            "has_uint32": d["has_uint32"],
            "uinteger": d["uinteger"],
        }
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: meta.json 'rng' is not a generator state: {err!r}") from None
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
    arrays = state_arrays(state)
    meta = {
        "config_text": config_text,
        "rng": _rng_state_json(state.rng),
        "current_task": state.current_task,
        "global_step": state.global_step,
        "seen_classes": sorted(state.seen_classes),
        "optim_step_count": state.optim.step_count,
        "frozen_digest": state.frozen_digest,
        "records": [[getattr(r, name) for name in _RECORD_TYPES] for r in (records or [])],
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


def _read_meta(path: str, blob: np.ndarray) -> dict:
    """The `meta.json` object, with every key `save_checkpoint` writes."""
    try:
        meta = json.loads(blob.tobytes().decode())
    except ValueError as err:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: meta.json is not UTF-8 JSON: {err}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta.json is not a JSON object")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise CheckpointError(f"{path}: meta.json lacks {missing}")
    for key, typ in _META_KEYS.items():
        if type(meta[key]) is not typ:
            raise CheckpointError(f"{path}: meta.json {key!r} is not a JSON {typ.__name__}")
    if meta["global_step"] != meta["optim_step_count"]:  # one count, stored under two keys
        raise CheckpointError(f"{path}: meta.json global_step {meta['global_step']} and "
                              f"optim_step_count {meta['optim_step_count']} differ")
    if any(type(c) is not int for c in meta["seen_classes"]):
        raise CheckpointError(f"{path}: meta.json 'seen_classes' holds a non-integer")
    for row in meta["records"]:
        if type(row) is not list or len(row) != len(_RECORD_TYPES) or not all(
            type(v) in types for v, types in zip(row, _RECORD_TYPES.values())
        ):
            raise CheckpointError(
                f"{path}: meta.json 'records' row {row!r} is not [{', '.join(_RECORD_TYPES)}]"
            )
    return meta


def load_checkpoint(path: str) -> CheckpointBundle:
    """Parse and validate a checkpoint; inverse of save_checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    body = memoryview(blob)[:-4]
    if zlib.crc32(body) != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")

    r = _Reader(body)
    r.take(4)
    version, count = r.unpack("<II")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name, arr = _read_blob(r)
        if name in arrays:
            raise CheckpointError(f"{path}: blob {name!r} appears twice")
        arrays[name] = arr
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} bytes after the last blob")

    if "meta.json" not in arrays:
        raise CheckpointError(f"{path}: missing blob 'meta.json'")
    meta = _read_meta(path, arrays.pop("meta.json"))
    try:
        cfg = parse_config(meta["config_text"])
    except ConfigError as err:
        raise CheckpointError(f"{path}: stored config does not parse: {err}") from None
    labels = arrays.get("reservoir.labels")
    rows = labels.shape[0] if labels is not None and labels.ndim else 0  # else: refused below
    try:
        state = blank_state(cfg, meta["optim_step_count"], _rng_from_json(path, meta["rng"]), rows)
    except (ConfigError, ContractError) as err:  # a capacity past memory, too many rows
        raise CheckpointError(f"{path}: {err}") from None

    targets = dict(state_arrays(state))
    missing = sorted(targets.keys() - arrays.keys())
    extra = sorted(arrays.keys() - targets.keys())
    if missing or extra:
        raise CheckpointError(
            f"{path}: blobs do not match the config (missing {missing}, extra {extra})"
        )
    wrong = [
        f"{name!r} is {arr.dtype}{arr.shape}, not {dst.dtype}{dst.shape}"
        for name, arr in arrays.items()
        if (dst := targets[name]).dtype != arr.dtype or dst.shape != arr.shape
    ]
    if wrong:
        raise CheckpointError(f"{path}: blobs do not match the config and its {rows} "
                              f"reservoir rows: {'; '.join(wrong)}")
    for name, arr in arrays.items():
        targets[name][...] = arr

    state.current_task = meta["current_task"]
    state.frozen_digest = dict(meta["frozen_digest"])
    state.seen_classes = set(meta["seen_classes"])
    try:
        check_state(state)
    except ContractError as err:
        raise CheckpointError(f"{path}: {err}") from None

    records = [MetricRecord(*row) for row in meta["records"]]
    return CheckpointBundle(state, meta["config_text"], records)
