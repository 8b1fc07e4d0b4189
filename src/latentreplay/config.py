"""Run configuration: key=value text format with documented defaults.

One `key = value` pair per line, '#' starts a comment, blank lines are
ignored. Keys are dotted and flat (no sections). Unknown keys, type
mismatches, and constraint violations raise ConfigError naming the key
and the line it was set on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .network import NetConfig


@dataclass
class RunConfig:
    seed: int = 0

    # dataset
    dataset_kind: str = "synthetic"  # synthetic | idx | cifar-bin
    dataset_path: str = ""
    dataset_classes: int = 10
    dataset_per_class: int = 100
    dataset_test_per_class: int = 20
    dataset_noise: float = 0.25
    class_order_seed: int = 0

    # task split
    split_first_classes: int = 2
    split_steps: int = 4

    # network
    net_num_blocks: int = 3
    net_channels: tuple = (8, 16, 32)
    net_in_shape: tuple = (3, 16, 16)
    net_replay_block: int = 2

    # step-1 offline training
    offline_epochs: int = 12
    offline_lr: float = 0.01
    offline_momentum: float = 0.9
    offline_batch_size: int = 16
    offline_augment: bool = True

    # channel compressor
    acae_latent_channels: int = 8
    acae_epochs: int = 40
    acae_lr: float = 1e-2
    acae_batch_size: int = 32
    acae_use_ce: bool = True

    # product quantizer
    pq_s: int = 4
    pq_k: int = 256
    pq_iters: int = 25

    # replay memory
    reservoir_capacity: int = 500

    # online phase
    online_rehearsal_n: int = 8
    online_lr: float = 0.01
    online_momentum: float = 0.9
    online_eval_every: int = 0  # 0: evaluate at task boundaries only
    online_crop_min_area: float = 0.64
    online_crop_max_area: float = 1.0
    online_augment: bool = True

    def net_config(self) -> NetConfig:
        return NetConfig(
            num_blocks=self.net_num_blocks,
            channels=tuple(self.net_channels),
            in_shape=tuple(self.net_in_shape),
            num_classes=self.dataset_classes,
            replay_block=self.net_replay_block,
        )


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_int_tuple(raw: str) -> tuple:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_int_tuple}
_TYPE_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean", tuple: "integer list"}

# dotted config key -> (dataclass field, python type)
KEYS: dict[str, tuple[str, type]] = {}
for f in fields(RunConfig):
    prefixes = ("dataset_", "split_", "net_", "offline_", "acae_", "pq_", "online_", "reservoir_")
    for p in prefixes:
        if f.name.startswith(p):
            key = p[:-1] + "." + f.name[len(p):]
            break
    else:
        key = f.name
    KEYS[key] = (f.name, f.type if isinstance(f.type, type) else type(getattr(RunConfig(), f.name)))


def parse_config(text: str) -> RunConfig:
    """Parse key=value text into a validated RunConfig."""
    cfg = RunConfig()
    lines_set: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines_set:
            raise ConfigError(f"line {lineno}: {key} is already set on line {lines_set[key]}")
        field_name, typ = KEYS[key]
        try:
            parsed = _PARSERS[typ](value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} expects {_TYPE_NAMES[typ]}, got {value!r}"
            ) from None
        setattr(cfg, field_name, parsed)
        lines_set[key] = lineno
    validate_config(cfg, lines_set)
    return cfg


# key -> its smallest valid value, of every entry for a list: 1 for a divisor, a step, a size
# or a count that must hold something; 0 for a count that may be zero, a seed (numpy takes no
# negative one) or the noise level
_LEAST = {
    "pq.s": 1, "offline.batch_size": 1, "acae.batch_size": 1, "acae.latent_channels": 1,
    "reservoir.capacity": 1, "dataset.per_class": 1, "dataset.test_per_class": 1,
    "net.channels": 1, "net.in_shape": 1, "offline.epochs": 0, "acae.epochs": 0,
    "pq.iters": 0, "online.rehearsal_n": 0, "online.eval_every": 0, "dataset.noise": 0,
    "seed": 0, "class_order_seed": 0,
}
# key -> (test, rule) of the float keys that no run can work outside of
_RANGES = {key: (lambda v: v > 0, "above 0") for key in ("offline.lr", "acae.lr", "online.lr")}
_RANGES.update({key: (lambda v: 0 <= v < 1, "in [0, 1)")
                for key in ("offline.momentum", "online.momentum")})
MAX_CLASSES = 65536  # checkpoints store reservoir labels as u2


def _render(value) -> str:
    """A value as a config file spells it."""
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _where(key: str, lines_set: dict[str, int]) -> str:
    return f"line {lines_set[key]}" if key in lines_set else "default"


def validate_config(cfg: RunConfig, lines_set: dict[str, int] | None = None) -> None:
    """Cross-field constraint checks; errors name every key involved."""
    lines_set = lines_set or {}

    def where(key: str) -> str:
        return _where(key, lines_set)

    if cfg.dataset_kind not in ("synthetic", "idx", "cifar-bin"):
        raise ConfigError(
            f"dataset.kind ({where('dataset.kind')}) must be synthetic, idx, or cifar-bin"
        )
    for key, (name, typ) in KEYS.items():
        value = getattr(cfg, name)
        if typ is float and not math.isfinite(value):
            raise ConfigError(f"{key} = {value} ({where(key)}) must be finite")
    for key, least in _LEAST.items():
        value = getattr(cfg, KEYS[key][0])
        if min(value if isinstance(value, tuple) else (value,), default=least) < least:
            each = " in every entry" if isinstance(value, tuple) else ""
            raise ConfigError(
                f"{key} = {_render(value)} ({where(key)}) must be at least {least}{each}"
            )
    for key, (ok, rule) in _RANGES.items():
        value = getattr(cfg, KEYS[key][0])
        if not ok(value):
            raise ConfigError(f"{key} = {value} ({where(key)}) must be {rule}")
    if cfg.dataset_classes > MAX_CLASSES:
        raise ConfigError(
            f"dataset.classes = {cfg.dataset_classes} ({where('dataset.classes')}) must be at "
            f"most {MAX_CLASSES}: checkpoints store labels as u2"
        )
    if cfg.acae_latent_channels % cfg.pq_s != 0:
        raise ConfigError(
            f"acae.latent_channels = {cfg.acae_latent_channels} ({where('acae.latent_channels')}) "
            f"is not divisible by pq.s = {cfg.pq_s} ({where('pq.s')})"
        )
    if not (1 <= cfg.pq_k <= 256):
        raise ConfigError(f"pq.k = {cfg.pq_k} ({where('pq.k')}) must be in 1..256")
    if cfg.split_first_classes < 1 or cfg.split_first_classes >= cfg.dataset_classes:
        raise ConfigError(
            f"split.first_classes = {cfg.split_first_classes} ({where('split.first_classes')}) "
            f"must be in 1..{cfg.dataset_classes - 1} (dataset.classes, {where('dataset.classes')})"
        )
    rest = cfg.dataset_classes - cfg.split_first_classes
    if cfg.split_steps < 1 or rest % cfg.split_steps != 0:
        raise ConfigError(
            f"split.steps = {cfg.split_steps} ({where('split.steps')}) must divide the "
            f"{rest} classes left after split.first_classes ({where('split.first_classes')})"
        )
    if not (0.0 < cfg.online_crop_min_area <= cfg.online_crop_max_area <= 1.0):
        raise ConfigError(
            f"online.crop_min_area ({where('online.crop_min_area')}) and online.crop_max_area "
            f"({where('online.crop_max_area')}) must satisfy 0 < min <= max <= 1"
        )
    try:
        cfg.net_config().validate()
    except ConfigError as err:
        raise ConfigError(f"network settings: {err}") from None
    feat = cfg.net_channels[cfg.net_replay_block - 1]
    if cfg.acae_latent_channels >= feat:
        raise ConfigError(
            f"acae.latent_channels = {cfg.acae_latent_channels} ({where('acae.latent_channels')}) "
            f"must be below the replay-block channel count {feat} "
            f"(net.channels, {where('net.channels')})"
        )


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig as parseable key=value text (all keys, sorted).

    The format has no escapes, so a text value holding '#' or a line
    break, or with leading or trailing whitespace, would parse back as
    a different value; it raises ConfigError naming the key instead.
    """
    out = []
    for key in sorted(KEYS):
        field_name, typ = KEYS[key]
        value = getattr(cfg, field_name)
        if typ is str and ("#" in value or value != value.strip()
                           or value.splitlines() not in ([], [value])):
            raise ConfigError(f"{key} = {value!r} cannot be written to a config file")
        out.append(f"{key} = {_render(value)}")
    return "\n".join(out) + "\n"
