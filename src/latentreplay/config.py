"""Run configuration: key=value text format with documented defaults.

One `key = value` pair per line, '#' starts a comment, blank lines are
ignored. Keys are dotted and flat (no sections). Unknown keys, a key set
twice, type mismatches and constraint violations raise ConfigError naming
the key and the line it was set on, before any data loads. `_DOMAINS`
holds the interval of every numeric key (of each entry of a list key);
`validate_config` checks it, then the rules that tie keys together.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from math import inf

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

_SECTIONS = ("dataset", "split", "net", "offline", "acae", "pq", "online", "reservoir")
# dotted config key ("<section>.<rest>" of a "<section>_<rest>" field) -> (field, type of default)
KEYS: dict[str, tuple[str, type]] = {
    f.name.replace("_", ".", 1) if f.name.split("_")[0] in _SECTIONS else f.name:
    (f.name, type(getattr(RunConfig(), f.name))) for f in fields(RunConfig)
}


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


# key -> (least, most, brackets) of its value, of every entry for a list key; the brackets
# spell the interval, "(" or ")" for an open bound. NaN fails every comparison, and a finite
# or open bound refuses +-inf, so each float key is finite.
_DOMAINS = {
    **dict.fromkeys(("seed", "class_order_seed", "offline.epochs", "acae.epochs", "pq.iters",
                     "online.rehearsal_n", "online.eval_every"), (0, inf, "[)")),
    **dict.fromkeys(("dataset.per_class", "dataset.test_per_class", "split.first_classes",
                     "split.steps", "net.num_blocks", "net.replay_block", "net.channels",
                     "net.in_shape", "offline.batch_size", "acae.latent_channels",
                     "acae.batch_size", "pq.s", "reservoir.capacity"), (1, inf, "[)")),
    "dataset.classes": (2, 65536, "[]"),  # the reservoir's labels are u2
    "pq.k": (1, 256, "[]"),  # a code is one byte
    "dataset.noise": (0.0, inf, "[)"),
    **dict.fromkeys(("offline.lr", "acae.lr", "online.lr"), (0.0, inf, "()")),
    **dict.fromkeys(("offline.momentum", "online.momentum"), (0.0, 1.0, "[)")),
    **dict.fromkeys(("online.crop_min_area", "online.crop_max_area"), (0.0, 1.0, "(]")),
}
_HOLDS = {"(": operator.lt, "[": operator.le, ")": operator.lt, "]": operator.le}


def _render(value) -> str:
    """A value as a config file spells it."""
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def validate_config(cfg: RunConfig, lines_set: dict[str, int] | None = None) -> None:
    """The `_DOMAINS` check of each key, then the cross-field checks; errors name every key
    involved and the line it was set on."""
    lines_set = lines_set or {}

    def where(key: str) -> str:
        return f"line {lines_set[key]}" if key in lines_set else "default"

    if cfg.dataset_kind not in ("synthetic", "idx", "cifar-bin"):
        raise ConfigError(
            f"dataset.kind ({where('dataset.kind')}) must be synthetic, idx, or cifar-bin"
        )
    for key, (least, most, brackets) in _DOMAINS.items():
        value = getattr(cfg, KEYS[key][0])
        if not all(_HOLDS[brackets[0]](least, v) and _HOLDS[brackets[1]](v, most)
                   for v in (value if isinstance(value, tuple) else (value,))):
            each = " in every entry" if isinstance(value, tuple) else ""
            raise ConfigError(f"{key} = {_render(value)} ({where(key)}) must be in "
                              f"{brackets[0]}{least}, {most}{brackets[1]}{each}")
    if cfg.acae_latent_channels % cfg.pq_s != 0:
        raise ConfigError(
            f"acae.latent_channels = {cfg.acae_latent_channels} ({where('acae.latent_channels')}) "
            f"is not divisible by pq.s = {cfg.pq_s} ({where('pq.s')})"
        )
    if cfg.split_first_classes >= cfg.dataset_classes:
        raise ConfigError(
            f"split.first_classes = {cfg.split_first_classes} ({where('split.first_classes')}) "
            f"must be below dataset.classes = {cfg.dataset_classes} ({where('dataset.classes')})"
        )
    rest = cfg.dataset_classes - cfg.split_first_classes
    if rest % cfg.split_steps != 0:
        raise ConfigError(
            f"split.steps = {cfg.split_steps} ({where('split.steps')}) must divide the "
            f"{rest} classes left after split.first_classes ({where('split.first_classes')})"
        )
    if cfg.online_crop_min_area > cfg.online_crop_max_area:
        raise ConfigError(
            f"online.crop_min_area ({where('online.crop_min_area')}) must not exceed "
            f"online.crop_max_area ({where('online.crop_max_area')})"
        )
    blocks = f"net.num_blocks = {cfg.net_num_blocks} ({where('net.num_blocks')})"
    if len(cfg.net_channels) != cfg.net_num_blocks:
        raise ConfigError(f"net.channels = {_render(cfg.net_channels)} ({where('net.channels')}) "
                          f"has {len(cfg.net_channels)} entries for {blocks}")
    shape = f"net.in_shape = {_render(cfg.net_in_shape)} ({where('net.in_shape')})"
    if len(cfg.net_in_shape) != 3:
        raise ConfigError(f"{shape} must be C, H, W")
    if any(d % 2**cfg.net_num_blocks for d in cfg.net_in_shape[1:]):
        raise ConfigError(f"{shape} needs H and W divisible by 2^{cfg.net_num_blocks}, "
                          f"one halving per block of {blocks}")
    if cfg.net_replay_block > cfg.net_num_blocks:
        raise ConfigError(f"net.replay_block = {cfg.net_replay_block} "
                          f"({where('net.replay_block')}) must not exceed {blocks}")
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
