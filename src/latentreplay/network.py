"""Block-structured CNN split into a backbone and a head.

The network is a stack of B blocks, each ``conv3x3 -> relu -> conv3x3 ->
relu -> avgpool2``, followed by global average pooling and a linear
classifier. Splitting at block n puts blocks 1..n in the backbone and
everything after in the head; composing the two halves is bit-identical
to the unsplit forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .nn import (
    OptimState,
    Tensor,
    avgpool2,
    conv2d,
    global_avgpool,
    linear,
    relu,
    sgd_step,
    softmax_cross_entropy,
    training,
    zero_grads,
)


@dataclass(frozen=True)
class NetConfig:
    """Architecture description; spatial dims must survive B halvings."""

    num_blocks: int = 3
    channels: tuple = (16, 32, 64)
    in_shape: tuple = (3, 32, 32)  # C, H, W
    num_classes: int = 10
    replay_block: int = 2

    def validate(self) -> None:
        b = self.num_blocks
        if b < 1:
            raise ConfigError("num_blocks must be positive")
        if len(self.channels) != b:
            raise ConfigError(f"channels has {len(self.channels)} entries for {b} blocks")
        if len(self.in_shape) != 3:
            raise ConfigError(f"in_shape must be C, H, W, got {self.in_shape}")
        if min(self.channels) < 1 or min(self.in_shape) < 1:
            raise ConfigError(
                f"channels {self.channels} and in_shape {self.in_shape} need every entry >= 1"
            )
        c, h, w = self.in_shape
        if h % (2**b) != 0 or w % (2**b) != 0:
            raise ConfigError(f"input {h}x{w} is not divisible by 2^{b}")
        if not (1 <= self.replay_block <= b):
            raise ConfigError(f"replay_block {self.replay_block} outside 1..{b}")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be positive")

    @property
    def feature_channels(self) -> int:
        """Channel count of the feature map at the split point."""
        return self.channels[self.replay_block - 1]

    @property
    def feature_hw(self) -> tuple:
        """Spatial size of the feature map at the split point."""
        _, h, w = self.in_shape
        f = 2**self.replay_block
        return (h // f, w // f)


class SplitModel:
    """Parameter store plus forward passes for both halves of the net."""

    def __init__(self, config: NetConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def backbone_names(self) -> list[str]:
        return [k for k in self.params if in_backbone(k, self.config.replay_block)]

    def head_names(self) -> list[str]:
        backbone = set(self.backbone_names())
        return [k for k in self.params if k not in backbone]

    def backbone_params(self) -> dict[str, Tensor]:
        return {k: self.params[k] for k in self.backbone_names()}

    def head_params(self) -> dict[str, Tensor]:
        return {k: self.params[k] for k in self.head_names()}

    def _block(self, z: Tensor, idx: int) -> Tensor:
        p = self.params
        z = relu(conv2d(z, p[f"block{idx}.conv1.weight"], p[f"block{idx}.conv1.bias"], pad=1))
        z = relu(conv2d(z, p[f"block{idx}.conv2.weight"], p[f"block{idx}.conv2.bias"], pad=1))
        return avgpool2(z)

    def forward_backbone(self, x) -> Tensor:
        z = x if isinstance(x, Tensor) else Tensor(x)
        for b in range(1, self.config.replay_block + 1):
            z = self._block(z, b)
        return z

    def forward_head(self, z) -> Tensor:
        t = z if isinstance(z, Tensor) else Tensor(z)
        for b in range(self.config.replay_block + 1, self.config.num_blocks + 1):
            t = self._block(t, b)
        t = global_avgpool(t)
        return linear(t, self.params["classifier.weight"], self.params["classifier.bias"])

    def forward(self, x) -> Tensor:
        return self.forward_head(self.forward_backbone(x))


def _block_of(name: str) -> int | None:
    if name.startswith("block"):
        return int(name.split(".")[0][5:])
    return None


def in_backbone(name: str, replay_block: int) -> bool:
    """Whether parameter `name` sits at or below the split after block `replay_block`."""
    block = _block_of(name)
    return block is not None and block <= replay_block


def param_shapes(config: NetConfig) -> dict[str, tuple]:
    """Name -> shape of every network parameter, in initialization order."""
    shapes = {}
    c_in = config.in_shape[0]
    for b, c_out in enumerate(config.channels, start=1):
        for conv, ci in (("conv1", c_in), ("conv2", c_out)):
            shapes[f"block{b}.{conv}.weight"] = (c_out, ci, 3, 3)
            shapes[f"block{b}.{conv}.bias"] = (c_out,)
        c_in = c_out
    shapes["classifier.weight"] = (config.num_classes, config.channels[-1])
    shapes["classifier.bias"] = (config.num_classes,)
    return shapes


def kaiming_params(shapes: dict[str, tuple], rng: np.random.Generator) -> dict[str, Tensor]:
    """Float32 parameters: zero biases, fan-in normal weights, drawn in table order."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".bias"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            std = np.sqrt(2.0 / math.prod(shape[1:]))
            data = rng.normal(0.0, std, size=shape).astype(np.float32)
        params[name] = Tensor(data)
    return params


def build_model(config: NetConfig, seed: int) -> SplitModel:
    """Deterministic Kaiming fan-in initialization from the given seed."""
    config.validate()
    return SplitModel(config, kaiming_params(param_shapes(config), np.random.default_rng(seed)))


_AUGMENT_PAD = 2


def augment_images(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random crop after zero-padding by _AUGMENT_PAD pixels, plus horizontal flip."""
    n, c, h, w = x.shape
    pad = _AUGMENT_PAD
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(x)
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    for i in range(n):
        oy, ox = offs[i]
        crop = padded[i, :, oy : oy + h, ox : ox + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def train_offline(
    model: SplitModel,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int,
    lr: float,
    momentum: float = 0.9,
    batch_size: int = 16,
    augment: bool = True,
    rng: np.random.Generator,
    trainable: list[str] | None = None,
) -> list[float]:
    """Multi-epoch SGD over shuffled data; returns per-epoch mean losses.

    `trainable` restricts updates to a subset of parameter names (all by
    default); the forward pass always uses the full network. A loss or
    a final parameter that is not finite raises DataError naming `offline.lr`.
    """
    m = images.shape[0]
    if m == 0:
        raise DataError("train_offline called with an empty dataset")
    if labels.min() < 0 or labels.max() >= model.config.num_classes:
        raise DataError("label outside the configured class range")
    names = list(model.params) if trainable is None else list(trainable)
    train_params = {k: model.params[k] for k in names}
    state = OptimState(lr=lr, momentum=momentum)
    epoch_losses = []
    with training(train_params), np.errstate(all="ignore"):  # non-finite values raise below
        for epoch in range(epochs):
            order = rng.permutation(m)
            total = 0.0
            for start in range(0, m, batch_size):
                idx = order[start : start + batch_size]
                xb = images[idx]
                if augment:
                    xb = augment_images(xb, rng)
                logits = model.forward(Tensor(xb))
                loss = softmax_cross_entropy(logits, labels[idx])
                check_finite(f"offline loss in epoch {epoch + 1}", [loss.data], "offline.lr")
                zero_grads(train_params)
                loss.backward()
                sgd_step(train_params, state)
                total += float(loss.data) * len(idx)
            epoch_losses.append(total / m)
    check_finite("offline-trained weights", [p.data for p in train_params.values()], "offline.lr")
    return epoch_losses


def check_finite(what: str, arrays, setting: str) -> None:
    """Raise DataError, blaming the data or a too large `setting`, unless every array is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"non-finite {what} (the data, or an {setting} too large)")
