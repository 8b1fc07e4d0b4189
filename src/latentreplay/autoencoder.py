"""Channel-compressing auto-encoder trained against the frozen head.

The encoder is a single 1x1 convolution plus relu that maps C feature
channels down to C' < C; the decoder is a 1x1 convolution back up to C.
Spatial dimensions are untouched. Training minimizes reconstruction MSE
plus (optionally) the cross-entropy of the frozen classifier head run on
the reconstruction, the two terms summed unweighted. Only the
encoder/decoder parameters train: `train_compressor` names them alone
in its `nn.training` scope, so the backbone and head stay constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .network import SplitModel, check_finite, kaiming_params
from .nn import (
    OptimState,
    Tensor,
    adam_step,
    conv2d,
    mse,
    no_grad,
    relu,
    softmax_cross_entropy,
    training,
    zero_grads,
)


@dataclass
class CompressorParams:
    """Encoder (C -> C') and decoder (C' -> C) 1x1 conv parameters."""

    params: dict[str, Tensor]

    def encoder_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("enc.")}

    def decoder_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("dec.")}


def compressor_shapes(channels: int, latent_channels: int) -> dict[str, tuple]:
    """Name -> shape of every compressor parameter, in initialization order."""
    return {
        "enc.weight": (latent_channels, channels, 1, 1),
        "enc.bias": (latent_channels,),
        "dec.weight": (channels, latent_channels, 1, 1),
        "dec.bias": (channels,),
    }


def build_compressor(channels: int, latent_channels: int, seed: int) -> CompressorParams:
    """Kaiming-initialized 1x1 conv pair; latent must divide channels down."""
    if not (0 < latent_channels < channels):
        raise ConfigError(
            f"latent_channels {latent_channels} must be in 1..{channels - 1} (it is a compressor)"
        )
    shapes = compressor_shapes(channels, latent_channels)
    return CompressorParams(kaiming_params(shapes, np.random.default_rng(seed)))


def compress(comp: CompressorParams, z: Tensor) -> Tensor:
    """Feature map (N, C, H, W) -> latent (N, C', H, W)."""
    return relu(conv2d(z, comp.params["enc.weight"], comp.params["enc.bias"]))


def decompress(comp: CompressorParams, u: Tensor) -> Tensor:
    """Latent (N, C', H, W) -> reconstruction (N, C, H, W)."""
    return conv2d(u, comp.params["dec.weight"], comp.params["dec.bias"])


def compression_loss(
    comp: CompressorParams,
    model: SplitModel,
    z: Tensor,
    labels: np.ndarray,
    use_ce: bool = True,
) -> tuple[Tensor, Tensor]:
    """Reconstruction MSE, plus frozen-head CE on the reconstruction.

    Returns (total loss, reconstruction). The head must be frozen: a
    `training` scope that names a head parameter is a ContractError.
    """
    for name in model.head_names():
        if model.params[name].requires_grad:
            raise ContractError(f"head parameter {name} must be frozen during compressor training")
    zhat = decompress(comp, compress(comp, z))
    recon = mse(zhat, z)
    if not use_ce:
        return recon, zhat
    logits = model.forward_head(zhat)
    ce = softmax_cross_entropy(logits, labels)
    return ce + recon, zhat


def train_compressor(
    comp: CompressorParams,
    model: SplitModel,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int,
    lr: float,
    batch_size: int = 32,
    use_ce: bool = True,
    rng: np.random.Generator,
) -> list[float]:
    """Adam over shuffled feature maps; returns per-epoch reconstruction MSE.

    The returned history has epochs + 1 entries: index 0 is the MSE of
    the untrained compressor, so callers can verify training helped.
    Backbone and head parameters are bit-identical before and after. A
    loss or a final parameter that is not finite raises DataError naming `acae.lr`.
    """
    m = features.shape[0]
    if m == 0:
        raise DataError("train_compressor called with an empty feature set")
    state = OptimState(lr=lr)

    def dataset_mse() -> float:
        total = 0.0
        with no_grad():
            for start in range(0, m, batch_size):
                zb = Tensor(features[start : start + batch_size])
                zhat = decompress(comp, compress(comp, zb))
                total += float(mse(zhat, zb).data) * zb.shape[0]
        return total / m

    history = [dataset_mse()]
    with training(comp.params), np.errstate(all="ignore"):  # non-finite values raise below
        for epoch in range(epochs):
            order = rng.permutation(m)
            for start in range(0, m, batch_size):
                idx = order[start : start + batch_size]
                loss, _ = compression_loss(comp, model, Tensor(features[idx]), labels[idx], use_ce)
                check_finite(f"compressor loss in epoch {epoch + 1}", [loss.data], "acae.lr")
                zero_grads(comp.params)
                loss.backward()
                adam_step(comp.params, state)
            history.append(dataset_mse())
    check_finite("compressor weights", [p.data for p in comp.params.values()], "acae.lr")
    return history
