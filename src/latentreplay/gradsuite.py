"""Gradient verification suite: every layer plus both training losses.

Each check builds a small random instance from its seed and compares
analytic gradients against central finite differences. Elements whose
perturbation crosses a relu kink are excluded by the checker itself (the
derivative does not exist there); everything else must agree to 1e-3.

Layer checks use the pinned step 1e-3. The two whole-loss compositions
use 1e-4: one perturbed scalar there sweeps hundreds of relu
pre-activations, and the smaller step keeps kink crossings rare while
the float64 numeric path stays far above its noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import CompressorParams, build_compressor, compression_loss
from .network import NetConfig, SplitModel, build_model
from .nn import (
    Tensor,
    avgpool2,
    conv2d,
    finite_diff_report,
    global_avgpool,
    linear,
    mse,
    no_grad,
    relu,
    softmax_cross_entropy,
)

EPS = 1e-3
COMPOSITION_EPS = 1e-4
TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    seed: int
    max_rel_err: float
    checked: int
    skipped_singular: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOL


def _result(name: str, seed: int, fn, tensors, eps: float = EPS) -> CheckResult:
    report = finite_diff_report(fn, tensors, eps)
    return CheckResult(name, seed, report.max_rel_err, report.checked, report.skipped_singular)


def _suite_config() -> NetConfig:
    return NetConfig(
        num_blocks=2, channels=(4, 6), in_shape=(1, 8, 8), num_classes=4, replay_block=1
    )


def layer_checks(seed: int) -> list[CheckResult]:
    """Finite-difference checks for each op in isolation."""
    rng = np.random.default_rng(seed)
    results = []

    x = Tensor(rng.normal(size=(2, 2, 4, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
    labels = rng.integers(0, 3, size=2)

    def conv_loss(x, w, b):
        loss, _ = softmax_cross_entropy(global_avgpool(conv2d(x, w, b, pad=1)), labels)
        return loss

    results.append(_result("conv2d", seed, conv_loss, [x, w, b]))

    data = rng.normal(size=(3, 5)).astype(np.float32)
    near = np.abs(data) < 0.1  # keep the relu inputs off the kink
    data[near] = np.sign(data[near] + 0.05) * 0.2
    xr = Tensor(data, requires_grad=True)
    labels_r = rng.integers(0, 5, size=3)

    def relu_loss(xr):
        loss, _ = softmax_cross_entropy(relu(xr), labels_r)
        return loss

    results.append(_result("relu", seed, relu_loss, [xr]))

    xp = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    labels_p = rng.integers(0, 3, size=2)

    def pool_loss(xp):
        loss, _ = softmax_cross_entropy(global_avgpool(avgpool2(xp)), labels_p)
        return loss

    results.append(_result("avgpool2", seed, pool_loss, [xp]))

    xg = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32), requires_grad=True)
    labels_g = rng.integers(0, 4, size=2)

    def gap_loss(xg):
        loss, _ = softmax_cross_entropy(global_avgpool(xg), labels_g)
        return loss

    results.append(_result("global_avgpool", seed, gap_loss, [xg]))

    xl = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    wl = Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
    bl = Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True)
    labels_l = rng.integers(0, 5, size=3)

    def lin_loss(xl, wl, bl):
        loss, _ = softmax_cross_entropy(linear(xl, wl, bl), labels_l)
        return loss

    results.append(_result("linear", seed, lin_loss, [xl, wl, bl]))

    xm = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    tm = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    results.append(_result("mse", seed, lambda a: mse(a, tm), [xm]))

    xs = Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
    labels_s = rng.integers(0, 6, size=4)

    def ce_loss(xs):
        loss, _ = softmax_cross_entropy(xs, labels_s)
        return loss

    results.append(_result("softmax_cross_entropy", seed, ce_loss, [xs]))
    return results


def classification_loss_check(seed: int) -> CheckResult:
    """Check the step-1 training loss (CE of the full network) w.r.t. all parameters."""
    cfg = _suite_config()
    model = build_model(cfg, seed)
    rng = np.random.default_rng(seed + 10_000)
    x = rng.normal(size=(2, *cfg.in_shape)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=2)

    names = sorted(model.params)
    tensors = [model.params[k] for k in names]

    def f(*ts):
        local = SplitModel(cfg, dict(zip(names, ts)))
        loss, _ = softmax_cross_entropy(local.forward(Tensor(x)), labels)
        return loss

    return _result("classification_loss", seed, f, tensors, COMPOSITION_EPS)


def compression_loss_check(seed: int) -> CheckResult:
    """Check the compressor loss (frozen-head CE + reconstruction MSE)."""
    cfg = _suite_config()
    model = build_model(cfg, seed)
    model.set_trainable(model.params, False)
    rng = np.random.default_rng(seed + 20_000)
    x = rng.normal(size=(2, *cfg.in_shape)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=2)
    comp = build_compressor(cfg.feature_channels, 2, seed + 30_000)
    with no_grad():
        z = model.forward_backbone(Tensor(x))

    names = sorted(comp.params)
    tensors = [comp.params[k] for k in names]

    def f(*ts):
        local = CompressorParams(comp.latent_channels, dict(zip(names, ts)))
        loss, _ = compression_loss(local, model, z, labels, use_ce=True)
        return loss

    return _result("compression_loss", seed, f, tensors, COMPOSITION_EPS)


def run_suite(seeds) -> list[CheckResult]:
    """All layer and composition checks for every seed, in order."""
    results: list[CheckResult] = []
    for seed in seeds:
        results.extend(layer_checks(seed))
        results.append(classification_loss_check(seed))
        results.append(compression_loss_check(seed))
    return results
