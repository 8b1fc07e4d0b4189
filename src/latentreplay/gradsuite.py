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


# (name, shapes of the checked inputs, label classes, op). The loss is the cross-entropy of
# the op's output on one label per row of the first input, or, where the classes are None,
# its mse against a target drawn like the first input.
_LAYER_TABLE = (
    ("conv2d", [(2, 2, 4, 4), (3, 2, 3, 3), (3,)], 3,
     lambda x, w, b: global_avgpool(conv2d(x, w, b, pad=1))),
    ("relu", [(3, 5)], 5, relu),
    ("avgpool2", [(2, 3, 4, 4)], 3, lambda x: global_avgpool(avgpool2(x))),
    ("global_avgpool", [(2, 4, 4, 4)], 4, global_avgpool),
    ("linear", [(3, 4), (5, 4), (5,)], 5, linear),
    ("mse", [(3, 4)], None, lambda x: x),
    ("softmax_cross_entropy", [(4, 6)], 6, lambda x: x),
)


def layer_checks(seed: int) -> list[CheckResult]:
    """Finite-difference checks of each `_LAYER_TABLE` op, drawn from one generator in order."""
    rng = np.random.default_rng(seed)
    results = []
    for name, shapes, classes, op in _LAYER_TABLE:
        data = [rng.normal(size=shape).astype(np.float32) for shape in shapes]
        if op is relu:  # keep the relu inputs off the kink
            near = np.abs(data[0]) < 0.1
            data[0][near] = np.sign(data[0][near] + 0.05) * 0.2
        inputs = [Tensor(d) for d in data]
        if classes is None:
            target = Tensor(rng.normal(size=shapes[0]).astype(np.float32))
        else:
            labels = rng.integers(0, classes, size=shapes[0][0])

        def loss(*ts):
            out = op(*ts)
            return mse(out, target) if classes is None else softmax_cross_entropy(out, labels)

        results.append(_result(name, seed, loss, inputs))
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
        return softmax_cross_entropy(local.forward(Tensor(x)), labels)

    return _result("classification_loss", seed, f, tensors, COMPOSITION_EPS)


def compression_loss_check(seed: int) -> CheckResult:
    """Check the compressor loss (frozen-head CE + reconstruction MSE)."""
    cfg = _suite_config()
    model = build_model(cfg, seed)
    rng = np.random.default_rng(seed + 20_000)
    x = rng.normal(size=(2, *cfg.in_shape)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=2)
    comp = build_compressor(cfg.feature_channels, 2, seed + 30_000)
    with no_grad():
        z = model.forward_backbone(Tensor(x))

    names = sorted(comp.params)
    tensors = [comp.params[k] for k in names]

    def f(*ts):
        local = CompressorParams(dict(zip(names, ts)))
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
