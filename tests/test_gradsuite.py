"""The packaged gradient suite: layers and both loss compositions."""

import numpy as np
import pytest

from latentreplay.gradsuite import (
    EPS,
    classification_loss_check,
    compression_loss_check,
    finite_diff_report,
    layer_checks,
    run_suite,
)
from latentreplay.nn import Tensor, linear, record_relu_masks, relu, softmax_cross_entropy


@pytest.mark.parametrize("seed", range(3))
def test_layer_checks_pass(seed):
    for result in layer_checks(seed):
        assert result.passed, f"{result.name} seed {seed}: {result.max_rel_err}"
        assert result.checked > 0


@pytest.mark.parametrize("seed", range(3))
def test_composition_checks_pass(seed):
    for result in (classification_loss_check(seed), compression_loss_check(seed)):
        assert result.passed, f"{result.name} seed {seed}: {result.max_rel_err}"
        assert result.checked > 0


def test_run_suite_covers_layers_and_compositions():
    results = run_suite([0])
    names = {r.name for r in results}
    assert {
        "conv2d", "relu", "avgpool2", "global_avgpool", "linear", "mse",
        "softmax_cross_entropy", "classification_loss", "compression_loss",
    } <= names


def test_checker_catches_a_wrong_gradient():
    """A deliberately scaled analytic gradient must be flagged."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=2).astype(np.float32), requires_grad=True)
    labels = rng.integers(0, 2, size=3)

    def honest(x, w, b):
        loss = softmax_cross_entropy(linear(x, w, b), labels)
        return loss

    result = finite_diff_report("linear", 0, honest, [x, w, b], EPS)
    assert result.passed  # sanity: correct gradient passes

    # halve the analytic gradient by doubling the numeric side: scale the
    # loss only in float64 mode, which the numeric evaluations use
    def dishonest(x, w, b):
        loss = softmax_cross_entropy(linear(x, w, b), labels)
        if x.data.dtype == np.float64:
            return loss + loss
        return loss

    result = finite_diff_report("linear", 0, dishonest, [x, w, b], EPS)
    assert not result.passed and result.max_rel_err > 0.1


def test_mask_recorder_captures_relu_signs():
    sink = []
    with record_relu_masks(sink):
        relu(Tensor(np.array([-1.0, 2.0], dtype=np.float32)))
        relu(Tensor(np.array([3.0], dtype=np.float32)))
    assert len(sink) == 2
    assert sink[0].tolist() == [False, True]
    assert sink[1].tolist() == [True]
