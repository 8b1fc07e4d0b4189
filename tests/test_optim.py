"""Optimizer update rules against hand-rolled scalar recurrences."""

import numpy as np
import pytest

from latentreplay.errors import ShapeError
from latentreplay.nn import OptimState, Tensor, adam_step, sgd_step


def test_sgd_matches_scalar_recurrence():
    # independent oracle: the same recurrence written out longhand
    p_ref, v_ref = 1.0, 0.0
    lr, mom = 0.1, 0.9
    traj_ref = []
    for _ in range(10):
        g = 2.0 * p_ref
        v_ref = mom * v_ref + g
        p_ref = p_ref - lr * v_ref
        traj_ref.append(p_ref)

    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    state = OptimState(lr=lr, momentum=mom)
    traj = []
    for _ in range(10):
        p.grad = 2.0 * p.data
        sgd_step({"p": p}, state)
        traj.append(float(p.data[0]))
    assert np.allclose(traj, traj_ref, atol=1e-6)


def test_sgd_converges_on_quadratic():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9)
    for _ in range(50):
        p.grad = 2.0 * p.data
        sgd_step({"p": p}, state)
    assert abs(float(p.data[0])) < 0.05
    assert state.step_count == 50


def test_adam_matches_scalar_recurrence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p_ref, m_ref, v_ref = 0.0, 0.0, 0.0
    for t in range(1, 21):
        g = 2.0 * (p_ref - 3.0)
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        mhat = m_ref / (1 - b1**t)
        vhat = v_ref / (1 - b2**t)
        p_ref = p_ref - lr * mhat / (np.sqrt(vhat) + eps)

    p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
    state = OptimState(lr=lr)
    for _ in range(20):
        p.grad = 2.0 * (p.data - 3.0)
        adam_step({"p": p}, state)
    assert abs(float(p.data[0]) - p_ref) < 1e-5


def test_adam_converges_on_shifted_quadratic():
    p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
    state = OptimState(lr=0.1)
    for _ in range(200):
        p.grad = 2.0 * (p.data - 3.0)
        adam_step({"p": p}, state)
    assert abs(float(p.data[0]) - 3.0) < 0.1


def test_zero_gradient_leaves_sgd_params_bit_identical():
    rng = np.random.default_rng(3)
    p = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
    before = p.data.copy()
    state = OptimState(lr=0.5, momentum=0.9)
    p.grad = np.zeros_like(p.data)
    sgd_step({"p": p}, state)
    assert np.array_equal(p.data, before)
    p.grad = None  # a missing gradient counts as zero
    sgd_step({"p": p}, state)
    assert np.array_equal(p.data, before)


def test_grad_shape_mismatch_raises():
    # the steps read .grad, whose shape accumulate_grad checks on the way in
    p = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ShapeError):
        p.accumulate_grad(np.zeros(3, dtype=np.float32))


def test_step_count_increments_once_per_call():
    p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    q = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9)
    p.grad = q.grad = np.ones(2, dtype=np.float32)
    sgd_step({"p": p, "q": q}, state)
    assert state.step_count == 1  # two params, one step
