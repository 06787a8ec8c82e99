"""Tests for SGD and Adam."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Linear, Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


class TestOptimizerValidation:
    def test_empty_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam([quadratic_param()], lr=0.0)

    def test_bad_betas_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam([quadratic_param()], lr=0.1, betas=(1.0, 0.999))


class TestSGD:
    def test_plain_step(self):
        p = quadratic_param(2.0)
        p.grad = np.array([1.0])
        SGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.data, [1.5])

    def test_momentum_accumulates(self):
        p = quadratic_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, p=-2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = quadratic_param(10.0)
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=1.0).step()
        np.testing.assert_allclose(p.data, [9.0])

    def test_none_grad_skipped(self):
        p = quadratic_param(3.0)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [3.0])

    def test_minimizes_quadratic(self):
        p = quadratic_param(5.0)
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = (Tensor(p.data) * 0 + p) ** 2
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestAdam:
    def test_first_step_size_equals_lr(self):
        # Adam's bias correction makes the first step ~lr regardless of
        # gradient magnitude.
        p = quadratic_param(0.0)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1234.5])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)

    def test_minimizes_quadratic(self):
        p = quadratic_param(5.0)
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            opt.zero_grad()
            loss = p ** 2
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay_pulls_to_zero(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.05, weight_decay=1.0)
        for _ in range(400):
            opt.zero_grad()
            p.grad = np.zeros(1)
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0], [-3.0]])
        x = rng.standard_normal((100, 2))
        y = x @ true_w
        layer = Linear(2, 1, rng=rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = ((layer(Tensor(x)) - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)

    def test_zero_grad_clears_all(self):
        p1, p2 = quadratic_param(), quadratic_param()
        p1.grad = np.ones(1)
        p2.grad = np.ones(1)
        buffers = (p1.grad, p2.grad)
        Adam([p1, p2], lr=0.1).zero_grad()
        # Cleared in place, not dropped: the arrays survive and
        # accumulate from zero on the next backward.
        assert p1.grad is buffers[0] and p2.grad is buffers[1]
        assert not p1.grad.any() and not p2.grad.any()
