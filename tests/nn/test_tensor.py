"""Tests for the autograd Tensor: op semantics and graph mechanics."""

import numpy as np
import pytest

from repro.exceptions import GradientError, ShapeError
from repro.nn.tensor import Tensor, concatenate, gather_rows, pad_rows, stack


class TestForwardSemantics:
    def test_arithmetic_matches_numpy(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a + b).data, a.data + b.data)
        np.testing.assert_array_equal((a - b).data, a.data - b.data)
        np.testing.assert_array_equal((a * b).data, a.data * b.data)
        np.testing.assert_array_equal((a / b).data, a.data / b.data)
        np.testing.assert_array_equal((-a).data, -a.data)
        np.testing.assert_array_equal((a ** 2).data, a.data ** 2)

    def test_scalar_broadcasting(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a + 1).data, [2.0, 3.0])
        np.testing.assert_array_equal((2 * a).data, [2.0, 4.0])
        np.testing.assert_array_equal((1 - a).data, [0.0, -1.0])
        np.testing.assert_array_equal((2 / a).data, [2.0, 1.0])

    def test_matmul(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)

    def test_reductions(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10.0  # repro: allow[float-equality] — exact by construction
        assert a.mean().item() == 2.5  # repro: allow[float-equality] — exact by construction
        np.testing.assert_array_equal(a.sum(axis=0).data, [4.0, 6.0])
        np.testing.assert_array_equal(a.max(axis=1).data, [2.0, 4.0])

    def test_nonlinearities(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(x.relu().data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(x.tanh().data, np.tanh(x.data))
        np.testing.assert_allclose(x.sigmoid().data, 1 / (1 + np.exp(-x.data)))

    def test_reshape_transpose_getitem(self):
        x = Tensor(np.arange(6, dtype=float))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape(2, 3).T.shape == (3, 2)
        np.testing.assert_array_equal(x[2:4].data, [2.0, 3.0])


class TestBackwardMechanics:
    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        assert (a + b).requires_grad
        assert not (b * b).requires_grad

    def test_backward_scalar_only_without_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_on_no_grad_tensor(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad_fills_in_place(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        buffer = x.grad
        x.zero_grad()
        # The array survives and is zero-filled rather than dropped.
        assert x.grad is buffer
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_zero_grad_without_gradient_is_noop(self):
        x = Tensor([1.0], requires_grad=True)
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x used via two paths that rejoin: grads must sum once each.
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 4
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1
        y.backward()  # iterative topo-sort: must not hit recursion limit
        np.testing.assert_allclose(x.grad, [1.0])

    def test_broadcast_grad_unbroadcast(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        (x + bias).sum().backward()
        assert bias.grad.shape == (2,)
        np.testing.assert_allclose(bias.grad, [3.0, 3.0])

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad


class TestMultiParentOps:
    def test_concatenate_forward(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((1, 2)))
        out = concatenate([a, b], axis=0)
        assert out.shape == (3, 2)

    def test_concatenate_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ShapeError):
            concatenate([], axis=0)

    def test_stack(self):
        rows = [Tensor([1.0, 2.0], requires_grad=True) for _ in range(3)]
        out = stack(rows, axis=0)
        assert out.shape == (3, 2)
        out.sum().backward()
        for row in rows:
            np.testing.assert_allclose(row.grad, [1.0, 1.0])

    def test_gather_rows(self):
        x = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        out = gather_rows(x, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, [[4, 5], [0, 1], [4, 5]])
        out.sum().backward()
        # Row 2 gathered twice -> gradient 2; row 1 never -> 0.
        np.testing.assert_allclose(x.grad, [[1, 1], [0, 0], [2, 2]])

    def test_gather_rows_requires_2d(self):
        with pytest.raises(ShapeError):
            gather_rows(Tensor(np.zeros(3)), np.array([0]))

    def test_pad_rows(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = pad_rows(x, 5)
        assert out.shape == (5, 3)
        np.testing.assert_array_equal(out.data[2:], 0.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_pad_rows_noop_when_exact(self):
        x = Tensor(np.ones((2, 3)))
        assert pad_rows(x, 2) is x

    def test_pad_rows_cannot_shrink(self):
        with pytest.raises(ShapeError):
            pad_rows(Tensor(np.ones((4, 2))), 2)
