"""Finite-difference gradient checks for every differentiable operation.

The whole reproduction stands on these gradients being right, so each op
is checked against central differences at ~1e-6 precision.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive_pooling import AdaptivePoolingHead
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concatenate, gather_rows, pad_rows, stack

EPS = 1e-6
TOL = 1e-5


def numeric_gradient(fn, x0):
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    base = x0.reshape(-1)
    for i in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[i] += EPS
        minus[i] -= EPS
        f_plus = fn(Tensor(plus.reshape(x0.shape))).data.sum()
        f_minus = fn(Tensor(minus.reshape(x0.shape))).data.sum()
        flat[i] = (f_plus - f_minus) / (2 * EPS)
    return grad


def check(fn, x0):
    x = Tensor(x0.copy(), requires_grad=True)
    out = fn(x)
    out.sum().backward()
    numeric = numeric_gradient(fn, x0)
    np.testing.assert_allclose(x.grad, numeric, atol=TOL, rtol=TOL)


RNG = np.random.default_rng(7)


class TestElementwiseGradients:
    def test_add_mul_chain(self):
        check(lambda x: x * 3 + x * x, RNG.standard_normal((3, 4)))

    def test_div(self):
        check(lambda x: x / Tensor([[2.0, 4.0, 8.0]]), RNG.standard_normal((2, 3)) + 5)

    def test_div_by_tensor_denominator(self):
        w = RNG.standard_normal((2, 3)) + 3
        check(lambda x: Tensor(np.ones((2, 3))) / (x + 5), w)

    def test_pow(self):
        check(lambda x: x ** 3, RNG.standard_normal((4,)))

    def test_relu(self):
        check(lambda x: x.relu(), RNG.standard_normal((5, 3)) + 0.1)

    def test_tanh(self):
        check(lambda x: x.tanh(), RNG.standard_normal((5,)))

    def test_sigmoid(self):
        check(lambda x: x.sigmoid(), RNG.standard_normal((5,)))

    def test_exp_log(self):
        check(lambda x: (x.exp() + 1).log(), RNG.standard_normal((4,)))


class TestShapeGradients:
    def test_matmul_left_and_right(self):
        b = Tensor(RNG.standard_normal((4, 5)))
        check(lambda x: x @ b, RNG.standard_normal((3, 4)))
        a = Tensor(RNG.standard_normal((3, 4)))
        check(lambda x: a @ x, RNG.standard_normal((4, 5)))

    def test_matmul_vector(self):
        b = Tensor(RNG.standard_normal((4,)))
        check(lambda x: x @ b, RNG.standard_normal((3, 4)))

    def test_transpose_reshape(self):
        check(lambda x: (x.T @ x).reshape(-1), RNG.standard_normal((3, 4)))

    def test_getitem(self):
        check(lambda x: x[1:3] * 2, RNG.standard_normal((5, 2)))

    def test_sum_axes(self):
        check(lambda x: x.sum(axis=0), RNG.standard_normal((3, 4)))
        check(lambda x: x.sum(axis=1, keepdims=True), RNG.standard_normal((3, 4)))

    def test_mean(self):
        check(lambda x: x.mean(axis=1), RNG.standard_normal((3, 4)))

    def test_max_axis(self):
        # Perturb away from ties for a clean finite-difference check.
        x0 = RNG.standard_normal((4, 5)) * 3
        check(lambda x: x.max(axis=1), x0)
        check(lambda x: x.max(axis=0, keepdims=True), x0)

    def test_concatenate(self):
        other = Tensor(RNG.standard_normal((2, 3)))
        check(lambda x: concatenate([x, other], axis=0), RNG.standard_normal((3, 3)))

    def test_stack(self):
        other = Tensor(RNG.standard_normal((3,)))
        check(lambda x: stack([x, other], axis=0), RNG.standard_normal((3,)))

    def test_gather_and_pad(self):
        idx = np.array([1, 1, 0])
        check(lambda x: gather_rows(x, idx), RNG.standard_normal((3, 2)))
        check(lambda x: pad_rows(x, 6), RNG.standard_normal((3, 2)))


class TestFunctionalGradients:
    def test_log_softmax(self):
        weights = Tensor(RNG.standard_normal((3, 4)))
        check(lambda x: F.log_softmax(x, axis=-1) * weights,
              RNG.standard_normal((3, 4)))

    def test_softmax(self):
        weights = Tensor(RNG.standard_normal((2, 5)))
        check(lambda x: F.softmax(x, axis=-1) * weights,
              RNG.standard_normal((2, 5)))

    def test_conv1d(self):
        w = Tensor(RNG.standard_normal((3, 2, 4)))
        check(lambda x: F.conv1d(x, w, stride=2), RNG.standard_normal((2, 2, 10)))

    def test_conv1d_weight_grad(self):
        x = Tensor(RNG.standard_normal((2, 2, 8)))
        check(lambda w: F.conv1d(x, w, stride=1), RNG.standard_normal((3, 2, 3)))

    def test_conv1d_bias_grad(self):
        x = Tensor(RNG.standard_normal((2, 2, 8)))
        w = Tensor(RNG.standard_normal((3, 2, 3)))
        check(lambda b: F.conv1d(x, w, b), RNG.standard_normal((3,)))

    def test_conv2d_input_grad(self):
        w = Tensor(RNG.standard_normal((4, 3, 3, 3)))
        check(
            lambda x: F.conv2d(x, w, stride=(2, 1), padding=1),
            RNG.standard_normal((2, 3, 5, 6)),
        )

    def test_conv2d_weight_grad(self):
        x = Tensor(RNG.standard_normal((2, 3, 5, 6)))
        check(lambda w: F.conv2d(x, w, padding=1), RNG.standard_normal((4, 3, 3, 3)))

    def test_conv2d_bias_grad(self):
        x = Tensor(RNG.standard_normal((1, 2, 4, 4)))
        w = Tensor(RNG.standard_normal((3, 2, 2, 2)))
        check(lambda b: F.conv2d(x, w, b), RNG.standard_normal((3,)))

    def test_max_pool2d(self):
        check(lambda x: F.max_pool2d(x, 2), RNG.standard_normal((2, 3, 6, 6)) * 3)

    def test_max_pool1d(self):
        check(lambda x: F.max_pool1d(x, 2), RNG.standard_normal((2, 3, 9)) * 3)

    def test_adaptive_max_pool2d(self):
        check(
            lambda x: F.adaptive_max_pool2d(x, (3, 3)),
            RNG.standard_normal((2, 2, 5, 7)) * 3,
        )

    def test_adaptive_max_pool2d_upsampling_case(self):
        # Output grid larger than input: windows overlap/repeat.
        check(
            lambda x: F.adaptive_max_pool2d(x, (4, 4)),
            RNG.standard_normal((1, 1, 2, 3)) * 3,
        )

    def test_dropout_eval_mode_is_identity(self):
        x0 = RNG.standard_normal((3, 3))
        check(lambda x: F.dropout(x, 0.5, training=False), x0)

    def test_dropout_train_mask_consistent(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200,)), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        # Gradient equals the applied mask (0 or 1/(1-p)).
        np.testing.assert_allclose(
            np.unique(x.grad), np.array([0.0, 2.0])
        )


class TestBatchedAdaptivePoolingHeadGradients:
    """The batched head's sparse backward, against central differences.

    The batch mixes a one-row, a two-row and a longer graph so the
    overlapping row windows and the zero separator rows are exercised.
    """

    BOUNDARIES = [0, 1, 3, 9]

    def head_with(self, **tensors):
        head = AdaptivePoolingHead(3, output_grid=(3, 3), rng=np.random.default_rng(3))
        head.conv.bias.data = np.random.default_rng(4).standard_normal(3)
        # Swap a parameter for the tensor under test (plain attribute set).
        for name, tensor in tensors.items():
            object.__setattr__(head.conv, name, tensor)
        return head

    def test_input_grad(self):
        head = self.head_with()
        check(lambda z: head(z, self.BOUNDARIES), RNG.standard_normal((9, 5)) * 3)

    def test_weight_grad(self):
        z = Tensor(RNG.standard_normal((9, 5)) * 3)
        check(
            lambda w: self.head_with(weight=w)(z, self.BOUNDARIES),
            RNG.standard_normal((3, 1, 3, 3)),
        )

    def test_bias_grad(self):
        z = Tensor(RNG.standard_normal((9, 5)) * 3)
        check(
            lambda b: self.head_with(bias=b)(z, self.BOUNDARIES),
            RNG.standard_normal((3,)),
        )


class TestGradcheckProperties:
    @given(
        n=st.integers(2, 5), m=st.integers(2, 5), seed=st.integers(0, 1000)
    )
    @settings(max_examples=20, deadline=None)
    def test_random_composite_expressions(self, n, m, seed):
        """Property: composite expressions gradcheck at random shapes."""
        rng = np.random.default_rng(seed)
        w = Tensor(rng.standard_normal((m, n)))
        x0 = rng.standard_normal((n, m))
        check(lambda x: ((x @ w).tanh() * 2 + 1).relu(), x0)
