"""Tests for the Module system and layers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import (
    Conv1d,
    Conv2d,
    Dropout,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.pooling import AdaptiveMaxPool2d, MaxPool2d
from repro.nn.tensor import Tensor


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_modules(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names
        assert "layer2.bias" in names
        assert len(model.parameters()) == 4

    def test_train_eval_recurses(self):
        model = Sequential(Linear(2, 2), Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        layer = Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        buffer = layer.weight.grad
        layer.zero_grad()
        # In-place zero fill: the buffer identity is part of the
        # contract (backward accumulates into it across steps).
        assert layer.weight.grad is buffer
        assert not layer.weight.grad.any()

    def test_num_parameters(self):
        layer = Linear(3, 2)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_state_dict_roundtrip(self):
        a = Linear(3, 2, rng=np.random.default_rng(0))
        b = Linear(3, 2, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch_rejected(self):
        layer = Linear(3, 2)
        with pytest.raises(ConfigurationError):
            layer.load_state_dict({"weight": np.zeros((3, 2))})  # missing bias
        with pytest.raises(ConfigurationError):
            layer.load_state_dict(
                {"weight": np.zeros((9, 9)), "bias": np.zeros(2)}
            )


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3)
        assert layer(Tensor(np.zeros((5, 4)))).shape == (5, 3)

    def test_shape_validation(self):
        layer = Linear(4, 3)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((5, 7))))

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_affine_correctness(self):
        layer = Linear(2, 2)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias.data = np.array([10.0, 20.0])
        out = layer(Tensor(np.array([[3.0, 4.0]])))
        np.testing.assert_array_equal(out.data, [[13.0, 28.0]])


class TestConvLayers:
    def test_conv1d_shapes(self):
        layer = Conv1d(2, 4, kernel_size=3, stride=3)
        assert layer(Tensor(np.zeros((1, 2, 9)))).shape == (1, 4, 3)

    def test_conv2d_shapes(self):
        layer = Conv2d(1, 8, kernel_size=3, padding=1)
        assert layer(Tensor(np.zeros((2, 1, 5, 6)))).shape == (2, 8, 5, 6)

    def test_pooling_modules(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 2, 6, 6)))
        assert MaxPool2d(2)(x).shape == (1, 2, 3, 3)
        assert AdaptiveMaxPool2d((3, 3))(x).shape == (1, 2, 3, 3)


class TestDropoutLayer:
    def test_training_vs_eval(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones(1000))
        layer.train(True)
        trained = layer(x)
        assert (trained.data == 0).any()
        layer.eval()
        assert layer(x) is x


class TestSequential:
    def test_composition(self):
        model = Sequential(Linear(2, 4), Tanh(), Linear(4, 1))
        assert model(Tensor(np.zeros((3, 2)))).shape == (3, 1)

    def test_len_getitem(self):
        model = Sequential(Linear(2, 2), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)
