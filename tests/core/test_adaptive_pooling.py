"""Tests for the adaptive pooling head (Section III-C, Figure 6)."""

import numpy as np
import pytest

from repro.core.adaptive_pooling import AdaptivePoolingHead
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn.tensor import Tensor, stack


def one_graph(n):
    return [0, n]


class TestAdaptivePoolingHead:
    def test_unifies_variable_vertex_counts(self):
        """The whole point: graphs of any size give the same output shape."""
        head = AdaptivePoolingHead(channels=8, output_grid=(3, 3))
        for n in (3, 5, 17, 100):
            z = Tensor(np.random.default_rng(n).standard_normal((n, 7)))
            out = head(z, one_graph(n))
            assert out.shape == (1, 8, 3, 3)

    def test_figure6_both_inputs(self):
        """Figure 6 feeds a 5x7 and a 4x7 Z^{1:h} through 3x3 AMP."""
        head = AdaptivePoolingHead(channels=1, output_grid=(3, 3))
        for n in (5, 4):
            out = head(Tensor(np.zeros((n, 7))), one_graph(n))
            assert out.shape == (1, 1, 3, 3)

    def test_gradients_flow(self):
        head = AdaptivePoolingHead(channels=4, output_grid=(2, 2))
        x = Tensor(np.random.default_rng(0).standard_normal((6, 5)), requires_grad=True)
        head(x, one_graph(6)).sum().backward()
        assert x.grad is not None
        assert head.conv.weight.grad is not None

    def test_rejects_non_2d_input(self):
        head = AdaptivePoolingHead(channels=2)
        with pytest.raises(ShapeError):
            head(Tensor(np.zeros((2, 3, 4))), one_graph(2))

    @pytest.mark.parametrize("boundaries", [[0, 3], [1, 4], [0, 2, 2, 4], [0, 5]])
    def test_rejects_boundaries_that_do_not_split_the_rows(self, boundaries):
        head = AdaptivePoolingHead(channels=2)
        with pytest.raises(ShapeError):
            head(Tensor(np.zeros((4, 3))), boundaries)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AdaptivePoolingHead(channels=0)
        with pytest.raises(ConfigurationError):
            AdaptivePoolingHead(channels=4, output_grid=(0, 3))

    def test_single_vertex_graph(self):
        # Degenerate 1-vertex graph must still pool cleanly.
        head = AdaptivePoolingHead(channels=2, output_grid=(3, 3))
        out = head(Tensor(np.ones((1, 4))), one_graph(1))
        assert out.shape == (1, 2, 3, 3)


def oracle(head, z, boundaries):
    """Per-graph ``conv2d -> relu -> adaptive_max_pool2d``, stacked."""
    pooled = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        rows = z[int(start):int(end)]
        image = rows.reshape(1, 1, *rows.shape)
        convolved = F.conv2d(image, head.conv.weight, head.conv.bias, padding=1).relu()
        volume = F.adaptive_max_pool2d(convolved, head.output_grid)
        pooled.append(volume.reshape(head.channels, *head.output_grid))
    return stack(pooled, axis=0)


def run(head, forward, z_data, upstream):
    """Forward and backward of ``forward``; returns output and gradients."""
    for param in head.parameters():
        param.grad = None
    z = Tensor(z_data, requires_grad=True)
    out = forward(z)
    out.backward(upstream)
    return out.data, z.grad, head.conv.weight.grad.copy(), head.conv.bias.grad.copy()


def boundaries_of(sizes):
    return np.concatenate([[0], np.cumsum(sizes)])


def make_head(seed, channels=16, grid=(3, 3)):
    rng = np.random.default_rng(seed)
    head = AdaptivePoolingHead(channels, output_grid=grid, rng=rng)
    head.conv.bias.data = rng.standard_normal(channels) * 0.3
    return head


#: Ragged batches: one-row and two-row graphs have fewer rows than the
#: 3-row grid, so their row windows overlap; one graph is over 1,000 rows.
RAGGED = [
    [1, 2, 5],
    [2, 1, 1, 7, 3],
    [4, 1003, 1, 2],
    [9],
]


class TestBatchedHeadMatchesPerGraphOracle:
    @pytest.mark.parametrize("sizes", RAGGED)
    def test_forward_bit_equal_and_gradients_agree(self, sizes):
        head = make_head(len(sizes))
        rng = np.random.default_rng(sum(sizes))
        bounds = boundaries_of(sizes)
        z = rng.standard_normal((int(bounds[-1]), 128))
        upstream = rng.standard_normal((len(sizes), 16, 3, 3))

        batched = run(head, lambda t: head(t, bounds), z, upstream)
        expected = run(head, lambda t: oracle(head, t, bounds), z, upstream)

        np.testing.assert_array_equal(batched[0], expected[0])
        for name, got, want in zip(("z", "weight", "bias"), batched[1:], expected[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("grid", [(2, 2), (4, 5), (1, 1)])
    def test_other_grids_and_narrow_inputs(self, grid):
        head = make_head(3, channels=4, grid=grid)
        rng = np.random.default_rng(11)
        bounds = boundaries_of([1, 3, 2, 6])
        z = rng.standard_normal((int(bounds[-1]), 3))
        upstream = rng.standard_normal((4, 4) + grid)

        batched = run(head, lambda t: head(t, bounds), z, upstream)
        expected = run(head, lambda t: oracle(head, t, bounds), z, upstream)

        np.testing.assert_array_equal(batched[0], expected[0])
        for got, want in zip(batched[1:], expected[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_no_leak_across_the_separator(self):
        """A graph pools to the same bits whatever its neighbours and slot."""
        head = make_head(5)
        rng = np.random.default_rng(5)
        graph = rng.standard_normal((6, 128)) * 4
        alone = head(Tensor(graph), one_graph(6)).data[0]
        for neighbours, slot in (([1, 2], 0), ([1, 2], 1), ([30, 1], 2), ([2, 50, 1], 1)):
            blocks = [rng.standard_normal((n, 128)) * 4 for n in neighbours]
            blocks.insert(slot, graph)
            bounds = boundaries_of([len(b) for b in blocks])
            out = head(Tensor(np.concatenate(blocks)), bounds).data
            np.testing.assert_array_equal(out[slot], alone)

    def test_tie_routes_gradient_to_the_first_occurrence(self):
        """Constant input ties every interior cell; both paths pick the first."""
        head = make_head(7, channels=4)
        head.conv.weight.data = np.abs(head.conv.weight.data)
        head.conv.bias.data = np.full(4, 0.5)
        bounds = boundaries_of([5, 1, 2, 8])
        z = np.ones((int(bounds[-1]), 10))
        upstream = np.random.default_rng(7).standard_normal((4, 4, 3, 3))

        batched = run(head, lambda t: head(t, bounds), z, upstream)
        expected = run(head, lambda t: oracle(head, t, bounds), z, upstream)

        np.testing.assert_array_equal(batched[0], expected[0])
        np.testing.assert_array_equal(batched[1] != 0, expected[1] != 0)
        for got, want in zip(batched[1:], expected[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
