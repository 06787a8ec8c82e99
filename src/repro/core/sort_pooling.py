"""SortPooling layer (Section III-A-3).

Sorts the vertices of ``Z^{1:h}`` by their feature descriptors — primary
key the *last* channel of the last graph-convolution layer (the most
refined Weisfeiler-Lehman "color"), ties broken by progressively earlier
channels — then truncates or zero-pads to exactly ``k`` rows, producing a
fixed-size ``(k, sum(c_t))`` tensor for any input graph.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers import Module
from repro.nn.tensor import Tensor


def sort_vertex_order(features: np.ndarray) -> np.ndarray:
    """Row order after SortPooling's lexicographic descending sort.

    The primary sort key is the last column, then the second-to-last, and
    so on — ``np.lexsort`` takes keys last-key-primary, so passing columns
    in natural order gives exactly the paper's tie-breaking rule.  The
    sort is descending ("decreasing order" in the paper); negating the
    keys keeps ``lexsort``'s ascending machinery while preserving
    stability.
    """
    if features.ndim != 2:
        raise ConfigurationError(
            f"sort_vertex_order expects a 2-D array, got shape {features.shape}"
        )
    keys = tuple(-features[:, column] for column in range(features.shape[1]))
    return np.lexsort(keys)


def resolve_sort_pooling_k(graph_sizes: Sequence[int], ratio: float, minimum: int = 2) -> int:
    """Choose ``k`` so that roughly ``ratio`` of graphs have ≥ ``k`` vertices.

    This is the rule used by the reference DGCNN implementation the paper
    builds on: ``k`` is the ``ratio``-quantile of the training-set graph
    sizes (so with ratio 0.64, 64% of graphs are truncated rather than
    padded), floored at ``minimum``.
    """
    if not graph_sizes:
        raise ConfigurationError("cannot resolve k from an empty size list")
    if not 0.0 < ratio <= 1.0:
        raise ConfigurationError(f"pooling ratio must be in (0, 1], got {ratio}")
    ordered = sorted(graph_sizes)
    index = min(len(ordered) - 1, max(0, math.ceil(ratio * len(ordered)) - 1))
    return max(minimum, ordered[index])


def sort_pool(z_concat: Tensor, k: int) -> Tensor:
    """``(n, C) -> (k, C)``: sort rows, truncate or zero-pad to ``k``.

    A single composite autograd node rather than gather + pad chained.
    The permutation is computed from forward values and treated as a
    constant in backprop; gradients flow through the row selection.
    """
    z_concat = Tensor._coerce(z_concat)
    order = sort_vertex_order(z_concat.data)
    n, channels = z_concat.shape
    m = min(n, k)
    out_data = np.zeros((k, channels), dtype=np.float64)
    out_data[:m] = z_concat.data[order[:m]]

    def grad_fn(grad: np.ndarray):
        grad_in = np.zeros_like(z_concat.data)
        np.add.at(grad_in, order[:m], grad[:m])
        return (grad_in,)

    return Tensor._make(out_data, (z_concat,), grad_fn)


class SortPooling(Module):
    """Truncate/pad sorted vertex descriptors to ``k`` rows."""

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"sort pooling k must be >= 1, got {k}")
        self.k = k

    def forward(self, z_concat: Tensor) -> Tensor:
        """``(n, C) -> (k, C)`` for any ``n``; see :func:`sort_pool`."""
        return sort_pool(z_concat, self.k)
