"""Adaptive max pooling head (Section III-C, the paper's second extension).

Instead of SortPooling, the concatenated graph-convolution output
``Z^{1:h}`` (an ``n × sum(c_t)`` "image" whose height varies per graph) is

1. passed through a Conv2D layer "with an arbitrary number of filters"
   (Table II sweeps 16 or 32 channels) so that features can mix across
   both the vertex and channel dimensions,
2. adaptively max-pooled to a fixed ``H × W`` grid (Figure 6), making the
   representation size graph-independent,

after which a VGG-inspired multi-Conv2D head (see
:class:`repro.core.dgcnn.DgcnnAdaptivePooling`) predicts the family
distribution.

The head runs once over a whole batch.  The graphs' ``Z^{1:h}`` rows are
laid out as one image with a single zero row between graphs, so the
padding=1 kernel sees exactly each graph's own zero padding and one
im2col contraction convolves every graph.  The adaptive windows are then
a max over the fixed column windows and a segmented max over each graph's
row windows.  Bias and ReLU are applied to the pooled grid only, which is
exact because both are per-channel and monotone.  The backward pass
routes the ``B·F·H·W`` pooled gradients through the recorded
(first-occurrence) argmax cells instead of forming dense ``(F, N, C)``
gradients.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Module
from repro.nn.tensor import Tensor

#: Side of the square pre-AMP Conv2D kernel; padding 1 keeps the height.
KERNEL = 3

#: Conv outputs per filter in one im2col block: the block's im2col rows
#: and outputs (about 0.4 MB at 16 filters) stay in cache.
IM2COL_BLOCK = 2048


class AdaptivePoolingHead(Module):
    """Conv2D + adaptive max pooling: ``(N, C) -> (B, channels, H, W)``.

    Parameters
    ----------
    channels:
        Filters in the pre-AMP Conv2D ("2D Convolution Channels" in
        Table II: 16 or 32).
    output_grid:
        The fixed ``(H, W)`` AMP output grid (Figure 6 uses 3x3).
    """

    def __init__(
        self,
        channels: int,
        output_grid: Tuple[int, int] = (3, 3),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        grid_h, grid_w = output_grid
        if grid_h < 1 or grid_w < 1:
            raise ConfigurationError(f"output grid must be positive, got {output_grid}")
        self.channels = channels
        self.output_grid = (grid_h, grid_w)
        self.conv = Conv2d(1, channels, kernel_size=KERNEL, stride=1, padding=1, rng=rng)

    def forward(self, z_concat: Tensor, boundaries: Sequence[int]) -> Tensor:
        """Pool every graph's rows of ``Z^{1:h}`` to a fixed-size volume.

        Graph ``i`` owns rows ``boundaries[i]:boundaries[i+1]`` of the
        ``(N, C)`` input; the result is ``(B, channels, H, W)``, equal bit
        for bit to ``adaptive_max_pool2d(relu(conv2d(Z_i)))`` per graph.
        """
        if z_concat.ndim != 2:
            raise ShapeError(
                f"AdaptivePoolingHead expects (n, C) input, got {z_concat.shape}"
            )
        bounds = np.asarray(boundaries, dtype=np.int64)
        sizes = np.diff(bounds)
        if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0 \
                or bounds[-1] != z_concat.shape[0] or np.any(sizes < 1):
            raise ShapeError(
                f"boundaries {bounds.tolist()} do not split {z_concat.shape[0]} "
                "rows into non-empty graphs"
            )
        weight, bias = self.conv.weight, self.conv.bias
        channels = self.channels
        grid_h, grid_w = self.output_grid
        total, width = z_concat.shape
        num_graphs = sizes.size

        # Graph b's first row is conv row offsets[b]; the zero row between
        # two graphs is the bottom padding of one and the top of the next.
        # The image is stored transposed, (column, row), so the column
        # window maxima below reduce over whole contiguous rows.
        offsets = bounds[:-1] + np.arange(num_graphs)
        rows = total + num_graphs - 1
        z_rows = 1 + np.arange(total) + np.repeat(np.arange(num_graphs), sizes)
        image_t = np.zeros((width + 2, rows + 2))
        image_t[1:-1, z_rows] = z_concat.data.T
        kernel = weight.data.reshape(channels, -1)
        conv_t = np.empty((channels, width, rows))
        # The im2col runs in blocks of columns so each block stays in cache.
        block = max(1, min(width, IM2COL_BLOCK // rows))
        cols = np.empty((KERNEL * KERNEL, block, rows))
        for left in range(0, width, block):
            end = min(left + block, width)
            for i in range(KERNEL):
                for j in range(KERNEL):
                    cols[KERNEL * i + j, : end - left] = image_t[left + j : end + j, i : i + rows]
            # einsum, not `@`: BLAS would start idle OpenBLAS threads in every serving replica.
            np.einsum(
                "fk,kn->fn", kernel, cols[:, : end - left].reshape(len(cols), -1),
                out=conv_t[:, left:end].reshape(channels, -1),
            )
        col_windows = [F.adaptive_window_bounds(width, grid_w, ow) for ow in range(grid_w)]
        col_max = np.stack([conv_t[:, w0:w1].max(axis=1) for w0, w1 in col_windows], axis=1)

        pooled = np.empty((num_graphs, channels, grid_h, grid_w))
        arg_row = np.empty(pooled.shape, dtype=np.int64)
        for b in range(num_graphs):
            for oh in range(grid_h):
                h0, h1 = F.adaptive_window_bounds(int(sizes[b]), grid_h, oh)
                start = offsets[b] + h0
                window = col_max[:, :, start : offsets[b] + h1]
                best = window.argmax(axis=2)
                arg_row[b, :, oh] = start + best
                pooled[b, :, oh] = np.take_along_axis(window, best[:, :, None], axis=2)[:, :, 0]
        # The winning column, searched only in the winning rows.
        channel = np.arange(channels)[:, None]
        arg_col = np.stack([
            w0 + conv_t[channel, w0:w1, arg_row[..., ow]].argmax(axis=-1)
            for ow, (w0, w1) in enumerate(col_windows)
        ], axis=-1)
        pre_activation = pooled + bias.data[:, None, None]
        active = pre_activation > 0

        def grad_fn(grad: np.ndarray):
            grad_cell = grad * active
            # Image coordinates of the KERNEL x KERNEL patch under each
            # pooled cell's winning conv output.
            di, dj = np.divmod(np.arange(KERNEL * KERNEL), KERNEL)
            patch_rows = arg_row[..., None] + di
            patch_cols = arg_col[..., None] + dj
            grad_weight = np.einsum(
                "bfhw,bfhwk->fk", grad_cell, image_t[patch_cols, patch_rows]
            ).reshape(weight.shape)
            spread = grad_cell[..., None] * weight.data.reshape(channels, 1, 1, -1)
            grad_image_t = np.bincount(
                (patch_cols * image_t.shape[1] + patch_rows).ravel(),
                weights=spread.ravel(),
                minlength=image_t.size,
            ).reshape(image_t.shape)
            grad_bias = grad_cell.sum(axis=(0, 2, 3))
            return (grad_image_t[1:-1, z_rows].T, grad_weight, grad_bias)

        return Tensor._make(
            np.where(active, pre_activation, 0.0), (z_concat, weight, bias), grad_fn
        )
