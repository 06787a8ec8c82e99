"""Neural-network operations built on the autograd tensor.

Implements the ops DGCNN needs beyond basic arithmetic: 1-D and 2-D
convolutions (im2col formulation), max pooling, *adaptive* max pooling
(Section III-C of the paper), numerically stable (log-)softmax, and
dropout.  Every op here has a finite-difference gradient test in
``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


# ----------------------------------------------------------------------
# convolutions


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
) -> Tensor:
    """1-D convolution.

    ``x``: ``(N, C_in, L)``; ``weight``: ``(C_out, C_in, K)``;
    ``bias``: ``(C_out,)``.  Output: ``(N, C_out, L_out)`` with
    ``L_out = (L - K) // stride + 1`` (no padding — DGCNN's remaining
    Conv1D layers never pad).
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d input must be (N, C, L), got {x.shape}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d weight must be (F, C, K), got {weight.shape}")
    n, c_in, length = x.shape
    c_out, c_in_w, kernel = weight.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"conv1d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    if kernel > length:
        raise ShapeError(f"conv1d kernel {kernel} larger than input length {length}")
    l_out = (length - kernel) // stride + 1

    # cols: (N, C_in, K, L_out)
    cols_data = np.empty((n, c_in, kernel, l_out), dtype=np.float64)
    for k in range(kernel):
        cols_data[:, :, k, :] = x.data[:, :, k : k + stride * l_out : stride]

    out_data = np.einsum("nckl,fck->nfl", cols_data, weight.data)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def grad_fn(grad: np.ndarray):
        grad_weight = np.einsum("nfl,nckl->fck", grad, cols_data)
        grad_cols = np.einsum("nfl,fck->nckl", grad, weight.data)
        grad_x = np.zeros_like(x.data)
        for k in range(kernel):
            grad_x[:, :, k : k + stride * l_out : stride] += grad_cols[:, :, k, :]
        if bias is None:
            return (grad_x, grad_weight)
        grad_bias = grad.sum(axis=(0, 2))
        return (grad_x, grad_weight, grad_bias)

    return Tensor._make(out_data, parents, grad_fn)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution via im2col.

    ``x``: ``(N, C_in, H, W)``; ``weight``: ``(C_out, C_in, KH, KW)``;
    output ``(N, C_out, H_out, W_out)``.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (N, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be (F, C, KH, KW), got {weight.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c_in, height, width = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    if kh > padded_h or kw > padded_w:
        raise ShapeError(
            f"conv2d kernel ({kh}, {kw}) larger than padded input "
            f"({padded_h}, {padded_w})"
        )
    h_out = (padded_h - kh) // sh + 1
    w_out = (padded_w - kw) // sw + 1

    x_padded = x.data
    if ph or pw:
        x_padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    cols_data = np.empty((n, c_in, kh, kw, h_out, w_out), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols_data[:, :, i, j, :, :] = x_padded[
                :, :, i : i + sh * h_out : sh, j : j + sw * w_out : sw
            ]

    out_data = np.einsum("ncijhw,fcij->nfhw", cols_data, weight.data)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def grad_fn(grad: np.ndarray):
        grad_weight = np.einsum("nfhw,ncijhw->fcij", grad, cols_data)
        grad_cols = np.einsum("nfhw,fcij->ncijhw", grad, weight.data)
        grad_padded = np.zeros(
            (n, c_in, padded_h, padded_w), dtype=np.float64
        )
        for i in range(kh):
            for j in range(kw):
                grad_padded[
                    :, :, i : i + sh * h_out : sh, j : j + sw * w_out : sw
                ] += grad_cols[:, :, i, j, :, :]
        grad_x = grad_padded
        if ph or pw:
            grad_x = grad_padded[
                :, :, ph : ph + height, pw : pw + width
            ]
        if bias is None:
            return (grad_x, grad_weight)
        grad_bias = grad.sum(axis=(0, 2, 3))
        return (grad_x, grad_weight, grad_bias)

    return Tensor._make(out_data, parents, grad_fn)


# ----------------------------------------------------------------------
# pooling


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Plain max pooling over ``(N, C, H, W)``."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, height, width = x.shape
    h_out = (height - kh) // sh + 1
    w_out = (width - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"max_pool2d kernel ({kh}, {kw}) too large for input "
            f"({height}, {width})"
        )

    out_data = np.empty((n, c, h_out, w_out), dtype=np.float64)
    argmax = np.empty((n, c, h_out, w_out, 2), dtype=np.int64)
    for oh in range(h_out):
        for ow in range(w_out):
            window = x.data[:, :, oh * sh : oh * sh + kh, ow * sw : ow * sw + kw]
            flat = window.reshape(n, c, -1)
            best = flat.argmax(axis=2)
            out_data[:, :, oh, ow] = np.take_along_axis(
                flat, best[:, :, None], axis=2
            )[:, :, 0]
            argmax[:, :, oh, ow, 0] = oh * sh + best // kw
            argmax[:, :, oh, ow, 1] = ow * sw + best % kw

    def grad_fn(grad: np.ndarray):
        grad_x = np.zeros_like(x.data)
        n_idx, c_idx = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
        for oh in range(h_out):
            for ow in range(w_out):
                rows = argmax[:, :, oh, ow, 0]
                cols = argmax[:, :, oh, ow, 1]
                np.add.at(grad_x, (n_idx, c_idx, rows, cols), grad[:, :, oh, ow])
        return (grad_x,)

    return Tensor._make(out_data, (x,), grad_fn)


def max_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over ``(N, C, L)``, implemented via :func:`max_pool2d`."""
    if x.ndim != 3:
        raise ShapeError(f"max_pool1d input must be (N, C, L), got {x.shape}")
    n, c, length = x.shape
    stride_value = stride if stride is not None else kernel_size
    as_2d = x.reshape(n, c, 1, length)
    pooled = max_pool2d(as_2d, (1, kernel_size), (1, stride_value))
    return pooled.reshape(n, c, pooled.shape[-1])


def adaptive_window_bounds(input_size: int, output_size: int, index: int) -> Tuple[int, int]:
    """Window ``[start, end)`` for output cell ``index`` (PyTorch rule).

    ``start = floor(index * in / out)``, ``end = ceil((index + 1) * in / out)``.
    Windows tile the input, overlap when ``in`` is not a multiple of
    ``out``, and adapt their size to the input — exactly the behaviour the
    paper illustrates in Figure 6.
    """
    start = (index * input_size) // output_size
    end = math.ceil((index + 1) * input_size / output_size)
    return start, end


def adaptive_max_pool2d(x: Tensor, output_size: IntPair) -> Tensor:
    """Adaptive max pooling: any ``(N, C, H, W)`` -> ``(N, C, OH, OW)``.

    The key layer of the paper's second DGCNN extension (Section III-C):
    it unifies graph-convolution outputs of *varying* vertex counts into
    a fixed-size grid by choosing window sizes per input.
    """
    oh_size, ow_size = _pair(output_size)
    if x.ndim != 4:
        raise ShapeError(f"adaptive_max_pool2d input must be 4-D, got {x.shape}")
    n, c, height, width = x.shape
    if height < 1 or width < 1:
        raise ShapeError("adaptive_max_pool2d input has an empty spatial dim")

    out_data = np.empty((n, c, oh_size, ow_size), dtype=np.float64)
    argmax = np.empty((n, c, oh_size, ow_size, 2), dtype=np.int64)
    for oh in range(oh_size):
        h0, h1 = adaptive_window_bounds(height, oh_size, oh)
        for ow in range(ow_size):
            w0, w1 = adaptive_window_bounds(width, ow_size, ow)
            window = x.data[:, :, h0:h1, w0:w1]
            flat = window.reshape(n, c, -1)
            best = flat.argmax(axis=2)
            out_data[:, :, oh, ow] = np.take_along_axis(
                flat, best[:, :, None], axis=2
            )[:, :, 0]
            win_w = w1 - w0
            argmax[:, :, oh, ow, 0] = h0 + best // win_w
            argmax[:, :, oh, ow, 1] = w0 + best % win_w

    def grad_fn(grad: np.ndarray):
        grad_x = np.zeros_like(x.data)
        n_idx, c_idx = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
        for oh in range(oh_size):
            for ow in range(ow_size):
                rows = argmax[:, :, oh, ow, 0]
                cols = argmax[:, :, oh, ow, 1]
                np.add.at(grad_x, (n_idx, c_idx, rows, cols), grad[:, :, oh, ow])
        return (grad_x,)

    return Tensor._make(out_data, (x,), grad_fn)


# ----------------------------------------------------------------------
# sparse support


def sparse_matmul(matrix, x: Tensor, matrix_t=None) -> Tensor:
    """Multiply a *constant* scipy.sparse matrix with a dense tensor.

    Used by the block-diagonal batched graph convolution: the propagation
    operator ``D̂^-1 Â`` carries no gradient, so only the dense operand's
    gradient (``Sᵀ · grad``) is needed.  Pass ``matrix_t`` (the CSR
    transpose of ``matrix``) when it is already available — e.g. cached
    on a :class:`~repro.core.batched.GraphBatch` — so the backward pass
    does not re-transpose per layer; otherwise the transpose is computed
    lazily on first backward.
    """
    if x.ndim != 2:
        raise ShapeError(f"sparse_matmul expects a 2-D tensor, got {x.shape}")
    if matrix.shape[1] != x.shape[0]:
        raise ShapeError(
            f"sparse matrix {matrix.shape} incompatible with tensor {x.shape}"
        )
    out_data = np.asarray(matrix @ x.data)
    cache = {"t": matrix_t}

    def grad_fn(grad: np.ndarray):
        if cache["t"] is None:
            cache["t"] = matrix.T.tocsr()
        return (np.asarray(cache["t"] @ grad),)

    return Tensor._make(out_data, (x,), grad_fn)


# ----------------------------------------------------------------------
# softmax family


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    softmax_data = np.exp(out_data)

    def grad_fn(grad: np.ndarray):
        return (grad - softmax_data * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


# ----------------------------------------------------------------------
# regularization


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: identity at eval time, scaled mask in training."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    generator = rng if rng is not None else np.random.default_rng()
    mask = (generator.random(x.shape) >= p) / (1.0 - p)

    def grad_fn(grad: np.ndarray):
        return (grad * mask,)

    return Tensor._make(x.data * mask, (x,), grad_fn)
