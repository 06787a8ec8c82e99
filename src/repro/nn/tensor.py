"""Reverse-mode automatic differentiation over numpy arrays.

This module is the numerical heart of the reproduction.  The paper trains
its models with PyTorch; since no deep-learning framework is available in
this environment, we implement the minimal-but-complete equivalent: a
:class:`Tensor` that records the computation graph on the fly and a
:meth:`Tensor.backward` that walks it in reverse topological order,
accumulating gradients.

Design notes
------------
* Every differentiable operation creates a new tensor whose ``_grad_fn``
  maps the incoming output gradient to per-parent input gradients.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` sums
  gradients back down to each parent's shape.
* Gradients are plain ``numpy.ndarray``s stored on leaf (and, when
  requested, interior) tensors, mirroring PyTorch's ``.grad``.
* This eager engine is the only execution path: training, evaluation,
  serving and the adversarial attacks all build and walk this graph.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import GradientError, ShapeError

ArrayLike = Union["Tensor", np.ndarray, float, int, list]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along dimensions that were broadcast from size one.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = (
        "data",
        "requires_grad",
        "grad",
        "_parents",
        "_grad_fn",
        "_order_cache",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._grad_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None
        self._order_cache: Optional[List["Tensor"]] = None
        self.name = name

    # ------------------------------------------------------------------
    # graph construction

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        grad_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
    ) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._grad_fn = grad_fn
        return out

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Zero the gradient in place.

        The gradient array is kept (and filled with zeros) rather than
        dropped so that buffers referenced by optimizers holding views
        survive across steps without reallocation.  A tensor that never
        received a gradient keeps ``grad is None``.
        """
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # backward

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise GradientError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        # The recorded graph is immutable once built, so repeated
        # backward() calls over the same output (gradient accumulation)
        # reuse the first walk instead of re-deriving it.
        if self._order_cache is None:
            self._order_cache = self._topological_order()
        order = self._order_cache
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.grad is None:
                node.grad = node_grad.copy()
            else:
                # In-place accumulation: `.grad` buffers persist across
                # steps (see zero_grad) instead of being reallocated.
                node.grad += node_grad
            if node._grad_fn is None:
                continue
            parent_grads = node._grad_fn(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # elementwise arithmetic

    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def grad_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(grad, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), grad_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def grad_fn(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), grad_fn)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def grad_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(-grad, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), grad_fn)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def grad_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad * other.data, self.data.shape),
                _unbroadcast(grad * self.data, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), grad_fn)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def grad_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad / other.data, self.data.shape),
                _unbroadcast(
                    -grad * self.data / (other.data * other.data),
                    other.data.shape,
                ),
            )

        return Tensor._make(out_data, (self, other), grad_fn)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ShapeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def grad_fn(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), grad_fn)

    # ------------------------------------------------------------------
    # matrix ops

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 2-D operands (and 1-D vectors)."""
        other = self._coerce(other)
        out_data = self.data @ other.data

        def grad_fn(grad: np.ndarray):
            a, b = self.data, other.data
            # Promote 1-D operands to 2-D, apply the 2-D rule, then
            # squeeze the promoted axis back out of the result.
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            grad2 = np.asarray(grad)
            if a.ndim == 1:
                grad2 = grad2[None, ...]
            if b.ndim == 1:
                grad2 = grad2[..., None]
            grad_a = grad2 @ b2.swapaxes(-1, -2)
            grad_b = a2.swapaxes(-1, -2) @ grad2
            if a.ndim == 1:
                grad_a = grad_a.reshape(a.shape)
            if b.ndim == 1:
                grad_b = grad_b.reshape(b.shape)
            return (grad_a, grad_b)

        return Tensor._make(out_data, (self, other), grad_fn)

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        order = axes if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(order)
        inverse = np.argsort(order)

        def grad_fn(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return Tensor._make(out_data, (self,), grad_fn)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def grad_fn(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._make(out_data, (self,), grad_fn)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        original_shape = self.data.shape

        def grad_fn(grad: np.ndarray):
            full = np.zeros(original_shape, dtype=np.float64)
            np.add.at(full, key, grad)
            return (full,)

        return Tensor._make(out_data, (self,), grad_fn)

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        original_shape = self.data.shape

        def grad_fn(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, original_shape).copy(),)
            grad_expanded = grad
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(original_shape) for a in axes)
                for a in sorted(axes):
                    grad_expanded = np.expand_dims(grad_expanded, a)
            return (np.broadcast_to(grad_expanded, original_shape).copy(),)

        return Tensor._make(out_data, (self,), grad_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along one axis; gradient routes to the arg-max entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        argmax = self.data.argmax(axis=axis)
        original_shape = self.data.shape

        def grad_fn(grad: np.ndarray):
            grad_in = np.zeros(original_shape, dtype=np.float64)
            grad_vals = grad if keepdims else np.expand_dims(grad, axis)
            idx = np.expand_dims(argmax, axis)
            np.put_along_axis(grad_in, idx, grad_vals, axis)
            return (grad_in,)

        return Tensor._make(out_data, (self,), grad_fn)

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def grad_fn(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(np.where(mask, self.data, 0.0), (self,), grad_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def grad_fn(grad: np.ndarray):
            return (grad * (1.0 - out_data * out_data),)

        return Tensor._make(out_data, (self,), grad_fn)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def grad_fn(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), grad_fn)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def grad_fn(grad: np.ndarray):
            return (grad * out_data,)

        return Tensor._make(out_data, (self,), grad_fn)

    def log(self) -> "Tensor":
        def grad_fn(grad: np.ndarray):
            return (grad / self.data,)

        return Tensor._make(np.log(self.data), (self,), grad_fn)


# ----------------------------------------------------------------------
# free functions building multi-parent nodes


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = [Tensor._coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("concatenate() needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(grad: np.ndarray):
        pieces = []
        for i in range(len(tensors)):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(index)])
        return tuple(pieces)

    return Tensor._make(out_data, tuple(tensors), grad_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    tensors = [Tensor._coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack() needs at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def grad_fn(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(piece, axis=axis) for piece in pieces)

    return Tensor._make(out_data, tuple(tensors), grad_fn)


def gather_rows(tensor: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; gradient scatter-adds back.

    Used by SortPooling, where the row permutation is computed from the
    forward values and treated as constant during backprop.
    """
    tensor = Tensor._coerce(tensor)
    if tensor.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {tensor.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    out_data = tensor.data[indices]
    n_rows = tensor.data.shape[0]

    def grad_fn(grad: np.ndarray):
        grad_in = np.zeros_like(tensor.data)
        np.add.at(grad_in, indices, grad)
        return (grad_in,)

    return Tensor._make(out_data, (tensor,), grad_fn)


def pad_rows(tensor: Tensor, total_rows: int) -> Tensor:
    """Zero-pad a 2-D tensor along axis 0 up to ``total_rows`` rows."""
    tensor = Tensor._coerce(tensor)
    if tensor.ndim != 2:
        raise ShapeError(f"pad_rows expects a 2-D tensor, got {tensor.shape}")
    n, c = tensor.shape
    if total_rows < n:
        raise ShapeError(f"cannot pad {n} rows down to {total_rows}")
    if total_rows == n:
        return tensor
    out_data = np.zeros((total_rows, c), dtype=np.float64)
    out_data[:n] = tensor.data

    def grad_fn(grad: np.ndarray):
        return (grad[:n],)

    return Tensor._make(out_data, (tensor,), grad_fn)
