"""Define-by-run reverse-mode autograd over NumPy arrays.

A compact tape-based engine: every operation returns a new
:class:`Tensor` whose ``_backward`` closure scatters the output gradient
into its parents.  ``backward()`` walks the tape in reverse topological
order and frees it as it goes.  Only the operations the PowerPruning
models need are provided, and each is covered by a numerical-gradient
test.

Straight-through operators (:func:`ste_round`, :func:`project_ste`) are
first-class citizens: their forward applies an arbitrary non-differentiable
mapping while their backward passes gradients through unchanged, which is
exactly how the paper retrains with restricted weights (Sec. III-C,
citing Bengio et al. [15]).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction (for inference)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1
                 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """An array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED[-1]
        self._backward: Optional[Callable[[], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, "
                f"requires_grad={self.requires_grad})")

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = grad.astype(np.float32, copy=False)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss tensor")
        topo: List[Tensor] = []
        seen = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)
        self.grad = np.ones_like(self.data)
        # Each closure references its own output, a cycle only the cyclic
        # GC would reclaim; cutting the tape as it is consumed lets
        # reference counting free every intermediate as soon as the sweep
        # passes it.
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward()
            node._backward = None
            node._parents = ()

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------
    def __add__(self, other):
        return add(self, _ensure(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _ensure(other))

    def __rsub__(self, other):
        return sub(_ensure(other), self)

    def __mul__(self, other):
        return mul(self, _ensure(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _ensure(other))

    def __rtruediv__(self, other):
        return div(_ensure(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _ensure(other))

    def __pow__(self, exponent: float):
        return power(self, exponent)

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)


def _ensure(value: Union[Tensor, float, int, np.ndarray]) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Tuple[Tensor, ...],
          backward: Callable[[], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(
                -out.grad * a.data / (b.data * b.data), b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * exponent * a.data ** (exponent - 1))

    out = _make(out_data, (a,), backward)
    return out


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * out_data)

    out = _make(out_data, (a,), backward)
    return out


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad / a.data)

    out = _make(out_data, (a,), backward)
    return out


def clip(a: Tensor, low: Optional[float], high: Optional[float]) -> Tensor:
    """Clamp with zero gradient outside the active range."""
    out_data = np.clip(a.data, low, high)

    def backward():
        if a.requires_grad:
            mask = np.ones_like(a.data)
            if low is not None:
                mask *= a.data >= low
            if high is not None:
                mask *= a.data <= high
            a._accumulate(out.grad * mask)

    out = _make(out_data, (a,), backward)
    return out


def relu(a: Tensor) -> Tensor:
    return clip(a, 0.0, None)


def relu6(a: Tensor) -> Tensor:
    return clip(a, 0.0, 6.0)


# ----------------------------------------------------------------------
# shape manipulation and reductions
# ----------------------------------------------------------------------
def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.shape
    out_data = a.data.reshape(shape)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad.reshape(old_shape))

    out = _make(out_data, (a,), backward)
    return out


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad.transpose(inverse))

    out = _make(out_data, (a,), backward)
    return out


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward():
        if a.requires_grad:
            grad = out.grad
            if not keepdims and axis is not None:
                grad = np.expand_dims(grad, axis)
            a._accumulate(np.broadcast_to(grad, a.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[i] for i in axis]))
    return reduce_sum(a, axis, keepdims) * (1.0 / count)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    out_data = a.data @ b.data

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ out.grad)

    out = _make(out_data, (a, b), backward)
    return out


# ----------------------------------------------------------------------
# straight-through operators
# ----------------------------------------------------------------------
def ste_round(a: Tensor) -> Tensor:
    """Round in the forward pass, identity in the backward pass."""
    out_data = np.round(a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad)

    out = _make(out_data, (a,), backward)
    return out


def project_ste(a: Tensor,
                projection: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Apply an arbitrary projection forward; pass gradients straight
    through backward.

    This is the Sec. III-C restriction operator: the forward pass forces
    values onto the selected set while the backward pass skips the
    non-differentiable mapping (straight-through estimator [15]).
    """
    out_data = np.asarray(projection(a.data), dtype=np.float32)
    if out_data.shape != a.data.shape:
        raise ValueError("projection must preserve the shape")

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad)

    out = _make(out_data, (a,), backward)
    return out


# ----------------------------------------------------------------------
# convolution and pooling
# ----------------------------------------------------------------------
def _im2col(x: np.ndarray, kh: int, kw: int, stride: int,
            pad: int) -> Tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> channel-major (C*kh*kw, N*OH*OW) patch matrix.

    Row ``(c, i, j)`` holds input channel ``c`` at kernel offset
    ``(i, j)`` for every output position ``(n, oh, ow)``, so a
    convolution is one GEMM against the ``(O, C*kh*kw)`` weight matrix.
    The matrix is C-contiguous and built by a single gather copy.
    """
    n, c = x.shape[:2]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw),
                                                       axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # (N, C, OH, OW, kh, kw) -> (C, kh, kw, N, OH, OW)
    cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(c * kh * kw, n * oh * ow), oh, ow


def _col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
            stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """Adjoint of :func:`_im2col` (scatter-add of patch gradients)."""
    n, c, h, w = x_shape
    dx = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols = cols.reshape(c, kh, kw, n, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * oh:stride,
               j:j + stride * ow:stride] += cols[:, i, j]
    return np.ascontiguousarray(
        dx[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3))


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> C-contiguous (C, N*H*W)."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).reshape(
        a.shape[1], -1)


def _batch_major(a: np.ndarray, n: int, oh: int, ow: int) -> np.ndarray:
    """(C, N*OH*OW) -> C-contiguous (N, C, OH, OW)."""
    return np.ascontiguousarray(
        a.reshape(a.shape[0], n, oh, ow).transpose(1, 0, 2, 3))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, OIHW weights.

    Forward is one GEMM ``w_mat @ cols``; backward is two,
    ``dout @ cols.T`` for the weights and ``w_mat.T @ dout`` for the
    input patches.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects NCHW input and OIHW weights")
    n = x.shape[0]
    out_ch, in_ch, kh, kw = weight.shape
    if in_ch != x.shape[1]:
        raise ValueError(
            f"channel mismatch: input {x.shape[1]}, weight {in_ch}"
        )
    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    w_mat = weight.data.reshape(out_ch, in_ch * kh * kw)
    out2 = w_mat @ cols
    if bias is not None:
        out2 += bias.data[:, None]
    out_data = _batch_major(out2, n, oh, ow)

    def backward():
        dout = _channel_major(out.grad)
        if weight.requires_grad:
            weight._accumulate((dout @ cols.T).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x._accumulate(_col2im(w_mat.T @ dout, x.shape, kh, kw,
                                  stride, pad, oh, ow))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


def depthwise_conv2d(x: Tensor, weight: Tensor,
                     bias: Optional[Tensor] = None, stride: int = 1,
                     pad: int = 0) -> Tensor:
    """Depthwise convolution: one filter per input channel.

    Weights have shape ``(C, 1, kh, kw)``.  Each channel is a batched
    ``(1, kh*kw) @ (kh*kw, N*OH*OW)`` product over the same channel-major
    patch matrix as :func:`conv2d`.
    """
    if weight.shape[1] != 1:
        raise ValueError("depthwise weights must have shape (C, 1, kh, kw)")
    c = x.shape[1]
    if weight.shape[0] != c:
        raise ValueError("depthwise channel mismatch")
    n = x.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    cols3 = cols.reshape(c, kh * kw, n * oh * ow)
    w_mat = weight.data.reshape(c, 1, kh * kw)
    out2 = (w_mat @ cols3).reshape(c, -1)
    if bias is not None:
        out2 += bias.data[:, None]
    out_data = _batch_major(out2, n, oh, ow)

    def backward():
        dout = _channel_major(out.grad)[:, None, :]
        if weight.requires_grad:
            dw = dout @ cols3.transpose(0, 2, 1)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = w_mat.transpose(0, 2, 1) * dout
            x._accumulate(_col2im(dcols, x.shape, kh, kw, stride, pad,
                                  oh, ow))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (kernel == stride)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims {(h, w)} not divisible by pool kernel {kernel}"
        )
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = view.max(axis=(3, 5))

    def backward():
        expanded = out_data[:, :, :, None, :, None]
        mask = view == expanded
        # Split ties evenly so the gradient mass is conserved.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad = (mask / counts) * out.grad[:, :, :, None, :, None]
        x._accumulate(grad.reshape(x.shape))

    out = _make(out_data, (x,), backward)
    return out


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims {(h, w)} not divisible by pool kernel {kernel}"
        )
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = view.mean(axis=(3, 5))

    def backward():
        grad = out.grad[:, :, :, None, :, None] / (kernel * kernel)
        x._accumulate(
            np.broadcast_to(grad, view.shape).reshape(x.shape).copy()
        )

    out = _make(out_data, (x,), backward)
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) spatial mean."""
    return reduce_mean(x, axis=(2, 3))
