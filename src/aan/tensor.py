"""Reverse-mode differentiable tensors over numpy arrays.

Every learnable computation in the model is composed from the operations in
this module.  float64 is the default precision (tests and gradient checking
require it); float32 is accepted for faster training.  Gradients of masked
positions are exactly zero, so padded frames can never leak into a loss.

One backward per graph; intermediates are released.  `Tensor.backward` frees
each interior node's gradient and backward closure (with the activations it
captured) as soon as that closure has run, so a graph can be differentiated
once.  Leaf gradients accumulate across backward calls on separate graphs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shapes of two operands do not agree."""


class DegenerateBatchError(ValueError):
    """Batch statistics requested over fewer than two rows."""


class ConfigurationError(ValueError):
    """A structural hyperparameter is invalid (e.g. even conv kernel)."""


class EmptyMaskError(ValueError):
    """A loss was asked to average over zero valid positions."""


_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True

_RELEASED = ("backward through a graph that an earlier backward already released; "
             "run the forward again to build a new graph")


@contextmanager
def no_grad():
    """Disable graph construction inside the block (eval-time forward)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _shared_weight_grad(a: np.ndarray, g: np.ndarray, lead: int) -> np.ndarray:
    """Gradient of b in a @ b when b is shared across a's `lead` leading axes.

    The leading axes are folded into the contraction, so the sum over them
    happens inside one matmul instead of over a stack of per-frame products.
    """
    batch = a.shape[lead:-2]
    order = (*range(lead, a.ndim - 2), *range(lead), a.ndim - 2, a.ndim - 1)
    a2 = a.transpose(order).reshape(*batch, -1, a.shape[-1])
    g2 = g.transpose(order).reshape(*batch, -1, g.shape[-1])
    return np.swapaxes(a2, -1, -2) @ g2


def _accumulate(t: "Tensor", grad: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += grad


def _topo_order(root: "Tensor") -> list:
    """Children-before-parents ordering, iterative to spare the stack."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


class Tensor:
    """Dense array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = ()):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents = _parents

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Backpropagate from this node; defaults to d(self)/d(self)=1 on scalars.

        One backward per graph; intermediates are released: once an interior
        node's closure has run, its gradient and closure are dropped.  Only
        leaves keep (and accumulate) gradients.  Calling backward again
        through a released graph raises RuntimeError.
        """
        if self._parents and self._backward is None:
            raise RuntimeError(_RELEASED)
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        _accumulate(self, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(_topo_order(self)):
            fn = node._backward
            if fn is None:
                if node._parents:
                    raise RuntimeError(_RELEASED)
                continue
            g = node.grad
            node.grad = node._backward = None
            if g is not None:
                fn(g)

    # -- arithmetic ----------------------------------------------------------
    def _lift(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))

    def __add__(self, other):
        other = self._lift(other)
        out = _result(self.data + other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    _accumulate(self, _unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    _accumulate(other, _unbroadcast(g, other.data.shape))
            out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _result(-self.data, (self,))
        if out._parents:
            def backward(g):
                _accumulate(self, -g)
            out._backward = backward
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = _result(self.data * other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    _accumulate(other, _unbroadcast(g * self.data, other.data.shape))
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise DimensionError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
        out = _result(a @ b, (self, other))
        if out._parents:
            lead = a.ndim - b.ndim
            shared = lead > 0 and a.shape[lead:-2] == b.shape[:-2]

            def backward(g):
                if self.requires_grad:
                    if shared and b.ndim == 2:
                        # one GEMM over all rows, not one per leading index
                        ga = (g.reshape(-1, g.shape[-1]) @ b.T).reshape(a.shape)
                    else:
                        ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
                    _accumulate(self, ga)
                if other.requires_grad:
                    if shared:
                        _accumulate(other, _shared_weight_grad(a, g, lead))
                    else:
                        _accumulate(other, _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))
            out._backward = backward
        return out

    # -- shape manipulation ---------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out = _result(self.data.reshape(shape), (self,))
        if out._parents:
            def backward(g):
                _accumulate(self, g.reshape(old))
            out._backward = backward
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        out = _result(np.transpose(self.data, axes), (self,))
        if out._parents:
            def backward(g):
                _accumulate(self, np.transpose(g, inverse))
            out._backward = backward
        return out

    # -- reductions ------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out = _result(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            shape = self.data.shape

            def backward(g):
                if axis is None:
                    _accumulate(self, np.broadcast_to(g, shape).astype(self.data.dtype, copy=False))
                    return
                gg = g
                if not keepdims:
                    gg = np.expand_dims(gg, axis)
                _accumulate(self, np.broadcast_to(gg, shape).astype(self.data.dtype, copy=False))
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, int):
            count = self.data.shape[axis]
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ---------------------------------------------
    def relu(self):
        out = _result(np.maximum(self.data, 0), (self,))
        if out._parents:
            def backward(g):
                # subgradient at 0 is 0
                _accumulate(self, g * (self.data > 0))
            out._backward = backward
        return out

    def sigmoid(self):
        out = _result(_sigmoid(self.data), (self,))
        if out._parents:
            s = out.data

            def backward(g):
                _accumulate(self, g * s * (1.0 - s))
            out._backward = backward
        return out


def _result(data: np.ndarray, parents: tuple) -> Tensor:
    """Wrap an op result, keeping graph edges only when a grad can flow."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents)
    return Tensor(data)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# free functions used throughout the model
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ weight (+ bias) over the last axis of x."""
    if x.shape[-1] != weight.shape[0]:
        raise DimensionError(
            f"affine: input shape {x.shape} does not match weight shape {weight.shape}"
        )
    if bias is not None and bias.shape != (weight.shape[-1],):
        raise DimensionError(
            f"affine: bias shape {bias.shape} does not match weight shape {weight.shape}"
        )
    y = x @ weight
    if bias is not None:
        y = y + bias
    return y


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = _result(s, (x,))
    if out._parents:
        def backward(g):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(x, s * (g - dot))
        out._backward = backward
    return out


@dataclass
class BatchNormState:
    """Per-feature normalization: learnable gain/bias plus running statistics."""

    gain: Tensor
    bias: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1


def make_batch_norm_state(num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                          dtype=np.float64) -> BatchNormState:
    return BatchNormState(
        gain=Tensor(np.ones(num_features, dtype=dtype), requires_grad=True),
        bias=Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True),
        running_mean=np.zeros(num_features, dtype=dtype),
        running_var=np.ones(num_features, dtype=dtype),
        eps=eps,
        momentum=momentum,
    )


def batch_norm(x: Tensor, state: BatchNormState, mode: str,
               mask: np.ndarray | None = None) -> Tensor:
    """Normalize rows of x[B, F] per feature.

    Train mode uses statistics of the valid rows (per `mask`) and folds them
    into the running statistics in place; eval mode uses the running
    statistics.  Rows outside the mask are normalized with the same statistics
    but never contribute to them.
    """
    if x.ndim != 2:
        raise DimensionError(f"batch_norm expects a [rows, features] input, got {x.shape}")
    if x.shape[1] != state.gain.shape[0]:
        raise DimensionError(
            f"batch_norm: input shape {x.shape} does not match state with "
            f"{state.gain.shape[0]} features"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")

    gain, bias = state.gain, state.bias
    if mode == "eval":
        inv = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x.data - state.running_mean) * inv
        out = _result(gain.data * xhat + bias.data, (x, gain, bias))
        if out._parents:
            def backward(g):
                if gain.requires_grad:
                    _accumulate(gain, (g * xhat).sum(axis=0))
                if bias.requires_grad:
                    _accumulate(bias, g.sum(axis=0))
                if x.requires_grad:
                    _accumulate(x, g * gain.data * inv)
            out._backward = backward
        return out

    valid = np.ones(x.shape[0], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    m = int(valid.sum())
    if m < 2:
        raise DegenerateBatchError(f"batch_norm train mode needs >= 2 valid rows, got {m}")

    rows = x.data[valid]
    mu = rows.mean(axis=0)
    var = rows.var(axis=0)  # biased, used for normalization
    inv = 1.0 / np.sqrt(var + state.eps)
    xhat = (x.data - mu) * inv

    # running stats updated in place so shared buffers see the change
    mom = state.momentum
    state.running_mean *= 1.0 - mom
    state.running_mean += mom * mu
    state.running_var *= 1.0 - mom
    state.running_var += mom * var * (m / (m - 1.0))

    out = _result(gain.data * xhat + bias.data, (x, gain, bias))
    if out._parents:
        def backward(g):
            if gain.requires_grad:
                _accumulate(gain, (g * xhat).sum(axis=0))
            if bias.requires_grad:
                _accumulate(bias, g.sum(axis=0))
            if x.requires_grad:
                d = g * gain.data
                # valid rows feel the coupling through mu/var; others only the
                # direct path (they never entered the statistics)
                s1 = d.sum(axis=0)
                s2 = (d * xhat).sum(axis=0)
                gx = d * inv
                gx[valid] -= inv * (s1 + xhat[valid] * s2) / m
                _accumulate(x, gx)
        out._backward = backward
    return out


def depthwise_temporal_conv(x: Tensor, kernel: Tensor,
                            mask: np.ndarray | None = None) -> Tensor:
    """Per-channel 1-D convolution along the frame axis of x[T, N, C].

    The same kernel[C, k] is shared across all N nodes; frames outside the
    mask are treated as zeros on input, and the output keeps length T via
    zero padding of (k-1)/2 on both sides.
    """
    if x.ndim != 3:
        raise DimensionError(f"temporal conv expects [T, N, C], got {x.shape}")
    if kernel.ndim != 2 or kernel.shape[0] != x.shape[2]:
        raise DimensionError(
            f"temporal conv: kernel shape {kernel.shape} does not match input {x.shape}"
        )
    k = kernel.shape[1]
    if k % 2 == 0:
        raise ConfigurationError(f"temporal conv kernel size must be odd, got {k}")

    T, N, C = x.shape
    pad = (k - 1) // 2
    mvec = None
    xin = x.data
    if mask is not None:
        mvec = np.asarray(mask, dtype=x.data.dtype)
        xin = xin * mvec[:, None, None]
    xpad = np.zeros((T + 2 * pad, N, C), dtype=x.data.dtype)
    xpad[pad:pad + T] = xin

    out_data = np.zeros((T, N, C), dtype=x.data.dtype)
    kd = kernel.data
    for j in range(k):
        out_data += kd[:, j] * xpad[j:j + T]

    out = _result(out_data, (x, kernel))
    if out._parents:
        def backward(g):
            if kernel.requires_grad:
                gk = np.empty_like(kd)
                for j in range(k):
                    gk[:, j] = (g * xpad[j:j + T]).sum(axis=(0, 1))
                _accumulate(kernel, gk)
            if x.requires_grad:
                gpad = np.zeros_like(xpad)
                for j in range(k):
                    gpad[j:j + T] += g * kd[:, j]
                gx = gpad[pad:pad + T]
                if mvec is not None:
                    gx = gx * mvec[:, None, None]
                _accumulate(x, gx)
        out._backward = backward
    return out


def mean_pool_nodes(x: Tensor) -> Tensor:
    """Arithmetic mean across the node axis of x[T, N, C] -> [T, C]."""
    if x.ndim != 3:
        raise DimensionError(f"mean_pool_nodes expects [T, N, C], got {x.shape}")
    return x.mean(axis=1)


def bce_with_logits(logits: Tensor, targets: np.ndarray,
                    mask: np.ndarray | None = None) -> Tensor:
    """Mean binary cross entropy over valid positions, fused from logits.

    Uses the log-sigmoid identity max(z,0) - z*y + log1p(exp(-|z|)) so large
    logits never overflow.
    """
    y = np.asarray(targets, dtype=logits.data.dtype)
    if y.shape != logits.shape:
        raise DimensionError(
            f"bce: targets shape {y.shape} does not match logits shape {logits.shape}"
        )
    T = logits.shape[0]
    w = np.ones(T, dtype=logits.data.dtype) if mask is None \
        else np.asarray(mask, dtype=logits.data.dtype)
    valid = w.sum()
    if valid == 0:
        raise EmptyMaskError("bce loss over an empty mask (no valid frames)")
    count = valid * float(np.prod(logits.shape[1:])) if logits.ndim > 1 else valid

    z = logits.data
    per = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    wshape = (T,) + (1,) * (logits.ndim - 1)
    wb = w.reshape(wshape)
    out = _result(np.asarray((per * wb).sum() / count), (logits,))
    if out._parents:
        def backward(g):
            _accumulate(logits, g * (_sigmoid(z) - y) * wb / count)
        out._backward = backward
    return out


def mse_to_anchor(features: Tensor, anchors: Tensor,
                  mask: np.ndarray | None = None) -> Tensor:
    """Mean squared distance of features[T, N, D] to anchors[N, D].

    Averages over attributes and valid frames: (1/(N*T_valid)) sum of
    squared L2 residuals.
    """
    if features.ndim != 3 or anchors.ndim != 2:
        raise DimensionError(
            f"mse_to_anchor expects [T, N, D] and [N, D], got {features.shape} and {anchors.shape}"
        )
    if features.shape[1] != anchors.shape[0] or features.shape[2] != anchors.shape[1]:
        raise DimensionError(
            f"anchor count/dim mismatch: features {features.shape} vs anchors {anchors.shape}"
        )
    T, N, _ = features.shape
    w = np.ones(T, dtype=features.data.dtype) if mask is None \
        else np.asarray(mask, dtype=features.data.dtype)
    valid = w.sum()
    if valid == 0:
        raise EmptyMaskError("anchor loss over an empty mask (no valid frames)")
    scale = 1.0 / (N * valid)

    diff = features.data - anchors.data[None, :, :]
    per_frame = (diff * diff).sum(axis=(1, 2))
    out = _result(np.asarray((per_frame * w).sum() * scale), (features, anchors))
    if out._parents:
        def backward(g):
            common = (2.0 * scale) * diff * w[:, None, None]
            if features.requires_grad:
                _accumulate(features, g * common)
            if anchors.requires_grad:
                _accumulate(anchors, -g * common.sum(axis=0))
        out._backward = backward
    return out
