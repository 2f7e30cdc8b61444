"""Reverse-mode differentiable tensors over numpy arrays.

Every learnable computation in the model is composed from the operations in
this module.  float64 is the default precision (tests and gradient checking
require it); float32 is accepted for faster training.  Every frame an
operation sees is a real frame: inputs are whole videos or crops of them,
never padded, so statistics and losses run over all rows.

One backward per graph; intermediates are released.  `Tensor.backward` frees
each interior node's gradient and backward closure (with the activations it
captured) as soon as that closure has run, so a graph can be differentiated
once.  Leaf gradients accumulate across backward calls on separate graphs.

Gradient ownership.  Backward closures only read the gradient they are
given, so an interior node's gradient may alias another node's gradient (or
a read-only broadcast view): it takes its first gradient as given and sums a
later one out of place.  A leaf owns its gradient: it copies the first one
into a writable array of its own and adds later ones in place, so callers
such as gradient clipping may scale leaf gradients in place.
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


def _accumulate(t: "Tensor", grad: np.ndarray) -> None:
    """Add `grad` to t.grad under the ownership rule of the module docstring."""
    if t._parents:
        grad = grad.astype(t.data.dtype, copy=False)
        t.grad = grad if t.grad is None else t.grad + grad
    elif t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = grad
    else:
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

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise DimensionError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
        # two paths: a 2-D weight under leading axes is one GEMM over all rows
        # (forward and both gradients); anything else is numpy's matmul
        rows = a.ndim > 2 and b.ndim == 2
        if rows:
            y = (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[-1])
        else:
            y = a @ b
        out = _result(y, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    if rows:
                        ga = (g.reshape(-1, g.shape[-1]) @ b.T).reshape(a.shape)
                    else:
                        ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
                    _accumulate(self, ga)
                if other.requires_grad:
                    if rows:
                        gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                    else:
                        gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
                    _accumulate(other, gb)
            out._backward = backward
        return out

    # -- shape manipulation ---------------------------------------------------
    def reshape(self, *shape):
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

    # -- elementwise nonlinearities ---------------------------------------------
    def relu(self):
        out = _result(np.maximum(self.data, 0), (self,))
        if out._parents:
            def backward(g):
                # subgradient at 0 is 0
                _accumulate(self, g * (self.data > 0))
            out._backward = backward
        return out


def _result(data: np.ndarray, parents: tuple) -> Tensor:
    """Wrap an op result, keeping graph edges only when a grad can flow."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents)
    return Tensor(data)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function of an array, stable for large |x|:
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e^-|x| <= 1.
    Two arrays the size of x at most, so the eval peak does not grow."""
    e = np.negative(x)
    np.minimum(x, e, out=e)     # -|x|, but a NaN keeps its sign, as in e^x
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


# ---------------------------------------------------------------------------
# free functions used throughout the model
# ---------------------------------------------------------------------------

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


SOFTMAX_BLOCK = 2048
"""Rows of [R, N] that `softmax_lastaxis` takes at once (rounded down to a
multiple of the addend's row period).  Its keys-outer copy, [N, 2048], is
256 KiB in float64 at N = 16, so a block's passes run in cache."""


def _row_sums(w: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a keys-outer w[N, b]: column j added up in exactly
    the order numpy's `x.sum(axis=-1)` adds a contiguous row of N, so each sum
    is bitwise numpy's.

    That order is 0.0 plus numpy's pairwise sum: below 8 values a sequential
    sum; up to 128, eight interleaved accumulators, then
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in sequence; above
    128, the same on two halves split at a multiple of 8, added.  The 0.0
    only turns a -0.0 sum into +0.0, so adding it to each half as well
    changes nothing.
    """
    n = w.shape[0]
    if n < 8:
        res = w[0] + 0.0
        for row in w[1:]:
            res += row
        return res
    if n > 128:
        half = n // 2
        half -= half % 8
        res = _row_sums(w[:half])
        res += _row_sums(w[half:])
        return res
    acc = w[:8].copy()
    for i in range(8, n - n % 8, 8):
        acc += w[i:i + 8]
    r = acc[0::2] + acc[1::2]
    r[0] += r[1]
    r[2] += r[3]
    res = r[0]
    res += r[2]
    for row in w[n - n % 8:]:
        res += row
    res += 0.0
    return res


def softmax_lastaxis(x: Tensor, addend: np.ndarray | None = None) -> Tensor:
    """Row-stable softmax over the last axis, plus a constant `addend`.

    `addend` (no gradient flows to it) has the shape of the trailing axes of
    x and is cast to x's dtype; graph attention passes the [N, N] prior.

    Keys-outer layout.  The rows, viewed as [R, N], are taken SOFTMAX_BLOCK at
    a time; each block is copied transposed to a contiguous [N, b] array, so
    the max, the subtract, exp, the sum and the divide each run as a few
    passes over b-long rows in place of one numpy reduction per row of only
    N values.  The addend, tiled once to keys-outer [N, b], is added to the
    block in that layout just before it is written back transposed, so it
    costs no pass over the whole output and no temporary of its size.  The
    backward, s * (g - sum(g * s)), runs in the same layout.  The sums follow
    numpy's last-axis order (`_row_sums`), so every value is bitwise the plain
    formula's: x - max, exp, / sum, then + addend.
    """
    n = x.shape[-1]
    dt = x.data.dtype
    rows = x.data.reshape(-1, n)
    count = rows.shape[0]
    period = 1
    if addend is not None:
        addend = np.asarray(addend).astype(dt, copy=False)
        if addend.ndim == 0 or addend.shape != x.shape[x.ndim - addend.ndim:]:
            raise DimensionError(f"softmax addend shape {addend.shape} is not a trailing "
                                 f"part of input shape {x.shape}")
        addend = addend.reshape(-1, n)
        period = addend.shape[0]
    block = max(period, SOFTMAX_BLOCK - SOFTMAX_BLOCK % period)
    width = min(block, count)
    work = np.empty(n * width, dt)
    if addend is not None:
        addend = np.tile(addend.T, width // period)     # keys-outer, [N, width]

    tracked = _grad_enabled and x.requires_grad
    out = np.empty((count, n), dt)
    s = np.empty((count, n), dt) if tracked and addend is not None else out
    for r0 in range(0, count, block):
        b = min(block, count - r0)
        w = work[:n * b].reshape(n, b)
        w[...] = rows[r0:r0 + b].T
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w /= _row_sums(w)
        if s is not out:
            s[r0:r0 + b] = w.T
        if addend is not None:
            w += addend[:, :b]
        out[r0:r0 + b] = w.T

    result = _result(out.reshape(x.shape), (x,))
    if result._parents:
        def backward(g):
            g = np.reshape(g, (-1, n))
            gx = np.empty((count, n), dt)
            sw, gw, prod = (np.empty_like(work) for _ in range(3))
            for r0 in range(0, count, block):
                b = min(block, count - r0)
                sb, gb, pb = (a[:n * b].reshape(n, b) for a in (sw, gw, prod))
                sb[...] = s[r0:r0 + b].T
                gb[...] = g[r0:r0 + b].T
                np.multiply(gb, sb, out=pb)
                gb -= _row_sums(pb)
                np.multiply(sb, gb, out=gb)
                gx[r0:r0 + b] = gb.T
            _accumulate(x, gx.reshape(x.shape))
        result._backward = backward
    return result


BN_EPS = 1e-5
"""Added to the variance before batch norm takes its square root."""
BN_MOMENTUM = 0.1
"""Weight of a train batch's statistics in batch norm's running statistics."""


@dataclass
class BatchNormState:
    """Per-feature normalization: learnable gain/bias plus running statistics."""

    gain: Tensor
    bias: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


def make_batch_norm_state(num_features: int, dtype=np.float64) -> BatchNormState:
    return BatchNormState(
        gain=Tensor(np.ones(num_features, dtype=dtype), requires_grad=True),
        bias=Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True),
        running_mean=np.zeros(num_features, dtype=dtype),
        running_var=np.ones(num_features, dtype=dtype),
    )


def batch_norm(x: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Normalize rows of x[B, F] per feature.

    Train mode uses the statistics of all B rows and folds them into the
    running statistics in place; eval mode uses the running statistics.
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
    m = x.shape[0]
    if mode == "eval":
        mu, var = state.running_mean, state.running_var
    else:
        if m < 2:
            raise DegenerateBatchError(f"batch_norm train mode needs >= 2 rows, got {m}")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)  # biased, used for normalization
        # running stats updated in place so shared buffers see the change
        state.running_mean *= 1.0 - BN_MOMENTUM
        state.running_mean += BN_MOMENTUM * mu
        state.running_var *= 1.0 - BN_MOMENTUM
        state.running_var += BN_MOMENTUM * var * (m / (m - 1.0))
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv

    out = _result(gain.data * xhat + bias.data, (x, gain, bias))
    if out._parents:
        def backward(g):
            if gain.requires_grad:
                _accumulate(gain, (g * xhat).sum(axis=0))
            if bias.requires_grad:
                _accumulate(bias, g.sum(axis=0))
            if x.requires_grad:
                d = g * gain.data
                gx = d * inv
                if mode == "train":
                    # every row also feels the coupling through mu and var
                    s1 = d.sum(axis=0)
                    s2 = (d * xhat).sum(axis=0)
                    gx -= inv * (s1 + xhat * s2) / m
                _accumulate(x, gx)
        out._backward = backward
    return out


def depthwise_temporal_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 1-D convolution along the frame axis of x[T, N, C].

    The same kernel[C, k] is shared across all N nodes; the output keeps
    length T via zero padding of (k-1)/2 on both sides.
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
    xpad = np.zeros((T + 2 * pad, N, C), dtype=x.data.dtype)
    xpad[pad:pad + T] = x.data

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
                _accumulate(x, gpad[pad:pad + T])
        out._backward = backward
    return out


def mean_pool_nodes(x: Tensor) -> Tensor:
    """Arithmetic mean across the node axis of x[T, N, C] -> [T, C]."""
    if x.ndim != 3:
        raise DimensionError(f"mean_pool_nodes expects [T, N, C], got {x.shape}")
    return x.sum(axis=1) * (1.0 / x.shape[1])


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy over all positions, fused from logits.

    Uses the log-sigmoid identity max(z,0) - z*y + log1p(exp(-|z|)) so large
    logits never overflow.
    """
    y = np.asarray(targets, dtype=logits.data.dtype)
    if y.shape != logits.shape:
        raise DimensionError(
            f"bce: targets shape {y.shape} does not match logits shape {logits.shape}"
        )
    count = float(logits.data.size)

    z = logits.data
    per = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = _result(np.asarray(per.sum() / count), (logits,))
    if out._parents:
        def backward(g):
            _accumulate(logits, g * (sigmoid(z) - y) / count)
        out._backward = backward
    return out


def mse_to_anchor(features: Tensor, anchors: Tensor) -> Tensor:
    """Mean squared distance of features[T, N, D] to anchors[N, D].

    Averages over attributes and frames: (1/(N*T)) sum of squared L2
    residuals.
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
    scale = 1.0 / (N * T)

    diff = features.data - anchors.data[None, :, :]
    per_frame = (diff * diff).sum(axis=(1, 2))
    out = _result(np.asarray(per_frame.sum() * scale), (features, anchors))
    if out._parents:
        def backward(g):
            common = (2.0 * scale) * diff
            if features.requires_grad:
                _accumulate(features, g * common)
            if anchors.requires_grad:
                _accumulate(anchors, -g * common.sum(axis=0))
        out._backward = backward
    return out
