"""Adam optimizer and the central-difference gradient oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tensor import Tensor


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient contained NaN/Inf; training must abort."""


ADAM_BETA1 = 0.9
"""Decay of Adam's first-moment (gradient) average."""
ADAM_BETA2 = 0.999
"""Decay of Adam's second-moment (squared gradient) average."""
ADAM_EPSILON = 1e-8
"""Added to the root of the second moment before Adam divides by it."""


@dataclass
class AdamState:
    """Bias-corrected Adam state, one moment pair per named parameter."""

    learning_rate: float
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, learning_rate: float) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        for name, p in params.items():
            # np.zeros, not zeros_like: fresh pages come zeroed, so nothing is written
            state.first_moment[name] = np.zeros(p.data.shape, p.data.dtype)
            state.second_moment[name] = np.zeros(p.data.shape, p.data.dtype)
        return state


ADAM_CHUNK = 32768
"""Elements per in-place Adam pass: the six chunks a pass touches (p, m, v, g
and two scratch rows) stay in cache, and a pass is long enough that its
dozen ufunc calls cost little."""


def adam_step(params: dict, state: AdamState) -> None:
    """Apply one bias-corrected Adam update to every parameter in `params`.

    Parameters with no accumulated gradient are treated as zero-gradient.
    Every parameter is checked before anything is written: on a non-finite
    gradient (NonFiniteGradientError, naming the first such parameter), a
    misshapen one or a parameter without moments in `state` (ValueError), no
    parameter, moment or step count changes.

    The update runs in place over chunks of ADAM_CHUNK elements through two
    scratch chunks, with the operations of
    `m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr * (m/c1) / (sqrt(v/c2) + eps)` in the same order, so the result
    is bitwise that of the whole-array expressions.  A gradient is read in
    its parameter's dtype, in any memory order.
    """
    updates = []
    for name, p in params.items():
        m, v = state.first_moment.get(name), state.second_moment.get(name)
        if m is None or v is None:
            raise ValueError(f"no Adam moments for parameter {name!r}")
        g = p.grad
        if g is None:
            g = np.broadcast_to(np.zeros((), dtype=p.data.dtype), p.data.shape)
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}")
        updates.append((p, m, v, g))

    state.step_count += 1
    t = state.step_count
    lr, b1, b2, eps = state.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, m, v, g in updates:
        work = np.empty((2, min(ADAM_CHUNK, p.data.size)), dtype=p.data.dtype)
        it = np.nditer([p.data, m, v, g],
                       flags=["external_loop", "buffered", "zerosize_ok"],
                       op_flags=[["readwrite"], ["readwrite"], ["readwrite"], ["readonly"]],
                       op_dtypes=[p.data.dtype] * 4, casting="same_kind",
                       order="K", buffersize=ADAM_CHUNK)
        with it:
            for pc, mc, vc, gc in it:
                a, b = work[0, :pc.size], work[1, :pc.size]
                mc *= b1
                np.multiply(gc, 1.0 - b1, out=a)
                mc += a
                vc *= b2
                np.multiply(gc, 1.0 - b2, out=a)
                a *= gc
                vc += a
                np.divide(vc, c2, out=a)
                np.sqrt(a, out=a)
                a += eps
                np.divide(mc, c1, out=b)
                b *= lr
                b /= a
                pc -= b


def zero_grads(params) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


def clip_global_norm(params: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class GradCheckResult:
    """Outcome of checking analytic gradients against central differences."""

    max_rel_err: float
    per_input: dict
    tolerance: float
    step: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def worst_input(self) -> str:
        return max(self.per_input, key=self.per_input.get)


def grad_check(f: Callable[[dict], Tensor], inputs: dict,
               h: float = 1e-5, tol: float = 1e-5) -> GradCheckResult:
    """Compare backward-pass gradients of a scalar function with central differences.

    `f` maps a dict of named Tensors to a scalar Tensor and must be pure (no
    visible side effects between calls).  All arithmetic runs in float64.
    The error scale is max(1, |analytic|, |numeric|), so tiny gradients are
    compared absolutely and large ones relatively.
    """
    base = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}

    tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in base.items()}
    out = f(tensors)
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued computation")
    out.backward()
    analytic = {
        k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for k, t in tensors.items()
    }

    def evaluate(arrays: dict) -> float:
        return float(f({k: Tensor(v) for k, v in arrays.items()}).data)

    per_input = {}
    for name, arr in base.items():
        num = np.zeros_like(arr)
        flat = arr.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            work = {k: (v if k != name else v.copy()) for k, v in base.items()}
            wflat = work[name].reshape(-1)
            wflat[i] = orig + h
            up = evaluate(work)
            wflat[i] = orig - h
            down = evaluate(work)
            nflat[i] = (up - down) / (2.0 * h)
        a = analytic[name]
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(num)))
        per_input[name] = float((np.abs(a - num) / scale).max()) if arr.size else 0.0

    max_err = max(per_input.values()) if per_input else 0.0
    return GradCheckResult(max_rel_err=max_err, per_input=per_input, tolerance=tol, step=h)
