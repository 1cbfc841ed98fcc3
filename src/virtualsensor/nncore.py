"""Dense numerical core: a small reverse-mode autodiff over float64 numpy
arrays, activations, Glorot initialization, inverted dropout, MSE loss, Adam, and a
finite-difference gradient checker.

Every parameter is a 2-D array (vectors are stored as [1, n]) so the
checkpoint block format stays uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Var:
    """Node in the reverse-mode graph; wraps a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    # -- graph mechanics ---------------------------------------------------
    def backward(self):
        if self.value.size != 1:
            raise SchemaError("backward() requires a scalar output")
        topo, seen = [], set()

        def visit(node):
            stack = [(node, False)]
            while stack:
                cur, expanded = stack.pop()
                if expanded:
                    topo.append(cur)
                    continue
                if id(cur) in seen:
                    continue
                seen.add(id(cur))
                stack.append((cur, True))
                for p in cur._parents:
                    stack.append((p, False))

        visit(self)
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, grad):
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _lift(x) -> "Var":
        return x if isinstance(x, Var) else Var(x)

    def __add__(self, other):
        other = Var._lift(other)

        def bwd(g):
            self._accumulate(_reduce_to(g, self.shape))
            other._accumulate(_reduce_to(g, other.shape))

        return Var(self.value + other.value, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g):
            self._accumulate(-g)

        return Var(-self.value, (self,), bwd)

    def __sub__(self, other):
        return self + (-Var._lift(other))

    def __rsub__(self, other):
        return Var._lift(other) + (-self)

    def __mul__(self, other):
        other = Var._lift(other)

        def bwd(g):
            self._accumulate(_reduce_to(g * other.value, self.shape))
            other._accumulate(_reduce_to(g * self.value, other.shape))

        return Var(self.value * other.value, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Var._lift(other)

        def bwd(g):
            self._accumulate(_reduce_to(g / other.value, self.shape))
            other._accumulate(
                _reduce_to(-g * self.value / (other.value**2), other.shape)
            )

        return Var(self.value / other.value, (self, other), bwd)

    def __matmul__(self, other):
        other = Var._lift(other)

        def bwd(g):
            self._accumulate(
                _reduce_to(np.matmul(g, np.swapaxes(other.value, -1, -2)), self.shape)
            )
            other._accumulate(
                _reduce_to(np.matmul(np.swapaxes(self.value, -1, -2), g), other.shape)
            )

        return Var(np.matmul(self.value, other.value), (self, other), bwd)

    # -- shape ops ---------------------------------------------------------
    def reshape(self, *shape):
        orig = self.shape

        def bwd(g):
            self._accumulate(g.reshape(orig))

        return Var(self.value.reshape(*shape), (self,), bwd)

    def sum(self, axis=None, keepdims=False):
        def bwd(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Var(self.value.sum(axis=axis, keepdims=keepdims), (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        count = self.value.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int):
        idx = np.argmax(self.value, axis=axis)

        def bwd(g):
            out = np.zeros_like(self.value)
            np.put_along_axis(
                out, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis
            )
            self._accumulate(out)

        return Var(np.max(self.value, axis=axis), (self,), bwd)

    def pad_axis(self, axis: int, before: int, after: int):
        pads = [(0, 0)] * self.value.ndim
        pads[axis] = (before, after)
        sl = [slice(None)] * self.value.ndim
        sl[axis] = slice(before, before + self.shape[axis])
        sl = tuple(sl)

        def bwd(g):
            self._accumulate(g[sl])

        return Var(np.pad(self.value, pads), (self,), bwd)

    def slice_axis(self, axis: int, start: int, stop: int):
        sl = [slice(None)] * self.value.ndim
        sl[axis] = slice(start, stop)
        sl = tuple(sl)

        def bwd(g):
            out = np.zeros_like(self.value)
            out[sl] = g
            self._accumulate(out)

        return Var(self.value[sl], (self,), bwd)

    # -- nonlinearities ----------------------------------------------------
    def relu(self):
        mask = self.value > 0

        def bwd(g):
            self._accumulate(g * mask)

        return Var(self.value * mask, (self,), bwd)

    def leaky_relu(self, slope: float = 0.2):
        factor = np.where(self.value > 0, 1.0, slope)

        def bwd(g):
            self._accumulate(g * factor)

        return Var(self.value * factor, (self,), bwd)

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.value))

        def bwd(g):
            self._accumulate(g * y * (1.0 - y))

        return Var(y, (self,), bwd)

    def exp(self):
        y = np.exp(self.value)

        def bwd(g):
            self._accumulate(g * y)

        return Var(y, (self,), bwd)


def wrap_params(params: dict) -> dict:
    """Wrap a name->ndarray parameter dict into autodiff leaves."""
    return {name: Var(value) for name, value in params.items()}


def collect_grads(leaves: dict) -> dict:
    return {
        name: (var.grad if var.grad is not None else np.zeros_like(var.value))
        for name, var in leaves.items()
    }


# ---------------------------------------------------------------------------
# Layers and initialization


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def dropout(x, rate: float, mode: str, rng: np.random.Generator | None = None) -> Var:
    """Inverted dropout: zero with probability `rate` in train mode, scale
    survivors by 1/(1-rate); identity in eval mode. The mask is drawn from
    `rng`, so a freshly seeded generator draws the same mask every call."""
    x = Var._lift(x)
    if not 0.0 <= rate < 1.0:
        raise SchemaError(f"dropout rate {rate} outside [0, 1)")
    if mode == "eval" or rate == 0.0:
        return x
    if mode != "train":
        raise SchemaError(f"unknown dropout mode {mode!r}")
    if rng is None:
        raise SchemaError("train-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(np.float64)
    return x * Var(mask / (1.0 - rate))


def mse_loss(pred, actual) -> Var:
    pred = Var._lift(pred)
    actual = Var._lift(actual)
    if pred.shape != actual.shape:
        raise SchemaError(f"mse shapes disagree: {pred.shape} vs {actual.shape}")
    diff = pred - actual
    return (diff * diff).mean()


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One Adam update, in place over the parameter dict, of the parameters
    named in `grads`; the others keep their values."""
    state.step += 1
    t = state.step
    for name in sorted(grads):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise SchemaError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1**t)
        v_hat = state.v[name] / (1 - state.beta2**t)
        params[name] = params[name] - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(f, params: dict, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of `f` against central differences.

    `f` maps a name->Var dict to a scalar Var and must be deterministic
    (sample before calling; draw dropout masks from a generator seeded afresh
    inside `f`). Returns the max relative error with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    leaves = wrap_params(params)
    out = f(leaves)
    out.backward()
    analytic = collect_grads(leaves)

    worst = 0.0
    for name in sorted(params):
        base = params[name]
        flat = base.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f(wrap_params(params)).value)
            flat[i] = orig - h
            down = float(f(wrap_params(params)).value)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst
