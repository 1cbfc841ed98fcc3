"""Dense numerical core: a small reverse-mode autodiff over float64 numpy
arrays, activations, Glorot initialization, inverted dropout, MSE loss and
Adam.

Every parameter is a 2-D array (vectors are stored as [1, n]) so the
checkpoint block format stays uniform.

Tape rules. The model forwards run on plain `np.ndarray`s and on `Var`s
alike. When no operand is a `Var`, every op (the operators `+`, `*` and `@`,
indexing by ints and slices, `relu`, `affine`, `sigmoid_affine`,
`masked_mean`, `masked_max` and `dropout`) returns a plain array computed
by the same numpy expression as its tape form, so validation and rollout
pass the stored parameter arrays in, build no `Var` and get the training
forward's bits.
`Var.__array_ufunc__` is None, so `ndarray <op> Var` falls through to the
reflected operators, which lift the array to a constant exactly as
`Var <op> ndarray` does. A `Var` needs a gradient when it is a `wrap_params`
leaf or a bare `Var(x)`; a lifted array is a constant (`constant`,
`needs_grad=False`). An op over constants only returns a constant with no
parents and no backward closure; otherwise its parents are only the operands
that need a gradient, and its closure skips the products and reductions that
would only feed a constant. `mse_loss` lifts both operands and always
returns a `Var`. `backward` runs the closures of the nodes reachable from
the loss in reverse creation order (a Wengert list). A node's parents exist
before it, so all its consumers have passed it their gradients before its
own closure runs; and no node has more than two consumers, so those
gradients add to the same bits in either order (IEEE addition commutes, but
three addends would not associate). Fused nodes each replace a chain of ops
and run its numpy calls in its order: `affine` (`x @ w + b`),
`sigmoid_affine` (the logistic function of `affine`), `masked_mean` (a masked
sum over the neighbor axis divided by the clipped count), `masked_max` (a max
over the neighbor axis after shifting masked slots far down, zeroed for a
row with no live slot) and `mse_loss`.

Adam layout. The first `adam_step` lays `AdamState.flat` out for the
parameters it updates, and every later step must update the same ones. The
buffer is one [3, n] float64 array whose rows hold those parameters, their
first moments and their second moments, each row laid out by parameter name
in sorted order; `p` maps each name to its view of the first row.
`adam_step` copies in any parameter array that is not already its view and
rebinds the `params` entry to the view, concatenates the gradients into one
vector, checks it once for finiteness, and then updates the three rows in
place. Every operation is elementwise, with the operands of the per-name
update, so the result is bitwise the same as updating each parameter on its
own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_creation_counter = itertools.count()  # numbers each Var; `backward` runs in reverse


class Var:
    """Node in the reverse-mode graph; wraps a float64 ndarray.

    `needs_grad` is False for constants. An op over constants only is a
    constant itself, and a node's parents are only the operands that need a
    gradient.
    """

    __slots__ = ("value", "grad", "needs_grad", "_parents", "_backward", "_created")
    __array_ufunc__ = None  # ndarray <op> Var calls Var's reflected operator

    def __init__(self, value, parents=(), backward=None, needs_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.needs_grad = needs_grad
        self._parents = parents
        self._backward = backward
        self._created = next(_creation_counter)

    @property
    def shape(self):
        return self.value.shape

    # -- graph mechanics ---------------------------------------------------
    def backward(self):
        if self.value.size != 1:
            raise SchemaError("backward() requires a scalar output")
        tape, stack = {self}, [self]
        while stack:
            for p in stack.pop()._parents:
                if p not in tape:
                    tape.add(p)
                    stack.append(p)
        tape = sorted(tape, key=lambda node: node._created, reverse=True)
        for node in tape:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in tape:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, grad):
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _lift(x) -> "Var":
        return x if isinstance(x, Var) else constant(x)

    def __add__(self, other):
        other = Var._lift(other)

        def bwd(g):
            if self.needs_grad:
                self._accumulate(_reduce_to(g, self.shape))
            if other.needs_grad:
                other._accumulate(_reduce_to(g, other.shape))

        return _node(self.value + other.value, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = Var._lift(other)

        def bwd(g):
            if self.needs_grad:
                self._accumulate(_reduce_to(g * other.value, self.shape))
            if other.needs_grad:
                other._accumulate(_reduce_to(g * self.value, other.shape))

        return _node(self.value * other.value, (self, other), bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Var._lift(other)

        def bwd(g):
            if self.needs_grad:
                self._accumulate(
                    _reduce_to(np.matmul(g, other.value.swapaxes(-1, -2)), self.shape)
                )
            if other.needs_grad:
                other._accumulate(
                    _reduce_to(np.matmul(self.value.swapaxes(-1, -2), g), other.shape)
                )

        return _node(np.matmul(self.value, other.value), (self, other), bwd)

    def __rmatmul__(self, other):
        return Var._lift(other) @ self

    # -- shape ops ---------------------------------------------------------
    def reshape(self, *shape):
        orig = self.shape

        def bwd(g):
            self._accumulate(g.reshape(orig))

        return _node(self.value.reshape(*shape), (self,), bwd)

    def __getitem__(self, key):
        """Basic indexing by ints and slices; an integer-array key is refused,
        since `out[key] = g` would drop the gradients of its repeated indices."""
        keys = key if isinstance(key, tuple) else (key,)
        if not all(isinstance(k, slice) or type(k) is int for k in keys):
            raise SchemaError(f"a Var takes only int and slice indices, got {key!r}")

        def bwd(g):
            out = np.zeros_like(self.value)
            out[key] = g
            self._accumulate(out)

        return _node(self.value[key], (self,), bwd)

    def sum(self, axis=None, keepdims=False):
        def bwd(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return _node(self.value.sum(axis=axis, keepdims=keepdims), (self,), bwd)


def constant(value) -> Var:
    """A Var that needs no gradient: data, masks, counts, lifted arrays."""
    return Var(value, needs_grad=False)


def _node(value, operands: tuple, backward) -> Var:
    """An op's result: a tape node whose parents are the operands that need
    a gradient, or, when none does, a constant that keeps no parents and no
    closure."""
    parents = tuple([x for x in operands if x.needs_grad])
    return Var(value, parents, backward) if parents else constant(value)


def value_of(x) -> np.ndarray:
    """The array behind `x`: a Var's value, or `x` itself."""
    return x.value if isinstance(x, Var) else x


# ---------------------------------------------------------------------------
# Ops that are not operators. Each computes its value from `value_of(x)`
# with one numpy expression and returns it as it is when `x` is not a Var.


def relu(x):
    """max(x, 0), elementwise."""
    v = value_of(x)
    mask = v > 0
    y = v * mask
    if not isinstance(x, Var):
        return y

    def bwd(g):
        x._accumulate(g * mask)

    return _node(y, (x,), bwd)


# ---------------------------------------------------------------------------
# Fused nodes: each is one tape node whose backward runs the numpy calls of
# the chain of ops it replaces, in the same order, so gradients keep their bits.


def _affine_backward(x: Var, w: Var, b: Var, g: np.ndarray) -> None:
    """Pass the gradient `g` of `x @ w + b` to the operands that need one."""
    if b.needs_grad:
        b._accumulate(_reduce_to(g, b.shape))
    if x.needs_grad:
        x._accumulate(_reduce_to(np.matmul(g, w.value.swapaxes(-1, -2)), x.shape))
    if w.needs_grad:
        w._accumulate(_reduce_to(np.matmul(x.value.swapaxes(-1, -2), g), w.shape))


def affine(x, w, b):
    """`x @ w + b` as one node."""
    if not isinstance(x, Var) and not isinstance(w, Var) and not isinstance(b, Var):
        return np.matmul(x, w) + b
    x, w, b = Var._lift(x), Var._lift(w), Var._lift(b)
    return _node(np.matmul(x.value, w.value) + b.value, (x, w, b),
                 lambda g: _affine_backward(x, w, b, g))


def sigmoid_affine(x, w, b):
    """The logistic function of `x @ w + b`, elementwise, as one node. Where
    exp(-(x @ w + b)) overflows, the result is its limit 0, without a warning."""
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-(np.matmul(value_of(x), value_of(w)) + value_of(b))))
    if not isinstance(x, Var) and not isinstance(w, Var) and not isinstance(b, Var):
        return y
    x, w, b = Var._lift(x), Var._lift(w), Var._lift(b)
    return _node(y, (x, w, b), lambda g: _affine_backward(x, w, b, g * y * (1.0 - y)))


def masked_mean(x, mask: np.ndarray):
    """Mean over the second-to-last axis, counting only mask==1 slots (at
    least one), as one node."""
    m = mask[..., None]
    count = np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)
    y = (value_of(x) * m).sum(axis=-2) / count
    if not isinstance(x, Var):
        return y

    def bwd(g):
        x._accumulate(_reduce_to((g / count)[..., None, :] * m, x.shape))

    return _node(y, (x,), bwd)


_MASK_NEG = 1e30  # additive shift that keeps masked slots out of masked_max


def masked_max(x, mask: np.ndarray):
    """Max over the second-to-last axis of the mask==1 slots, as one node; a
    row with no such slot gives zeros. The gradient goes to the first
    maximal slot."""
    m = mask[..., None]
    shifted = value_of(x) * m + (m - 1.0) * _MASK_NEG
    has_any = (mask.sum(axis=-1, keepdims=True) > 0).astype(np.float64)
    y = shifted.max(axis=-2) * has_any
    if not isinstance(x, Var):
        return y

    def bwd(g):
        out = np.zeros_like(shifted)
        np.put_along_axis(out, np.expand_dims(np.argmax(shifted, axis=-2), -2),
                          np.expand_dims(g * has_any, -2), -2)
        x._accumulate(_reduce_to(out * m, x.shape))

    return _node(y, (x,), bwd)


def wrap_params(params: dict) -> dict:
    """Wrap a name->ndarray parameter dict into autodiff leaves for training;
    a forward pass over the plain arrays records no tape."""
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


def initialize(shapes: dict, rng: np.random.Generator) -> dict:
    """Parameters of the given `name -> (rows, cols)` shapes, drawn in their
    order: zeros for a bias (a name whose last part starts with "b"),
    `glorot_uniform` with fan-in `rows` and fan-out `cols` for a weight."""
    return {name: np.zeros(shape) if name.rsplit(".", 1)[-1].startswith("b")
            else glorot_uniform(rng, *shape) for name, shape in shapes.items()}


def dropout(x, rate: float, mode: str, rng: np.random.Generator | None = None):
    """Inverted dropout: zero with probability `rate` in train mode, scale
    survivors by 1/(1-rate); identity in eval mode. The mask is drawn from
    `rng`, so a freshly seeded generator draws the same mask every call."""
    if not 0.0 <= rate < 1.0:
        raise SchemaError(f"dropout rate {rate} outside [0, 1)")
    if mode == "eval" or rate == 0.0:
        return x
    if mode != "train":
        raise SchemaError(f"unknown dropout mode {mode!r}")
    if rng is None:
        raise SchemaError("train-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(np.float64)
    return x * (mask / (1.0 - rate))


def mse_loss(pred, actual) -> Var:
    """Mean squared error as one node."""
    pred = Var._lift(pred)
    actual = Var._lift(actual)
    if pred.shape != actual.shape:
        raise SchemaError(f"mse shapes disagree: {pred.shape} vs {actual.shape}")
    diff = pred.value + -actual.value
    count = np.asarray(float(diff.size))

    def bwd(g):
        half = np.broadcast_to(g / count, diff.shape) * diff
        g_diff = half + half  # d(diff * diff) reaches diff once per operand
        if pred.needs_grad:
            pred._accumulate(_reduce_to(g_diff, pred.shape))
        if actual.needs_grad:
            actual._accumulate(-_reduce_to(g_diff, actual.shape))

    return _node((diff * diff).sum() / count, (pred, actual), bwd)


# ---------------------------------------------------------------------------
# Adam


# Adam's moment decay rates and denominator guard (Kingma and Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's learning rate and state. The first `adam_step` fixes the names
    it updates (`names`, sorted) and lays them and their first and second
    moments out as the three rows of one flat buffer; `p` maps each name to
    its view of the first row."""

    lr: float = 1e-3
    step: int = 0
    p: dict = field(default_factory=dict, init=False)
    names: tuple = field(default=(), init=False)
    flat: np.ndarray = field(default_factory=lambda: np.zeros((3, 0)), init=False)


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One Adam update of the parameters named in `grads`; the others keep
    their values. Every step of one state must name the parameters its first
    step named. The update runs once over the flat vector of those
    parameters, sorted by name: each updated `params` entry becomes its view
    of that vector, which later steps update in place. Arrays passed in are
    copied, never written."""
    names = tuple(sorted(grads))
    if state.step == 0:
        state.flat = np.zeros((3, sum(np.size(params[n]) for n in names)))
        state.p, start = {}, 0
        for n in names:
            stop = start + np.size(params[n])
            state.p[n] = state.flat[0, start:stop].reshape(np.shape(params[n]))
            start = stop
        state.names = names
    elif names != state.names:
        raise SchemaError(f"this Adam state updates {list(state.names)}, not {list(names)}")
    p, m, v = state.flat
    g = np.concatenate([grads[n].ravel() for n in names]) if names else np.zeros(0)
    if g.size != p.size:
        raise SchemaError("gradient sizes differ from their parameters")
    if not np.isfinite(g).all():
        bad = next(n for n in names if not np.isfinite(grads[n]).all())
        raise SchemaError(f"non-finite gradient for parameter {bad!r}")
    for n in names:
        if params[n] is not state.p[n]:
            state.p[n][...] = params[n]
            params[n] = state.p[n]
    state.step += 1
    t = state.step
    # In place, with the operands of b1 * m + (1 - b1) * g,
    # b2 * v + (1 - b2) * g * g and p - lr * m_hat / (sqrt(v_hat) + eps):
    # every elementwise operation rounds as in a per-name update.
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state
