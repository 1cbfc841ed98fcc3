"""Dense numerical core: a small reverse-mode autodiff over float64 numpy
arrays, activations, Glorot initialization, block draws of each step's random
inputs and dropout masks (`draw_blocks`), inverted dropout, MSE loss and Adam.

Every parameter is a 2-D array (vectors are stored as [1, n]) so the
checkpoint block format stays uniform.

Tape rules. The model forwards run on plain `np.ndarray`s and on `Var`s
alike. A plain array is the only constant: every `Var` is a node of the
tape, either a leaf (`wrap_params` or a bare `Var(x)`) or the result of an
op with at least one `Var` operand. When no operand is a `Var`, every op
(the operators `+`, `*` and `@`, indexing by ints and slices, `relu`,
`affine`, `sigmoid_affine`, `masked_mean`, `masked_max`, `dropout` and
`mse_loss`) returns a plain array computed by the same numpy expression as
its tape form, so validation and rollout pass the stored parameter arrays
in, build no `Var` and get the training forward's bits.
`Var.__array_ufunc__` is None, so `ndarray <op> Var` falls through to the
reflected operators, which compute what `Var <op> ndarray` computes. An op
reads its operands through `value_of`; its parents are only the operands
that are `Var`s, and its closure passes a gradient only to them, skipping
the products and reductions that would only feed a plain array. `backward`
runs the closures of the nodes reachable from the loss in reverse creation
order (a Wengert list). A node's parents exist before it, so all its
consumers have passed it their gradients before its own closure runs; and
no node has more than two consumers, so those gradients add to the same
bits in either order (IEEE addition commutes, but three addends would not
associate). Fused nodes each replace a chain of ops and run its numpy calls
in its order: `affine` (`x @ w + b`), `sigmoid_affine` (the logistic
function of `affine`), `masked_mean` (a masked sum over the neighbor axis
divided by the clipped count), `masked_max` (a max over the neighbor axis
after shifting masked slots far down, zeroed for a row with no live slot)
and `mse_loss`.

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
    """Node in the reverse-mode graph; wraps a float64 ndarray. A bare
    `Var(x)` is a leaf; an op makes a node whose parents are its `Var`
    operands."""

    __slots__ = ("value", "grad", "_parents", "_backward", "_created")
    __array_ufunc__ = None  # ndarray <op> Var calls Var's reflected operator

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
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
    def __add__(self, other):
        v = value_of(other)

        def bwd(g):
            self._accumulate(_reduce_to(g, self.shape))
            if isinstance(other, Var):
                other._accumulate(_reduce_to(g, other.shape))

        return _node(self.value + v, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        v = value_of(other)

        def bwd(g):
            self._accumulate(_reduce_to(g * v, self.shape))
            if isinstance(other, Var):
                other._accumulate(_reduce_to(g * self.value, other.shape))

        return _node(self.value * v, (self, other), bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

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
            if axis is not None and not keepdims:
                kept = list(self.shape)  # np.expand_dims frees a 1-tuple per call
                kept[axis] = 1
                g = g.reshape(kept)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return _node(self.value.sum(axis=axis, keepdims=keepdims), (self,), bwd)


def _node(value, operands: tuple, backward) -> Var:
    """An op's result: a tape node whose parents are its `Var` operands, of
    which there is at least one."""
    return Var(value, tuple([x for x in operands if isinstance(x, Var)]), backward)


def value_of(x) -> np.ndarray:
    """The array behind `x`: a Var's value, or `x` itself."""
    return x.value if isinstance(x, Var) else x


def _matmul(a, b) -> Var:
    """`a @ b` where `a`, `b` or both are Vars."""
    av, bv = value_of(a), value_of(b)

    def bwd(g):
        if isinstance(a, Var):
            a._accumulate(_reduce_to(np.matmul(g, bv.swapaxes(-1, -2)), a.shape))
        if isinstance(b, Var):
            b._accumulate(_reduce_to(np.matmul(av.swapaxes(-1, -2), g), b.shape))

    return _node(np.matmul(av, bv), (a, b), bwd)


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


def _affine_backward(x, w, b, g: np.ndarray) -> None:
    """Pass the gradient `g` of `x @ w + b` to the operands that are Vars."""
    if isinstance(b, Var):
        b._accumulate(_reduce_to(g, b.shape))
    if isinstance(x, Var):
        x._accumulate(_reduce_to(np.matmul(g, value_of(w).swapaxes(-1, -2)), x.shape))
    if isinstance(w, Var):
        w._accumulate(_reduce_to(np.matmul(value_of(x).swapaxes(-1, -2), g), w.shape))


def _any_var(*xs) -> bool:
    return any(isinstance(x, Var) for x in xs)


def affine(x, w, b):
    """`x @ w + b` as one node."""
    y = np.matmul(value_of(x), value_of(w)) + value_of(b)
    if not _any_var(x, w, b):
        return y
    return _node(y, (x, w, b), lambda g: _affine_backward(x, w, b, g))


def sigmoid_affine(x, w, b):
    """The logistic function of `x @ w + b`, elementwise, as one node. Where
    exp(-(x @ w + b)) overflows, the result is its limit 0, without a warning."""
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-(np.matmul(value_of(x), value_of(w)) + value_of(b))))
    if not _any_var(x, w, b):
        return y
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
        np.put_along_axis(out, np.argmax(shifted, axis=-2)[..., None, :],
                          (g * has_any)[..., None, :], -2)
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


# The most bytes of uniforms one `draw_blocks` call of `rng.random` draws
# (2^14 doubles, about 12 sage training steps of 7 targets; 2^14 and 2^15
# bytes train 5-14 % slower), so a block does not grow with steps or sensors.
DRAW_BLOCK_BYTES = 1 << 17


def draw_blocks(rng: np.random.Generator, steps, key_shape, mask_shapes, rate: float,
                mode: str, sample=None):
    """Yield the draws of each of `steps` (lists of target nodes), a block of
    consecutive steps drawn by one `rng.random` call of at most
    DRAW_BLOCK_BYTES (or one step). Only here is dropout decided: a step has
    masks only in train mode at a positive `rate`.

    A step draws [len(step), *key_shape] sort keys (none if `key_shape` is
    None), then [len(step), *shape] uniforms for each of `mask_shapes` in
    turn. A generator emits the same doubles however its calls are cut, so
    each step gets the bits its own draws in turn would. With keys,
    `sample(targets, keys)` returns a named tuple of arrays once per block,
    and a step's draws are its rows of that, then its masks; without, its
    masks alone. A mask is a boolean [len(step), *shape] array, True where
    the uniform is >= `rate`.
    """
    if mode != "train" or not rate:
        mask_shapes = ()
    if key_shape is None and not mask_shapes:  # a step that draws nothing gets ()
        yield from itertools.repeat((), len(steps))
        return
    key_size = math.prod(key_shape) if key_shape is not None else 0
    sizes = [math.prod(shape) for shape in mask_shapes]
    per_row = key_size + sum(sizes)
    start = 0
    while start < len(steps):
        stop, total = start + 1, len(steps[start]) * per_row
        while stop < len(steps) and (total + len(steps[stop]) * per_row) * 8 <= DRAW_BLOCK_BYTES:
            total, stop = total + len(steps[stop]) * per_row, stop + 1
        block, start = steps[start:stop], stop
        uniforms = rng.random(total)
        keys, masks, pos = [], [], 0
        for nodes in block:
            b = len(nodes)
            keys.append(uniforms[pos : pos + b * key_size])
            pos += b * key_size
            step_masks = []
            for size, shape in zip(sizes, mask_shapes):
                step_masks.append((uniforms[pos : pos + b * size] >= rate).reshape(b, *shape))
                pos += b * size
            masks.append(step_masks)
        if key_shape is None:
            yield from map(tuple, masks)
            continue
        # Without masks the block holds only keys, already in one piece.
        keys = (np.concatenate(keys) if sizes else uniforms).reshape(
            sum(map(len, block)), *key_shape)
        del uniforms  # with masks drawn, only the copied keys and the masks outlive it
        drawn, row = sample(np.concatenate(block), keys), 0
        for nodes, step_masks in zip(block, masks):
            # From a list: a tuple built from a generator is resized, and
            # each such tuple, once freed, grows CPython's free list.
            yield drawn._make([a[row : row + len(nodes)] for a in drawn]), *step_masks
            row += len(nodes)


def dropout(x, rate: float, keep: np.ndarray | None = None):
    """Inverted dropout on the boolean survivor mask `keep` of x's shape,
    drawn by `draw_blocks`: zero where it is False, scale the survivors by
    1/(1-rate). Without a mask it is the identity."""
    if not 0.0 <= rate < 1.0:
        raise SchemaError(f"dropout rate {rate} outside [0, 1)")
    if keep is None:
        return x
    if keep.shape != x.shape or keep.dtype != np.bool_:
        raise SchemaError("dropout needs a boolean mask of the input's shape")
    return x * (keep / (1.0 - rate))


def mse_loss(pred, actual):
    """Mean squared error as one node."""
    p, a = value_of(pred), value_of(actual)
    if np.shape(p) != np.shape(a):
        raise SchemaError(f"mse shapes disagree: {np.shape(p)} vs {np.shape(a)}")
    diff = p + -a
    count = np.asarray(float(diff.size))
    loss = (diff * diff).sum() / count
    if not _any_var(pred, actual):
        return loss

    def bwd(g):
        half = np.broadcast_to(g / count, diff.shape) * diff
        g_diff = half + half  # d(diff * diff) reaches diff once per operand
        if isinstance(pred, Var):
            pred._accumulate(_reduce_to(g_diff, pred.shape))
        if isinstance(actual, Var):
            actual._accumulate(-_reduce_to(g_diff, actual.shape))

    return _node(loss, (pred, actual), bwd)


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
