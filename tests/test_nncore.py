"""Autodiff core: operator gradients, plain-array ops, layers, dropout, block draws, Adam,
grad checking."""

import functools
import math
import operator
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor.baselines import _conv1d
from virtualsensor.errors import SchemaError
from virtualsensor.nncore import (
    DRAW_BLOCK_BYTES,
    AdamState,
    Var,
    adam_step,
    affine,
    collect_grads,
    draw_blocks,
    dropout,
    glorot_uniform,
    masked_max,
    masked_mean,
    mse_loss,
    relu,
    sigmoid_affine,
    wrap_params,
)
from virtualsensor.sage import _attention_softmax

from probes import (
    counting_vars,
    grad_check,
    reference_attention_softmax,
    reference_conv1d,
    reference_div,
    reference_masked_max,
    reference_sigmoid,
    reference_sub,
    tape_nodes,
)


# ---------------------------------------------------------------- Var basics


def test_var_add_mul_grads():
    x = Var(np.array([[2.0, 3.0]]))
    y = Var(np.array([[4.0, 5.0]]))
    out = (x * y + x).sum()
    out.backward()
    assert np.allclose(x.grad, [[5.0, 6.0]])  # y + 1
    assert np.allclose(y.grad, [[2.0, 3.0]])  # x


def test_var_matmul_grads():
    a = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Var(np.array([[5.0], [6.0]]))
    out = (a @ b).sum()
    out.backward()
    assert np.allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
    assert np.allclose(b.grad, [[4.0], [6.0]])


def test_var_broadcast_add_unbroadcasts_grad():
    x = Var(np.zeros((3, 2)))
    b = Var(np.zeros((1, 2)))
    out = (x + b).sum()
    out.backward()
    assert b.grad.shape == (1, 2)
    assert np.allclose(b.grad, [[3.0, 3.0]])


def test_var_relu_kink():
    x = Var(np.array([-2.0, 0.0, 3.0]))
    out = relu(x).sum()
    out.backward()
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_var_sigmoid_value_and_grad():
    x = Var(np.array([[0.0]]))
    out = sigmoid_affine(x, np.ones((1, 1)), np.zeros((1, 1))).sum()
    out.backward()
    assert out.value == pytest.approx(0.5)
    assert x.grad[0, 0] == pytest.approx(0.25)


def test_var_max_axis_routes_gradient_to_argmax():
    x = Var(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]))
    out = masked_max(x, np.ones(2)).sum()
    out.backward()
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def test_var_reshape_and_slice_grads():
    x = Var(np.arange(8.0).reshape(2, 4))
    out = (x.reshape(4, 2)[1:3].sum() + x[1, 2:].sum()) * 2.0
    out.backward()
    want = np.zeros(8)
    want[2:6] = 2.0
    want[6:] += 2.0
    assert np.array_equal(x.grad, want.reshape(2, 4))


@pytest.mark.parametrize("key", [np.array([0, 0]), [0, 0], (slice(None), np.array([1, 1])),
                                 np.array([True, False])],
                         ids=["int-array", "int-list", "int-array-in-tuple", "bool-array"])
def test_var_refuses_keys_other_than_ints_and_slices(key):
    # `out[key] = g` would keep one gradient of a repeated index and drop the rest.
    with pytest.raises(SchemaError):
        Var(np.ones((2, 3)))[key]


def test_var_reused_node_accumulates():
    x = Var(np.array([3.0]))
    out = (x * x + x).sum()  # derivative 2x + 1
    out.backward()
    assert x.grad[0] == pytest.approx(7.0)


def test_backward_requires_scalar():
    x = Var(np.ones((2, 2)))
    with pytest.raises(SchemaError):
        (x * 2).backward()


# ---------------------------------------------------------------- tape rules


def _every_op(a, b, c):
    """Each op over a [2, 3] `a`, a [3, 1] `b` and a [1, 1] `c`."""
    mask = np.array([[1.0, 0.0]])
    return [a + 1.0, 1.0 + a, a * b.reshape(1, 3), relu(a @ b), a.sum(axis=0), a[:, 1:],
            a[1], a[:, 0], a[0, 1:2], _conv1d(a.reshape(2, 3, 1), b, c, 3, 1),
            affine(a, b, c), sigmoid_affine(a, b, c), masked_mean(a.reshape(1, 2, 3), mask),
            masked_max(a.reshape(1, 2, 3), mask),
            _attention_softmax(a.reshape(2, 3, 1), np.array([[1.0, 0.0, 1.0], [0.0] * 3])),
            dropout(a, 0.5), dropout(a, 0.5, np.random.default_rng(0).random((2, 3)) >= 0.5)]


def test_constants_record_no_tape():
    # A plain array is the only constant: over plain arrays every op returns
    # a plain array with the bits of its tape form's value, and builds no Var.
    rng = np.random.default_rng(4)
    a, b, c = rng.normal(size=(2, 3)), rng.normal(size=(3, 1)), rng.normal(size=(1, 1))
    taped = _every_op(Var(a), Var(b), Var(c)) + [mse_loss(Var(a), a * 2.0)]
    with counting_vars() as made:
        plain = _every_op(a, b, c) + [mse_loss(a, a * 2.0)]
    assert made == []
    assert len(plain) == len(taped)
    for out, arr in zip(taped, plain):
        assert isinstance(out, Var) and type(arr) in (np.ndarray, np.float64)
        assert arr.dtype == out.value.dtype and arr.shape == out.value.shape
        assert arr.tobytes() == out.value.tobytes()


@pytest.mark.parametrize("op", [operator.add, operator.mul, operator.matmul],
                         ids=lambda op: op.__name__)
def test_reflected_operators_match_the_lifted_form(op):
    # `ndarray <op> Var` gives the value and the Var's gradient of the form
    # with the array lifted to a leaf, `Var <op> Var`.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 2)) if op is operator.matmul else rng.uniform(0.5, 2.0, (1, 3))
    upstream = rng.normal(size=op(x, w0).shape)

    def run(left):
        w = Var(w0)
        out = op(left, w)
        assert isinstance(out, Var) and out._parents[-1] is w
        (out * upstream).sum().backward()
        return [float(v).hex() for v in np.concatenate([out.value.ravel(), w.grad.ravel()])]

    assert run(x) == run(Var(x))


def test_ndarray_ufuncs_refuse_a_var():
    # Var opts out of numpy's ufunc protocol, so a Var is never silently
    # turned into an object array.
    with pytest.raises(TypeError):
        np.exp(Var(np.ones(2)))


def test_bare_var_and_leaves_need_grad():
    # A bare Var and each `wrap_params` leaf is a parentless tape node, and
    # backward through them writes a gradient to every one.
    w = Var(np.ones(2))
    leaves = wrap_params({"u": np.ones((1, 1)), "v": np.ones((1, 1))})
    assert w._parents == () and all(v._parents == () for v in leaves.values())
    ((w * 3.0).sum() + (leaves["u"] * leaves["v"]).sum()).backward()
    assert w.grad is not None and all(v.grad is not None for v in leaves.values())


def test_parents_are_only_operands_that_need_grad():
    # The operands that need a gradient are the Vars: an op's parents are its
    # Var operands, never a plain array.
    w = Var(np.ones((3, 1)))
    b = wrap_params({"b": np.ones((1, 1))})["b"]
    x = np.ones((2, 3))
    assert (x @ w)._parents == (w,) and (x + w.reshape(1, 3))._parents[0]._parents == (w,)
    assert affine(x, w, np.zeros((1, 1)))._parents == (w,)
    assert affine(x, w, b)._parents == (w, b)


def test_backward_leaves_constants_without_grad():
    # Data and masks enter as plain arrays: the tape's leaves are exactly the
    # Vars, and backward writes to nothing else.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    w, b = Var(rng.normal(size=(3, 1))), Var(np.zeros((1, 1)))
    mask = np.array([[1.0], [0.0], [1.0], [1.0]])
    y = rng.normal(size=4)
    x_bytes, mask_bytes = x.tobytes(), mask.tobytes()
    loss = mse_loss((affine(x, w, b) * mask).reshape(4), y)
    loss.backward()
    assert x.tobytes() == x_bytes and mask.tobytes() == mask_bytes
    assert w.grad is not None and b.grad is not None
    assert {id(node) for node in tape_nodes(loss) if not node._parents} == {id(w), id(b)}


def _signed_zeros(upstream):
    """`upstream` with zeros of either sign in place of some entries."""
    upstream.reshape(-1)[::5] = 0.0
    upstream.reshape(-1)[1::5] = -0.0
    return upstream


def _value_and_grads(f, inputs, upstream):
    """The bytes of `f`'s value over fresh leaves of `inputs` and of their
    gradients, with `upstream` as the gradient of the value, and the number
    of nodes `f` records."""
    leaves = [Var(v) for v in inputs]
    out = f(*leaves)
    (out * upstream).sum().backward()
    recorded = sum(1 for node in tape_nodes(out) if node._parents)
    return [a.tobytes() for a in (out.value, *(v.grad for v in leaves))], recorded


def test_fused_nodes_match_their_op_chains():
    # Each fused node's value and gradients equal, bit for bit, those of the
    # chain of ops it replaces, on edge inputs and on upstream gradients with
    # zeros of either sign, and each records one tape node (the masked_mean
    # case chains three fused nodes).
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(6, 8, 3))
    w0, b0 = rng.normal(size=(3, 5)), rng.normal(size=(1, 5))
    b0[0, :2] = -1000.0, 1000.0  # the sigmoid saturates at 0 and at 1
    mask = (rng.random((6, 8)) < 0.6).astype(np.float64)
    mask[1] = 0.0  # an empty row
    mask[0, [2, 5]] = 1.0
    x0[0, 2] = x0[0, 5] = x0[0].max(axis=0)  # tied maxima
    y = rng.normal(size=(6, 5))

    def masked_mean_loss(x, w, b):
        return mse_loss(masked_mean(sigmoid_affine(x, w, b), mask), y)

    def masked_mean_chain(x, w, b):
        count = np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)
        h = reference_div((reference_sigmoid(x @ w + b) * Var(mask[..., None])).sum(axis=-2),
                          Var(count))
        diff = reference_sub(h, y)
        return reference_div((diff * diff).sum(), float(diff.value.size))

    cases = [  # (fused node, its chain, inputs, upstream gradient, nodes recorded)
        (masked_mean_loss, masked_mean_chain, (x0, w0, b0), np.ones(()), 3),
        (sigmoid_affine, lambda x, w, b: reference_sigmoid(affine(x, w, b)), (x0, w0, b0),
         _signed_zeros(rng.normal(size=(6, 8, 5))), 1),
        (lambda x: masked_max(x, mask), lambda x: reference_masked_max(x, mask), (x0,),
         _signed_zeros(rng.normal(size=(6, 3))), 1),
        (lambda s: _attention_softmax(s, mask), lambda s: reference_attention_softmax(s, mask),
         (x0[..., :1],), _signed_zeros(rng.normal(size=(6, 8, 1))), 1),
    ]
    assert (x0[..., :1] > 0).any() and (x0[..., :1] < 0).any()  # scores of both signs
    # The convolution, on an input with the zeros of a relu and an upstream
    # gradient with rows of zeros of either sign.
    for kernel, c_in in [(3, 2), (3, 1), (2, 3), (1, 2), (5, 1)]:
        inputs = (np.maximum(rng.normal(size=(3, 6, c_in)), 0.0),
                  rng.normal(size=(kernel * c_in, 4)), rng.normal(size=(1, 4)))
        upstream = rng.normal(size=(3, 6, 4))
        upstream[0, 2:] = -0.0
        upstream[1, :, :2] = 0.0
        cases.append((functools.partial(_conv1d, kernel=kernel, c_in=c_in),
                      functools.partial(reference_conv1d, kernel=kernel, c_in=c_in),
                      inputs, upstream, 1))
    for fused, chain, inputs, upstream, nodes in cases:
        want, _ = _value_and_grads(chain, inputs, upstream)
        got, recorded = _value_and_grads(fused, inputs, upstream)
        assert got == want
        assert recorded == nodes


# ---------------------------------------------------------------- layers


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 100, 50)
    limit = math.sqrt(6.0 / 150.0)
    assert w.shape == (100, 50)
    assert np.all(np.abs(w) <= limit)
    assert abs(w.mean()) < 0.01


# ---------------------------------------------------------------- dropout


def test_dropout_eval_is_identity():
    # An eval step gets no mask from `draw_blocks`; without one, dropout is
    # the identity.
    x = np.random.default_rng(0).normal(size=(10, 4))
    out = dropout(x, 0.5)
    assert out is x


def test_dropout_zero_rate_is_identity():
    x = np.ones((5, 5))
    out = dropout(x, 0.0)  # a training step at rate 0 draws no mask
    assert out is x


def test_dropout_train_scales_survivors():
    x = np.ones((4, 4))
    out = dropout(x, 0.5, np.random.default_rng(1).random(x.shape) >= 0.5)
    assert type(out) is np.ndarray
    vals = np.unique(out)
    assert set(vals) <= {0.0, 2.0}  # inverted dropout: survivors scaled by 2


def test_dropout_monte_carlo_mean_preserved():
    # E[dropout(x)] == x: the survivor scaling keeps activations unbiased.
    rng = np.random.default_rng(123)
    x = np.ones(100_000)
    out = dropout(x, 0.5, rng.random(x.shape) >= 0.5)
    assert 0.98 <= out.mean() <= 1.02


def test_dropout_frozen_mask():
    # A fixed boolean mask freezes dropout: value and gradient are
    # mask / (1 - rate) for the mask of the uniforms that seed draws.
    x = Var(np.ones((3, 4)))
    out = dropout(x, 0.25, np.random.default_rng(7).random((3, 4)) >= 0.25)
    mask = (np.random.default_rng(7).random((3, 4)) >= 0.25).astype(np.float64)
    assert 0 < mask.sum() < mask.size
    assert np.array_equal(out.value, mask / 0.75)
    out.sum().backward()
    assert np.array_equal(x.grad, mask / 0.75)


def test_dropout_validation():
    keep = np.random.default_rng(0).random(3) >= 0.5
    with pytest.raises(SchemaError):
        dropout(np.ones(3), 1.0, keep)
    with pytest.raises(SchemaError):
        dropout(np.ones(3), 0.5, np.ones(4, dtype=bool))  # another shape
    with pytest.raises(SchemaError):
        dropout(np.ones(3), 0.5, np.random.default_rng(0).random(3))  # not boolean


class Sampled(NamedTuple):
    """What the test sampler returns: a block's targets and sort keys."""

    targets: np.ndarray
    keys: np.ndarray


def recording_sampler(calls: list):
    """A `draw_blocks` sampler that records the target count of each call."""
    def sample(targets, keys):
        calls.append(len(targets))
        return Sampled(targets, keys)
    return sample


def test_draw_blocks_keep_each_steps_bits():
    # One call per block emits the doubles that each step's own draws, made
    # in turn, would emit, after a permutation drawn from the same generator:
    # the sampler runs once per block on its steps' targets and keys in
    # order, each step gets its rows of the result, and its masks are its
    # uniforms >= rate.
    sizes = [3, 1, 7, 2, 5] * 40
    key_shape, shapes, rate = (4, 6), [(4, 32), (32,)], 0.3
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    assert rng.permutation(10).tolist() == ref.permutation(10).tolist()
    steps, calls = [np.arange(b) + 10 * i for i, b in enumerate(sizes)], []
    drawn = list(draw_blocks(rng, steps, key_shape, shapes, rate, "train",
                             recording_sampler(calls)))
    assert len(drawn) == len(steps)
    assert len(calls) > 1 and sum(calls) == sum(sizes)
    assert all(n * 184 * 8 <= DRAW_BLOCK_BYTES for n in calls)
    for nodes, (rows, *masks) in zip(steps, drawn):
        want_keys = ref.random((len(nodes), *key_shape))
        want = [ref.random((len(nodes), *shape)) >= rate for shape in shapes]
        assert np.array_equal(rows.targets, nodes) and rows.keys.tobytes() == want_keys.tobytes()
        assert len(masks) == len(shapes)
        assert all(m.dtype == np.bool_ and np.array_equal(m, w) for m, w in zip(masks, want))
    assert rng.random() == ref.random()


def test_draw_blocks_draw_masks_only_in_train_mode_at_a_positive_rate():
    sizes = [3, 1, 7, 2, 5] * 40
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    calls = []
    drawn = list(draw_blocks(rng, [np.arange(b) for b in sizes], (4, 6), [(32,)], 0.3, "eval",
                             recording_sampler(calls)))
    assert len(calls) > 1
    assert [len(d) for d in drawn] == [1] * len(sizes)  # a step's rows, and no mask
    keys = np.concatenate([rows.keys for rows, in drawn])
    assert keys.tobytes() == ref.random((sum(sizes), 4, 6)).tobytes()
    assert rng.random() == ref.random()


@pytest.mark.parametrize("shapes, rate, mode", [([], 0.5, "train"), ([(3,)], 0.5, "eval"),
                                                ([(3,)], 0.0, "train")])
def test_draw_blocks_without_keys_or_masks_draw_nothing(shapes, rate, mode):
    rng = np.random.default_rng(0)
    assert list(draw_blocks(rng, [np.arange(2)] * 3, None, shapes, rate, mode)) == [(), (), ()]
    assert rng.random() == np.random.default_rng(0).random()


# ---------------------------------------------------------------- loss


def test_mse_loss_example():
    # mean of squared errors: ((1)^2 + (3)^2) / 2 = 5
    loss = mse_loss(np.array([[2.0], [7.0]]), np.array([[1.0], [4.0]]))
    assert loss == pytest.approx(5.0)


def test_mse_loss_zero_at_match():
    x = np.array([[1.5, -2.0]])
    assert mse_loss(x, x.copy()) == pytest.approx(0.0)


def test_mse_loss_shape_check():
    with pytest.raises(SchemaError):
        mse_loss(np.zeros((2, 1)), np.zeros((3, 1)))


def test_mse_loss_grad():
    pred = Var(np.array([[3.0], [5.0]]))
    actual = np.array([[1.0], [1.0]])
    mse_loss(pred, actual).backward()
    # d/dpred mean((p-a)^2) = 2(p-a)/n
    assert np.allclose(pred.grad, [[2.0], [4.0]])


# ---------------------------------------------------------------- Adam


def test_adam_first_step_moves_by_lr():
    # With bias correction, the first step is exactly -lr * sign(g).
    params = {"w": np.array([[1.0, -2.0]])}
    grads = {"w": np.array([[0.3, -0.7]])}
    state = AdamState(lr=0.1)
    params, state = adam_step(params, grads, state)
    assert np.allclose(params["w"], [[0.9, -1.9]], atol=1e-7)
    assert state.step == 1


def test_adam_zero_lr_is_noop():
    params = {"w": np.array([[5.0]])}
    state = AdamState(lr=0.0)
    params, _ = adam_step(params, {"w": np.array([[123.0]])}, state)
    assert params["w"][0, 0] == 5.0


def test_adam_updates_only_params_with_grads():
    params = {"w": np.array([[1.0]]), "frozen": np.array([[2.0]])}
    state = AdamState(lr=0.1)
    for _ in range(3):
        params, state = adam_step(params, {"w": np.array([[0.5]])}, state)
    assert params["frozen"][0, 0] == 2.0
    assert params["w"][0, 0] == pytest.approx(0.7, abs=1e-7)
    assert state.names == ("w",)


def test_adam_rejects_nonfinite_grad():
    params = {"w": np.zeros((1, 1)), "b": np.zeros((1, 1))}
    grads = {"w": np.zeros((1, 1)), "b": np.array([[np.nan]])}
    with pytest.raises(SchemaError, match="'b'"):
        adam_step(params, grads, AdamState())


def test_adam_converges_on_quadratic():
    params = {"w": np.array([[10.0]])}
    state = AdamState(lr=0.5)
    for _ in range(200):
        grads = {"w": 2.0 * params["w"]}
        params, state = adam_step(params, grads, state)
    assert abs(params["w"][0, 0]) < 1e-2


def test_adam_state_persistence_matters():
    # Continuing one optimizer differs from restarting each step (momentum).
    def run(restart):
        params = {"w": np.array([[4.0]])}
        state = AdamState(lr=0.1)
        for _ in range(10):
            if restart:
                state = AdamState(lr=0.1)
            params, state = adam_step(params, {"w": 2.0 * params["w"]}, state)
        return params["w"][0, 0]

    assert run(False) != pytest.approx(run(True), abs=1e-9)


def _adam_per_name(params, grads, state):
    """The per-name Adam loop the flat update replaced (state: step, m, v)."""
    state["step"] += 1
    t = state["step"]
    for name in sorted(grads):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise SchemaError(f"non-finite gradient for parameter {name!r}")
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(params[name])
            state["v"][name] = np.zeros_like(params[name])
        state["m"][name] = 0.9 * state["m"][name] + (1 - 0.9) * g
        state["v"][name] = 0.999 * state["v"][name] + (1 - 0.999) * g * g
        m_hat = state["m"][name] / (1 - 0.9**t)
        v_hat = state["v"][name] / (1 - 0.999**t)
        params[name] = params[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    return params


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_flat_adam_matches_per_name_loop(seed, n_steps):
    rng = np.random.default_rng(seed)
    shapes = {"a.w": (3, 2), "b": (1, 4), "c.w": (2, 2), "d": (1, 1)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    flat, ref = dict(start), {k: v.copy() for k, v in start.items()}
    state, ref_state = AdamState(lr=0.01), {"step": 0, "m": {}, "v": {}}
    # A random subset of names moves, the same one every step, as under freeze.
    names = [k for k in shapes if rng.random() < 0.7] or ["b"]
    for _ in range(n_steps):
        grads = {k: rng.normal(size=shapes[k]) * 10.0 ** rng.integers(-3, 3) for k in names}
        flat, state = adam_step(flat, grads, state)
        ref = _adam_per_name(ref, grads, ref_state)
        for k in shapes:
            assert flat[k].shape == shapes[k]
            assert np.array_equal(flat[k], ref[k]), k
    assert state.names == tuple(sorted(names))
    for row, key in ((1, "m"), (2, "v")):
        want = np.concatenate([ref_state[key][k].ravel() for k in state.names])
        assert np.array_equal(state.flat[row], want), key


def test_adam_state_keeps_the_names_of_its_first_step():
    params = {k: np.zeros((1, 2)) for k in ("a", "b", "c")}
    state = AdamState()
    params, state = adam_step(params, {"a": np.ones((1, 2)), "b": np.ones((1, 2))}, state)
    for other in (("a",), ("a", "b", "c"), ("a", "c")):
        with pytest.raises(SchemaError, match="Adam state updates"):
            adam_step(params, {k: np.ones((1, 2)) for k in other}, state)
    assert state.step == 1 and np.array_equal(params["c"], np.zeros((1, 2)))
    params, state = adam_step(params, {"b": np.ones((1, 2)), "a": np.ones((1, 2))}, state)
    assert state.step == 2


@pytest.mark.parametrize("bad", [("a.w",), ("c.w", "d"), ("d",)])
def test_flat_adam_names_the_first_nonfinite_gradient(bad):
    params = {k: np.zeros((2, 2)) for k in ("a.w", "b", "c.w", "d")}
    grads = {k: np.ones((2, 2)) for k in params}
    for k in bad:
        grads[k] = np.array([[1.0, np.inf], [np.nan, 1.0]])
    with pytest.raises(SchemaError, match=repr(bad[0])):
        adam_step(params, grads, AdamState())
    assert all(np.array_equal(v, np.zeros((2, 2))) for v in params.values())


def test_adam_keeps_params_as_views_of_one_buffer():
    given = {"w": np.ones((2, 3)), "b": np.zeros((1, 3)), "frozen": np.ones((1, 1))}
    params = dict(given)
    grads = {"w": np.ones((2, 3)), "b": np.ones((1, 3))}
    state = AdamState()
    params, state = adam_step(params, grads, state)
    first = dict(params)
    assert params["w"].base is not None and params["w"].base is params["b"].base
    assert params["frozen"] is given["frozen"]
    params, state = adam_step(params, grads, state)
    assert params["w"] is first["w"] and params["b"] is first["b"]  # updated in place
    assert np.array_equal(given["w"], np.ones((2, 3)))  # arrays passed in are never written
    assert np.array_equal(given["b"], np.zeros((1, 3)))


# ---------------------------------------------------------------- grad check


def test_grad_check_clean_function():
    rng = np.random.default_rng(0)
    params = {
        "w1": rng.normal(size=(4, 3)),
        "b1": rng.normal(size=(1, 3)),
        "w2": rng.normal(size=(3, 1)),
    }
    x = rng.normal(size=(6, 4))
    y = rng.normal(size=(6, 1))

    def f(p):
        h = relu(Var(x) @ p["w1"] + p["b1"])
        return mse_loss(h @ p["w2"], y)

    assert grad_check(f, params) < 1e-6


def test_grad_check_through_reflected_operators():
    # Arrays on the left of every operator, as in the model forwards.
    rng = np.random.default_rng(1)
    params = {
        "w": rng.normal(size=(4, 3)),
        "b": rng.normal(size=(1, 3)),
        "s": rng.uniform(1.0, 2.0, size=(1, 3)),
    }
    x, c = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 3))

    def f(p):
        h = c + (x @ p["w"]) * -0.5
        h = c * sigmoid_affine(h, np.ones((3, 3)), np.ones((1, 3))) + p["b"]
        return mse_loss(c * p["s"] + h, y)

    assert grad_check(f, params) < 1e-6


def test_grad_check_catches_wrong_gradient():
    params = {"w": np.array([[2.0]])}

    def f(p):
        # deliberately corrupted op: value of w^2 but gradient of w
        w = p["w"]
        if not isinstance(w, Var):
            return (w * w).sum()
        out = Var(w.value * w.value, parents=(w,), backward=None)

        def back(grad):
            w._accumulate(grad)  # should be 2w * grad

        out._backward = back
        return out.sum()

    assert grad_check(f, params) > 0.1


def test_wrap_and_collect_roundtrip():
    params = {"a": np.ones((2, 2)), "b": np.zeros((1, 3))}
    leaves = wrap_params(params)
    (leaves["a"].sum() + leaves["b"].sum()).backward()
    grads = collect_grads(leaves)
    assert np.allclose(grads["a"], 1.0)
    assert np.allclose(grads["b"], 1.0)


def test_collect_grads_fills_untouched_with_zeros():
    leaves = wrap_params({"a": np.ones((2,)), "unused": np.ones((3,))})
    leaves["a"].sum().backward()
    grads = collect_grads(leaves)
    assert np.allclose(grads["unused"], 0.0)
