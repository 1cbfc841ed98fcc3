"""Test-side probes of the model internals: a finite-difference gradient
checker over the autodiff tape, the nodes a tape records, a counter of the
`Var`s a block constructs, and the raw
aggregation and attentional weights of one neighbor set, computed by
`sage._pool` and `sage._attention` exactly as the forward pass computes
them."""

import contextlib

import numpy as np

from virtualsensor.errors import SchemaError
from virtualsensor.nncore import Var, collect_grads, constant, wrap_params
from virtualsensor.sage import AggregatorKind, _attention, _pool


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
            up = float(f(_constants(params)).value)
            flat[i] = orig - h
            down = float(f(_constants(params)).value)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


def _constants(params: dict) -> dict:
    return {name: constant(value) for name, value in params.items()}


@contextlib.contextmanager
def counting_vars():
    """Collect every `Var` constructed inside the block."""
    made, init = [], Var.__init__

    def recording_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    Var.__init__ = recording_init
    try:
        yield made
    finally:
        Var.__init__ = init


def tape_nodes(out) -> list:
    """Every node reachable from `out` through recorded parents, once each."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def attention_weights(p: dict, layer: int, kind: AggregatorKind, self_x: np.ndarray,
                      neigh_x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The attentional softmax weights [..., K] of the forward pass."""
    if kind is not AggregatorKind.ATTENTIONAL:
        raise SchemaError("attention weights only exist for the attentional aggregator")
    alpha, _ = _attention(p, layer, self_x, neigh_x, mask)
    return alpha[..., 0]


def aggregate(kind: AggregatorKind, self_feat: np.ndarray,
              neigh_feats: list[np.ndarray] | np.ndarray, params: dict,
              layer: int = 1) -> np.ndarray:
    """Raw aggregation of a neighbor set (no self/combination step).

    Mean returns the input-dim mean; the pooling aggregators return the
    pooled transformed vector; attentional returns the softmax-weighted sum
    of projected neighbors. Empty sets yield the aggregator's zero vector.
    """
    neigh = np.asarray(neigh_feats, dtype=np.float64)
    d = self_feat.shape[-1]
    if neigh.size == 0:  # one masked-out slot
        neigh, mask = np.zeros((1, d)), np.zeros((1, 1))
    elif neigh.shape[-1] != d:
        raise SchemaError("neighbor feature width mismatch")
    else:
        mask = np.ones((1, neigh.shape[0]))
    return _pool(kind, params, layer, self_feat[None], neigh[None], mask)[0]
