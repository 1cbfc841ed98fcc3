"""GraphSAGE virtual-sensor model: four neighbor aggregators computed by one
pooling function (`_pool`), a two-layer sampled forward pass (`sample_batch`
draws each hop's fixed-size uniform samples for the whole batch at once from
pre-drawn sort keys, then `sage_forward_batch` runs layer 1 once over the
targets and their hop-1 samples together), and the model kind's hooks on
`SageConfig`, whose `budget` (k1, k2) holds the sample size of each hop:
`draws` is one `draw_blocks` call that samples each block of steps' targets
with one `sample_batch` call, and `forward` runs one step on its draws.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FlatConfig, SchemaError, check_types
from .geograph import SpatialGraph
from .nncore import (
    Var,
    _node,
    _reduce_to,
    affine,
    draw_blocks,
    dropout,
    masked_max,
    masked_mean,
    relu,
    sigmoid_affine,
    value_of,
)


class AggregatorKind(str, enum.Enum):
    MEAN = "mean"
    MAX_POOL = "max_pool"
    MEAN_POOL = "mean_pool"
    ATTENTIONAL = "attentional"


@dataclass(frozen=True)
class SageConfig(FlatConfig):
    aggregator: AggregatorKind = AggregatorKind.MEAN_POOL  # or its value, as stored
    hidden: tuple[int, int] = (32, 32)
    budget: tuple[int, int] = (3, 5)  # neighbors sampled at hop 1 and hop 2
    dropout: float = 0.5

    trains_by_gradient = True

    def __post_init__(self):
        try:
            object.__setattr__(self, "aggregator", AggregatorKind(self.aggregator))
        except ValueError:
            raise SchemaError(f"aggregator must be one of {[a.value for a in AggregatorKind]}, "
                              f"got {self.aggregator!r}") from None
        for name in ("hidden", "budget"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list)) and len(value) == 2
                    and all(type(k) is int and k >= 1 for k in value)):
                raise SchemaError(f"{name} must be two integers >= 1, got {value!r}")
        check_types(self, numbers=("dropout",))
        if not 0.0 <= self.dropout < 1.0:
            raise SchemaError("dropout must lie in [0, 1)")

    def param_shapes(self, in_dim: int) -> dict:
        """The shape of every trainable weight, keyed by layer; every array
        is 2-D."""
        shapes = {}
        d_prev = in_dim
        for layer, h in enumerate(self.hidden, start=1):
            shapes[f"l{layer}.w_self"] = (d_prev, h)
            if self.aggregator is AggregatorKind.MEAN:
                shapes[f"l{layer}.w_neigh"] = (d_prev, h)
            elif self.aggregator in (AggregatorKind.MAX_POOL, AggregatorKind.MEAN_POOL):
                shapes[f"l{layer}.w_pool"] = (d_prev, h)
                shapes[f"l{layer}.b_pool"] = (1, h)
                shapes[f"l{layer}.w_neigh"] = (h, h)
            else:  # ATTENTIONAL
                shapes[f"l{layer}.w_neigh"] = (d_prev, h)
                shapes[f"l{layer}.attn"] = (1, 2 * h)
            d_prev = h
        shapes["head.w"] = (d_prev, 1)
        shapes["head.b"] = (1, 1)
        return shapes

    def draws(self, g: SpatialGraph, steps, mode: str, rng: np.random.Generator):
        """Each step's (batch, and in train mode with dropout the masks of
        both dropout layers): one `draw_blocks` call, whose sampler runs
        `sample_batch` once per block."""
        k1 = self.budget[0]
        return draw_blocks(rng, steps, (1 + k1, g.neighbors.shape[1]),
                           [(1 + k1, self.hidden[0]), (self.hidden[1],)], self.dropout, mode,
                           lambda nodes, keys: sample_batch(g, nodes, self.budget, keys))

    def forward(self, pvars: dict, feats: np.ndarray, nodes: np.ndarray, drawn: tuple):
        return sage_forward_batch(pvars, self, feats, *drawn)


def _attention_softmax(score, mask: np.ndarray):
    """The attention weights [..., K, 1] of the scores `score` [..., K, 1]
    as one node: LeakyReLU(0.2), then a softmax over the K axis in which
    padded slots and empty rows get 0 (Velickovic et al. 2018)."""
    m = mask[..., None]
    s = value_of(score)
    factor = np.where(s > 0, 1.0, 0.2)
    # Moderate downshift keeps padded slots out of the stabilizing max
    # without overflowing exp; the mask multiply makes them exactly zero.
    e = s * factor + (m - 1.0) * 50.0
    ex_all = np.exp(e - e.max(axis=-2, keepdims=True))
    ex = ex_all * m
    # Epsilon keeps empty neighborhoods at alpha=0; small enough not to
    # disturb the sum-to-one property, large enough that its square
    # stays normal in the backward divide.
    total = ex.sum(axis=-2, keepdims=True) + 1e-30
    if not isinstance(score, Var):
        return ex / total

    def bwd(g):
        g_ex = g / total + _reduce_to(-g * ex / (total**2), total.shape)
        score._accumulate(g_ex * m * ex_all * factor)

    return _node(ex / total, (score,), bwd)


def _attention(p: dict, layer: int, self_x, neigh_x, mask: np.ndarray) -> tuple:
    """Attentional softmax weights `alpha` [..., K, 1] over the projected
    neighbors `nj` [..., K, h]; padded slots and empty rows get alpha = 0."""
    w = p[f"l{layer}.w_neigh"]
    h = w.shape[-1]
    attn = p[f"l{layer}.attn"]
    a_self = attn[:, :h].reshape(h, 1)
    a_neigh = attn[:, h:].reshape(h, 1)
    sp = self_x @ w  # [..., h]
    nj = neigh_x @ w  # [..., K, h]
    e_self = (sp @ a_self).reshape(*sp.shape[:-1], 1, 1)
    return _attention_softmax(e_self + nj @ a_neigh, mask), nj


def _pool(kind: AggregatorKind, p: dict, layer: int, self_x, neigh_x, mask: np.ndarray):
    """The aggregated neighbor vector, before the W_neigh projection of the
    mean and pooling kinds.

    `neigh_x` has shape [..., K, d_in] with `mask` [..., K]; padded slots
    contribute nothing, and an empty neighborhood yields a zero vector.
    MEAN averages the raw neighbors, ATTENTIONAL sums its projected
    neighbors weighted by `_attention`, and MEAN_POOL / MAX_POOL pool their
    sigmoid transforms.
    """
    if kind is AggregatorKind.MEAN:
        return masked_mean(neigh_x, mask)
    if kind is AggregatorKind.ATTENTIONAL:
        alpha, nj = _attention(p, layer, self_x, neigh_x, mask)
        return (alpha * nj).sum(axis=-2)
    z = sigmoid_affine(neigh_x, p[f"l{layer}.w_pool"], p[f"l{layer}.b_pool"])
    return (masked_mean if kind is AggregatorKind.MEAN_POOL else masked_max)(z, mask)


def _neighbor_term(kind: AggregatorKind, p: dict, layer: int, self_x, neigh_x,
                   mask: np.ndarray):
    """The W_neigh-side contribution to a layer's pre-activation."""
    pooled = _pool(kind, p, layer, self_x, neigh_x, mask)
    if kind is AggregatorKind.ATTENTIONAL:
        return pooled  # already in the projected space
    return pooled @ p[f"l{layer}.w_neigh"]


class NeighborhoodBatch(NamedTuple):
    """A batch's sampled two-hop neighborhoods, laid out for one layer-1 pass.

    Self row 0 of each target is the target itself and rows 1..k1 are its
    hop-1 slots. `neighbors[b, r]` holds the sampled neighbors of self row r
    (up to k1 for the target, up to k2 for a hop-1 slot), padded to
    K = max(k1, k2). `mask1` marks the live hop-1 slots. A padded slot has
    mask 0, and so does every neighbor of a padded hop-1 slot; the ids under
    a zero mask are valid node ids that the aggregators ignore.
    """

    rows: np.ndarray  # [B, 1+k1]
    neighbors: np.ndarray  # [B, 1+k1, K]
    mask: np.ndarray  # [B, 1+k1, K]
    mask1: np.ndarray  # [B, k1]


@functools.cache
def _hop_masks(max_degree: int, k: int, width: int) -> np.ndarray:
    """[max_degree + 1, width] table whose row d marks the first min(d, k)
    slots: the mask of a node of degree d drawn with budget k."""
    table = np.zeros((max_degree + 1, width))
    for d in range(max_degree + 1):
        table[d, : min(d, k)] = 1.0
    table.flags.writeable = False
    return table


def _draw(g: SpatialGraph, nodes: np.ndarray, keys: np.ndarray, k: int, width: int):
    """Up to `k` distinct neighbors of every node in `nodes`, uniform without
    replacement: each neighbor-table slot gets a uniform key, padded slots
    +inf, and the min(degree, k) lowest keys win. Returns the drawn ids
    [..., min(max_degree, k)] and their mask padded to `width`."""
    cols = (keys + g.pad_keys.take(nodes, axis=0)).argsort(axis=-1)[..., :k]
    masks = _hop_masks(g.neighbors.shape[1], k, width)
    return g.neighbors[nodes[..., None], cols], masks.take(g.degree[nodes], axis=0)


def sample_batch(g: SpatialGraph, nodes, budget: tuple[int, int],
                 keys: np.ndarray) -> NeighborhoodBatch:
    """Sample up to k1 hop-1 neighbors of every target, then up to k2 hop-2
    neighbors of every hop-1 slot, where `budget` is (k1, k2), each hop at
    once for the whole batch (GraphSAGE's fixed-size uniform sampling,
    Hamilton et al. 2017, section 3.1), ranked by the pre-drawn sort keys
    [len(nodes), 1 + k1, max_degree]. A target reads only its own keys, so
    one call serves the targets of many steps. A node whose degree is within
    its hop's budget contributes all its neighbors, in random order; an
    isolated node contributes none. A node id outside [0, n_nodes) or keys
    of another shape raise SchemaError."""
    nodes = np.asarray(nodes, dtype=np.intp)
    ids = nodes.tolist()
    if ids and (min(ids) < 0 or max(ids) >= g.n_nodes):
        raise SchemaError(f"node index outside [0, {g.n_nodes})")
    k1, k2 = budget
    b, width = len(ids), max(k1, k2)
    if keys.shape != (b, 1 + k1, g.neighbors.shape[1]):
        raise SchemaError(f"sampler keys of shape {keys.shape} for {b} targets")
    rows = np.zeros((b, 1 + k1), dtype=np.intp)
    neighbors = np.zeros((b, 1 + k1, width), dtype=np.intp)
    mask = np.empty((b, 1 + k1, width))
    rows[:, 0] = nodes
    hop1, mask[:, 0] = _draw(g, nodes, keys[:, 0], k1, width)
    rows[:, 1 : 1 + hop1.shape[1]] = neighbors[:, 0, : hop1.shape[1]] = hop1
    hop2, mask2 = _draw(g, rows[:, 1:], keys[:, 1:], k2, width)
    neighbors[:, 1:, : hop2.shape[2]] = hop2
    # A padded hop-1 slot has no hop-2 neighbors.
    np.multiply(mask2, mask[:, 0, :k1, None], out=mask[:, 1:])
    return NeighborhoodBatch(rows, neighbors, mask, mask[:, 0, :k1])


def sage_forward_batch(pvars: dict, cfg: SageConfig, feats: np.ndarray,
                       batch: NeighborhoodBatch, keep1: np.ndarray | None = None,
                       keep2: np.ndarray | None = None):
    """Two-layer sampled forward pass for a batch of target nodes.

    `feats` is the finite [n_nodes, d] feature matrix for one frame (or one
    assembled state). Layer 1 runs once over every self row of the batch,
    the targets and their hop-1 slots together (Hamilton et al. 2017,
    Algorithm 2); layer 2 combines each target's layer-1 state with those of
    its live hop-1 slots. `keep1` [B, 1+k1, h1] and `keep2` [B, h2], the
    boolean masks of the two dropout layers, come only with a training step
    that drops out. Returns the predicted NO2 in ug/m3, shape [B]: a tape
    node when `pvars` are `wrap_params` leaves, a plain array when they are
    the parameter arrays themselves.
    """
    kind = cfg.aggregator
    if not np.isfinite(feats).all():
        raise SchemaError("forward pass requires finite node features")
    x = feats[batch.rows]  # [B, 1+k1, d]
    xn = feats[batch.neighbors]  # [B, 1+k1, K, d]

    pre1 = x @ pvars["l1.w_self"] + _neighbor_term(kind, pvars, 1, x, xn, batch.mask)
    h1 = relu(dropout(pre1, cfg.dropout, keep1))  # [B, 1+k1, h1]
    h1_v = h1[:, 0]  # [B, h1]
    h1_u = h1[:, 1:]  # [B, k1, h1]

    pre2 = h1_v @ pvars["l2.w_self"] + _neighbor_term(kind, pvars, 2, h1_v, h1_u, batch.mask1)
    h2 = relu(dropout(pre2, cfg.dropout, keep2))  # [B, h2]

    out = affine(h2, pvars["head.w"], pvars["head.b"])  # [B, 1]
    return out.reshape(out.shape[0])

