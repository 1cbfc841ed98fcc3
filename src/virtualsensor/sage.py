"""GraphSAGE virtual-sensor model: four neighbor aggregators computed by one
pooling function (`_pool`), a two-layer sampled forward pass (`sample_batch`
then `sage_forward_batch`), the model kind's hooks on `SageConfig`, and the
rollout-start seeding (`InitScheme`, `resolve_init`) that
`pipeline.closed_loop_predict` uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import SchemaError
from .geograph import SampleBudget, SpatialGraph, sample_neighborhood
from .nncore import (
    affine,
    dropout,
    exp,
    glorot_uniform,
    leaky_relu,
    masked_mean,
    relu,
    sigmoid,
    slice_axis,
    value_of,
)

_MASK_NEG = 1e30  # additive shift that excludes padded slots from max()


class AggregatorKind(enum.Enum):
    MEAN = "mean"
    MAX_POOL = "max_pool"
    MEAN_POOL = "mean_pool"
    ATTENTIONAL = "attentional"


@dataclass(frozen=True)
class SageConfig:
    aggregator: AggregatorKind = AggregatorKind.MEAN_POOL
    hidden: tuple[int, int] = (32, 32)
    budget: SampleBudget = field(default_factory=SampleBudget)
    dropout: float = 0.5
    seed: int = 0

    trains_by_gradient = True

    def __post_init__(self):
        if any(h <= 0 for h in self.hidden):
            raise SchemaError("hidden dims must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise SchemaError("dropout must lie in [0, 1)")

    def init_params(self, in_dim: int, rng: np.random.Generator) -> dict:
        """All trainable weights, keyed by layer; every array is 2-D."""
        params = {}
        d_prev = in_dim
        for layer, h in enumerate(self.hidden, start=1):
            params[f"l{layer}.w_self"] = glorot_uniform(rng, d_prev, h)
            if self.aggregator is AggregatorKind.MEAN:
                params[f"l{layer}.w_neigh"] = glorot_uniform(rng, d_prev, h)
            elif self.aggregator in (AggregatorKind.MAX_POOL, AggregatorKind.MEAN_POOL):
                params[f"l{layer}.w_pool"] = glorot_uniform(rng, d_prev, h)
                params[f"l{layer}.b_pool"] = np.zeros((1, h))
                params[f"l{layer}.w_neigh"] = glorot_uniform(rng, h, h)
            elif self.aggregator is AggregatorKind.ATTENTIONAL:
                params[f"l{layer}.w_neigh"] = glorot_uniform(rng, d_prev, h)
                params[f"l{layer}.attn"] = glorot_uniform(rng, 1, 2 * h)
            else:  # pragma: no cover
                raise SchemaError(f"unknown aggregator {self.aggregator}")
            d_prev = h
        params["head.w"] = glorot_uniform(rng, d_prev, 1)
        params["head.b"] = np.zeros((1, 1))
        return params

    def predict(self, pvars: dict, g: SpatialGraph, feats: np.ndarray, nodes: np.ndarray,
                mode: str, rng: np.random.Generator):
        batch = sample_batch(g, nodes, self.budget, rng)
        return sage_forward_batch(pvars, self, feats, batch, mode=mode, rng=rng)

    def to_dict(self) -> dict:
        return {
            "aggregator": self.aggregator.value,
            "hidden": list(self.hidden),
            "budget": list(self.budget.per_hop),
            "dropout": self.dropout,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SageConfig":
        return cls(
            aggregator=AggregatorKind(data["aggregator"]),
            hidden=tuple(data["hidden"]),
            budget=SampleBudget(tuple(data["budget"])),
            dropout=data["dropout"],
            seed=data["seed"],
        )


@dataclass(frozen=True)
class InitScheme:
    """How the held-out node's autoregressive slot is seeded at rollout start."""

    kind: str  # actual_first | fixed | dataset_mean
    value: float | None = None

    @classmethod
    def actual_first(cls):
        return cls("actual_first")

    @classmethod
    def fixed(cls, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise SchemaError(f"fixed init value {value} is not finite")
        return cls("fixed", value)

    @classmethod
    def dataset_mean(cls):
        return cls("dataset_mean")


def _attention(p: dict, layer: int, self_x, neigh_x, mask: np.ndarray) -> tuple:
    """Attentional softmax weights `alpha` [..., K, 1] over the projected
    neighbors `nj` [..., K, h]; padded slots and empty rows get alpha = 0."""
    w = p[f"l{layer}.w_neigh"]
    h = w.shape[-1]
    attn = p[f"l{layer}.attn"]
    a_self = slice_axis(attn, 1, 0, h).reshape(h, 1)
    a_neigh = slice_axis(attn, 1, h, 2 * h).reshape(h, 1)
    sp = self_x @ w  # [..., h]
    nj = neigh_x @ w  # [..., K, h]
    e_self = (sp @ a_self).reshape(*sp.shape[:-1], 1, 1)
    # Moderate downshift keeps padded slots out of the stabilizing max
    # without overflowing exp; the mask multiply makes them exactly zero.
    e = leaky_relu(e_self + nj @ a_neigh, 0.2) + (mask[..., None] - 1.0) * 50.0
    stabilizer = value_of(e).max(axis=-2, keepdims=True)
    ex = exp(e - stabilizer) * mask[..., None]
    # Epsilon keeps empty neighborhoods at alpha=0; small enough not to
    # disturb the sum-to-one property, large enough that its square
    # stays normal in the backward divide.
    total = ex.sum(axis=-2, keepdims=True) + 1e-30
    return ex / total, nj


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
    z = sigmoid(affine(neigh_x, p[f"l{layer}.w_pool"], p[f"l{layer}.b_pool"]))
    if kind is AggregatorKind.MEAN_POOL:
        return masked_mean(z, mask)
    shifted = z * mask[..., None] + (mask[..., None] - 1.0) * _MASK_NEG
    has_any = (mask.sum(axis=-1, keepdims=True) > 0).astype(np.float64)
    return shifted.max(axis=-2) * has_any


def _neighbor_term(kind: AggregatorKind, p: dict, layer: int, self_x, neigh_x,
                   mask: np.ndarray):
    """The W_neigh-side contribution to a layer's pre-activation."""
    pooled = _pool(kind, p, layer, self_x, neigh_x, mask)
    if kind is AggregatorKind.ATTENTIONAL:
        return pooled  # already in the projected space
    return pooled @ p[f"l{layer}.w_neigh"]


@dataclass(frozen=True)
class NeighborhoodBatch:
    """Padded per-hop sample indices and masks for a batch of target nodes."""

    nodes: np.ndarray  # [B]
    idx1: np.ndarray  # [B, k1]
    mask1: np.ndarray  # [B, k1]
    idx2: np.ndarray  # [B, k1, k2]
    mask2: np.ndarray  # [B, k1, k2]


def sample_batch(g: SpatialGraph, nodes, budget: SampleBudget,
                 rng: np.random.Generator) -> NeighborhoodBatch:
    """Sample every target's neighborhood in order and pad each hop to its
    budget; padded slots hold index 0 and mask 0."""
    nodes = np.asarray(list(nodes), dtype=int)
    b, k1, k2 = len(nodes), budget[0], budget[1]
    idx1, mask1, idx2, mask2 = [], [], [], []
    for v in nodes.tolist():
        hop1, hop2 = sample_neighborhood(g, v, budget, rng)
        pad1 = k1 - len(hop1)
        idx1 += hop1 + [0] * pad1
        mask1 += [1.0] * len(hop1) + [0.0] * pad1
        for hop in hop2 + [[]] * pad1:
            pad2 = k2 - len(hop)
            idx2 += hop + [0] * pad2
            mask2 += [1.0] * len(hop) + [0.0] * pad2
    return NeighborhoodBatch(
        nodes,
        np.array(idx1, dtype=int).reshape(b, k1),
        np.array(mask1).reshape(b, k1),
        np.array(idx2, dtype=int).reshape(b, k1, k2),
        np.array(mask2).reshape(b, k1, k2),
    )


def sage_forward_batch(pvars: dict, cfg: SageConfig, feats: np.ndarray,
                       batch: NeighborhoodBatch, mode: str = "eval",
                       rng: np.random.Generator | None = None):
    """Two-layer sampled forward pass for a batch of target nodes.

    `feats` is the finite [n_nodes, d] feature matrix for one frame (or one
    assembled state). Returns the predicted NO2 in ug/m3, shape [B]: a tape
    node when `pvars` are `wrap_params` leaves, a plain array when they are
    the parameter arrays themselves.
    """
    kind = cfg.aggregator
    if not np.isfinite(feats).all():
        raise SchemaError("forward pass requires finite node features")
    xv = feats[batch.nodes]  # [B, d]
    x1 = feats[batch.idx1]  # [B, k1, d]
    x2 = feats[batch.idx2]  # [B, k1, k2, d]

    # Layer 1: refresh hop-1 nodes from their hop-2 samples, and the target
    # from its hop-1 samples.
    pre_u = x1 @ pvars["l1.w_self"] + _neighbor_term(kind, pvars, 1, x1, x2, batch.mask2)
    h1_u = relu(dropout(pre_u, cfg.dropout, mode, rng))  # [B, k1, h1]
    pre_v = xv @ pvars["l1.w_self"] + _neighbor_term(kind, pvars, 1, xv, x1, batch.mask1)
    h1_v = relu(dropout(pre_v, cfg.dropout, mode, rng))  # [B, h1]

    # Layer 2: combine the target's refreshed state with its refreshed hop-1
    # neighborhood.
    pre2 = h1_v @ pvars["l2.w_self"] + _neighbor_term(kind, pvars, 2, h1_v, h1_u, batch.mask1)
    h2 = relu(dropout(pre2, cfg.dropout, mode, rng))  # [B, h2]

    out = affine(h2, pvars["head.w"], pvars["head.b"])  # [B, 1]
    return out.reshape(out.shape[0])


def resolve_init(init: InitScheme, ds: Dataset, target_node: int) -> float:
    if init.kind == "fixed":
        return float(init.value)
    if init.kind == "dataset_mean":
        obs = ds.targets[ds.present]
        obs = obs[np.isfinite(obs)]
        return float(obs.mean()) if obs.size else 0.0
    if init.kind == "actual_first":
        col = ds.targets[:, target_node]
        ok = np.isfinite(col) & ds.present[:, target_node]
        if not ok.any():
            raise SchemaError("actual_first init: node has no observed values")
        return float(col[np.argmax(ok)])
    raise SchemaError(f"unknown init scheme {init.kind!r}")
