"""Test-side probes of the model internals: a finite-difference gradient
checker over the autodiff tape, the nodes a tape records, a counter of the
`Var`s a block constructs, and the raw
aggregation and attentional weights of one neighbor set, computed by
`sage._pool` and `sage._attention` exactly as the forward pass computes
them; and, as references for the code that replaced them, the row-by-row
readings loader, the hour-by-hour autoregressive fill, the regression-tree
grower that sorts every node's rows afresh, the tree walk over numpy arrays
that GBT prediction replaced, the per-element neighbor
sampler, the two-pass layer 1 of the graph model, the pad-and-slice chain of
the CNN's convolution, the tape ops that the fused nodes made redundant
(subtraction, division, exp, leaky ReLU, sigmoid and max over an axis) and
the chains of them that `masked_max` and the attention softmax replaced."""

import contextlib
import csv
import math
from dataclasses import replace
from datetime import timedelta

import numpy as np

from virtualsensor.baselines import best_split
from virtualsensor.dataset import (
    FEATURE_NAMES,
    N_FEATURES,
    PREV_NO2,
    READINGS_HEADER,
    Dataset,
    encode_time,
    load_locations,
    parse_hour_timestamp,
)
from virtualsensor.errors import ParseError, SchemaError
from virtualsensor.nncore import (
    Var,
    _node,
    _reduce_to,
    affine,
    collect_grads,
    dropout,
    relu,
    value_of,
    wrap_params,
)
from virtualsensor.sage import (
    AggregatorKind,
    NeighborhoodBatch,
    _attention,
    _neighbor_term,
    _pool,
    sample_batch,
)


def grad_check(f, params: dict, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of `f` against central differences.

    `f` maps a name->Var dict to a scalar Var and must be deterministic
    (sample before calling; draw dropout masks from a generator seeded
    afresh inside `f`). Returns the max relative error with denominator
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
            up = float(value_of(f(_constants(params))))
            flat[i] = orig - h
            down = float(value_of(f(_constants(params))))
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


def _constants(params: dict) -> dict:
    """The parameters as plain arrays, over which `f` records no tape."""
    return dict(params)


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


def reference_load_dataset(locations_path, readings_path) -> Dataset:
    """The row-by-row `csv.DictReader` loader `load_dataset` replaced.

    It numbers rows, not physical lines, so after a blank line its line
    numbers run short, and a row missing its timestamp field raises
    AttributeError.
    """
    locations = load_locations(locations_path)
    index_of = {loc.id: i for i, loc in enumerate(locations)}

    rows = []  # (timestamp, sensor index, no2, feature values)
    seen = set()
    with open(readings_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(READINGS_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ParseError(f"{readings_path}: readings header missing columns {sorted(missing)}")
        for line_no, row in enumerate(reader, start=2):
            ts = parse_hour_timestamp(row["timestamp"], line_no)
            sensor_id = row["sensor_id"]
            if sensor_id not in index_of:
                raise SchemaError(
                    f"readings line {line_no}: unknown sensor_id {sensor_id!r}"
                )
            key = (ts, sensor_id)
            if key in seen:
                raise ParseError(
                    f"readings line {line_no}: duplicate reading for {sensor_id} at {ts.isoformat()}"
                )
            seen.add(key)
            try:
                values = [float(row[c]) for c in READINGS_HEADER[2:]]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{readings_path} line {line_no}: malformed row") from exc
            bad = [c for c, v in zip(READINGS_HEADER[2:], values) if not math.isfinite(v)]
            if bad:
                raise ParseError(
                    f"{readings_path} line {line_no}: {bad[0]} {row[bad[0]]!r} is not finite"
                )
            rows.append((ts, index_of[sensor_id], values[0], values[1:]))

    if not rows:
        raise ParseError(f"{readings_path}: no readings")

    start = min(r[0] for r in rows)
    end = max(r[0] for r in rows)
    n_hours = int((end - start).total_seconds() // 3600) + 1
    n = len(locations)
    d = N_FEATURES

    features = np.full((n_hours, n, d), np.nan)
    targets = np.full((n_hours, n), np.nan)

    time_lo = FEATURE_NAMES.index("hour_sin")
    for t in range(n_hours):
        features[t, :, time_lo : time_lo + 6] = encode_time(start + timedelta(hours=t))
    dist_col = FEATURE_NAMES.index("dist_road")
    features[:, :, dist_col] = [loc.dist_road for loc in locations]

    for ts, s, no2, values in rows:
        t = int((ts - start).total_seconds() // 3600)
        features[t, s, : len(values)] = values
        targets[t, s] = no2

    return Dataset(
        locations=locations,
        start=start,
        features=features,
        targets=targets,
    )


def reference_fill_prev_no2(ds: Dataset) -> Dataset:
    """The hour-by-hour autoregressive fill `fill_prev_no2` replaced."""
    if ds.stats is not None:
        raise SchemaError("fill_prev_no2 expects an unstandardized dataset")
    observed = ds.targets[ds.present]
    observed = observed[np.isfinite(observed)]
    fallback_mean = float(observed.mean()) if observed.size else 0.0

    T, n = ds.targets.shape
    ar_col = PREV_NO2
    features = ds.features.copy()
    features[0, :, ar_col] = fallback_mean
    # last_by_hour[h, s]: most recent observed NO2 at hour-of-day h, strictly
    # before the frame currently being consulted.
    last_by_hour = np.full((24, n), np.nan)
    for t in range(1, T):
        h = ds.timestamp(t - 1).hour
        prev = np.where(ds.present[t - 1], ds.targets[t - 1], last_by_hour[h])
        prev = np.where(np.isfinite(prev), prev, fallback_mean)
        features[t, :, ar_col] = prev
        last_by_hour[h] = np.where(ds.present[t - 1], ds.targets[t - 1], last_by_hour[h])
    return replace(ds, features=features)


def reference_grow_tree(x: np.ndarray, y: np.ndarray, cfg) -> tuple[tuple, np.ndarray]:
    """The depth-first grower `baselines._grow_tree` replaced: every node
    hands `best_split` its own rows, which sorts them again. Returns the tree
    as a tuple of per-node arrays (feature, threshold, left, right, value)
    and the value of the leaf that each training row reached."""
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # per node: feature, threshold, left, right, value
    fitted = np.empty(len(y))
    stack = [(0, np.arange(len(y)), 0)]  # (node, its training rows, depth)
    while stack:
        node, rows, depth = stack.pop()
        ys = y[rows]
        value = nodes[node][4] = float(ys.mean())
        split = None
        if depth < cfg.max_depth and len(rows) >= 2 * cfg.min_leaf:
            split = best_split(x[rows], ys, cfg.min_leaf)
        if split is None:
            fitted[rows] = value
            continue
        _, j, thr = split
        mask = x[rows, j] < thr
        lo, hi = len(nodes), len(nodes) + 1
        nodes[node][:4] = j, float(thr), lo, hi
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        stack.append((hi, rows[~mask], depth + 1))
        stack.append((lo, rows[mask], depth + 1))
    return tuple(np.array(column) for column in zip(*nodes)), fitted


def reference_gbt_predict(model, x: np.ndarray) -> np.ndarray:
    """The walk `baselines.gbt_predict` replaced: each row down numpy arrays
    built from every tree in `model.trees`, with no check of the rows."""
    lr = model.config.learning_rate
    trees = [[np.array(column) for column in tree] for tree in model.trees]
    out = []
    for row in np.atleast_2d(np.asarray(x, dtype=np.float64)).tolist():
        pred = model.init_value
        for feature, threshold, left, right, value in trees:
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] < threshold[node] else right[node]
            pred = pred + lr * value[node]
        out.append(pred)
    return np.array(out, dtype=np.float64)


def reference_sample_neighborhood(g, node: int, budget, rng: np.random.Generator
                                  ) -> tuple[list[int], list[list[int]]]:
    """The per-element sampler `sage.sample_batch` replaced: hop-1 neighbors
    of `node` and hop-2 neighbors of each, uniform without replacement by one
    `rng.choice` per node whose degree exceeds its hop's budget, unpadded."""
    if not 0 <= node < g.n_nodes:
        raise SchemaError(f"node index {node} out of range")

    def pick(neighbors, k):
        if len(neighbors) <= k:
            return list(neighbors)
        return [neighbors[i] for i in rng.choice(len(neighbors), size=k, replace=False).tolist()]

    hop1 = pick(g.adjacency[node], budget[0])
    return hop1, [pick(g.adjacency[u], budget[1]) for u in hop1]


def sample_with_rng(g, nodes, budget, rng: np.random.Generator) -> NeighborhoodBatch:
    """`sample_batch` on sort keys drawn from `rng` by one `rng.random` call,
    as the sage draw hook draws them for a block of one step."""
    keys = rng.random((len(nodes), 1 + budget[0], g.neighbors.shape[1]))
    return sample_batch(g, nodes, budget, keys)


def sage_dropout_masks(cfg, b: int, rng: np.random.Generator) -> tuple:
    """The boolean masks of a sage forward's two dropout layers for `b`
    targets, from uniforms drawn from `rng` in the order a training step
    draws them."""
    return (rng.random((b, 1 + cfg.budget[0], cfg.hidden[0])) >= cfg.dropout,
            rng.random((b, cfg.hidden[1])) >= cfg.dropout)


def reference_sample_batch(g, nodes, budget, rng: np.random.Generator) -> NeighborhoodBatch:
    """`reference_sample_neighborhood` for each target in turn, laid out as
    `sample_batch` lays out its batch; every padded slot holds node 0."""
    k1, k2 = budget[0], budget[1]
    width = max(k1, k2)
    b = len(nodes)
    rows = np.zeros((b, 1 + k1), dtype=np.intp)
    neighbors = np.zeros((b, 1 + k1, width), dtype=np.intp)
    mask = np.zeros((b, 1 + k1, width))
    for i, v in enumerate(nodes):
        hop1, hop2 = reference_sample_neighborhood(g, int(v), budget, rng)
        rows[i, 0] = v
        rows[i, 1 : 1 + len(hop1)] = neighbors[i, 0, : len(hop1)] = hop1
        mask[i, 0, : len(hop1)] = 1.0
        for j, hop in enumerate(hop2, start=1):
            neighbors[i, j, : len(hop)] = hop
            mask[i, j, : len(hop)] = 1.0
    return NeighborhoodBatch(rows, neighbors, mask, mask[:, 0, :k1])


def reference_forward_two_pass(pvars: dict, cfg, feats: np.ndarray, batch: NeighborhoodBatch):
    """The forward pass that ran layer 1 twice, first over the hop-1 slots
    from their hop-2 samples, then over the targets from their hop-1
    samples, on the hop-1 and hop-2 blocks of `batch`; it takes no dropout
    masks, so it is the forward of an eval step, or of a training step at a
    zero dropout rate, which draws none."""
    kind, k1, k2 = cfg.aggregator, cfg.budget[0], cfg.budget[1]
    xv = feats[batch.rows[:, 0]]  # [B, d]
    x1 = feats[batch.rows[:, 1:]]  # [B, k1, d]
    x2 = feats[batch.neighbors[:, 1:, :k2]]  # [B, k1, k2, d]
    mask2 = batch.mask[:, 1:, :k2]

    pre_u = x1 @ pvars["l1.w_self"] + _neighbor_term(kind, pvars, 1, x1, x2, mask2)
    h1_u = relu(dropout(pre_u, cfg.dropout))  # [B, k1, h1]
    pre_v = xv @ pvars["l1.w_self"] + _neighbor_term(kind, pvars, 1, xv, x1, batch.mask1)
    h1_v = relu(dropout(pre_v, cfg.dropout))  # [B, h1]

    pre2 = h1_v @ pvars["l2.w_self"] + _neighbor_term(kind, pvars, 2, h1_v, h1_u, batch.mask1)
    h2 = relu(dropout(pre2, cfg.dropout))  # [B, h2]
    out = affine(h2, pvars["head.w"], pvars["head.b"])  # [B, 1]
    return out.reshape(out.shape[0])


def reference_conv1d(x: Var, w: Var, b: Var, kernel: int, c_in: int) -> Var:
    """The chain of ops `baselines._conv1d` replaced: pad `x` along its
    length axis, then for each tap slice a window of it and a block of `w`,
    multiply them and add the products up in tap order, then add `b`.

    The windows and blocks are sliced last tap first, so that the backward,
    which runs in reverse creation order, adds their gradients into the
    padded input and into `w` first tap first, the order of the chain."""
    pad, length = kernel // 2, x.shape[1]
    pads = [(0, 0), (pad, kernel - 1 - pad), (0, 0)]
    padded = Var(np.pad(value_of(x), pads), (x,),
                 lambda g: x._accumulate(g[:, pad : pad + length]))
    windows = [padded[:, j : j + length] for j in reversed(range(kernel))][::-1]
    taps = [w[j * c_in : (j + 1) * c_in] for j in reversed(range(kernel))][::-1]
    out = windows[0] @ taps[0]
    for window, tap in zip(windows[1:], taps[1:]):
        out = out + window @ tap
    return out + b


# The tape ops the fused nodes replaced, as `nncore` had them. `reference_sub`
# and `reference_div` take a Var or an array on either side, the others a Var.


def reference_sub(a, b) -> Var:
    """`a - b` as the chain `a + (-b)`."""
    if not isinstance(b, Var):
        return a + -b
    return a + _node(-b.value, (b,), lambda g: b._accumulate(-g))


def reference_div(a, b) -> Var:
    """`a / b`, elementwise with broadcasting."""
    av, bv = value_of(a), value_of(b)

    def bwd(g):
        if isinstance(a, Var):
            a._accumulate(_reduce_to(g / bv, a.shape))
        if isinstance(b, Var):
            b._accumulate(_reduce_to(-g * av / (bv**2), b.shape))

    return _node(av / bv, (a, b), bwd)


def reference_exp(x: Var) -> Var:
    y = np.exp(x.value)
    return _node(y, (x,), lambda g: x._accumulate(g * y))


def reference_leaky_relu(x: Var, slope: float = 0.2) -> Var:
    factor = np.where(x.value > 0, 1.0, slope)
    return _node(x.value * factor, (x,), lambda g: x._accumulate(g * factor))


def reference_sigmoid(x: Var) -> Var:
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.value))
    return _node(y, (x,), lambda g: x._accumulate(g * y * (1.0 - y)))


def reference_max(x: Var, axis: int) -> Var:
    """Max over `axis`; the gradient goes to the first maximal entry."""
    def bwd(g):
        out = np.zeros_like(x.value)
        np.put_along_axis(out, np.expand_dims(np.argmax(x.value, axis=axis), axis),
                          np.expand_dims(g, axis), axis)
        x._accumulate(out)

    return _node(np.max(x.value, axis=axis), (x,), bwd)


def reference_masked_max(z: Var, mask: np.ndarray) -> Var:
    """The chain `nncore.masked_max` replaced: shift the masked slots down by
    1e30, take the max over the neighbor axis, zero the rows with no live
    slot."""
    m = mask[..., None]
    shifted = z * m + (m - 1.0) * 1e30
    has_any = (mask.sum(axis=-1, keepdims=True) > 0).astype(np.float64)
    return reference_max(shifted, -2) * has_any


def reference_attention_softmax(score: Var, mask: np.ndarray) -> Var:
    """The chain `sage._attention_softmax` replaced: leaky ReLU, a -50 shift
    of the padded slots, the stabilizing max, exp, the mask, the sum, the
    1e-30 and the divide."""
    m = mask[..., None]
    e = reference_leaky_relu(score, 0.2) + (m - 1.0) * 50.0
    ex = reference_exp(reference_sub(e, e.value.max(axis=-2, keepdims=True))) * m
    return reference_div(ex, ex.sum(axis=-2, keepdims=True) + 1e-30)
