"""Non-graph comparator models: MLP, 1-D CNN, and least-squares gradient
boosted regression trees. Each baseline sees only the node's own row of the
same standardized, finite features the graph model reads, so the comparison
isolates neighbor aggregation.

The trees use exact greedy split search on presorted columns (Chen &
Guestrin 2016, arXiv:1603.02754, section 4.1): `gbt_fit` presorts the
columns once, and each node's feature-major block of sorted row ids, with
the block of their feature values beside it, is split stably into its
children's. A node's target sum is taken once, over its rows in ascending
row order, so every tree is bit-identical to one grown by sorting each
node's rows afresh. Each tree is kept once, as the plain tuples prediction
walks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import N_FEATURES
from .errors import FlatConfig, SchemaError, check_types
from .nncore import affine, conv1d, draw_blocks, dropout, relu


# ---------------------------------------------------------------------------
# MLP: 2 dense layers, dropout(0.5), 2 more dense layers.


@dataclass(frozen=True)
class MlpConfig(FlatConfig):
    hidden: tuple[int, int, int] = (64, 64, 32)
    dropout: float = 0.5

    trains_by_gradient = True

    def __post_init__(self):
        if not (isinstance(self.hidden, (tuple, list)) and len(self.hidden) == 3
                and all(type(h) is int and h >= 1 for h in self.hidden)):
            raise SchemaError(f"hidden must be three integers >= 1, got {self.hidden!r}")
        check_types(self, numbers=("dropout",))
        if not 0.0 <= self.dropout < 1.0:
            raise SchemaError("dropout must lie in [0, 1)")

    def param_shapes(self, in_dim: int) -> dict:
        dims = [in_dim, *self.hidden, 1]
        shapes = {}
        for i, (a, b) in enumerate(zip(dims, dims[1:]), start=1):
            shapes[f"fc{i}.w"] = (a, b)
            shapes[f"fc{i}.b"] = (1, b)
        return shapes

    def draws(self, g, steps, mode: str, rng: np.random.Generator):
        return draw_blocks(rng, steps, None, [(self.hidden[1],)], self.dropout, mode)

    def forward(self, pvars: dict, feats: np.ndarray, nodes: np.ndarray, drawn: tuple):
        return mlp_forward_batch(pvars, self, feats[nodes], *drawn)


def mlp_forward_batch(pvars: dict, cfg: MlpConfig, x: np.ndarray,
                      keep: np.ndarray | None = None):
    h = relu(affine(x, pvars["fc1.w"], pvars["fc1.b"]))
    h = relu(affine(h, pvars["fc2.w"], pvars["fc2.b"]))
    h = dropout(h, cfg.dropout, keep)
    h = relu(affine(h, pvars["fc3.w"], pvars["fc3.b"]))
    out = affine(h, pvars["fc4.w"], pvars["fc4.b"])
    return out.reshape(out.shape[0])


# ---------------------------------------------------------------------------
# CNN: 2 1-D convolutions over the feature vector, dropout(0.5), 2 dense.


@dataclass(frozen=True)
class CnnConfig(FlatConfig):
    channels: int = 8
    kernel: int = 3
    dense_hidden: int = 32
    dropout: float = 0.5

    trains_by_gradient = True

    def __post_init__(self):
        check_types(self, ints=("channels", "kernel", "dense_hidden"), numbers=("dropout",))
        if min(self.channels, self.kernel, self.dense_hidden) < 1:
            raise SchemaError("channels, kernel and dense_hidden must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise SchemaError("dropout must lie in [0, 1)")

    def param_shapes(self, in_dim: int) -> dict:
        if self.kernel > in_dim:
            raise SchemaError("convolution kernel wider than the feature vector")
        c, k, d = self.channels, self.kernel, self.dense_hidden
        return {"conv1.w": (k * 1, c), "conv1.b": (1, c),
                "conv2.w": (k * c, c), "conv2.b": (1, c),
                "fc1.w": (in_dim * c, d), "fc1.b": (1, d),
                "fc2.w": (d, 1), "fc2.b": (1, 1)}

    def draws(self, g, steps, mode: str, rng: np.random.Generator):
        # Every model reads rows of N_FEATURES features.
        return draw_blocks(rng, steps, None, [(N_FEATURES, self.channels)], self.dropout, mode)

    def forward(self, pvars: dict, feats: np.ndarray, nodes: np.ndarray, drawn: tuple):
        return cnn_forward_batch(pvars, self, feats[nodes], *drawn)


def cnn_forward_batch(pvars: dict, cfg: CnnConfig, x: np.ndarray,
                      keep: np.ndarray | None = None):
    n, d = x.shape
    h = x.reshape(n, d, 1)
    h = relu(conv1d(h, pvars["conv1.w"], pvars["conv1.b"], cfg.kernel, 1))
    h = conv1d(h, pvars["conv2.w"], pvars["conv2.b"], cfg.kernel, cfg.channels)
    h = dropout(h, cfg.dropout, keep)
    h = relu(h).reshape(n, d * cfg.channels)
    h = relu(affine(h, pvars["fc1.w"], pvars["fc1.b"]))
    out = affine(h, pvars["fc2.w"], pvars["fc2.b"])
    return out.reshape(n)


# ---------------------------------------------------------------------------
# Gradient boosted regression trees (least-squares boosting).


@dataclass(frozen=True)
class GbtConfig(FlatConfig):
    n_trees: int = 100
    max_depth: int = 4
    learning_rate: float = 0.1
    min_leaf: int = 1

    trains_by_gradient = False  # fitted in one pass by `fit`; no parameter checkpoint

    def __post_init__(self):
        check_types(self, ints=("n_trees", "max_depth", "min_leaf"), numbers=("learning_rate",))
        if self.n_trees < 0 or self.max_depth < 0 or self.min_leaf < 1:
            raise SchemaError(
                "gbt needs n_trees >= 0, max_depth >= 0 and min_leaf >= 1, got "
                f"{self.n_trees}, {self.max_depth} and {self.min_leaf}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise SchemaError(f"gbt learning_rate must be finite and >= 0, got {self.learning_rate}")

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GbtModel":
        return gbt_fit(x, y, self)

    def draws(self, g, steps, mode: str, rng: np.random.Generator):
        return draw_blocks(rng, steps, None, (), 0.0, mode)  # trees draw nothing

    def forward(self, model: "GbtModel", feats: np.ndarray, nodes: np.ndarray,
                drawn: tuple) -> np.ndarray:
        return gbt_predict(model, feats[nodes])


@dataclass
class GbtModel:
    """An ensemble fitted to rows of `n_features` features. Each of `trees`
    is a plain tuple of five per-node tuples, `(feature, threshold, left,
    right, value)`, the layout of scikit-learn's `Tree`. Node 0 is the root.
    Internal node i sends a row to `left[i]` when `row[feature[i]] <
    threshold[i]` and to `right[i]` otherwise. At a leaf, `feature`, `left`
    and `right` are -1 and `value[i]` is the tree's prediction. `value` holds
    every node's mean residual over the training rows that reached it."""

    config: GbtConfig
    init_value: float
    n_features: int
    trees: list[tuple] = field(default_factory=list)
    train_mse: list[float] = field(default_factory=list)  # after each tree


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The [d, n] block of `x`'s row ids sorted by each feature in turn, ties
    in ascending row order, and the [d, n] block of their feature values."""
    ids = np.argsort(x.T, axis=1, kind="stable")
    return ids, x[ids, np.arange(len(ids))[:, None]]


def best_split(x: np.ndarray, y: np.ndarray, min_leaf: int = 1, node: tuple | None = None):
    """Exhaustive least-squares split search over all features at once
    (exact greedy search: every threshold between distinct neighbouring
    values, see `_split_threshold`).

    `node` is one node's `(ids, values, total)`, as the grower carries it:
    `ids` is a [d, m] block of row ids of `x` and `y`, the node's rows sorted
    by each feature in turn with ties in ascending row order, `values` the
    block of their feature values, and `total` the node's target sum over its
    rows in ascending row order, the order `y[rows].sum()` sums in (numpy's
    pairwise summation depends on element order). The search then covers only
    those m rows, exactly as `best_split(x[rows], y[rows], min_leaf)` with
    `rows` ascending would. By default the node is all of `x`: `_presort(x)`
    and `y.sum()`.

    Returns (gain, feature, threshold) with gain measured as the reduction
    in sum of squared errors, or None when no split gains more than 1e-12.
    Each side keeps at least `min_leaf` rows. Ties go to the lowest feature,
    then to the lowest split position in that feature's stable sort order.
    """
    ids, values, total = (*_presort(x), y.sum()) if node is None else node
    n = ids.shape[1]
    lo, hi = min_leaf - 1, n - min_leaf  # positions of the left side's last row
    if hi <= lo:
        return None
    cnt = np.arange(lo + 1, hi + 1)
    lsum = y[ids[:, :hi]].cumsum(axis=1)[:, lo:]  # [features, positions]
    gain = lsum * lsum
    gain /= cnt
    rsum = np.subtract(total, lsum, out=lsum)
    rsum *= rsum
    rsum /= n - cnt
    gain += rsum
    gain -= total * total / n
    ok = (values[:, lo:hi] != values[:, lo + 1:hi + 1]) & (gain > 1e-12)
    # argmax takes the first maximum in feature-major order: the tie rule.
    j, k = divmod(int(np.where(ok, gain, -np.inf).argmax()), hi - lo)
    if not ok[j, k]:
        return None
    return gain[j, k], j, _split_threshold(values[j, lo + k], values[j, lo + k + 1])


def _split_threshold(a: float, b: float) -> float:
    """The threshold between neighbouring distinct values a < b: their
    midpoint, or b when the midpoint does not lie in (a, b] (it rounds to a
    when b is the next double after a, and overflows for huge a and b), so
    that `x < threshold` always separates a from b."""
    mid = 0.5 * (a + b)
    return mid if a < mid <= b else b


def _grow_tree(x: np.ndarray, y: np.ndarray, cfg: GbtConfig,
               root: tuple[np.ndarray, np.ndarray]) -> tuple[tuple, np.ndarray]:
    """Grow one tree on (x, y), depth first, in `GbtModel`'s layout; also
    return the value of the leaf that each training row reached. `root` is
    `_presort(x)`. A node carries its rows as a [d, m] block of ids sorted
    within each feature and the block of their values, both split stably
    into the children's with one mask, so no node sorts or gathers `x`; its
    target sum, taken once, serves its value and `best_split`."""
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # per node: feature, threshold, left, right, value
    fitted = np.empty(len(y))
    left = np.zeros(len(y), dtype=bool)  # marks one node's left rows at a time
    # (node, ids, values, depth); a node that will not be scanned carries
    # its rows in one feature's order.
    stack = [(0, *root, 0)]

    def scanned(m, depth):
        return depth < cfg.max_depth and m >= 2 * cfg.min_leaf

    while stack:
        node, block, values, depth = stack.pop()
        rows = np.sort(block[0])
        total = y[rows].sum()
        value = nodes[node][4] = float(total / len(rows))  # bit-equal to y[rows].mean()
        split = None
        if scanned(len(rows), depth):
            split = best_split(x, y, cfg.min_leaf, (block, values, total))
        if split is None:
            fitted[rows] = value
            continue
        _, j, thr = split
        k = int(values[j].searchsorted(thr))  # rows with x < thr lead feature j's order
        lo, hi = len(nodes), len(nodes) + 1
        nodes[node][:4] = j, float(thr), lo, hi
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        scan_lo, scan_hi = scanned(k, depth + 1), scanned(len(rows) - k, depth + 1)
        if scan_lo or scan_hi:
            left[block[j, :k]] = True
            goes_left = left[block]
            left[block[j, :k]] = False
        # Compressing each feature's row keeps it sorted; ties stay in row order.
        for child, scan, part in ((hi, scan_hi, slice(k, None)), (lo, scan_lo, slice(k))):
            if scan:
                keep = (goes_left if child == lo else ~goes_left).ravel().nonzero()[0]
                stack.append((child, block.take(keep).reshape(len(block), -1),
                              values.take(keep).reshape(len(block), -1), depth + 1))
            else:
                stack.append((child, block[j:j + 1, part], values[j:j + 1, part], depth + 1))
    return tuple(zip(*nodes)), fitted


def gbt_fit(x: np.ndarray, y: np.ndarray, cfg: GbtConfig = GbtConfig()) -> GbtModel:
    """Fit a least-squares boosted ensemble to squared-error residuals on
    finite rows. The columns are presorted once; every tree starts from them."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 2:
        raise SchemaError("gbt_fit needs at least 2 rows")
    if x.ndim != 2 or x.shape[0] != len(y) or x.shape[1] < 1:
        raise SchemaError(f"gbt_fit needs one row of at least one feature per target, "
                          f"got x of shape {x.shape} for {len(y)} targets")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SchemaError("gbt_fit requires finite features and targets")
    model = GbtModel(config=cfg, init_value=float(y.mean()), n_features=x.shape[1])
    root = _presort(x)
    pred = np.full(len(y), model.init_value)
    for _ in range(cfg.n_trees):
        tree, fitted = _grow_tree(x, y - pred, cfg, root)
        model.trees.append(tree)
        pred = pred + cfg.learning_rate * fitted
        model.train_mse.append(float(np.mean((y - pred) ** 2)))
    return model


def gbt_predict(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Predict each row of `x` ([n, d], or one [d] row) by walking it down
    every tree in `model.trees`, adding `learning_rate * leaf value` to
    `init_value` in tree order. Rows must be finite and as wide as the rows
    the model was fitted to."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise SchemaError(f"gbt model needs rows of {model.n_features} features, got {x.shape}")
    if not np.isfinite(x).all():
        raise SchemaError("gbt prediction requires finite features")
    lr = model.config.learning_rate
    out = []
    for row in x.tolist():
        pred = model.init_value
        for feature, threshold, left, right, value in model.trees:
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] < threshold[node] else right[node]
            pred = pred + lr * value[node]
        out.append(pred)
    return np.array(out, dtype=np.float64)
