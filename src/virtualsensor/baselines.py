"""Non-graph comparator models: MLP, 1-D CNN, and least-squares gradient
boosted regression trees. Each baseline sees only the node's own row of the
same standardized, finite features the graph model reads, so the comparison
isolates neighbor aggregation.

The trees use exact greedy split search on presorted columns (Chen &
Guestrin 2016, arXiv:1603.02754, section 4.1): `gbt_fit` argsorts each
feature once, and each node's sorted block of row ids is split stably into
its children's. Sums over a node's targets run in ascending row order, so
every tree is bit-identical to one grown by sorting each node's rows afresh."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import N_FEATURES
from .errors import FlatConfig, SchemaError, check_types
from .nncore import Var, _any_var, _node, _reduce_to, affine, draw_blocks, dropout, relu, value_of


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


def _conv1d(x, w, b, kernel: int, c_in: int):
    """Same-length stride-1 convolution as one node, summing over the taps in
    ascending order; x is [B, L, c_in], w is [kernel*c_in, c_out] holding one
    [c_in, c_out] block per tap."""
    xv, wv = value_of(x), value_of(w)
    pad, length = kernel // 2, xv.shape[1]
    padded = np.pad(xv, [(0, 0), (pad, kernel - 1 - pad), (0, 0)])
    windows = [padded[:, j : j + length] for j in range(kernel)]  # [B, L, c_in]
    taps = [wv[j * c_in : (j + 1) * c_in] for j in range(kernel)]  # [c_in, c_out]
    out = sum(map(np.matmul, windows[1:], taps[1:]), np.matmul(windows[0], taps[0])) + value_of(b)
    if not _any_var(x, w, b):
        return out

    def bwd(g):
        if isinstance(b, Var):
            b._accumulate(_reduce_to(g, b.shape))
        gx, gw = np.zeros(padded.shape), np.zeros(wv.shape)
        for j, (window, tap) in enumerate(zip(windows, taps)):
            if isinstance(x, Var):
                gx[:, j : j + length] += np.matmul(g, tap.swapaxes(-1, -2))
            if isinstance(w, Var):
                gw[j * c_in : (j + 1) * c_in] += _reduce_to(
                    np.matmul(window.swapaxes(-1, -2), g), tap.shape)
        if isinstance(x, Var):
            x._accumulate(gx[:, pad : pad + length])
        if isinstance(w, Var):
            w._accumulate(gw)

    return _node(out, (x, w, b), bwd)


def cnn_forward_batch(pvars: dict, cfg: CnnConfig, x: np.ndarray,
                      keep: np.ndarray | None = None):
    n, d = x.shape
    h = x.reshape(n, d, 1)
    h = relu(_conv1d(h, pvars["conv1.w"], pvars["conv1.b"], cfg.kernel, 1))
    h = _conv1d(h, pvars["conv2.w"], pvars["conv2.b"], cfg.kernel, cfg.channels)
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


class Tree(NamedTuple):
    """One regression tree as parallel arrays indexed by node, the layout of
    scikit-learn's `Tree`. Node 0 is the root. Internal node i sends a row to
    `left[i]` when `row[feature[i]] < threshold[i]` and to `right[i]`
    otherwise. At a leaf, `feature`, `left` and `right` are -1 and `value[i]`
    is the tree's prediction. `value` holds every node's mean residual over
    the training rows that reached it."""

    feature: np.ndarray  # int
    threshold: np.ndarray
    left: np.ndarray  # int
    right: np.ndarray  # int
    value: np.ndarray


@dataclass
class GbtModel:
    config: GbtConfig
    init_value: float
    trees: list[Tree] = field(default_factory=list)
    train_mse: list[float] = field(default_factory=list)  # after each tree


def best_split(x: np.ndarray, y: np.ndarray, min_leaf: int = 1, order: np.ndarray | None = None):
    """Exhaustive least-squares split search over all features at once
    (exact greedy search: every threshold between distinct neighbouring
    values, see `_split_threshold`).

    `order` is an [m, d] block of row ids of `x` and `y`: the rows of one
    node, sorted by each feature column in turn with ties in ascending row
    order. The search then covers only those m rows, exactly as
    `best_split(x[rows], y[rows], min_leaf)` with `rows` ascending would.
    By default it is the stable argsort of all of `x`. The node's target sum
    is taken over its rows in ascending row order, the order `y[rows].sum()`
    sums in, because numpy's pairwise summation depends on element order.

    Returns (gain, feature, threshold) with gain measured as the reduction
    in sum of squared errors, or None when no split gains more than 1e-12.
    Each side keeps at least `min_leaf` rows. Ties go to the lowest feature,
    then to the lowest split position in that feature's stable sort order.
    """
    if order is None:
        order = np.argsort(x, axis=0, kind="stable")
        total = y.sum()
    else:
        total = y[np.sort(order[:, 0])].sum()
    n, d = order.shape
    lo, hi = min_leaf - 1, n - min_leaf  # positions of the left side's last row
    if hi <= lo:
        return None
    base = total * total / n
    xs = x[order, np.arange(d)]
    csum = y[order].cumsum(axis=0)  # sequential, so equal to a per-column cumsum
    lcnt = np.arange(lo + 1, hi + 1)[:, None]
    rcnt = n - lcnt
    lsum = csum[lo:hi]
    rsum = total - lsum
    gain = lsum * lsum / lcnt + rsum * rsum / rcnt - base  # [positions, features]
    ok = (xs[lo:hi] != xs[lo + 1:hi + 1]) & (gain > 1e-12)
    if not ok.any():
        return None
    # argmax takes the first maximum, so scan feature-major for the tie rule.
    j, k = divmod(int(np.where(ok, gain, -np.inf).T.argmax()), hi - lo)
    i = lo + k
    return gain[k, j], j, _split_threshold(xs[i, j], xs[i + 1, j])


def _split_threshold(a: float, b: float) -> float:
    """The threshold between neighbouring distinct values a < b: their
    midpoint, or b when the midpoint does not lie in (a, b] (it rounds to a
    when b is the next double after a, and overflows for huge a and b), so
    that `x < threshold` always separates a from b."""
    mid = 0.5 * (a + b)
    return mid if a < mid <= b else b


def _grow_tree(x: np.ndarray, y: np.ndarray, cfg: GbtConfig,
               order: np.ndarray) -> tuple[Tree, np.ndarray]:
    """Grow one tree on (x, y), depth first; also return the value of the
    leaf that each training row reached. `order` is the stable argsort of
    `x` by columns; each node's block of it is split stably into its
    children's, so no node sorts `x` again."""
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # per node: feature, threshold, left, right, value
    fitted = np.empty(len(y))
    left = np.zeros(len(y), dtype=bool)  # marks one node's left rows at a time
    # (node, its rows as [d, m] ids sorted within each feature, depth); a
    # node that will not be scanned carries its rows in one feature's order.
    stack = [(0, np.ascontiguousarray(order.T), 0)]

    def scanned(m, depth):
        return depth < cfg.max_depth and m >= 2 * cfg.min_leaf

    while stack:
        node, block, depth = stack.pop()
        rows = np.sort(block[0])
        value = nodes[node][4] = float(y[rows].sum() / len(rows))  # bit-equal to y[rows].mean()
        split = None
        if scanned(len(rows), depth):
            split = best_split(x, y, cfg.min_leaf, block.T)
        if split is None:
            fitted[rows] = value
            continue
        _, j, thr = split
        col = block[j]
        k = int(x[col, j].searchsorted(thr))  # rows with x < thr lead `col`
        scan_lo, scan_hi = scanned(k, depth + 1), scanned(len(col) - k, depth + 1)
        if scan_lo or scan_hi:
            left[col[:k]] = True
            goes_left = left[block]
            left[col[:k]] = False
        lo, hi = len(nodes), len(nodes) + 1
        nodes[node][:4] = j, float(thr), lo, hi
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        # Compressing each feature's row keeps it sorted; ties stay in row order.
        d = len(block)
        stack.append((hi, block[~goes_left].reshape(d, -1) if scan_hi else col[None, k:],
                      depth + 1))
        stack.append((lo, block[goes_left].reshape(d, -1) if scan_lo else col[None, :k],
                      depth + 1))
    return Tree(*(np.array(column) for column in zip(*nodes))), fitted


def gbt_fit(x: np.ndarray, y: np.ndarray, cfg: GbtConfig = GbtConfig()) -> GbtModel:
    """Fit a least-squares boosted ensemble to squared-error residuals. Each
    feature column is sorted once; every tree reuses that order."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 2:
        raise SchemaError("gbt_fit needs at least 2 rows")
    if x.ndim != 2 or x.shape[0] != len(y) or x.shape[1] < 1:
        raise SchemaError(f"gbt_fit needs one row of at least one feature per target, "
                          f"got x of shape {x.shape} for {len(y)} targets")
    model = GbtModel(config=cfg, init_value=float(y.mean()))
    order = np.argsort(x, axis=0, kind="stable")
    pred = np.full(len(y), model.init_value)
    for _ in range(cfg.n_trees):
        tree, fitted = _grow_tree(x, y - pred, cfg, order)
        model.trees.append(tree)
        pred = pred + cfg.learning_rate * fitted
        model.train_mse.append(float(np.mean((y - pred) ** 2)))
    return model


def gbt_predict(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Predict each row by walking it down every tree, adding
    `learning_rate * leaf value` to `init_value` in tree order."""
    lr = model.config.learning_rate
    out = []
    for row in np.atleast_2d(np.asarray(x, dtype=np.float64)).tolist():
        pred = model.init_value
        for feature, threshold, left, right, value in model.trees:
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] < threshold[node] else right[node]
            pred = pred + lr * value[node]
        out.append(pred)
    return np.array(out, dtype=np.float64)
