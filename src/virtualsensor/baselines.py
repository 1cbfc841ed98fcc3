"""Non-graph comparator models: MLP, 1-D CNN, and least-squares gradient
boosted regression trees. Each baseline sees only the node's own row of the
same standardized, finite features the graph model reads, so the comparison
isolates neighbor aggregation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SchemaError
from .nncore import Var, dropout, glorot_uniform


class _FlatConfig:
    """Model-kind hooks shared by the baseline configs: JSON (de)serialization
    of flat dataclass fields (lists come back as tuples)."""

    trains_by_gradient = True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


# ---------------------------------------------------------------------------
# MLP: 2 dense layers, dropout(0.5), 2 more dense layers.


@dataclass(frozen=True)
class MlpConfig(_FlatConfig):
    hidden: tuple[int, int, int] = (64, 64, 32)
    dropout: float = 0.5
    seed: int = 0

    def init_params(self, in_dim: int, rng: np.random.Generator) -> dict:
        dims = [in_dim, *self.hidden, 1]
        params = {}
        for i, (a, b) in enumerate(zip(dims, dims[1:]), start=1):
            params[f"fc{i}.w"] = glorot_uniform(rng, a, b)
            params[f"fc{i}.b"] = np.zeros((1, b))
        return params

    def predict(self, pvars: dict, g, feats: np.ndarray, nodes: np.ndarray, mode: str,
                rng: np.random.Generator) -> Var:
        return mlp_forward_batch(pvars, self, feats[nodes], mode=mode, rng=rng)


def mlp_forward_batch(pvars: dict, cfg: MlpConfig, x: np.ndarray, mode: str = "eval",
                      rng: np.random.Generator | None = None) -> Var:
    h = Var(x)
    h = (h @ pvars["fc1.w"] + pvars["fc1.b"]).relu()
    h = (h @ pvars["fc2.w"] + pvars["fc2.b"]).relu()
    h = dropout(h, cfg.dropout, mode, rng=rng)
    h = (h @ pvars["fc3.w"] + pvars["fc3.b"]).relu()
    out = h @ pvars["fc4.w"] + pvars["fc4.b"]
    return out.reshape(out.shape[0])


# ---------------------------------------------------------------------------
# CNN: 2 1-D convolutions over the feature vector, dropout(0.5), 2 dense.


@dataclass(frozen=True)
class CnnConfig(_FlatConfig):
    channels: int = 8
    kernel: int = 3
    dense_hidden: int = 32
    dropout: float = 0.5
    seed: int = 0

    def init_params(self, in_dim: int, rng: np.random.Generator) -> dict:
        if self.kernel > in_dim:
            raise SchemaError("convolution kernel wider than the feature vector")
        c = self.channels
        return {
            "conv1.w": glorot_uniform(rng, self.kernel * 1, c),
            "conv1.b": np.zeros((1, c)),
            "conv2.w": glorot_uniform(rng, self.kernel * c, c),
            "conv2.b": np.zeros((1, c)),
            "fc1.w": glorot_uniform(rng, in_dim * c, self.dense_hidden),
            "fc1.b": np.zeros((1, self.dense_hidden)),
            "fc2.w": glorot_uniform(rng, self.dense_hidden, 1),
            "fc2.b": np.zeros((1, 1)),
        }

    def predict(self, pvars: dict, g, feats: np.ndarray, nodes: np.ndarray, mode: str,
                rng: np.random.Generator) -> Var:
        return cnn_forward_batch(pvars, self, feats[nodes], mode=mode, rng=rng)


def _conv1d(x: Var, w: Var, b: Var, kernel: int, c_in: int) -> Var:
    """Same-length stride-1 convolution; x is [B, L, c_in], w is
    [kernel*c_in, c_out] holding one [c_in, c_out] block per tap."""
    pad = kernel // 2
    padded = x.pad_axis(1, pad, kernel - 1 - pad)
    length = x.shape[1]
    out = None
    for j in range(kernel):
        window = padded.slice_axis(1, j, j + length)  # [B, L, c_in]
        tap = w.slice_axis(0, j * c_in, (j + 1) * c_in)  # [c_in, c_out]
        term = window @ tap
        out = term if out is None else out + term
    return out + b


def cnn_forward_batch(pvars: dict, cfg: CnnConfig, x: np.ndarray, mode: str = "eval",
                      rng: np.random.Generator | None = None) -> Var:
    n, d = x.shape
    h = Var(x.reshape(n, d, 1))
    h = _conv1d(h, pvars["conv1.w"], pvars["conv1.b"], cfg.kernel, 1).relu()
    h = _conv1d(h, pvars["conv2.w"], pvars["conv2.b"], cfg.kernel, cfg.channels)
    h = dropout(h, cfg.dropout, mode, rng=rng)
    h = h.relu().reshape(n, d * cfg.channels)
    h = (h @ pvars["fc1.w"] + pvars["fc1.b"]).relu()
    out = h @ pvars["fc2.w"] + pvars["fc2.b"]
    return out.reshape(n)


# ---------------------------------------------------------------------------
# Gradient boosted regression trees (least-squares boosting).


@dataclass(frozen=True)
class GbtConfig(_FlatConfig):
    n_trees: int = 100
    max_depth: int = 4
    learning_rate: float = 0.1
    min_leaf: int = 1

    trains_by_gradient = False  # fitted in one pass by `fit`; no parameter checkpoint

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GbtModel":
        return gbt_fit(x, y, self)

    def predict(self, model: "GbtModel", g, feats: np.ndarray, nodes: np.ndarray, mode: str,
                rng: np.random.Generator) -> Var:
        return Var(gbt_predict(model, feats[nodes]))


@dataclass
class TreeNode:
    value: float
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


@dataclass
class GbtModel:
    config: GbtConfig
    init_value: float
    trees: list[TreeNode] = field(default_factory=list)
    train_mse: list[float] = field(default_factory=list)  # after each tree


def best_split(x: np.ndarray, y: np.ndarray, min_leaf: int = 1):
    """Exhaustive least-squares split search over all features.

    Returns (gain, feature, threshold) with gain measured as the reduction
    in sum of squared errors, or None when no split helps.
    """
    n, d = x.shape
    total = y.sum()
    base = total * total / n
    best = None
    for j in range(d):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] == xs[i + 1]:
                continue
            lcnt, rcnt = i + 1, n - i - 1
            lsum = csum[i]
            rsum = total - lsum
            gain = lsum * lsum / lcnt + rsum * rsum / rcnt - base
            if gain > 1e-12 and (best is None or gain > best[0]):
                best = (gain, j, 0.5 * (xs[i] + xs[i + 1]))
    return best


def _grow_tree(x: np.ndarray, y: np.ndarray, depth: int, cfg: GbtConfig) -> TreeNode:
    node = TreeNode(value=float(y.mean()))
    if depth >= cfg.max_depth or len(y) < 2 * cfg.min_leaf:
        return node
    split = best_split(x, y, cfg.min_leaf)
    if split is None:
        return node
    _, j, thr = split
    mask = x[:, j] < thr
    node.feature = j
    node.threshold = thr
    node.left = _grow_tree(x[mask], y[mask], depth + 1, cfg)
    node.right = _grow_tree(x[~mask], y[~mask], depth + 1, cfg)
    return node


def _tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    stack = [(node, np.arange(len(x)))]
    while stack:
        cur, idx = stack.pop()
        if cur.feature < 0:
            out[idx] = cur.value
            continue
        mask = x[idx, cur.feature] < cur.threshold
        stack.append((cur.left, idx[mask]))
        stack.append((cur.right, idx[~mask]))
    return out


def gbt_fit(x: np.ndarray, y: np.ndarray, cfg: GbtConfig = GbtConfig()) -> GbtModel:
    """Fit a least-squares boosted ensemble to squared-error residuals."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 2:
        raise SchemaError("gbt_fit needs at least 2 rows")
    model = GbtModel(config=cfg, init_value=float(y.mean()))
    pred = np.full(len(y), model.init_value)
    for _ in range(cfg.n_trees):
        residual = y - pred
        tree = _grow_tree(x, residual, 0, cfg)
        model.trees.append(tree)
        pred = pred + cfg.learning_rate * _tree_predict(tree, x)
        model.train_mse.append(float(np.mean((y - pred) ** 2)))
    return model


def gbt_predict(model: GbtModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    pred = np.full(len(x), model.init_value)
    for tree in model.trees:
        pred = pred + model.config.learning_rate * _tree_predict(tree, x)
    return pred
