"""Baseline models: MLP, 1-D CNN, and least-squares gradient boosting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor.baselines import (
    CnnConfig,
    GbtConfig,
    MlpConfig,
    _grow_tree,
    _split_threshold,
    best_split,
    cnn_forward_batch,
    gbt_fit,
    gbt_predict,
    mlp_forward_batch,
)
from virtualsensor.errors import SchemaError
from virtualsensor.nncore import initialize, mse_loss, wrap_params

from probes import grad_check, reference_gbt_predict, reference_grow_tree


# ---------------------------------------------------------------- MLP


def test_mlp_param_shapes():
    cfg = MlpConfig(hidden=(64, 64, 32))
    p = initialize(cfg.param_shapes(19), np.random.default_rng(0))
    assert p["fc1.w"].shape == (19, 64)
    assert p["fc2.w"].shape == (64, 64)
    assert p["fc3.w"].shape == (64, 32)
    assert p["fc4.w"].shape == (32, 1)
    assert all(v.ndim == 2 for v in p.values())


def test_mlp_eval_deterministic():
    cfg = MlpConfig()
    p = initialize(cfg.param_shapes(19), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 19))
    a = mlp_forward_batch(wrap_params(p), cfg, x).value
    b = mlp_forward_batch(wrap_params(p), cfg, x).value
    assert np.array_equal(a, b)
    assert a.shape == (4,)


def test_mlp_dropout_only_in_train_mode():
    # A training step that drops out gets a mask; an eval step gets none.
    cfg = MlpConfig()
    p = initialize(cfg.param_shapes(10), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(8, 10))
    ev = mlp_forward_batch(wrap_params(p), cfg, x).value
    keep = np.random.default_rng(2).random((8, cfg.hidden[1])) >= cfg.dropout
    tr = mlp_forward_batch(wrap_params(p), cfg, x, keep).value
    assert not np.allclose(ev, tr)


def test_mlp_gradients():
    cfg = MlpConfig(hidden=(5, 5, 4))
    rng = np.random.default_rng(0)
    p = initialize(cfg.param_shapes(6), rng)
    p = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in p.items()}
    x = rng.normal(size=(7, 6))
    y = rng.normal(size=7)

    def f(pv):  # a freshly seeded generator draws the same dropout mask each call
        keep = np.random.default_rng(7).random((7, cfg.hidden[1])) >= cfg.dropout
        return mse_loss(mlp_forward_batch(pv, cfg, x, keep), y)

    assert grad_check(f, p) < 1e-4


# ---------------------------------------------------------------- CNN


def test_cnn_param_shapes():
    cfg = CnnConfig(channels=8, kernel=3, dense_hidden=32)
    p = initialize(cfg.param_shapes(19), np.random.default_rng(0))
    assert p["conv1.w"].shape == (3, 8)  # kernel taps stacked over 1 input channel
    assert p["conv2.w"].shape == (24, 8)
    assert p["fc1.w"].shape == (19 * 8, 32)
    assert p["fc2.w"].shape == (32, 1)


@pytest.mark.parametrize("cls", [MlpConfig, CnnConfig])
@pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
def test_flat_configs_reject_dropout_outside_unit_interval(cls, rate):
    with pytest.raises(SchemaError, match="dropout"):
        cls(dropout=rate)


def test_cnn_kernel_wider_than_input_rejected():
    with pytest.raises(SchemaError):
        initialize(CnnConfig(kernel=25).param_shapes(19), np.random.default_rng(0))


def test_cnn_eval_deterministic():
    cfg = CnnConfig()
    p = initialize(cfg.param_shapes(19), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(5, 19))
    a = cnn_forward_batch(wrap_params(p), cfg, x).value
    b = cnn_forward_batch(wrap_params(p), cfg, x).value
    assert np.array_equal(a, b)
    assert a.shape == (5,)


def test_cnn_convolution_is_translation_local():
    # Zero conv weights except the center tap identity: the network's first
    # conv layer then passes features straight through.
    cfg = CnnConfig(channels=1, kernel=3, dense_hidden=2)
    p = initialize(cfg.param_shapes(4), np.random.default_rng(0))
    p["conv1.w"] = np.array([[0.0], [1.0], [0.0]])  # taps: left, center, right
    p["conv1.b"] = np.zeros((1, 1))
    p["conv2.w"] = np.array([[0.0], [1.0], [0.0]])
    p["conv2.b"] = np.zeros((1, 1))
    p["fc1.w"] = np.eye(4)[:, :2]
    p["fc1.b"] = np.zeros((1, 2))
    p["fc2.w"] = np.array([[1.0], [0.0]])
    p["fc2.b"] = np.zeros((1, 1))
    x = np.array([[3.0, -1.0, 2.0, 0.5]])
    out = cnn_forward_batch(wrap_params(p), cfg, x).value
    # relu(conv) twice keeps positives; fc1 picks column 0 -> relu(3.0)
    assert out[0] == pytest.approx(3.0)


def test_cnn_gradients():
    cfg = CnnConfig(channels=3, kernel=3, dense_hidden=4)
    rng = np.random.default_rng(0)
    p = initialize(cfg.param_shapes(6), rng)
    p = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in p.items()}
    x = rng.normal(size=(4, 6))
    y = rng.normal(size=4)

    def f(pv):  # a freshly seeded generator draws the same dropout mask each call
        keep = np.random.default_rng(7).random((4, 6, 3)) >= cfg.dropout
        return mse_loss(cnn_forward_batch(pv, cfg, x, keep), y)

    assert grad_check(f, p) < 1e-4


# ---------------------------------------------------------------- GBT splits


def test_best_split_depth1_oracle():
    # Exhaustive oracle on a tiny dataset: compare against brute force over
    # every midpoint candidate in every feature.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)

    def brute_force():
        n = len(y)
        best = None
        for j in range(3):
            for thr in np.unique(x[:, j]):
                mask = x[:, j] < thr
                nl, nr = mask.sum(), n - mask.sum()
                if nl == 0 or nr == 0:
                    continue
                sse_split = ((y[mask] - y[mask].mean()) ** 2).sum() + (
                    (y[~mask] - y[~mask].mean()) ** 2
                ).sum()
                gain = ((y - y.mean()) ** 2).sum() - sse_split
                if best is None or gain > best[0]:
                    best = (gain, j, thr)
        return best

    got = best_split(x, y)
    want = brute_force()
    assert got is not None
    assert got[0] == pytest.approx(want[0], rel=1e-9)
    assert got[1] == want[1]
    # thresholds differ in convention (midpoint vs exact value) but must
    # induce the same partition
    assert np.array_equal(x[:, got[1]] < got[2], x[:, want[1]] < want[2])


def test_best_split_constant_target_returns_none():
    x = np.random.default_rng(0).normal(size=(10, 2))
    assert best_split(x, np.full(10, 3.0)) is None


def test_best_split_constant_feature_returns_none():
    x = np.ones((10, 1))
    y = np.arange(10.0)
    assert best_split(x, y) is None


def test_best_split_respects_min_leaf():
    x = np.arange(10.0).reshape(-1, 1)
    y = np.array([0.0] * 9 + [100.0])  # best unconstrained split isolates one row
    got = best_split(x, y, min_leaf=3)
    assert got is not None
    mask = x[:, got[1]] < got[2]
    assert mask.sum() >= 3 and (~mask).sum() >= 3


def test_best_split_perfect_step():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    gain, j, thr = best_split(x, y)
    assert j == 0
    assert thr == pytest.approx(1.5)
    assert gain == pytest.approx(16.0)  # SSE drops from 16 to 0


def test_best_split_between_adjacent_doubles_separates_them():
    # 0.5 * (a + b) rounds to a when b = nextafter(a); the threshold is then b.
    a = 1.0
    b = np.nextafter(a, 2.0)
    gain, j, thr = best_split(np.array([[a], [b]]), np.array([0.0, 1.0]))
    assert (j, thr) == (0, b) and a < thr <= b


def test_gbt_split_between_adjacent_doubles_leaves_no_empty_leaf():
    a = 1.0
    b = 1.0 + 2.0**-52
    x = np.array([[a, 0.0], [a, 0.0], [a, 5.0], [b, 5.0], [a, 5.0], [b, 5.0]])
    y = np.array([0.0, 0.0, 10.0, 12.0, 10.0, 12.0])
    model = gbt_fit(x, y, GbtConfig(n_trees=1, max_depth=2))
    (tree,) = model.trees
    assert np.all(np.isfinite(tree[4]))
    assert np.all(np.isfinite(gbt_predict(model, np.array([[0.5, 5.0], [2.0, 5.0]]))))


def _best_split_reference(x, y, min_leaf=1):
    """The per-feature, per-row split scan that `best_split` vectorises; it
    must agree with it bit for bit, ties included."""
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
                best = (gain, j, _split_threshold(xs[i], xs[i + 1]))
    return best


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_best_split_matches_reference_scan(seed, n, d, min_leaf):
    # Coarse rounding makes equal feature values, equal gains and duplicate
    # columns common, so the tie rule and the equal-neighbour skip are exercised.
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, d)), 0)
    x[:, rng.integers(d)] = x[:, 0]
    y = np.round(rng.normal(size=n), 0)
    got = best_split(x, y, min_leaf)
    want = _best_split_reference(x, y, min_leaf)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (float(got[0]).hex(), got[1], float(got[2]).hex()) == (
            float(want[0]).hex(), want[1], float(want[2]).hex())


def _split_hex(split):
    return None if split is None else (float(split[0]).hex(), split[1], float(split[2]).hex())


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=60),
       st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_presorted_grower_matches_reference(seed, n, d, min_leaf, max_depth):
    # The grower sorts x once and splits each node's sorted block into its
    # children's; the reference sorts every node's rows afresh. Coarse
    # rounding makes equal values, and so ties in the sort, common.
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, d)), 0)
    y = np.round(rng.normal(size=n), 1)
    cfg = GbtConfig(max_depth=max_depth, min_leaf=min_leaf)
    ids = np.argsort(x, axis=0, kind="stable").T  # each feature's rows in sorted order
    tree, fitted = _grow_tree(x, y, cfg, (ids, x[ids, np.arange(d)[:, None]]))
    want_tree, want_fitted = reference_grow_tree(x, y, cfg)
    for got, want in zip(map(np.array, tree), want_tree, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert fitted.tobytes() == want_fitted.tobytes()
    # gbt_fit sorts x itself and grows its first tree on the residual from the mean.
    first = gbt_fit(x, y, GbtConfig(n_trees=1, max_depth=max_depth, min_leaf=min_leaf)).trees[0]
    want_first = reference_grow_tree(x, y - float(y.mean()), cfg)[0]
    for got, want in zip(map(np.array, first), want_first, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # A presorted block of a random row subset scans like the subset itself.
    member = np.zeros(n, dtype=bool)
    member[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = True
    block = np.stack([column[member[column]] for column in ids])
    rows = np.flatnonzero(member)
    node = (block, x[block, np.arange(d)[:, None]], y[rows].sum())
    assert _split_hex(best_split(x, y, min_leaf, node)) == _split_hex(
        best_split(x[rows], y[rows], min_leaf))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_gbt_fit_matches_reference_booster(seed, n, d, n_trees, max_depth, min_leaf):
    # Every tree, not only the first, is grown on the residual the same
    # boosting loop leaves, by the grower that sorts each node afresh.
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, d)), 0)
    y = np.round(rng.normal(size=n), 1)
    cfg = GbtConfig(n_trees=n_trees, max_depth=max_depth, learning_rate=0.3, min_leaf=min_leaf)
    model = gbt_fit(x, y, cfg)
    pred, want_mse = np.full(n, float(y.mean())), []
    assert len(model.trees) == n_trees
    for tree in model.trees:
        want_tree, fitted = reference_grow_tree(x, y - pred, cfg)
        for got, want in zip(map(np.array, tree), want_tree, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pred = pred + cfg.learning_rate * fitted
        want_mse.append(float(np.mean((y - pred) ** 2)))
    assert [v.hex() for v in model.train_mse] == [v.hex() for v in want_mse]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_gbt_predict_matches_reference_walk(seed, n, d, n_trees, max_depth):
    # Fitted on whole numbers, every threshold is a whole number or a half;
    # predicted on halves, many rows sit exactly on a threshold.
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, d)), 0)
    y = np.round(rng.normal(size=n), 1)
    model = gbt_fit(x, y, GbtConfig(n_trees=n_trees, max_depth=max_depth, learning_rate=0.3))
    rows = np.round(2 * rng.normal(size=(int(rng.integers(1, 12)), d))) / 2
    for probe in (rows, rows[0], x):
        assert gbt_predict(model, probe).tobytes() == reference_gbt_predict(model, probe).tobytes()


# ---------------------------------------------------------------- GBT boosting


def test_gbt_pinned_bytes():
    # Values computed with the recursive-tree implementation this one
    # replaced; any change in split choice, leaf value or summation order
    # moves them.
    rng = np.random.default_rng(2024)
    x = np.round(rng.normal(size=(64, 4)), 1)
    y = x[:, 0] - 0.5 * x[:, 1] ** 2 + np.round(rng.normal(size=64), 1)
    model = gbt_fit(x, y, GbtConfig(n_trees=8, max_depth=3, learning_rate=0.3, min_leaf=2))
    assert [v.hex() for v in model.train_mse] == [
        "0x1.7ddfa63c74fb6p+0", "0x1.189451989dc30p+0", "0x1.b28e7e46ebe74p-1",
        "0x1.5b2530afbbd7ep-1", "0x1.2a3fceb3900f0p-1", "0x1.fd88dddfe5faap-2",
        "0x1.c229b8b4066a0p-2", "0x1.a5fc01b9837bcp-2",
    ]
    xt = np.round(rng.normal(size=(4, 4)), 1)
    batch = [float(v).hex() for v in gbt_predict(model, xt)]
    assert batch == ["-0x1.12230d8c3e5dbp-2", "-0x1.cda9ceb9bdda0p-9",
                     "0x1.1d4fe0dfebdfbp+0", "-0x1.2ce78828edb5bp+0"]
    assert [float(v).hex() for v in gbt_predict(model, xt[0])] == batch[:1]


@pytest.mark.parametrize("bad", [
    {"min_leaf": 0}, {"max_depth": -1}, {"n_trees": -1}, {"learning_rate": -0.1},
    {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
])
def test_gbt_config_rejects_bad_values(bad):
    with pytest.raises(SchemaError):
        GbtConfig(**bad)


def test_gbt_zero_trees_predicts_the_mean():
    x = np.random.default_rng(0).normal(size=(6, 2))
    y = np.arange(6.0)
    model = gbt_fit(x, y, GbtConfig(n_trees=0, max_depth=0))
    assert model.trees == [] and model.train_mse == []
    assert np.array_equal(gbt_predict(model, x), np.full(6, 2.5))


def test_gbt_training_mse_non_increasing():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(80, 5))
        y = x[:, 0] * 2 + np.sin(x[:, 1]) + 0.1 * rng.normal(size=80)
        model = gbt_fit(x, y, GbtConfig(n_trees=100))
        mse = np.array(model.train_mse)
        assert len(mse) == 100
        assert np.all(np.diff(mse) <= 1e-12)


def test_gbt_overfits_small_data():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    model = gbt_fit(x, y, GbtConfig(n_trees=100, max_depth=4, learning_rate=0.3))
    assert model.train_mse[-1] < 0.05 * y.var()


def test_gbt_constant_target():
    x = np.random.default_rng(0).normal(size=(10, 2))
    model = gbt_fit(x, np.full(10, 7.0))
    assert model.init_value == pytest.approx(7.0)
    assert np.allclose(gbt_predict(model, x), 7.0)


def test_gbt_predict_matches_training_trajectory():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    model = gbt_fit(x, y, GbtConfig(n_trees=20))
    pred = gbt_predict(model, x)
    assert np.mean((y - pred) ** 2) == pytest.approx(model.train_mse[-1], rel=1e-9)


def test_gbt_needs_two_rows():
    with pytest.raises(SchemaError):
        gbt_fit(np.zeros((1, 2)), np.zeros(1))


@pytest.mark.parametrize("shape", [(4, 0), (3, 2), (4,), (4, 2, 1)])
def test_gbt_needs_one_row_of_features_per_target(shape):
    with pytest.raises(SchemaError, match="one row of at least one feature per target"):
        gbt_fit(np.zeros(shape), np.arange(4.0))


def test_gbt_predict_single_row():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = gbt_fit(x, y, GbtConfig(n_trees=5))
    one = gbt_predict(model, x[0])
    assert one.shape == (1,)
    assert one[0] == pytest.approx(gbt_predict(model, x)[0])


@pytest.mark.parametrize("rows", [np.zeros((2, 2)), np.zeros((1, 4)), np.zeros(2), np.zeros(4),
                                  np.zeros((1, 1, 3)), np.zeros((0, 2))])
def test_gbt_predict_rejects_rows_of_another_width(rows):
    x = np.random.default_rng(4).normal(size=(12, 3))
    model = gbt_fit(x, x[:, 0], GbtConfig(n_trees=3))
    with pytest.raises(SchemaError, match="3 features"):
        gbt_predict(model, rows)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gbt_predict_rejects_non_finite_rows(bad):
    x = np.random.default_rng(5).normal(size=(12, 3))
    model = gbt_fit(x, x[:, 0], GbtConfig(n_trees=3))
    rows = x[:2].copy()
    rows[1, 2] = bad
    with pytest.raises(SchemaError, match="finite"):
        gbt_predict(model, rows)
    assert gbt_predict(model, x[:0]).shape == (0,)


@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gbt_fit_rejects_non_finite_rows(where, bad):
    # A NaN feature used to fit a NaN threshold with train_mse [0.0], and an
    # infinite target NaN residuals.
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    (x if where == "x" else y)[2:] = bad
    with pytest.raises(SchemaError, match="finite"):
        gbt_fit(x, y, GbtConfig(n_trees=1))


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_gbt_monotone_mse_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    model = gbt_fit(x, y, GbtConfig(n_trees=15))
    assert np.all(np.diff(model.train_mse) <= 1e-12)
